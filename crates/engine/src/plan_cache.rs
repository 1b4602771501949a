//! The plan cache: normalized SQL text → parsed + rewritten plan, and
//! the bounded sharded map ([`SqlCache`]) it shares with Aqua's answer
//! cache.
//!
//! The serving path pays three text-shaped costs per `answer_sql` call
//! before any data is touched: tokenize + parse the query, then render
//! the rewritten SQL for the active strategy (the paper's Figures 8–11).
//! Dashboard workloads repeat a small set of query strings, so both costs
//! are cacheable. Keys are [`sql::normalize`](crate::sql::normalize)d
//! text — case, whitespace, and literal formatting folded — so `SELECT
//! Sum(x)…` and `select sum(x)…` share one entry.
//!
//! Like [`QueryCache`](crate::QueryCache), the cache is sharded by key
//! hash and interior-mutable: lookups take one shard read lock, inserts
//! one shard write lock. Plans depend only on the schema and rewrite
//! strategy, both fixed per synopsis, never on the sample's contents — so
//! the owner (Aqua's synopsis) keeps them across ingest, refresh and
//! rebuild and never invalidates this cache. What keeps it from growing
//! with every distinct SQL text ever served is the per-shard entry cap
//! ([`SHARD_CAP`]): a full shard evicts one resident entry per insert.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use serde::{Deserialize, Serialize};

use crate::query::GroupByQuery;

const SHARDS: usize = 8;

/// Entries one shard holds before an insert evicts: 8 × 512 = 4,096 per
/// cache. Workloads that repeat a working set (dashboards) stay far below
/// it; workloads of ever-new SQL texts would otherwise grow the cache
/// without limit.
pub const SHARD_CAP: usize = 512;

fn shard_of(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// A fully planned query: the parse result plus the rewritten SQL text
/// the strategy would hand a back-end DBMS. Immutable and shared —
/// `answer_sql` clones the `Arc`, never the plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed query (resolved against the base schema).
    pub query: GroupByQuery,
    /// Rewritten SQL for the strategy the plan was cached under.
    pub rewritten: String,
}

/// Sharded map from normalized SQL to a shared `V`, each shard capped at
/// [`SHARD_CAP`] entries, with hit / miss / invalidation / eviction
/// counters (relaxed atomics; counters survive invalidation, entries do
/// not).
#[derive(Debug)]
pub struct SqlCache<V> {
    shards: Vec<RwLock<HashMap<String, Arc<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

/// Normalized SQL → [`CachedPlan`].
pub type PlanCache = SqlCache<CachedPlan>;

/// Point-in-time [`PlanCache`] counters.
pub type PlanCacheStats = SqlCacheStats;

impl<V> Default for SqlCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SqlCache<V> {
    /// An empty cache.
    pub fn new() -> SqlCache<V> {
        SqlCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up an entry by normalized key, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let found = self.shards[shard_of(key)].read().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert `value` under `key`. First insert wins: under a race the
    /// earlier entry is kept and returned, so every caller holding an
    /// entry for `key` holds *the same* `Arc` (equivalence tests compare
    /// plans by pointer). A new key landing in a full shard first evicts
    /// one resident entry, so the shard never exceeds [`SHARD_CAP`].
    pub fn insert(&self, key: String, value: Arc<V>) -> Arc<V> {
        let mut shard = self.shards[shard_of(&key)].write();
        if shard.len() >= SHARD_CAP && !shard.contains_key(&key) {
            let victim = shard.keys().next().cloned();
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Arc::clone(shard.entry(key).or_insert(value))
    }

    /// Drop every entry (counters survive).
    pub fn invalidate(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SqlCacheStats {
        SqlCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Point-in-time [`SqlCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SqlCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Times the cache was cleared.
    pub invalidations: u64,
    /// Entries dropped to keep a full shard at its cap.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
}

impl SqlCacheStats {
    /// Hits over lookups, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;

    fn plan(tag: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            query: GroupByQuery::new(vec![], vec![AggregateSpec::count("count_star")]),
            rewritten: tag.to_string(),
        })
    }

    #[test]
    fn miss_insert_hit_and_invalidate() {
        let c = PlanCache::new();
        assert!(c.get("k").is_none());
        c.insert("k".into(), plan("p1"));
        let got = c.get("k").expect("inserted plan");
        assert_eq!(got.rewritten, "p1");
        assert_eq!(c.len(), 1);

        c.invalidate();
        assert!(c.get("k").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.entries), (1, 2, 1, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins() {
        let c = PlanCache::new();
        let a = c.insert("k".into(), plan("first"));
        let b = c.insert("k".into(), plan("second"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.rewritten, "first");
    }

    #[test]
    fn keys_spread_over_shards_independently() {
        let c = PlanCache::new();
        for i in 0..64 {
            c.insert(format!("key-{i}"), plan("x"));
        }
        assert_eq!(c.len(), 64);
        for i in 0..64 {
            assert!(c.get(&format!("key-{i}")).is_some());
        }
        assert_eq!(c.stats().hits, 64);
    }

    #[test]
    fn full_shards_evict_to_stay_at_the_cap() {
        let c = PlanCache::new();
        let cap = SHARDS * SHARD_CAP;
        let inserted = cap + 1_000;
        for i in 0..inserted {
            let key = format!("key-{i}");
            let got = c.insert(key.clone(), plan(&key));
            // The new entry is resident right after its insert.
            assert_eq!(got.rewritten, key);
            assert!(c.get(&key).is_some());
        }
        assert!(c.len() <= cap);
        assert!(c.shards.iter().all(|s| s.read().len() <= SHARD_CAP));
        let s = c.stats();
        assert_eq!(s.evictions, (inserted - c.len()) as u64);
        assert!(s.evictions >= 1_000);
        // A re-insert of a resident key in a full shard evicts nothing and
        // keeps the first entry.
        let resident = c.shards[0].read().keys().next().cloned().unwrap();
        let kept = c.insert(resident.clone(), plan("second"));
        assert_eq!(kept.rewritten, resident);
        assert_eq!(c.stats().evictions, s.evictions);
    }

    #[test]
    fn working_set_below_the_cap_always_hits() {
        let c = PlanCache::new();
        for i in 0..256 {
            c.insert(format!("key-{i}"), plan("x"));
        }
        for _ in 0..10 {
            for i in 0..256 {
                assert!(c.get(&format!("key-{i}")).is_some());
            }
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2_560, 0, 0));
        assert_eq!(s.hit_rate(), 1.0);
    }
}
