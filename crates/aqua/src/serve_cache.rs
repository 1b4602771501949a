//! The answer cache: normalized SQL text → complete served answer.
//!
//! The serving bottleneck is not answer *cost* but per-query overhead:
//! even with the plan cache skipping parse + rewrite-render, every
//! `answer_sql` call still pays the plan execution and the per-group
//! bounds assembly. Dashboard workloads replay a small set of query
//! strings against a synopsis that only changes on ingest, so the whole
//! [`ApproximateAnswer`] is memoizable. Entries are shared `Arc`s — a
//! hit is one shard read-lock, one hash probe, and one refcount bump.
//!
//! Consistency: inserts happen while the owning [`Aqua`](crate::Aqua)
//! holds its synopsis *read* lock, and every mutation (ingest / refresh /
//! rebuild) clears the cache while holding the *write* lock — so an
//! entry computed against generation G can never survive into generation
//! G+1, and a hit always equals what recomputing against the current
//! synopsis would return. Within a generation the cache holds at most
//! 8 × [`engine::plan_cache::SHARD_CAP`] answers, so a stream of distinct
//! SQL texts evicts instead of growing it without limit.

use crate::answer::ApproximateAnswer;

/// A complete serving result: the approximate answer plus the rewritten
/// SQL the configured strategy would send a back-end DBMS.
#[derive(Debug, Clone)]
pub struct ServedAnswer {
    /// The approximate answer with per-group bounds.
    pub answer: ApproximateAnswer,
    /// Rewritten SQL (Figures 8–11) for the active rewrite strategy;
    /// empty for degraded-mode exact answers, which bypass the rewrite.
    pub rewritten: String,
}

/// Normalized SQL → [`ServedAnswer`]: the plan cache's bounded sharded map
/// ([`engine::SqlCache`], at most [`engine::plan_cache::SHARD_CAP`]
/// entries per shard). First insert wins — under a race both answers are
/// bit-identical anyway (same plan, same synopsis generation), so keeping
/// the earlier `Arc` is free.
pub type AnswerCache = engine::SqlCache<ServedAnswer>;

/// Point-in-time [`AnswerCache`] counters.
pub type AnswerCacheStats = engine::SqlCacheStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerProvenance;
    use engine::QueryResult;
    use std::sync::Arc;

    fn served(tag: &str) -> Arc<ServedAnswer> {
        Arc::new(ServedAnswer {
            answer: ApproximateAnswer {
                result: QueryResult::new(vec![tag.to_string()], Vec::new()),
                bounds: Vec::new(),
                confidence: 0.9,
                provenance: AnswerProvenance::Sampled,
            },
            rewritten: tag.to_string(),
        })
    }

    #[test]
    fn miss_insert_hit_and_invalidate() {
        let c = AnswerCache::new();
        assert!(c.get("k").is_none());
        c.insert("k".into(), served("a"));
        assert_eq!(c.get("k").unwrap().rewritten, "a");
        assert_eq!(c.len(), 1);
        c.invalidate();
        assert!(c.is_empty());
        assert!(c.get("k").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins_and_shares() {
        let c = AnswerCache::new();
        let first = c.insert("k".into(), served("first"));
        let second = c.insert("k".into(), served("second"));
        assert!(Arc::ptr_eq(&first, &second));
        let hit = c.get("k").unwrap();
        assert!(Arc::ptr_eq(&first, &hit));
    }
}
