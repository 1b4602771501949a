//! Equivalence and concurrency checks for the cached-summary answer path.
//!
//! The O(groups) fast path serves unfiltered and group-only-predicate
//! queries from per-(group, stratum) aggregate summaries instead of
//! scanning sample rows. These tests pin the contract from ISSUE 4:
//!
//! 1. Summary-served error bounds are *bit-identical* to the scan path
//!    (`compute_bounds` with no cache), cold and warm.
//! 2. Every invalidation trigger — `insert_batch`, `refresh`, `rebuild`,
//!    warehouse logged inserts, warehouse save/open — drops the summaries
//!    so answers never serve stale state, and answers after a round-trip
//!    through persistence are bit-identical to pre-save warm answers.
//! 3. Concurrent readers hammering `Aqua::answer` while a writer ingests
//!    never panic, and post-ingest answers reflect the new rows.

use aqua::answer::{compute_bounds, compute_bounds_cached};
use aqua::{ApproximateAnswer, Aqua, AquaConfig, RewriteChoice, SamplingStrategy, Warehouse};
use congress::MemStore;
use engine::{
    AggregateSpec, ExecOptions, GroupByQuery, Integrated, QueryCache, SamplePlan, StratifiedInput,
};
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

/// Deterministic stratified fixture: `rows` tuples over `strata` strata
/// (stratified on column `g`), mixed scale factors, like the engine's
/// fast-path fixture but sized for bound computations.
fn stratified(rows: usize, strata: usize) -> StratifiedInput {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("h", DataType::Int)
        .column("v", DataType::Float);
    let mut stratum_of_row = Vec::with_capacity(rows);
    let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
    for _ in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) as usize) % strata;
        let h = ((state >> 17) as usize) % 5;
        let v = ((state >> 11) % 10_000) as f64 / 100.0;
        b.push_row(&[Value::Int(g as i64), Value::Int(h as i64), Value::from(v)])
            .unwrap();
        stratum_of_row.push(g as u32);
    }
    StratifiedInput {
        rows: b.finish(),
        stratum_of_row,
        scale_factors: (0..strata).map(|s| 1.0 + (s % 7) as f64 * 0.75).collect(),
        strata_keys: (0..strata)
            .map(|s| GroupKey::new(vec![Value::Int(s as i64)]))
            .collect(),
        grouping_columns: vec![ColumnId(0)],
    }
}

fn bound_queries() -> Vec<GroupByQuery> {
    let v = Expr::col(ColumnId(2));
    vec![
        // Unfiltered group-by: served entirely from summaries.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(v.clone(), "a"),
            ],
        ),
        // Group-only predicate: also summary-served.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::le(ColumnId(0), 6i64)),
        // Secondary grouping with a group-only predicate over it.
        GroupByQuery::new(
            vec![ColumnId(1)],
            vec![
                AggregateSpec::avg(v.clone(), "a"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::ge(ColumnId(1), 1i64)),
        // Min/Max carry no bounds; the fast path must emit the same `None`s.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::min(v.clone(), "mn"),
                AggregateSpec::max(v, "mx"),
            ],
        ),
    ]
}

fn half_widths(bounds: &[aqua::GroupBounds]) -> Vec<(GroupKey, Vec<Option<u64>>)> {
    bounds
        .iter()
        .map(|gb| {
            (
                gb.key.clone(),
                gb.bounds
                    .iter()
                    .map(|b| b.as_ref().map(|e| e.half_width.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn summary_bounds_bit_identical_to_scan_bounds() {
    let input = stratified(12_000, 12);
    let plan = Integrated::build(&input).unwrap();
    let cache = QueryCache::new();
    for q in bound_queries() {
        let result = plan.execute_opts(&q, &ExecOptions::default()).unwrap();
        // Scan path: no cache, masked row scan.
        let scan = compute_bounds(&input, &q, &result, 0.9).unwrap();
        // Summary path, cold (builds the cells) then warm (hits them).
        let cold = compute_bounds_cached(&input, &q, &result, 0.9, Some(&cache)).unwrap();
        let warm = compute_bounds_cached(&input, &q, &result, 0.9, Some(&cache)).unwrap();
        assert!(!scan.is_empty(), "fixture query produced no groups");
        assert_eq!(
            half_widths(&scan),
            half_widths(&cold),
            "scan vs cold summary"
        );
        assert_eq!(
            half_widths(&scan),
            half_widths(&warm),
            "scan vs warm summary"
        );
    }
}

// ---------------------------------------------------------------------------
// Invalidation matrix
// ---------------------------------------------------------------------------

fn sales(n: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("region", DataType::Str)
        .column("amount", DataType::Float);
    for i in 0..n {
        let region = match i % 10 {
            0 => "east",
            1 | 2 => "south",
            _ => "west",
        };
        b.push_row(&[Value::str(region), Value::from((i % 50) as f64)])
            .unwrap();
    }
    b.finish()
}

fn config(rewrite: RewriteChoice) -> AquaConfig {
    AquaConfig {
        space: 150,
        strategy: SamplingStrategy::Congress,
        rewrite,
        confidence: 0.9,
        seed: 7,
        parallelism: 0,
    }
}

/// An unfiltered query plus a group-only-predicate query — both served by
/// the summary fast path, so both must observe every invalidation.
fn probe_queries() -> Vec<GroupByQuery> {
    let amount = Expr::col(ColumnId(1));
    vec![
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(amount.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        ),
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::eq(ColumnId(0), Value::str("north"))),
    ]
}

fn answers(aqua: &Aqua) -> Vec<ApproximateAnswer> {
    probe_queries()
        .iter()
        .map(|q| aqua.answer(q).unwrap())
        .collect()
}

#[test]
fn summaries_invalidated_by_every_trigger() {
    let north = GroupKey::new(vec![Value::str("north")]);
    for rewrite in RewriteChoice::all() {
        let aqua = Aqua::build(sales(2_000), vec![ColumnId(0)], config(rewrite)).unwrap();
        // Warm all summary tables.
        let warm = answers(&aqua);
        for (a, b) in warm.iter().zip(answers(&aqua).iter()) {
            assert_eq!(
                a.result,
                b.result,
                "{}: warm repeat drifted",
                rewrite.name()
            );
            assert_eq!(
                half_widths(&a.bounds),
                half_widths(&b.bounds),
                "{}: warm bounds drifted",
                rewrite.name()
            );
        }
        assert!(warm[0].result.get(&north).is_none());
        assert!(warm[1].result.get(&north).is_none());

        // insert_batch: new group must surface in both probe queries.
        let rows: Vec<Vec<Value>> = (0..160)
            .map(|i| vec![Value::str("north"), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).unwrap();
        let after_insert = answers(&aqua);
        assert!(
            after_insert[0].result.get(&north).is_some(),
            "{}: insert_batch did not invalidate summaries",
            rewrite.name()
        );
        assert!(
            after_insert[1].result.get(&north).is_some(),
            "{}: group-only predicate served stale summary after insert",
            rewrite.name()
        );

        // refresh: answers stay warm-stable afterwards (fresh summaries).
        aqua.refresh().unwrap();
        let after_refresh = answers(&aqua);
        for (a, b) in after_refresh.iter().zip(answers(&aqua).iter()) {
            assert_eq!(a.result, b.result, "{}: post-refresh drift", rewrite.name());
        }
        assert!(after_refresh[0].result.get(&north).is_some());

        // rebuild: full resample; north must still be present and repeats
        // must stay bit-identical.
        aqua.rebuild().unwrap();
        let after_rebuild = answers(&aqua);
        for (a, b) in after_rebuild.iter().zip(answers(&aqua).iter()) {
            assert_eq!(a.result, b.result, "{}: post-rebuild drift", rewrite.name());
            assert_eq!(
                half_widths(&a.bounds),
                half_widths(&b.bounds),
                "{}: post-rebuild bounds drift",
                rewrite.name()
            );
        }
        assert!(after_rebuild[0].result.get(&north).is_some());
    }
}

#[test]
fn warehouse_roundtrip_preserves_summary_served_answers() {
    let store = MemStore::new();
    let w = Warehouse::new();
    let t = sales(1_800);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config(RewriteChoice::Integrated))
        .unwrap();
    w.save_all(&store).unwrap();

    // Warm the summaries, then push a logged insert through the WAL.
    let warm: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| w.answer("sales", q).unwrap())
        .collect();
    let north = GroupKey::new(vec![Value::str("north")]);
    assert!(warm[0].result.get(&north).is_none());
    let rows: Vec<Vec<Value>> = (0..140)
        .map(|i| vec![Value::str("north"), Value::from(i as f64)])
        .collect();
    w.insert_logged(&store, "sales", &rows).unwrap();
    let after: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| w.answer("sales", q).unwrap())
        .collect();
    assert!(
        after[0].result.get(&north).is_some() && after[1].result.get(&north).is_some(),
        "logged insert must invalidate summary tables"
    );
    // Warm again post-insert, then save and reopen: the recovered warehouse
    // starts from a fresh cache and must reproduce the warm answers
    // (values and bounds) bit-for-bit.
    let warm2: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| w.answer("sales", q).unwrap())
        .collect();
    w.save_all(&store).unwrap();

    let (w2, report) = Warehouse::open(&store, aqua::RecoveryPolicy::Rebuild).unwrap();
    assert!(report.fully_healthy(), "{report:?}");
    for (q, expect) in probe_queries().iter().zip(&warm2) {
        let got = w2.answer("sales", q).unwrap();
        assert_eq!(expect.result, got.result, "reopened answers drifted");
        assert_eq!(
            half_widths(&expect.bounds),
            half_widths(&got.bounds),
            "reopened bounds drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// Concurrency smoke test (loom-free)
// ---------------------------------------------------------------------------

#[test]
fn concurrent_readers_and_ingest_smoke() {
    let aqua = Aqua::build(
        sales(3_000),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    let north = GroupKey::new(vec![Value::str("north")]);
    let queries = probe_queries();

    std::thread::scope(|scope| {
        // 8 readers hammer the summary-served path while one writer ingests.
        for _ in 0..8 {
            scope.spawn(|| {
                for i in 0..60 {
                    let q = &queries[i % queries.len()];
                    let a = aqua.answer(q).unwrap();
                    assert!(a.result.group_count() <= 4, "unexpected groups");
                }
            });
        }
        scope.spawn(|| {
            for batch in 0..6 {
                let rows: Vec<Vec<Value>> = (0..40)
                    .map(|i| vec![Value::str("north"), Value::from((batch * 40 + i) as f64)])
                    .collect();
                aqua.insert_batch(&rows).unwrap();
            }
        });
    });

    // After all ingests, the new group must be visible to both probes.
    for a in answers(&aqua) {
        assert!(
            a.result.get(&north).is_some(),
            "post-ingest answers must reflect the new rows"
        );
    }
}
