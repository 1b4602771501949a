//! The selected-rows bounds sweep against the uncached row fold.
//!
//! A served answer computes its bounds from the selection its own scan
//! built ([`compute_bounds_selected`]), or — without one — from a
//! selection the bounds pass evaluates itself ([`compute_bounds_cached`]).
//! Both sweep only the selected rows; [`compute_bounds`] folds every
//! sample row into hash-map cells and is the oracle. These tests pin every
//! half-width bit for bit across the four rewrites, serial and parallel
//! execution, groupings over strata and non-strata columns, SUM / COUNT /
//! AVG and an expression measure, selectivities from 0.1% to 100% plus an
//! empty selection, random range predicates, and the serving path
//! ([`Aqua::answer_sql_shared`]) against the standalone call the serving
//! benchmark's replica makes.

use aqua::answer::{compute_bounds, compute_bounds_cached, compute_bounds_selected};
use aqua::{Aqua, AquaConfig, GroupBounds, RewriteChoice, SamplingStrategy, Synopsis};
use engine::{
    AggregateSpec, ExecOptions, GroupByQuery, Integrated, KeyNormalized, NestedIntegrated,
    Normalized, QueryCache, SamplePlan, StratifiedInput,
};
use std::sync::OnceLock;

use proptest::prelude::*;
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

const G: ColumnId = ColumnId(0);
const H: ColumnId = ColumnId(1);
const K: ColumnId = ColumnId(2);
const V: ColumnId = ColumnId(3);
const ID: ColumnId = ColumnId(4);

/// `rows` tuples stratified on `(g, h)` (6 × 4 = 24 strata, mixed scale
/// factors); `k` is a non-strata column, `v` the measure and `id` a
/// scrambled row id, so `id <= t` selects a spread-out `(t + 1) / rows`
/// share of the sample.
fn stratified(rows: usize) -> StratifiedInput {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("h", DataType::Int)
        .column("k", DataType::Int)
        .column("v", DataType::Float)
        .column("id", DataType::Int);
    let mut stratum_of_row = Vec::with_capacity(rows);
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) % 6) as i64;
        let h = ((state >> 21) % 4) as i64;
        let k = ((state >> 13) % 9) as i64;
        let v = ((state >> 40) % 100_000) as f64 / 100.0 - 250.0;
        let id = (i * 7919) % rows;
        b.push_row(&[
            Value::Int(g),
            Value::Int(h),
            Value::Int(k),
            Value::from(v),
            Value::Int(id as i64),
        ])
        .unwrap();
        stratum_of_row.push((g * 4 + h) as u32);
    }
    StratifiedInput {
        rows: b.finish(),
        stratum_of_row,
        scale_factors: (0..24).map(|s| 1.0 + (s % 5) as f64 * 1.75).collect(),
        strata_keys: (0..24i64)
            .map(|s| GroupKey::new(vec![Value::Int(s / 4), Value::Int(s % 4)]))
            .collect(),
        grouping_columns: vec![G, H],
    }
}

fn plans(input: &StratifiedInput) -> Vec<Box<dyn SamplePlan>> {
    vec![
        Box::new(Integrated::build(input).unwrap()),
        Box::new(NestedIntegrated::build(input).unwrap()),
        Box::new(Normalized::build(input).unwrap()),
        Box::new(KeyNormalized::build(input).unwrap()),
    ]
}

/// SUM, COUNT, AVG, an expression measure, and MIN (which has no bound).
fn aggregates() -> Vec<AggregateSpec> {
    let v = Expr::col(V);
    vec![
        AggregateSpec::sum(v.clone(), "s"),
        AggregateSpec::count("c"),
        AggregateSpec::avg(v.clone(), "a"),
        AggregateSpec::sum(v.clone().mul(Expr::lit(2.0)).add(Expr::col(K)), "e"),
        AggregateSpec::min(v, "mn"),
    ]
}

/// No grouping, a strata column, every strata column, a non-strata
/// column, and a mix of both.
fn groupings() -> Vec<Vec<ColumnId>> {
    vec![vec![], vec![G], vec![G, H], vec![K], vec![H, K]]
}

/// Predicates off the grouping columns: `id` bands from 0.1% to 100% of
/// the rows, an empty selection, and a `v` range conjoined with a
/// group-column predicate.
fn predicates(rows: usize) -> Vec<Predicate> {
    let mut out: Vec<Predicate> = [0.001, 0.01, 0.1, 0.5, 1.0]
        .iter()
        .map(|f| Predicate::le(ID, (rows as f64 * f) as i64 - 1))
        .collect();
    out.push(Predicate::le(ID, -1i64));
    out.push(Predicate::between(V, 0.0, 300.0).and(Predicate::le(G, 3i64)));
    out
}

fn half_widths(bounds: &[GroupBounds]) -> Vec<(GroupKey, Vec<Option<u64>>)> {
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

/// Every rewrite, serial and parallel: the scan's selection swept by
/// [`compute_bounds_selected`] and the self-evaluated one swept by
/// [`compute_bounds_cached`] both equal the row fold, for every grouping
/// and predicate given.
fn assert_sweep_matches_row_fold(rows: usize, groupings: &[Vec<ColumnId>], preds: &[Predicate]) {
    let input = stratified(rows);
    let plans: Vec<(Box<dyn SamplePlan>, QueryCache)> = plans(&input)
        .into_iter()
        .map(|p| (p, QueryCache::new()))
        .collect();
    for grouping in groupings {
        for pred in preds {
            let q = GroupByQuery::new(grouping.clone(), aggregates()).with_predicate(pred.clone());
            // The bounds depend on the result only through its group keys,
            // which every rewrite produces alike: one oracle per query.
            let mut oracle = None;
            for (plan, cache) in &plans {
                for parallel in [false, true] {
                    let tag = format!(
                        "{} {:?} {:?} parallel={parallel}",
                        plan.name(),
                        q.grouping,
                        q.predicate
                    );
                    let opts = ExecOptions {
                        cache: Some(cache),
                        parallel,
                        ..ExecOptions::default()
                    };
                    let (result, selection) = plan.execute_selected(&q, &opts).unwrap();
                    assert!(
                        selection.is_some(),
                        "{tag}: a scan hands over its selection"
                    );
                    let (keys, oracle) = oracle.get_or_insert_with(|| {
                        let keys: Vec<GroupKey> = result.iter().map(|(k, _)| k.clone()).collect();
                        (
                            keys,
                            half_widths(&compute_bounds(&input, &q, &result, 0.9).unwrap()),
                        )
                    });
                    assert!(result.iter().map(|(k, _)| k).eq(keys.iter()), "{tag}: keys");
                    let served = compute_bounds_selected(
                        &input,
                        &q,
                        &result,
                        0.9,
                        cache,
                        selection.as_ref(),
                    )
                    .unwrap();
                    let own = compute_bounds_cached(&input, &q, &result, 0.9, Some(cache)).unwrap();
                    assert_eq!(*oracle, half_widths(&served), "{tag}");
                    assert_eq!(*oracle, half_widths(&own), "{tag}");
                }
            }
        }
    }
}

#[test]
fn sweep_matches_row_fold_across_rewrites_groupings_and_selectivities() {
    let rows = 2 * relation::CHUNK_ROWS + 4_000;
    assert_sweep_matches_row_fold(rows, &groupings(), &predicates(rows));
}

#[test]
fn sweep_matches_row_fold_when_parallel_aggregation_fans_out() {
    // Nine storage chunks, past the fan-out threshold of eight.
    let rows = 9 * relation::CHUNK_ROWS;
    let preds = predicates(rows);
    assert_sweep_matches_row_fold(
        rows,
        &[vec![], vec![H, K]],
        &[preds[1].clone(), preds[4].clone(), preds[6].clone()],
    );
}

#[test]
fn summary_served_answers_fall_back_to_summary_bounds() {
    // A group-only predicate is answered from cached summaries: the plan
    // hands over no selection and the bounds come from the summary tables.
    let input = stratified(20_000);
    let plan = Integrated::build(&input).unwrap();
    let cache = QueryCache::new();
    let opts = ExecOptions {
        cache: Some(&cache),
        ..ExecOptions::default()
    };
    for pred in [Predicate::True, Predicate::le(G, 2i64)] {
        let q = GroupByQuery::new(vec![G], aggregates()).with_predicate(pred);
        let (result, selection) = plan.execute_selected(&q, &opts).unwrap();
        assert!(selection.is_none(), "{:?}", q.predicate);
        let oracle = compute_bounds(&input, &q, &result, 0.9).unwrap();
        let served =
            compute_bounds_selected(&input, &q, &result, 0.9, &cache, selection.as_ref()).unwrap();
        assert_eq!(half_widths(&oracle), half_widths(&served));
    }
}

/// One 8K-row fixture, plan and cache shared by every proptest case.
fn shared_fixture() -> &'static (StratifiedInput, Integrated, QueryCache) {
    static FIXTURE: OnceLock<(StratifiedInput, Integrated, QueryCache)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let input = stratified(8_000);
        let plan = Integrated::build(&input).unwrap();
        (input, plan, QueryCache::new())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `id` and `v` ranges under a random grouping.
    #[test]
    fn random_range_predicates_match_row_fold(
        id_lo in 0i64..8_000,
        id_span in 0i64..8_000,
        v_lo in -300.0f64..800.0,
        v_span in 0.0f64..1_000.0,
        with_v in proptest::bool::weighted(0.5),
        which in 0usize..5,
    ) {
        let (input, plan, cache) = shared_fixture();
        let mut pred = Predicate::between(ID, id_lo, id_lo + id_span);
        if with_v {
            pred = pred.and(Predicate::between(V, v_lo, v_lo + v_span));
        }
        let q = GroupByQuery::new(groupings()[which].clone(), aggregates()).with_predicate(pred);
        let opts = ExecOptions { cache: Some(cache), ..ExecOptions::default() };
        let (result, selection) = plan.execute_selected(&q, &opts).unwrap();
        let oracle = compute_bounds(input, &q, &result, 0.9).unwrap();
        let served =
            compute_bounds_selected(input, &q, &result, 0.9, cache, selection.as_ref()).unwrap();
        prop_assert_eq!(half_widths(&oracle), half_widths(&served));
    }
}

fn table(rows: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("region", DataType::Str)
        .column("tier", DataType::Int)
        .column("amount", DataType::Float)
        .column("day", DataType::Int);
    for i in 0..rows {
        let region = ["east", "west", "north", "south", "central"][(i % 5) as usize];
        b.push_row(&[
            Value::str(region),
            Value::Int((i * 7) % 3),
            Value::from(((i * 37) % 1_009) as f64 / 4.0),
            Value::Int((i * 13) % 365),
        ])
        .unwrap();
    }
    b.finish()
}

#[test]
fn served_bounds_equal_the_standalone_bounds_call() {
    // The serving benchmark's replica rebuilds a synopsis the way
    // `Aqua::build` does and calls `compute_bounds_cached` on its scan's
    // result; the served answer must carry exactly those bounds.
    let table = table(30_000);
    let grouping = vec![ColumnId(0), ColumnId(1)];
    let sqls = [
        "SELECT region, SUM(amount) FROM t WHERE day <= 30 GROUP BY region",
        "SELECT tier, COUNT(*), AVG(amount) FROM t WHERE day BETWEEN 100 AND 250 GROUP BY tier",
        "SELECT region, tier, SUM(amount * 2) FROM t WHERE amount >= 120 GROUP BY region, tier",
        "SELECT COUNT(*), SUM(amount) FROM t WHERE day <= 3 AND tier = 1",
        "SELECT region, AVG(amount) FROM t WHERE day < 0 GROUP BY region",
        "SELECT region, SUM(amount) FROM t GROUP BY region",
    ];
    for rewrite in RewriteChoice::all() {
        let config = AquaConfig {
            space: 1_500,
            strategy: SamplingStrategy::Congress,
            rewrite,
            ..AquaConfig::default()
        };
        let aqua = Aqua::build(table.clone(), grouping.clone(), config).unwrap();
        let mut replica = Synopsis::new(config, grouping.clone()).unwrap();
        replica.ingest(&table, 0).unwrap();
        replica.rebuild_bulk(&table).unwrap();
        let (plan, input) = replica.plan().zip(replica.input()).unwrap();
        for sql in sqls {
            let served = aqua.answer_sql_shared(sql).unwrap();
            let query =
                engine::sql::parse(table.schema(), &engine::sql::normalize(sql).unwrap()).unwrap();
            let opts = ExecOptions {
                cache: Some(replica.query_cache()),
                ..ExecOptions::default()
            };
            let result = plan.execute_opts(&query, &opts).unwrap();
            let standalone = compute_bounds_cached(
                input,
                &query,
                &result,
                config.confidence,
                Some(replica.query_cache()),
            )
            .unwrap();
            let oracle = compute_bounds(input, &query, &result, config.confidence).unwrap();
            let tag = format!("{} {sql}", rewrite.name());
            assert_eq!(
                half_widths(&served.answer.bounds),
                half_widths(&standalone),
                "{tag}"
            );
            assert_eq!(half_widths(&standalone), half_widths(&oracle), "{tag}");
        }
    }
}
