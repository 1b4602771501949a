//! The paper's four query-rewriting strategies (§5.2) as physical plans.
//!
//! Given a [`StratifiedInput`](crate::StratifiedInput), each strategy materializes a physical
//! *synopsis layout* once (at sample-construction time) and then answers
//! arbitrary [`GroupByQuery`]s against it:
//!
//! | Strategy | Layout | Per-query cost profile |
//! |---|---|---|
//! | [`Integrated`] | SF column stored per tuple (Fig 8) | one multiply per tuple |
//! | [`NestedIntegrated`] | SF column per tuple, nested plan (Fig 11) | one multiply per (group × SF) |
//! | [`Normalized`] | SF in AuxRel, joined on grouping columns (Fig 9) | multi-attribute hash join |
//! | [`KeyNormalized`] | SF in AuxRel, joined on integer GID (Fig 10) | single-int hash join |
//!
//! All four produce the *same* unbiased stratified estimate (§5.1) — an
//! invariant the integration tests assert — and differ only in execution
//! cost and maintenance cost (Integrated layouts duplicate the SF into
//! every tuple, so a group's rate change rewrites many tuples; Normalized
//! layouts confine it to one AuxRel row).

mod integrated;
mod key_normalized;
mod nested_integrated;
mod normalized;

pub use integrated::Integrated;
pub use key_normalized::KeyNormalized;
pub use nested_integrated::NestedIntegrated;
pub use normalized::Normalized;

use std::sync::Arc;

use rayon::prelude::*;
use relation::{Bitmap, ColumnId, Expr, Predicate, Relation};

use crate::aggregate::{Accumulator, Partial};
use crate::cache::{ExecOptions, QueryCache, ServedFrom};
use crate::cancel::{self, CancelToken};
use crate::error::Result;
use crate::grouping::{GroupIndex, PAR_MIN_ROWS};
use crate::query::GroupByQuery;
use crate::result::QueryResult;

/// A physical sample layout that can answer group-by queries approximately.
pub trait SamplePlan {
    /// Strategy name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Execute `query` against the sample with explicit execution options
    /// (query cache, parallel aggregation), also returning the row scan's
    /// [`Selection`] so the bounds pass can reuse it instead of evaluating
    /// the predicate again. The selection is `None` when the answer came
    /// from cached summaries without a row scan. The result is
    /// bit-identical for every option combination; options only change
    /// the cost.
    fn execute_selected(
        &self,
        query: &GroupByQuery,
        opts: &ExecOptions,
    ) -> Result<(QueryResult, Option<Selection>)>;

    /// [`Self::execute_selected`] without the selection.
    fn execute_opts(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        self.execute_selected(query, opts).map(|(result, _)| result)
    }

    /// Execute `query` against the sample, producing scaled estimates.
    /// Equivalent to [`Self::execute_opts`] with default (cold, serial)
    /// options.
    fn execute(&self, query: &GroupByQuery) -> Result<QueryResult> {
        self.execute_opts(query, &ExecOptions::default())
    }

    /// The materialized sample relation (including any SF/GID columns).
    fn sample_relation(&self) -> &Relation;

    /// Total bytes of synopsis storage (sample plus any auxiliary relation).
    fn storage_bytes(&self) -> usize {
        self.sample_relation().approx_bytes()
    }

    /// How many stored cells must be rewritten when stratum `stratum`'s
    /// sampling rate (ScaleFactor) changes — the maintenance-cost side of
    /// the §5.2 trade-off. Integrated layouts duplicate the SF into every
    /// tuple, so the whole stratum is touched; Normalized layouts confine
    /// the change to a single AuxRel row.
    fn rate_change_cost(&self, stratum: u32) -> usize;
}

/// Rows per aggregation chunk — re-exported from the storage layer so
/// aggregation chunks coincide one-to-one with encoded storage chunks and
/// their zone maps. Fixed (rather than derived from the thread count) so
/// that serial and parallel execution produce *bit-identical* accumulators:
/// both compute the same per-chunk partials and merge them in chunk order.
/// A multiple of 64 so chunk boundaries align with bitmap words.
pub(crate) use relation::CHUNK_ROWS;

/// Minimum chunk count before chunked aggregation fans out to rayon.
/// Chunk boundaries are fixed by [`CHUNK_ROWS`] for determinism, so the
/// only free knob is whether chunks run concurrently — and with fewer
/// than ~8 chunks (≈128Ki rows) the fork/join overhead outweighs the
/// parallel speedup (the cold-parallel regression recorded in
/// BENCH_query.json: 631.8 q/s parallel vs 688.1 serial at 50k sample
/// rows). Below this many chunks the fold runs serially; the merged
/// result is bit-identical either way.
pub(crate) const PAR_MIN_CHUNKS: usize = 8;

/// Evaluate `pred` over `rel`, using the zone-map pruning pass when
/// `opts.pruning` is set (the default). Returns the selection bitmap plus
/// the row ranges that survived pruning; the bitmap is bit-identical to
/// `pred.eval(rel)` either way because chunk verdicts are exact under the
/// engine's `total_cmp` comparison semantics. Chunk counters are recorded
/// into the trace when one is present.
pub(crate) fn eval_predicate(
    rel: &Relation,
    pred: &Predicate,
    opts: &ExecOptions,
) -> (Bitmap, relation::RowRangeList) {
    if opts.pruning {
        let mut kstats = relation::KernelStats::default();
        let (mask, ranges, stats) = pred.eval_pruned(rel, opts.kernels.then_some(&mut kstats));
        if let Some(trace) = opts.trace {
            trace.record_kernels(&kstats);
            trace.record_chunks(stats.chunks - stats.pruned, stats.pruned);
            trace.record_selected(mask.count_ones() as u64);
        }
        (mask, ranges)
    } else {
        let n = rel.row_count();
        let mask = pred.eval(rel);
        if let Some(trace) = opts.trace {
            trace.record_chunks(relation::chunk_count(n) as u64, 0);
            trace.record_selected(mask.count_ones() as u64);
        }
        (mask, relation::RowRangeList::full(n))
    }
}

/// The *unfiltered* group index for `cols` over `rel`: from the query cache
/// when one is supplied, freshly built otherwise. The parallel build is
/// used above [`PAR_MIN_ROWS`] rows when `opts.parallel` is set; it yields
/// an identical index at any thread count.
pub(crate) fn grouping_index(
    rel: &Relation,
    cols: &[ColumnId],
    opts: &ExecOptions,
) -> Arc<GroupIndex> {
    match opts.cache {
        Some(cache) => cache.index_for(rel, cols, opts.parallel),
        None => Arc::new(if opts.parallel && rel.row_count() >= PAR_MIN_ROWS {
            GroupIndex::par_build(rel, cols)
        } else {
            GroupIndex::build(rel, cols)
        }),
    }
}

/// What one row scan selected: the predicate's bitmap over the sample and
/// each aggregate's input evaluated over the selected rows only
/// (unselected slots hold `0.0`). The scan hands it to the bounds pass, so
/// an answer evaluates its WHERE clause once.
#[derive(Debug)]
pub struct Selection {
    /// Rows satisfying the query's predicate.
    pub mask: Bitmap,
    /// Per-aggregate input values, aligned with the query's aggregates
    /// (`None` for COUNT, which has no input expression).
    pub exprs: Vec<Option<Vec<f64>>>,
}

impl Selection {
    /// Evaluate `query`'s predicate and aggregate inputs over `rel` with
    /// the scan's own evaluator (zone-map pruning and kernels per `opts`).
    pub fn evaluate(rel: &Relation, query: &GroupByQuery, opts: &ExecOptions) -> Result<Selection> {
        let (mask, _ranges) = eval_predicate(rel, &query.predicate, opts);
        let exprs = masked_exprs(rel, query, &mask)?;
        Ok(Selection { mask, exprs })
    }
}

/// Evaluate each aggregate's input expression over the rows selected by
/// `mask` only (satellite of the fast path: unselected rows used to be
/// evaluated and then discarded).
pub(crate) fn masked_exprs(
    rel: &Relation,
    query: &GroupByQuery,
    mask: &Bitmap,
) -> Result<Vec<Option<Vec<f64>>>> {
    Ok(query
        .aggregates
        .iter()
        .map(|a| {
            a.expr
                .as_ref()
                .map(|e| e.eval_masked(rel, mask))
                .transpose()
        })
        .collect::<std::result::Result<_, _>>()?)
}

/// Chunked (optionally parallel) accumulation of the masked rows of `rel`
/// into per-group accumulators.
///
/// Determinism contract: the row range is cut into fixed [`CHUNK_ROWS`]
/// chunks, each chunk folds its selected rows in row order, and partials
/// are merged in chunk order — so the result is bit-identical whether the
/// chunks ran on one thread or sixteen. Inputs of at most one chunk take a
/// direct single pass (which is the same computation, minus the merges).
///
/// Cancellation contract: `cancel` is polled before every chunk (serial:
/// between chunks; parallel: at each chunk's start, short-circuiting the
/// rayon collect). A token that fires makes this return
/// [`EngineError::Cancelled`](crate::error::EngineError::Cancelled) within
/// roughly one chunk of work; a token that never fires cannot change the
/// accumulated values.
pub(crate) fn accumulate(
    index: &GroupIndex,
    mask: &Bitmap,
    exprs: &[Option<Vec<f64>>],
    weights: Option<&[f64]>,
    query: &GroupByQuery,
    parallel: bool,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<Accumulator>>> {
    let n = mask.len();
    let chunk_accs = |start: usize, end: usize| -> Vec<Vec<Accumulator>> {
        let mut accs: Vec<Vec<Accumulator>> = (0..index.group_count())
            .map(|_| {
                query
                    .aggregates
                    .iter()
                    .map(|a| Accumulator::new(a.func))
                    .collect()
            })
            .collect();
        for row in mask.ones_range(start, end) {
            let gid = index.group_of(row);
            if gid == u32::MAX {
                continue;
            }
            let w = weights.map_or(1.0, |ws| ws[row]);
            for (ai, acc) in accs[gid as usize].iter_mut().enumerate() {
                let v = exprs[ai].as_ref().map_or(0.0, |vals| vals[row]);
                acc.add(v, w);
            }
        }
        accs
    };

    cancel::check(cancel)?;
    if n <= CHUNK_ROWS {
        return Ok(chunk_accs(0, n));
    }
    let starts: Vec<usize> = (0..n).step_by(CHUNK_ROWS).collect();
    // Fan out on the number of chunks with at least one selected row, not
    // the raw chunk count: after zone-map pruning a selective predicate
    // leaves a handful of live chunks in a large relation, and forking the
    // rayon pool to scan mostly-empty chunks costs more than the scan
    // (the cold-parallel-selective regression in BENCH_query.json).
    // Empty chunks still fold serially — they produce empty partials in
    // microseconds — so the merged result is bit-identical either way.
    let fan_out =
        parallel && rayon::current_num_threads() > 1 && live_chunks(mask) >= PAR_MIN_CHUNKS;
    let partials: Vec<Vec<Vec<Accumulator>>> = if fan_out {
        starts
            .par_iter()
            .map(|&s| {
                cancel::check(cancel)?;
                Ok(chunk_accs(s, (s + CHUNK_ROWS).min(n)))
            })
            .collect::<Result<_>>()?
    } else {
        starts
            .iter()
            .map(|&s| {
                cancel::check(cancel)?;
                Ok(chunk_accs(s, (s + CHUNK_ROWS).min(n)))
            })
            .collect::<Result<_>>()?
    };
    let mut iter = partials.into_iter();
    let mut base = iter.next().expect("at least one chunk");
    for partial in iter {
        for (group, partial_group) in base.iter_mut().zip(partial) {
            for (acc, p) in group.iter_mut().zip(partial_group) {
                acc.merge(&p);
            }
        }
    }
    Ok(base)
}

/// Number of [`CHUNK_ROWS`] chunks of `mask` containing at least one set
/// bit. Word-wise: chunk boundaries are 64-aligned, so each chunk owns a
/// disjoint run of bitmap words.
pub(crate) fn live_chunks(mask: &Bitmap) -> usize {
    const WORDS_PER_CHUNK: usize = CHUNK_ROWS / 64;
    mask.words()
        .chunks(WORDS_PER_CHUNK)
        .filter(|ws| ws.iter().any(|&w| w != 0))
        .count()
}

/// Canonical cache key for a measure expression. `Debug` formatting is
/// injective over [`Expr`] trees (unlike `Display`, which cannot
/// distinguish e.g. the literal `1` from a column named `1`), and `None`
/// — the COUNT measure — gets its own reserved spelling. Public so the
/// bounds layer keys its stratum summaries the same way.
pub fn measure_key(expr: Option<&Expr>) -> String {
    match expr {
        Some(e) => format!("{e:?}"),
        None => "COUNT(*)".to_string(),
    }
}

/// Fold every row of the *unfiltered* `index` into one [`Partial`] per
/// group for a single measure — the builder for cached
/// [`MeasureSummary`](crate::cache::MeasureSummary)s.
///
/// Uses exactly [`accumulate`]'s chunk structure (fixed [`CHUNK_ROWS`]
/// boundaries, row-order fold per chunk, chunk-order merge), so an
/// accumulator restored from these partials is bit-identical to one the
/// scan path would have produced over the same rows.
pub(crate) fn accumulate_partials(
    index: &GroupIndex,
    values: Option<&[f64]>,
    weights: Option<&[f64]>,
    parallel: bool,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Partial>> {
    let n = index.group_ids().len();
    let chunk_ps = |start: usize, end: usize| -> Vec<Partial> {
        let mut ps = vec![Partial::new(); index.group_count()];
        for row in start..end {
            let gid = index.group_of(row);
            if gid == u32::MAX {
                continue;
            }
            let w = weights.map_or(1.0, |ws| ws[row]);
            let v = values.map_or(0.0, |vals| vals[row]);
            ps[gid as usize].add(v, w);
        }
        ps
    };

    cancel::check(cancel)?;
    if n <= CHUNK_ROWS {
        return Ok(chunk_ps(0, n));
    }
    let starts: Vec<usize> = (0..n).step_by(CHUNK_ROWS).collect();
    let fan_out = parallel && starts.len() >= PAR_MIN_CHUNKS && rayon::current_num_threads() > 1;
    let partials: Vec<Vec<Partial>> = if fan_out {
        starts
            .par_iter()
            .map(|&s| {
                cancel::check(cancel)?;
                Ok(chunk_ps(s, (s + CHUNK_ROWS).min(n)))
            })
            .collect::<Result<_>>()?
    } else {
        starts
            .iter()
            .map(|&s| {
                cancel::check(cancel)?;
                Ok(chunk_ps(s, (s + CHUNK_ROWS).min(n)))
            })
            .collect::<Result<_>>()?
    };
    let mut iter = partials.into_iter();
    let mut base = iter.next().expect("at least one chunk");
    for partial in iter {
        for (p, q) in base.iter_mut().zip(partial) {
            p.merge(&q);
        }
    }
    Ok(base)
}

/// O(groups) accumulator assembly from cached per-group summaries.
///
/// Valid only when `query.predicate` references grouping columns alone
/// (checked by the caller via `Predicate::references_only`): then the
/// predicate is constant within each group, so a group is either fully
/// selected — its cached partial *is* the scan result over its rows — or
/// fully excluded, in which case a fresh empty accumulator makes
/// [`finish_rows`] drop it exactly as the scan path would. The predicate
/// is evaluated once per group on its representative row instead of once
/// per sample row.
///
/// The summaries are keyed per (grouping, measure, weighted) in `cache`,
/// which must be private to this (relation, weights) generation — the
/// same ownership contract as the cached indexes and weights.
pub(crate) fn summary_accumulators(
    rel: &Relation,
    index: &GroupIndex,
    weights: Option<&[f64]>,
    query: &GroupByQuery,
    opts: &ExecOptions,
    cache: &QueryCache,
) -> Result<Vec<Vec<Accumulator>>> {
    let selected: Option<Vec<bool>> = match &query.predicate {
        Predicate::True => None,
        p => Some(
            (0..index.group_count() as u32)
                .map(|g| p.eval_row(rel, index.first_row(g)))
                .collect(),
        ),
    };

    let mut accs: Vec<Vec<Accumulator>> = (0..index.group_count())
        .map(|_| Vec::with_capacity(query.aggregates.len()))
        .collect();
    for spec in &query.aggregates {
        let summary = cache.summary_for(
            index.columns(),
            &measure_key(spec.expr.as_ref()),
            weights.is_some(),
            || {
                let values = spec.expr.as_ref().map(|e| e.eval(rel)).transpose()?;
                accumulate_partials(
                    index,
                    values.as_deref(),
                    weights,
                    opts.parallel,
                    opts.cancel,
                )
            },
        )?;
        for (g, group_accs) in accs.iter_mut().enumerate() {
            let keep = selected.as_ref().is_none_or(|s| s[g]);
            group_accs.push(if keep {
                Accumulator::from_partial(spec.func, summary.partials()[g])
            } else {
                Accumulator::new(spec.func)
            });
        }
    }
    Ok(accs)
}

/// Turn per-group accumulators into a sorted [`QueryResult`], dropping
/// groups with no qualifying rows and applying HAVING.
pub(crate) fn finish_rows(
    index: &GroupIndex,
    accs: Vec<Vec<Accumulator>>,
    query: &GroupByQuery,
) -> Result<QueryResult> {
    let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
    // Emit rows in the index's memoized key order: identical to sorting
    // after the fact (keys are distinct), but warm queries skip the sort.
    let mut rows = Vec::with_capacity(accs.len());
    for &gid in index.gids_by_key() {
        let a = &accs[gid as usize];
        if a.first().is_some_and(|x| x.rows() > 0) {
            rows.push((
                index.key(gid).clone(),
                a.iter().map(Accumulator::finish).collect(),
            ));
        }
    }
    query.apply_having(QueryResult::from_sorted(names, rows))
}

/// [`summary_accumulators`] fused with [`finish_rows`] for the flat
/// rewrites: rows are emitted straight from the cached partials in key
/// order, skipping the per-group accumulator vectors entirely. Same
/// validity precondition (group-only predicate) and the same output as
/// running the two stages separately.
pub(crate) fn summary_rows(
    rel: &Relation,
    index: &GroupIndex,
    weights: Option<&[f64]>,
    query: &GroupByQuery,
    opts: &ExecOptions,
    cache: &QueryCache,
) -> Result<QueryResult> {
    let summaries: Vec<_> = query
        .aggregates
        .iter()
        .map(|spec| {
            cache.summary_for(
                index.columns(),
                &measure_key(spec.expr.as_ref()),
                weights.is_some(),
                || {
                    let values = spec.expr.as_ref().map(|e| e.eval(rel)).transpose()?;
                    accumulate_partials(
                        index,
                        values.as_deref(),
                        weights,
                        opts.parallel,
                        opts.cancel,
                    )
                },
            )
        })
        .collect::<Result<_>>()?;
    let selected: Option<Vec<bool>> = match &query.predicate {
        Predicate::True => None,
        p => Some(
            (0..index.group_count() as u32)
                .map(|g| p.eval_row(rel, index.first_row(g)))
                .collect(),
        ),
    };

    let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
    let mut rows = Vec::with_capacity(index.group_count());
    for &gid in index.gids_by_key() {
        let g = gid as usize;
        if selected.as_ref().is_some_and(|s| !s[g]) {
            continue;
        }
        // Unfiltered partials: a group with no rows cannot exist, but keep
        // the same rows() guard the accumulator path applies.
        let Some(first) = summaries.first() else {
            break;
        };
        if first.partials()[g].rows() == 0 {
            continue;
        }
        rows.push((
            index.key(gid).clone(),
            query
                .aggregates
                .iter()
                .zip(&summaries)
                .map(|(spec, s)| Accumulator::from_partial(spec.func, s.partials()[g]).finish())
                .collect(),
        ));
    }
    query.apply_having(QueryResult::from_sorted(names, rows))
}

/// Shared flat aggregation: evaluate `query` over `rel` where each row
/// carries precomputed weight `weights[row]` (its stratum's ScaleFactor).
///
/// This is the execution core of Integrated, Normalized, and Key-normalized
/// — they differ only in how `weights` is obtained. The group index is the
/// *unfiltered* one (cacheable across predicates); the selection bitmap is
/// applied during accumulation instead, and returned with the result.
pub(crate) fn aggregate_weighted_opts(
    rel: &Relation,
    weights: &[f64],
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<(QueryResult, Option<Selection>)> {
    query.validate(rel)?;
    debug_assert_eq!(weights.len(), rel.row_count());

    // O(groups) fast path: a predicate over the grouping columns alone is
    // constant per group, so cached per-group partials answer the query
    // without touching any sample row (see `summary_accumulators` for the
    // bit-identity argument).
    if let Some(cache) = opts.cache {
        if rel.row_count() > 0 && query.predicate.references_only(&query.grouping) {
            if let Some(trace) = opts.trace {
                trace.record(ServedFrom::Summary, 0);
            }
            let index = cache.index_for(rel, &query.grouping, opts.parallel);
            let result = summary_rows(rel, &index, Some(weights), query, opts, cache)?;
            return Ok((result, None));
        }
    }

    if let Some(trace) = opts.trace {
        let served = if opts.cache.is_some() {
            ServedFrom::CachedScan
        } else {
            ServedFrom::ColdScan
        };
        trace.record(served, rel.row_count() as u64);
    }
    let selection = Selection::evaluate(rel, query, opts)?;
    let index = grouping_index(rel, &query.grouping, opts);
    let accs = accumulate(
        &index,
        &selection.mask,
        &selection.exprs,
        Some(weights),
        query,
        opts.parallel,
        opts.cancel,
    )?;
    Ok((finish_rows(&index, accs, query)?, Some(selection)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use crate::stratified::test_support::{pred_v_ge, sample};
    use relation::{ColumnId, Expr, GroupKey, Value};

    /// Construct all four plans over the shared fixture.
    fn plans() -> Vec<Box<dyn SamplePlan>> {
        let s = sample();
        vec![
            Box::new(Integrated::build(&s).unwrap()),
            Box::new(NestedIntegrated::build(&s).unwrap()),
            Box::new(Normalized::build(&s).unwrap()),
            Box::new(KeyNormalized::build(&s).unwrap()),
        ]
    }

    fn queries() -> Vec<GroupByQuery> {
        let v = Expr::col(ColumnId(2));
        vec![
            // finest grouping
            GroupByQuery::new(
                vec![ColumnId(0), ColumnId(1)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                    AggregateSpec::avg(v.clone(), "a"),
                ],
            ),
            // coarser grouping on a alone (strata merge within groups)
            GroupByQuery::new(
                vec![ColumnId(0)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                ],
            ),
            // no grouping
            GroupByQuery::new(vec![], vec![AggregateSpec::sum(v.clone(), "s")]),
            // with predicate
            GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::sum(v.clone(), "s")])
                .with_predicate(pred_v_ge(3.0)),
            // grouping on the non-stratum column b
            GroupByQuery::new(
                vec![ColumnId(1)],
                vec![AggregateSpec::avg(v, "a"), AggregateSpec::count("c")],
            ),
        ]
    }

    #[test]
    fn all_strategies_agree_exactly() {
        let plans = plans();
        for q in queries() {
            let reference = plans[0].execute(&q).unwrap();
            for p in &plans[1..] {
                let r = p.execute(&q).unwrap();
                assert_eq!(
                    r.aggregate_names,
                    reference.aggregate_names,
                    "{} names",
                    p.name()
                );
                assert_eq!(
                    r.group_count(),
                    reference.group_count(),
                    "{} group count for {:?}",
                    p.name(),
                    q.grouping
                );
                for ((k1, v1), (k2, v2)) in r.rows().iter().zip(reference.rows()) {
                    assert_eq!(k1, k2, "{} keys", p.name());
                    for (x, y) in v1.iter().zip(v2) {
                        assert!(
                            (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                            "{}: {x} vs {y} for key {k1}",
                            p.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_scale_correctly() {
        // Fixture: ("x",1) has 4 rows sampled 2 @SF=2; ("x",2) 2 rows
        // sampled 1 @SF=2; ("y",1) fully sampled @SF=1.
        let plans = plans();
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        for p in &plans {
            let r = p.execute(&q).unwrap();
            let x = GroupKey::new(vec![Value::str("x")]);
            let y = GroupKey::new(vec![Value::str("y")]);
            // COUNT(x) = 2·2 + 1·2 = 6 (true count 6); COUNT(y) = 2·1 = 2.
            assert_eq!(r.get(&x), Some(&[6.0][..]), "{}", p.name());
            assert_eq!(r.get(&y), Some(&[2.0][..]), "{}", p.name());
        }
    }

    #[test]
    fn fully_sampled_stratum_is_exact() {
        // ("y",1) is sampled at rate 1, so any query isolating it is exact.
        let plans = plans();
        let q = GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                AggregateSpec::avg(Expr::col(ColumnId(2)), "a"),
            ],
        );
        let y1 = GroupKey::new(vec![Value::str("y"), Value::Int(1)]);
        for p in &plans {
            let r = p.execute(&q).unwrap();
            let vals = r.get(&y1).unwrap();
            assert_eq!(vals[0], 300.0, "{}", p.name());
            assert_eq!(vals[1], 150.0, "{}", p.name());
        }
    }

    #[test]
    fn storage_accounting_positive() {
        for p in plans() {
            assert!(p.storage_bytes() > 0, "{}", p.name());
        }
    }

    #[test]
    fn rate_change_cost_tradeoff() {
        // Fixture strata sizes: 2, 1, 2 sampled tuples.
        let s = sample();
        let integrated = Integrated::build(&s).unwrap();
        let nested = NestedIntegrated::build(&s).unwrap();
        let norm = Normalized::build(&s).unwrap();
        let keyn = KeyNormalized::build(&s).unwrap();
        // Integrated layouts rewrite every tuple of the stratum.
        assert_eq!(integrated.rate_change_cost(0), 2);
        assert_eq!(integrated.rate_change_cost(1), 1);
        assert_eq!(nested.rate_change_cost(2), 2);
        // Normalized layouts touch exactly one AuxRel row.
        assert_eq!(norm.rate_change_cost(0), 1);
        assert_eq!(keyn.rate_change_cost(2), 1);
        // Unknown strata cost nothing on the normalized side.
        assert_eq!(norm.rate_change_cost(99), 0);
        assert_eq!(integrated.rate_change_cost(99), 0);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = plans().iter().map(|p| p.name()).collect();
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
