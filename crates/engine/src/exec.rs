//! Exact query execution via hash aggregation.

use relation::kernels::{self, KernelStats};
use relation::{chunk_count, chunk_range, Bitmap, DataType, EncodedRelation, Expr, Relation};

use crate::aggregate::{Accumulator, Partial};
use crate::cache::{ExecOptions, ServedFrom};
use crate::cancel::{self, CancelToken};
use crate::error::Result;
use crate::grouping::GroupIndex;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::{accumulate, eval_predicate, finish_rows, masked_exprs};

/// Execute `query` exactly over `rel` with a single hash-aggregation pass.
///
/// This produces the ground truth that the paper's error metrics (Def 3.1)
/// compare approximate answers against. Groups with no qualifying rows do
/// not appear in the output (matching SQL GROUP BY semantics); a scalar
/// query over zero qualifying rows yields an empty result rather than a
/// NULL row.
///
/// ```
/// use engine::{execute_exact, AggregateSpec, GroupByQuery};
/// use relation::{ColumnId, DataType, Expr, RelationBuilder, Value};
///
/// let mut b = RelationBuilder::new()
///     .column("g", DataType::Str)
///     .column("v", DataType::Float);
/// b.push_row(&[Value::str("a"), Value::from(1.0)]).unwrap();
/// b.push_row(&[Value::str("a"), Value::from(2.0)]).unwrap();
/// b.push_row(&[Value::str("b"), Value::from(5.0)]).unwrap();
/// let rel = b.finish();
///
/// let q = GroupByQuery::new(
///     vec![ColumnId(0)],
///     vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "s")],
/// );
/// let result = execute_exact(&rel, &q).unwrap();
/// assert_eq!(result.group_count(), 2);
/// ```
pub fn execute_exact(rel: &Relation, query: &GroupByQuery) -> Result<QueryResult> {
    execute_exact_cancellable(rel, query, None)
}

/// [`execute_exact`] with a cooperative [`CancelToken`] polled at chunk
/// boundaries of the aggregation pass, so an exact scan over a large base
/// table (e.g. a degraded warehouse relation) still honors per-request
/// deadlines. A token that never fires cannot change the result.
pub fn execute_exact_cancellable(
    rel: &Relation,
    query: &GroupByQuery,
    cancel: Option<&CancelToken>,
) -> Result<QueryResult> {
    execute_exact_opts(
        rel,
        query,
        &ExecOptions {
            cancel,
            ..ExecOptions::default()
        },
    )
}

/// [`execute_exact`] with explicit [`ExecOptions`]. Pruning (on by
/// default) runs the zone-map pass first, so a selective predicate over a
/// clustered column skips whole chunks in the predicate scan *and* in the
/// group-index build; the result is bit-identical either way because chunk
/// verdicts are exact. `opts.cache` is ignored — exact execution runs over
/// the base table, whose group index is predicate-filtered and therefore
/// not reusable across predicates.
pub fn execute_exact_opts(
    rel: &Relation,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    query.validate(rel)?;

    let (mask, ranges) = eval_predicate(rel, &query.predicate, opts);
    if let Some(trace) = opts.trace {
        trace.record(ServedFrom::ColdScan, ranges.covered_rows() as u64);
    }
    // Decode-free scalar fold: a no-grouping query over bare columns needs
    // no group index, no dense expression buffers, and — for fully
    // selected chunks — no decode at all. The encoded twin is shared by
    // clones and (when kernels evaluated the predicate) already built.
    if opts.kernels && query.grouping.is_empty() {
        let enc = rel.encoded().clone();
        if scalar_fold_applies(&enc, query) {
            return scalar_fold_encoded(&enc, &mask, query, opts);
        }
    }
    // Exact execution runs over the (potentially large) base table, so the
    // group index stays predicate-filtered — selective queries then hash
    // only qualifying rows — and aggregate inputs are evaluated only for
    // the rows the selection bitmap keeps. The build walks only the ranges
    // surviving pruning (the mask is false everywhere else).
    let index = GroupIndex::build_filtered_ranges(rel, &query.grouping, Some(&mask), &ranges);
    let exprs = masked_exprs(rel, query, &mask)?;
    let accs = accumulate(
        &index,
        &mask,
        &exprs,
        None,
        query,
        opts.parallel,
        opts.cancel,
    )?;
    finish_rows(&index, accs, query)
}

/// Whether `query` can be served by the decode-free scalar fold: no
/// grouping, and every aggregate input is COUNT or a bare non-string
/// column — the shapes whose per-chunk partials need no expression
/// evaluation and (for fully selected chunks) no decode.
fn scalar_fold_applies(enc: &EncodedRelation, query: &GroupByQuery) -> bool {
    query.grouping.is_empty()
        && query.aggregates.iter().all(|a| match &a.expr {
            None => true,
            Some(Expr::Column(c)) => enc.column(*c).data_type() != DataType::Str,
            Some(_) => false,
        })
}

/// Selected rows inside one chunk: chunk boundaries are 64-aligned, so the
/// count is a straight popcount over the chunk's disjoint bitmap words
/// (tail bits beyond the bitmap length are zero by invariant).
fn selected_in_chunk(mask: &Bitmap, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % 64, 0);
    mask.words()[start / 64..end.div_ceil(64)]
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum()
}

/// The decode-free scalar (`T = ∅`) aggregation fold.
///
/// Per chunk, per aggregate, the cheapest exact [`Partial`] is chosen:
///
/// * no selected rows → an empty partial (what an untouched accumulator
///   holds);
/// * COUNT → a popcount-built partial (`k` adds of `(0.0, 1.0)` produce
///   exactly `weight = k` for any `k ≤ 2⁵³`, and min/max pin at `0.0`);
/// * fully selected numeric chunk → [`kernels::fold_chunk_encoded`]
///   (`base·n + Σdeltas` with min/max from the zone map), which declines
///   — returning `None` — whenever the sequential f64 fold could round;
/// * otherwise → decode the chunk once into pooled scratch and fold the
///   selected rows through [`Partial::add`], the scan path's own op.
///
/// Partials merge in chunk order with chunk 0 as the base, replicating
/// [`accumulate`](crate::rewrite::accumulate)'s merge structure, so the
/// result is bit-identical to the masked-decode scan path.
fn scalar_fold_encoded(
    enc: &EncodedRelation,
    mask: &Bitmap,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let n = enc.row_count();
    let nchunks = chunk_count(n);
    let zm = enc.zone_maps().clone();
    let mut kstats = KernelStats::default();
    let mut totals: Vec<Partial> = vec![Partial::new(); query.aggregates.len()];
    relation::with_scratch(|scratch| -> Result<()> {
        for c in 0..nchunks {
            cancel::check(opts.cancel)?;
            let (start, end) = chunk_range(c, n);
            let n_c = end - start;
            let sel = selected_in_chunk(mask, start, end);
            // Which column's chunk currently sits decoded in scratch —
            // aggregates sharing a column decode it once.
            let mut decoded = None;
            for (ai, spec) in query.aggregates.iter().enumerate() {
                let p = match &spec.expr {
                    _ if sel == 0 => Partial::new(),
                    None => {
                        kstats.fold_sum_chunks += 1;
                        Partial::from_raw(0.0, sel as f64, 0.0, 0.0, sel as u64)
                    }
                    Some(Expr::Column(col)) => {
                        let fold = if sel == n_c {
                            kernels::fold_chunk_encoded(enc.column(*col), c, zm.stats(*col, c))
                        } else {
                            None
                        };
                        match fold {
                            Some(f) => {
                                kstats.fold_sum_chunks += 1;
                                kstats.fold_minmax_chunks += 1;
                                Partial::from_raw(f.sum, n_c as f64, f.min, f.max, n_c as u64)
                            }
                            None => {
                                if decoded != Some(*col) {
                                    scratch.f64s.clear();
                                    enc.column(*col).decode_chunk_f64(c, &mut scratch.f64s);
                                    decoded = Some(*col);
                                }
                                let mut p = Partial::new();
                                for row in mask.ones_range(start, end) {
                                    p.add(scratch.f64s[row - start], 1.0);
                                }
                                p
                            }
                        }
                    }
                    Some(_) => unreachable!("gated by scalar_fold_applies"),
                };
                if c == 0 {
                    totals[ai] = p;
                } else {
                    totals[ai].merge(&p);
                }
            }
        }
        Ok(())
    })?;
    if let Some(trace) = opts.trace {
        trace.record_kernels(&kstats);
    }
    let accs = vec![query
        .aggregates
        .iter()
        .zip(&totals)
        .map(|(spec, p)| Accumulator::from_partial(spec.func, *p))
        .collect()];
    finish_rows(&GroupIndex::scalar_stub(), accs, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, RelationBuilder, Value};

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("h", DataType::Int)
            .column("v", DataType::Float);
        let rows: [(&str, i64, f64); 6] = [
            ("a", 1, 10.0),
            ("a", 1, 20.0),
            ("a", 2, 30.0),
            ("b", 1, 40.0),
            ("b", 2, 50.0),
            ("b", 2, 60.0),
        ];
        for (g, h, v) in rows {
            b.push_row(&[Value::str(g), Value::Int(h), Value::from(v)])
                .unwrap();
        }
        b.finish()
    }

    fn gkey(g: &str) -> GroupKey {
        GroupKey::new(vec![Value::str(g)])
    }

    #[test]
    fn sum_count_avg_by_one_column() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(2)), "a"),
            ],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 2);
        assert_eq!(res.get(&gkey("a")), Some(&[60.0, 3.0, 20.0][..]));
        assert_eq!(res.get(&gkey("b")), Some(&[150.0, 3.0, 50.0][..]));
    }

    #[test]
    fn scalar_aggregate() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.scalar(), Some(210.0));
    }

    #[test]
    fn predicate_filters_groups_entirely() {
        let r = rel();
        // only rows with v >= 40 qualify -> group "a" disappears
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(2), 40.0));
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 1);
        assert_eq!(res.get(&gkey("b")), Some(&[3.0][..]));
    }

    #[test]
    fn empty_selection_gives_empty_result() {
        let r = rel();
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(2), 1e9));
        let res = execute_exact(&r, &q).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn min_max_exact() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(1)],
            vec![
                AggregateSpec::min(Expr::col(ColumnId(2)), "mn"),
                AggregateSpec::max(Expr::col(ColumnId(2)), "mx"),
            ],
        );
        let res = execute_exact(&r, &q).unwrap();
        let k1 = GroupKey::new(vec![Value::Int(1)]);
        let k2 = GroupKey::new(vec![Value::Int(2)]);
        assert_eq!(res.get(&k1), Some(&[10.0, 40.0][..]));
        assert_eq!(res.get(&k2), Some(&[30.0, 60.0][..]));
    }

    #[test]
    fn two_column_grouping_finest() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 4);
        let k = GroupKey::new(vec![Value::str("a"), Value::Int(1)]);
        assert_eq!(res.get(&k), Some(&[30.0][..]));
    }

    #[test]
    fn aggregate_over_expression() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(
                Expr::col(ColumnId(2)).mul(Expr::lit(2.0)),
                "s2",
            )],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.scalar(), Some(420.0));
    }

    #[test]
    fn having_filters_exact_results() {
        use crate::query::Having;
        use relation::predicate::CmpOp;
        let r = rel();
        // Per-group sums: a → 60, b → 150; HAVING s > 100 keeps only b.
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        )
        .with_having(Having::new("s", CmpOp::Gt, 100.0));
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 1);
        assert_eq!(res.get(&gkey("b")), Some(&[150.0][..]));
    }

    #[test]
    fn invalid_query_is_error() {
        let r = rel();
        let q = GroupByQuery::new(vec![], vec![]);
        assert!(execute_exact(&r, &q).is_err());
    }

    /// Multi-chunk relation with a clustered id column so pruning actually
    /// skips chunks, plus group/value columns exercising every kernel.
    fn chunked_rel(rows: usize) -> Relation {
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..rows {
            let v = if i % 911 == 0 {
                f64::NAN
            } else {
                (i % 199) as f64 * 0.75 - 20.0
            };
            b.push_row(&[
                Value::Int(i as i64),
                Value::str(["alpha", "beta", "gamma"][i / (rows / 3 + 1)]),
                Value::from(v),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn chunked_queries(rows: usize) -> Vec<GroupByQuery> {
        let v = Expr::col(ColumnId(2));
        vec![
            GroupByQuery::new(
                vec![ColumnId(1)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                    AggregateSpec::avg(v.clone(), "a"),
                ],
            ),
            // Selective clustered range: prunes most chunks.
            GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")])
                .with_predicate(Predicate::between(ColumnId(0), 100i64, 300i64)),
            // Matches nothing.
            GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
                .with_predicate(Predicate::ge(ColumnId(0), rows as i64 * 2)),
            // Scalar over an expression, unclustered float predicate.
            GroupByQuery::new(
                vec![],
                vec![AggregateSpec::sum(v.clone().mul(Expr::lit(2.0)), "s2")],
            )
            .with_predicate(Predicate::ge(ColumnId(2), 40.0)),
            // String predicate + two-column grouping.
            GroupByQuery::new(
                vec![ColumnId(1), ColumnId(0)],
                vec![AggregateSpec::min(v.clone(), "mn")],
            )
            .with_predicate(Predicate::eq(ColumnId(1), "beta")),
        ]
    }

    /// `execute_exact_opts` with pruning on and off must be bit-identical
    /// to the plain executor — zone-map verdicts are exact, so pruning only
    /// changes cost, never bits.
    #[test]
    fn pruned_exact_execution_is_bit_identical() {
        use crate::{ExecOptions, ExecTrace};
        let rows = 40_000; // 3 chunks at CHUNK_ROWS = 16Ki
        let r = chunked_rel(rows);
        for q in chunked_queries(rows) {
            let baseline = execute_exact(&r, &q).unwrap();
            let unpruned = execute_exact_opts(
                &r,
                &q,
                &ExecOptions {
                    pruning: false,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            let trace = ExecTrace::new();
            let pruned = execute_exact_opts(
                &r,
                &q,
                &ExecOptions {
                    trace: Some(&trace),
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            for other in [&unpruned, &pruned] {
                assert_eq!(other.aggregate_names, baseline.aggregate_names);
                assert_eq!(other.rows().len(), baseline.rows().len());
                for ((k1, v1), (k2, v2)) in other.rows().iter().zip(baseline.rows()) {
                    assert_eq!(k1, k2);
                    for (x, y) in v1.iter().zip(v2) {
                        assert_eq!(x.to_bits(), y.to_bits(), "key {k1}");
                    }
                }
            }
        }
    }

    /// Kernels on vs off must be bit-identical, and the trace must show
    /// the kernels actually fired (predicate chunks and, for the scalar
    /// queries, fold chunks).
    #[test]
    fn kernel_execution_is_bit_identical_to_decode() {
        use crate::{ExecOptions, ExecTrace};
        let rows = 40_000;
        let r = chunked_rel(rows);
        let mut scalar_queries = chunked_queries(rows);
        // Bare-column scalar aggregates: the decode-free fold path proper.
        scalar_queries.push(GroupByQuery::new(
            vec![],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(0)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(0)), "a"),
                AggregateSpec::min(Expr::col(ColumnId(2)), "mn"),
                AggregateSpec::max(Expr::col(ColumnId(2)), "mx"),
            ],
        ));
        scalar_queries.push(
            GroupByQuery::new(
                vec![],
                vec![
                    AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                    AggregateSpec::count("c"),
                ],
            )
            .with_predicate(Predicate::between(ColumnId(0), 5_000i64, 21_000i64)),
        );
        let mut kernel_pred = 0;
        let mut kernel_folds = 0;
        for q in &scalar_queries {
            let off = ExecOptions {
                kernels: false,
                ..ExecOptions::default()
            };
            let baseline = execute_exact_opts(&r, q, &off).unwrap();
            let trace = ExecTrace::new();
            let on = ExecOptions {
                kernels: true,
                trace: Some(&trace),
                ..ExecOptions::default()
            };
            let kernels = execute_exact_opts(&r, q, &on).unwrap();
            assert_eq!(kernels.rows().len(), baseline.rows().len());
            for ((k1, v1), (k2, v2)) in kernels.rows().iter().zip(baseline.rows()) {
                assert_eq!(k1, k2);
                for (x, y) in v1.iter().zip(v2) {
                    assert_eq!(x.to_bits(), y.to_bits(), "key {k1}");
                }
            }
            kernel_pred += trace.kernel_pred_chunks();
            kernel_folds += trace.kernel_fold_sum() + trace.kernel_fold_minmax();
        }
        assert!(kernel_pred > 0, "predicate kernels never fired");
        assert!(kernel_folds > 0, "encoded folds never fired");
    }

    #[test]
    fn selective_predicate_records_pruned_chunks() {
        use crate::{ExecOptions, ExecTrace};
        let rows = 64_000; // 4 chunks
        let r = chunked_rel(rows);
        let q = GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::between(ColumnId(0), 0i64, 999i64));
        let trace = ExecTrace::new();
        let res = execute_exact_opts(
            &r,
            &q,
            &ExecOptions {
                trace: Some(&trace),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(res.rows()[0].1[0], 1000.0);
        // The clustered BETWEEN keeps only the first chunk; the other three
        // are skipped by their zone maps.
        assert_eq!(trace.chunks_pruned(), 3);
        assert_eq!(trace.chunks_scanned(), 1);
    }
}
