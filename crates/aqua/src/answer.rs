//! Approximate answers with per-group error bounds (Figures 2 and 4).

use std::collections::HashMap;
use std::fmt;

use std::sync::Arc;

use congress::bounds::{
    avg_bound_hoeffding, stratified_avg_bound, stratified_sum_bound, ErrorBound, Moments,
};
use engine::rewrite::measure_key;
use engine::{
    AggregateFn, ExecOptions, GroupByQuery, GroupIndex, QueryCache, QueryResult, Selection,
    StratifiedInput, StratumCell, StratumSummary,
};
use relation::GroupKey;

use crate::error::Result;

/// Error bounds for one output group, one entry per aggregate in the
/// query's SELECT list (`None` for MIN/MAX, which have no distribution-free
/// bound from a sample).
#[derive(Debug, Clone)]
pub struct GroupBounds {
    /// The group key.
    pub key: GroupKey,
    /// Per-aggregate bounds, aligned with the query's aggregates.
    pub bounds: Vec<Option<ErrorBound>>,
}

/// How an answer was produced, so callers can tell a genuine synopsis
/// estimate from a degraded-mode exact scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerProvenance {
    /// The normal path: estimated from the congressional synopsis.
    Sampled,
    /// Degraded mode: the synopsis was unavailable (e.g. quarantined after
    /// corruption) and the answer is an exact scan of the base relation.
    ExactFallback {
        /// Why the synopsis path was bypassed.
        reason: String,
    },
}

/// An approximate answer: scaled estimates plus bounds at the configured
/// confidence — the shape of the paper's Figure 4 output.
#[derive(Debug, Clone)]
pub struct ApproximateAnswer {
    /// Scaled estimates per group.
    pub result: QueryResult,
    /// Per-group error bounds (same key order as `result`).
    pub bounds: Vec<GroupBounds>,
    /// Confidence level the bounds hold at.
    pub confidence: f64,
    /// Which path produced the answer.
    pub provenance: AnswerProvenance,
}

impl ApproximateAnswer {
    /// Bound lookup by group key.
    pub fn bounds_for(&self, key: &GroupKey) -> Option<&GroupBounds> {
        self.bounds.iter().find(|b| &b.key == key)
    }

    /// `true` when the answer came from an exact scan rather than the
    /// synopsis (degraded mode).
    pub fn is_degraded(&self) -> bool {
        matches!(self.provenance, AnswerProvenance::ExactFallback { .. })
    }
}

impl fmt::Display for ApproximateAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let AnswerProvenance::ExactFallback { reason } = &self.provenance {
            writeln!(f, "[degraded: exact scan — {reason}]")?;
        }
        writeln!(
            f,
            "group | {} (±bound @ {:.0}% confidence)",
            self.result.aggregate_names.join(" | "),
            self.confidence * 100.0
        )?;
        for (i, (key, vals)) in self.result.iter().enumerate() {
            write!(f, "{key}")?;
            for (j, v) in vals.iter().enumerate() {
                let b = self.bounds.get(i).and_then(|gb| gb.bounds[j]);
                match b {
                    Some(b) => write!(f, " | {:.4e} ± {:.1e}", v, b.half_width)?,
                    None => write!(f, " | {v:.4e}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Compute per-group, per-aggregate error bounds for `query` over a
/// stratified sample.
///
/// For each output group `h` and contributing stratum `i`, the bound
/// machinery needs the moments of the aggregate input over the sampled
/// tuples and the stratum's (estimated) population within `h`:
/// `N_i = SF_i × (sampled tuples of stratum i in h)`. SUM and COUNT use
/// the stratified-sum Chebyshev bound over *predicate-indicator* values
/// (so tuples failing the WHERE clause contribute zeros, exactly like the
/// rewritten SQL); AVG uses the stratified mean bound over qualifying
/// tuples, falling back to Hoeffding when only one stratum contributes.
///
/// This is the uncached reference fold — one pass over every sample row
/// into a hash map of cells — that the served paths are tested against.
pub fn compute_bounds(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
) -> Result<Vec<GroupBounds>> {
    compute_bounds_cached(input, query, result, confidence, None)
}

/// [`compute_bounds`] with an optional per-synopsis [`QueryCache`]. With a
/// cache, group-only predicates are served from cached per-(group,
/// stratum) moment tables; any other predicate is evaluated once with the
/// engine's scan evaluator and its selection swept by
/// [`compute_bounds_selected`]. Bit-identical to the uncached fold either
/// way.
pub fn compute_bounds_cached(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
    cache: Option<&QueryCache>,
) -> Result<Vec<GroupBounds>> {
    let Some(cache) = cache else {
        return bounds_by_row_fold(input, query, result, confidence);
    };
    let rel = &input.rows;
    // O(groups) fast path: when the predicate is determined by the grouping
    // columns alone, every surviving result group is fully selected, so
    // cached per-(group, stratum) moment cells reproduce the scan's
    // moments exactly — no row scan, no masked evaluation.
    if rel.row_count() > 0 && query.predicate.references_only(&query.grouping) {
        return bounds_from_summaries(input, query, result, confidence, cache);
    }
    let opts = ExecOptions {
        cache: Some(cache),
        ..ExecOptions::default()
    };
    let selection = Selection::evaluate(rel, query, &opts)?;
    compute_bounds_selected(input, query, result, confidence, cache, Some(&selection))
}

/// Bounds for an answer whose scan already evaluated the query: `selection`
/// is what [`SamplePlan::execute_selected`](engine::SamplePlan::execute_selected)
/// returned alongside `result`. `None` (the plan answered from cached
/// summaries without a row scan) falls back to
/// [`compute_bounds_cached`], which serves it from the summary tables.
///
/// The sweep visits only the selected rows. Bit-identity with the
/// uncached fold, which pushes every sampled row into two moment sets per
/// (group, stratum) cell: the moments over selected rows are the same
/// pushes in the same row order; the indicator moments over *all* rows
/// differ from them only by pushing an exact `0.0` for each rejected row,
/// which leaves `Σv` and `Σv²` unchanged (neither sum can be `-0.0`, so
/// `x + 0.0 == x` bit for bit) and only raises `n` — to the cell's row
/// count, read from the cached COUNT table. Their `min`/`max` differ but
/// the stratified sum bound never reads them. Cells are combined per
/// group in ascending stratum id order in both paths.
pub fn compute_bounds_selected(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
    cache: &QueryCache,
    selection: Option<&Selection>,
) -> Result<Vec<GroupBounds>> {
    let Some(selection) = selection else {
        return compute_bounds_cached(input, query, result, confidence, Some(cache));
    };
    let rel = &input.rows;
    let index = cache.index_for(rel, &query.grouping, false);
    // Every sampled row of each (group, stratum) cell, whether selected or
    // not: the COUNT table, cached once per grouping for the generation.
    let counts = cache.stratum_summary_for(&query.grouping, &measure_key(None), || {
        Ok(StratumSummary::build(&index, &input.stratum_of_row, None))
    })?;

    // Moments over the selected rows, one slot per (cell, aggregate) in
    // the COUNT table's flat cell order.
    let aggs = query.aggregates.len();
    let mut selected = vec![Moments::new(); counts.cell_count() * aggs];
    for row in selection.mask.ones() {
        let g = index.group_of(row);
        if g == u32::MAX {
            continue;
        }
        let cell = counts
            .cell_of(g, input.stratum_of_row[row])
            .expect("every live row has a count cell");
        let slots = &mut selected[cell * aggs..(cell + 1) * aggs];
        for (m, e) in slots.iter_mut().zip(&selection.exprs) {
            m.push(e.as_ref().map_or(1.0, |vals| vals[row]));
        }
    }

    let mut out = Vec::with_capacity(result.group_count());
    for (key, _) in result.iter() {
        let Some(gid) = index.gid_of_key(key) else {
            out.push(GroupBounds {
                key: key.clone(),
                bounds: vec![None; aggs],
            });
            continue;
        };
        let strata = counts.strata_of(gid);
        let cells = counts.cell_range(gid);
        let bounds = query
            .aggregates
            .iter()
            .enumerate()
            .map(|(ai, spec)| {
                let per_stratum = strata.iter().zip(cells.clone()).map(|((s, n), c)| {
                    let sel = selected[c * aggs + ai];
                    (*s, Moments { n: n.count, ..sel }, sel)
                });
                aggregate_bound(spec.func, per_stratum, &input.scale_factors, confidence)
            })
            .collect();
        out.push(GroupBounds {
            key: key.clone(),
            bounds,
        });
    }
    Ok(out)
}

/// One aggregate's bound for one group. `strata` yields, in ascending
/// stratum id order, `(stratum, moments of v·sel over all the stratum's
/// sampled rows in the group, moments of v over its selected rows)`.
fn aggregate_bound(
    func: AggregateFn,
    strata: impl Iterator<Item = (u32, Moments, Moments)>,
    scale_factors: &[f64],
    confidence: f64,
) -> Option<ErrorBound> {
    // Estimated stratum population within the group: SF × sampled rows.
    let part = |s: u32, m: Moments| {
        let sf = scale_factors[s as usize];
        let pop = (sf * m.n as f64).round() as u64;
        (m, sf, pop.max(m.n))
    };
    match func {
        AggregateFn::Sum | AggregateFn::Count => {
            let parts: Vec<(Moments, f64, u64)> = strata.map(|(s, all, _)| part(s, all)).collect();
            Some(stratified_sum_bound(&parts, confidence))
        }
        AggregateFn::Avg => {
            let parts: Vec<(Moments, f64, u64)> = strata
                .filter(|(_, _, sel)| sel.n > 0)
                .map(|(s, _, sel)| part(s, sel))
                .collect();
            if parts.len() == 1 {
                Some(avg_bound_hoeffding(&parts[0].0, confidence))
            } else {
                Some(stratified_avg_bound(&parts, confidence))
            }
        }
        AggregateFn::Min | AggregateFn::Max => None,
    }
}

/// The uncached reference fold behind [`compute_bounds`]: every sample
/// row, selected or not, pushed into per-(group, stratum) hash-map cells.
fn bounds_by_row_fold(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
) -> Result<Vec<GroupBounds>> {
    let rel = &input.rows;

    // The reference scan (no zone maps, no kernels), so this oracle does
    // not share the fast scan that `compute_bounds_selected` consumes.
    let mask = query.predicate.eval(rel);
    // Group rows by the *query's* grouping (not the strata grouping).
    let index = GroupIndex::build(rel, &query.grouping);

    // Masked evaluation: unselected slots come back 0.0, which is exactly
    // what the indicator-moment accumulation below pushes for them anyway.
    let exprs: Vec<Option<Vec<f64>>> = query
        .aggregates
        .iter()
        .map(|a| {
            a.expr
                .as_ref()
                .map(|e| e.eval_masked(rel, &mask))
                .transpose()
        })
        .collect::<std::result::Result<_, _>>()
        .map_err(crate::AquaError::from)?;

    // Per (group, stratum): moments of v·sel over all sampled tuples
    // (sum/count bound) and of v over selected tuples (avg bound), plus
    // tuple counts.
    type Cell = (Vec<Moments>, Vec<Moments>, u64, u64); // (all, sel, n_all, n_sel)
    let aggs = query.aggregates.len();
    let mut cells: HashMap<(u32, u32), Cell> = HashMap::new();
    for row in 0..rel.row_count() {
        let g = index.group_of(row);
        if g == u32::MAX {
            continue;
        }
        let s = input.stratum_of_row[row];
        let cell = cells
            .entry((g, s))
            .or_insert_with(|| (vec![Moments::new(); aggs], vec![Moments::new(); aggs], 0, 0));
        cell.2 += 1;
        let sel = mask.get(row);
        if sel {
            cell.3 += 1;
        }
        for (ai, e) in exprs.iter().enumerate() {
            let v = e.as_ref().map_or(1.0, |vals| vals[row]);
            cell.0[ai].push(if sel { v } else { 0.0 });
            if sel {
                cell.1[ai].push(v);
            }
        }
    }

    // Assemble per result group. Sort each group's strata by stratum id:
    // the bound formulas fold floating-point terms in vec order, and the
    // HashMap above iterates in a random order, so without the sort two
    // identical calls could disagree in the last bits (and the scan path
    // would not match the summary path, which is id-sorted by build).
    let mut per_group: HashMap<u32, Vec<(u32, Cell)>> = HashMap::new();
    for ((g, s), cell) in cells {
        per_group.entry(g).or_default().push((s, cell));
    }
    for strata in per_group.values_mut() {
        strata.sort_unstable_by_key(|&(s, _)| s);
    }
    let mut out = Vec::with_capacity(result.group_count());
    for (key, _) in result.iter() {
        // Map result keys back to index group ids via the index's memoized
        // reverse map.
        let Some(gid) = index.gid_of_key(key) else {
            out.push(GroupBounds {
                key: key.clone(),
                bounds: vec![None; aggs],
            });
            continue;
        };
        let strata = per_group.get(&gid).map_or(&[][..], |v| &v[..]);
        let mut bounds = Vec::with_capacity(aggs);
        for (ai, spec) in query.aggregates.iter().enumerate() {
            let bound = match spec.func {
                AggregateFn::Sum | AggregateFn::Count => {
                    let parts: Vec<(Moments, f64, u64)> = strata
                        .iter()
                        .map(|(s, cell)| {
                            let sf = input.scale_factors[*s as usize];
                            let pop = (sf * cell.2 as f64).round() as u64;
                            (cell.0[ai], sf, pop.max(cell.2))
                        })
                        .collect();
                    Some(stratified_sum_bound(&parts, confidence))
                }
                AggregateFn::Avg => {
                    let parts: Vec<(Moments, f64, u64)> = strata
                        .iter()
                        .filter(|(_, cell)| cell.3 > 0)
                        .map(|(s, cell)| {
                            let sf = input.scale_factors[*s as usize];
                            let pop = (sf * cell.3 as f64).round() as u64;
                            (cell.1[ai], sf, pop.max(cell.3))
                        })
                        .collect();
                    if parts.len() == 1 {
                        Some(avg_bound_hoeffding(&parts[0].0, confidence))
                    } else {
                        Some(stratified_avg_bound(&parts, confidence))
                    }
                }
                AggregateFn::Min | AggregateFn::Max => None,
            };
            bounds.push(bound);
        }
        out.push(GroupBounds {
            key: key.clone(),
            bounds,
        });
    }
    Ok(out)
}

/// Bounds served from cached [`StratumSummary`] tables — the O(groups)
/// path for predicates over the grouping columns alone (including no
/// predicate at all).
///
/// Bit-identity with the row fold: every result group is fully selected
/// (group-determined predicates drop excluded groups from `result`
/// entirely), so the fold's indicator moments over *all* tuples equal its
/// moments over *selected* tuples equal the cached cells, which
/// [`StratumSummary::build`] folds in the same row order with the same
/// float operations as `Moments::push`. Both paths then combine strata
/// sorted by stratum id, so even the fold order of the bound formulas
/// matches.
fn bounds_from_summaries(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
    cache: &QueryCache,
) -> Result<Vec<GroupBounds>> {
    let rel = &input.rows;
    let index = cache.index_for(rel, &query.grouping, false);
    let aggs = query.aggregates.len();

    // One cached per-(group, stratum) moment table per bounded aggregate
    // (MIN/MAX have no distribution-free bound and need no table).
    let mut tables: Vec<Option<Arc<StratumSummary>>> = Vec::with_capacity(aggs);
    for spec in &query.aggregates {
        let table = match spec.func {
            AggregateFn::Min | AggregateFn::Max => None,
            _ => Some(cache.stratum_summary_for(
                &query.grouping,
                &measure_key(spec.expr.as_ref()),
                || {
                    let values = spec.expr.as_ref().map(|e| e.eval(rel)).transpose()?;
                    Ok(StratumSummary::build(
                        &index,
                        &input.stratum_of_row,
                        values.as_deref(),
                    ))
                },
            )?),
        };
        tables.push(table);
    }

    let moments = |cell: &StratumCell| Moments {
        n: cell.count,
        sum: cell.sum,
        sum_sq: cell.sum_sq,
        min: cell.min,
        max: cell.max,
    };

    let mut out = Vec::with_capacity(result.group_count());
    for (key, _) in result.iter() {
        let Some(gid) = index.gid_of_key(key) else {
            out.push(GroupBounds {
                key: key.clone(),
                bounds: vec![None; aggs],
            });
            continue;
        };
        let bounds = query
            .aggregates
            .iter()
            .zip(&tables)
            .map(|(spec, table)| {
                let strata = table.as_ref().map_or(&[][..], |t| t.strata_of(gid));
                let per_stratum = strata.iter().map(|(s, cell)| {
                    let m = moments(cell);
                    (*s, m, m)
                });
                aggregate_bound(spec.func, per_stratum, &input.scale_factors, confidence)
            })
            .collect();
        out.push(GroupBounds {
            key: key.clone(),
            bounds,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::rewrite::{Integrated, SamplePlan};
    use engine::AggregateSpec;
    use relation::{ColumnId, DataType, Expr, Predicate, RelationBuilder, Value};

    /// Base of 100 rows in 2 groups (80/20); stratified sample of 10+10.
    fn fixture() -> (StratifiedInput, GroupByQuery) {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..100i64 {
            let g = if i < 80 { "big" } else { "small" };
            b.push_row(&[Value::str(g), Value::from((i % 13) as f64)])
                .unwrap();
        }
        let base = b.finish();
        let rows: Vec<usize> = (0..80).step_by(8).chain((80..100).step_by(2)).collect();
        let sampled = base.gather(&rows);
        let input = StratifiedInput {
            rows: sampled,
            stratum_of_row: (0..20).map(|i| u32::from(i >= 10)).collect(),
            scale_factors: vec![8.0, 2.0],
            strata_keys: vec![
                GroupKey::new(vec![Value::str("big")]),
                GroupKey::new(vec![Value::str("small")]),
            ],
            grouping_columns: vec![ColumnId(0)],
        };
        input.validate().unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(1)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(1)), "a"),
            ],
        );
        (input, q)
    }

    #[test]
    fn bounds_cover_every_group_and_aggregate() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = compute_bounds(&input, &q, &result, 0.9).unwrap();
        assert_eq!(bounds.len(), result.group_count());
        for gb in &bounds {
            assert_eq!(gb.bounds.len(), 3);
            for b in gb.bounds.iter().flatten() {
                assert!(b.half_width.is_finite());
                assert!(b.half_width >= 0.0);
                assert_eq!(b.confidence, 0.9);
            }
        }
    }

    #[test]
    fn count_bound_zero_when_stratum_fully_selected_uniformly() {
        // COUNT over a fully-sampled stratum with no predicate: indicator
        // variance is zero → bound is exactly 0.
        let (mut input, _) = fixture();
        input.scale_factors = vec![1.0, 1.0]; // pretend fully sampled
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = compute_bounds(&input, &q, &result, 0.9).unwrap();
        for gb in &bounds {
            assert_eq!(gb.bounds[0].unwrap().half_width, 0.0);
        }
    }

    #[test]
    fn min_max_have_no_bounds() {
        let (input, _) = fixture();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::min(Expr::col(ColumnId(1)), "mn")],
        );
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = compute_bounds(&input, &q, &result, 0.9).unwrap();
        assert!(bounds.iter().all(|gb| gb.bounds[0].is_none()));
    }

    #[test]
    fn predicate_widens_sum_bound_via_indicators() {
        let (input, _) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let q_all = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        // A ~50% predicate creates indicator variance where none existed.
        let q_half = q_all
            .clone()
            .with_predicate(Predicate::ge(ColumnId(1), 6.0));
        let r_all = plan.execute(&q_all).unwrap();
        let r_half = plan.execute(&q_half).unwrap();
        let b_all = compute_bounds(&input, &q_all, &r_all, 0.9).unwrap();
        let b_half = compute_bounds(&input, &q_half, &r_half, 0.9).unwrap();
        let key = GroupKey::new(vec![Value::str("big")]);
        let w_all = b_all.iter().find(|g| g.key == key).unwrap().bounds[0]
            .unwrap()
            .half_width;
        let w_half = b_half.iter().find(|g| g.key == key).unwrap().bounds[0]
            .unwrap()
            .half_width;
        assert!(
            w_half > w_all,
            "predicate indicator variance: {w_half} vs {w_all}"
        );
    }

    #[test]
    fn display_renders_bounds() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = compute_bounds(&input, &q, &result, 0.9).unwrap();
        let ans = ApproximateAnswer {
            result,
            bounds,
            confidence: 0.9,
            provenance: AnswerProvenance::Sampled,
        };
        let s = ans.to_string();
        assert!(s.contains('±') && s.contains("90%"));
        assert!(!s.contains("degraded") && !ans.is_degraded());
        assert!(ans
            .bounds_for(&GroupKey::new(vec![Value::str("big")]))
            .is_some());
    }

    #[test]
    fn display_flags_degraded_answers() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let ans = ApproximateAnswer {
            result,
            bounds: Vec::new(),
            confidence: 1.0,
            provenance: AnswerProvenance::ExactFallback {
                reason: "synopsis quarantined".into(),
            },
        };
        assert!(ans.is_degraded());
        let s = ans.to_string();
        assert!(s.contains("degraded") && s.contains("synopsis quarantined"));
    }
}
