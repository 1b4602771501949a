//! Output checks, count reconciliation and the accuracy audit.
//!
//! Output checks and reconciliation fail the run on any mismatch; the
//! audit measures answer quality and fails only on an answer that cannot
//! come from a sample (a group the exact answer lacks).

use aqua::ServedAnswer;
use engine::{execute_exact_opts, ExecOptions, QueryResult};
use relation::Relation;

use crate::sut::Sut;

/// Compare each captured HTTP 200 body with the in-process answer to the
/// same SQL, rendered the way the server renders it.
pub fn http_bodies(sut: &Sut, captured: &[(String, Vec<u8>)], failures: &mut Vec<String>) {
    for (sql, body) in captured {
        match sut.answer(sql) {
            Ok(served) => {
                if server::json::render_answer(&served).as_bytes() != body.as_slice() {
                    failures.push(format!(
                        "HTTP body differs from the in-process answer: {sql}"
                    ));
                }
            }
            Err(e) => failures.push(format!("in-process answer failed for {sql}: {e}")),
        }
    }
}

/// Compare captured exact results with the oracle path: the same query
/// executed with zone-map pruning and scan kernels off.
pub fn exact_results(
    table: &Relation,
    captured: &[(String, QueryResult)],
    failures: &mut Vec<String>,
) {
    let oracle = ExecOptions {
        pruning: false,
        kernels: false,
        ..ExecOptions::default()
    };
    for (sql, got) in captured {
        let want = engine::sql::parse(table.schema(), sql)
            .and_then(|q| execute_exact_opts(table, &q, &oracle));
        match want {
            Ok(want) if &want == got => {}
            Ok(_) => failures.push(format!("exact result differs from the oracle: {sql}")),
            Err(e) => failures.push(format!("oracle failed for {sql}: {e}")),
        }
    }
}

/// Reconcile the benchmark's own counts of the calls it made with the
/// server's and the system's counters. The server bumps its request
/// counter just after handing the response over, so the first check polls
/// briefly before failing.
pub fn reconcile(sut: &Sut, base_rows: u64, failures: &mut Vec<String>) {
    let (http_attempts, inproc_calls, rows_inserted) = sut.counts();
    let family = "server_requests_total{endpoint=\"/query\"";
    let mut served = 0;
    for _ in 0..200 {
        served = sut.server.snapshot().counter_family(family);
        if served == http_attempts {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if served != http_attempts {
        failures.push(format!(
            "client sent {} /query requests, server counted {served}",
            http_attempts
        ));
    }
    let srv = sut.server.snapshot();
    let st = sut.aqua.stats();
    let lookups =
        st.counter("aqua_answer_cache_hits_total") + st.counter("aqua_answer_cache_misses_total");
    let answered =
        http_attempts - srv.counter("server_shed_total") - srv.counter("server_coalesced_total")
            + inproc_calls;
    if lookups != answered {
        failures.push(format!(
            "answer-cache hits + misses = {lookups}, but {answered} queries were answered"
        ));
    }
    let rows = st.gauge("aqua_table_rows") as u64;
    if rows != base_rows + rows_inserted {
        failures.push(format!(
            "table holds {rows} rows, expected {} base + {} inserted",
            base_rows, rows_inserted
        ));
    }
}

/// Answer quality over the audited queries.
#[derive(Debug, Default)]
pub struct Audit {
    /// Sum of per-(query, aggregate) ε_L1, in percent.
    eps_sum: f64,
    eps_n: usize,
    /// (query, group, aggregate) cells present in both answers with a bound.
    cells: usize,
    covered: usize,
    exact_groups: usize,
    missing_groups: usize,
}

impl Audit {
    /// Fold in one query's approximate and exact answers.
    pub fn add(
        &mut self,
        sql: &str,
        served: &ServedAnswer,
        exact: &QueryResult,
        failures: &mut Vec<String>,
    ) {
        let approx = &served.answer.result;
        for a in 0..exact.aggregate_names.len() {
            let report = congress::compare_results(exact, approx, a, 100.0);
            if report.spurious_groups > 0 {
                failures.push(format!(
                    "{} groups in the approximate answer are not in the exact one: {sql}",
                    report.spurious_groups
                ));
            }
            self.eps_sum += report.l1();
            self.eps_n += 1;
        }
        let by_key = approx.by_key();
        self.exact_groups += exact.group_count();
        for (key, want) in exact.iter() {
            let Some(got) = by_key.get(key) else {
                self.missing_groups += 1;
                continue;
            };
            let Some(bounds) = served.answer.bounds_for(key) else {
                continue;
            };
            for (a, b) in bounds.bounds.iter().enumerate() {
                if let Some(b) = b {
                    self.cells += 1;
                    self.covered += usize::from((got[a] - want[a]).abs() <= b.half_width);
                }
            }
        }
    }

    /// Mean ε_L1 over audited (query, aggregate) pairs, in percent.
    pub fn eps_l1(&self) -> f64 {
        crate::stats::ratio(self.eps_sum, self.eps_n as f64)
    }

    /// Share of bounded cells whose bound contains the exact value.
    pub fn coverage(&self) -> f64 {
        crate::stats::ratio(self.covered as f64, self.cells as f64)
    }

    /// Share of exact groups absent from the approximate answer.
    pub fn missing_frac(&self) -> f64 {
        crate::stats::ratio(self.missing_groups as f64, self.exact_groups as f64)
    }

    /// Audited cells with a stated bound.
    pub fn cells(&self) -> usize {
        self.cells
    }
}
