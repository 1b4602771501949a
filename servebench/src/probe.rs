//! The traced run's per-layer breakdown.
//!
//! Nothing inside the crates is instrumented; spans wrap the benchmark's
//! own calls into each crate's public functions. To split one
//! `answer_sql_shared` into its layers, a replica replays the same steps
//! (normalize → parse → render the rewrite → execute → bounds → render
//! the response) against a standalone synopsis built from the same table
//! and seed, and must produce the same bytes as the system itself. A
//! twin system built the same way answers each probed SQL in process, so
//! an HTTP round trip and an in-process answer can be paired on the same
//! SQL without either one warming the other's cache.

use std::time::{Duration, Instant};

use aqua::answer::compute_bounds_cached;
use aqua::{AnswerProvenance, ApproximateAnswer, Aqua, ServedAnswer, StatsSnapshot, Synopsis};
use engine::sql::RewriteKind;
use engine::{execute_exact_opts, ExecOptions, ExecTrace};
use relation::{Relation, RelationBuilder, Schema};

use crate::loadgen::open_loop;
use crate::run::{Args, Inputs, Phases, Report, Workload, PHASE_PROBE};
use crate::stats::{median, ratio, summarize};
use crate::sut::Sut;
use crate::trace::Tracer;
use crate::workload::{BATCH_ROWS, TABLE_ROWS};

const PHASE_INGEST_PROBE: u64 = 4;
/// The ingest probe's writer has one batch due this often.
const PROBE_BATCH_INTERVAL: Duration = Duration::from_millis(250);
/// The ingest probe's reader asks one query this often.
const READ_INTERVAL: Duration = Duration::from_millis(2);

/// `answer_sql_shared`'s steps, each in its own span, on `syn`.
fn replica_answer(
    t: &mut Tracer,
    req: u64,
    syn: &Synopsis,
    schema: &Schema,
    sql: &str,
) -> Result<String, String> {
    let err = |e: &dyn std::fmt::Display| format!("replica {sql}: {e}");
    let key = t
        .span("engine.normalize", req, |_| engine::sql::normalize(sql))
        .map_err(|e| err(&e))?;
    let query = t
        .span("engine.parse", req, |_| engine::sql::parse(schema, &key))
        .map_err(|e| err(&e))?;
    let rewritten = t
        .span("engine.render_sql", req, |_| {
            engine::sql::render_rewritten(
                &query,
                schema,
                RewriteKind::Integrated,
                "samp_rel",
                "aux_rel",
            )
        })
        .map_err(|e| err(&e))?;
    let (plan, input) = syn
        .plan()
        .zip(syn.input())
        .ok_or_else(|| err(&"synopsis is stale"))?;
    let cache = syn.query_cache();
    let opts = ExecOptions {
        cache: Some(cache),
        parallel: syn.config().effective_parallelism() != 1,
        ..ExecOptions::default()
    };
    let result = t
        .span("engine.execute", req, |_| plan.execute_opts(&query, &opts))
        .map_err(|e| err(&e))?;
    let confidence = syn.config().confidence;
    let bounds = t
        .span("aqua.bounds", req, |_| {
            compute_bounds_cached(input, &query, &result, confidence, Some(cache))
        })
        .map_err(|e| err(&e))?;
    let served = ServedAnswer {
        answer: ApproximateAnswer {
            result,
            bounds,
            confidence,
            provenance: AnswerProvenance::Sampled,
        },
        rewritten,
    };
    Ok(t.span("server.render", req, |_| {
        server::json::render_answer(&served)
    }))
}

fn hist_mean(s: &StatsSnapshot, name: &str) -> f64 {
    s.histogram(name).map_or(0.0, |h| h.mean())
}

fn cache_ratio(s: &StatsSnapshot, prefix: &str) -> f64 {
    let hits = s.counter(&format!("{prefix}_hits_total")) as f64;
    let misses = s.counter(&format!("{prefix}_misses_total")) as f64;
    ratio(hits, hits + misses)
}

/// Run the probes of a traced run and report every per-layer metric.
#[allow(clippy::too_many_arguments)]
pub fn layers(
    args: &Args,
    sut: &Sut,
    inputs: &Inputs,
    phases: &mut Phases,
    after_setup: &StatsSnapshot,
    at_end: &(StatsSnapshot, obs::Snapshot),
    epoch: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let mut t = Tracer::new(epoch, true);
    let grouping = tpcd::LineitemSchema::ids().grouping_columns();
    let config = sut.aqua.config();
    let twin =
        Aqua::build(inputs.base.clone(), grouping.clone(), config).map_err(|e| e.to_string())?;
    let mut replica = Synopsis::new(config, grouping).map_err(|e| e.to_string())?;
    {
        let table = inputs.base.clone();
        replica.ingest(&table, 0).map_err(|e| e.to_string())?;
        replica.rebuild_bulk(&table).map_err(|e| e.to_string())?;
    }
    let table = sut.aqua.table_snapshot();
    let schema = table.schema().clone();
    if w != Workload::Exact {
        let mut off = Tracer::new(epoch, false);
        for sql in &inputs.warm {
            twin.answer_sql_shared(sql).map_err(|e| e.to_string())?;
            replica_answer(&mut off, 0, &replica, &schema, sql)?;
        }
    }

    // Layer probe, one pass per path so each runs back to back as it does
    // under load: the probed SQL over HTTP, in process on the twin,
    // through the replica, and exactly on the current table.
    let req = |r: usize| PHASE_PROBE << 32 | r as u64;
    let mut conn = sut.connect()?;
    let mut http = Vec::new();
    for (r, sql) in inputs.probe.iter().enumerate() {
        let t0 = Instant::now();
        let status = t.span("server.http", req(r), |_| sut.http(&mut conn, sql));
        http.push(t0.elapsed().as_secs_f64() * 1e6);
        if !matches!(status, Ok(200)) {
            report.failures.push(format!("probe {sql}: {status:?}"));
        }
    }
    let mut paired = Vec::new();
    let mut bodies = Vec::new();
    for (r, sql) in inputs.probe.iter().enumerate() {
        let t0 = Instant::now();
        let served = t
            .span("aqua.answer_sql_shared", req(r), |_| {
                twin.answer_sql_shared(sql)
            })
            .map_err(|e| format!("twin {sql}: {e}"))?;
        paired.push(http[r] - t0.elapsed().as_secs_f64() * 1e6);
        bodies.push(server::json::render_answer(&served));
    }
    for (r, sql) in inputs.probe.iter().enumerate() {
        let body = t.span("replica", req(r), |t| {
            replica_answer(t, req(r), &replica, &schema, sql)
        })?;
        if body != bodies[r] {
            report
                .failures
                .push(format!("replica answer differs from the system's: {sql}"));
        }
    }
    let mut exact_trace = (0u64, 0u64, 0u64, 0u64);
    for (r, sql) in inputs.probe.iter().enumerate() {
        let query = engine::sql::parse(&schema, sql).map_err(|e| e.to_string())?;
        let trace = ExecTrace::new();
        let opts = ExecOptions {
            trace: Some(&trace),
            ..ExecOptions::default()
        };
        t.span("engine.exact", req(r), |_| {
            execute_exact_opts(&table, &query, &opts)
        })
        .map_err(|e| format!("exact {sql}: {e}"))?;
        exact_trace.0 += trace.rows_scanned();
        exact_trace.1 += trace.chunks_scanned();
        exact_trace.2 += trace.chunks_pruned();
        exact_trace.3 += trace.kernel_pred_chunks();
    }
    drop(twin);
    drop(table);

    // Ingest probe: a writer appends batches on the ingest schedule while
    // one reader answers the probed SQL in process.
    let probe_batches = &inputs.batches[inputs.work_batches..];
    let reads = (PROBE_BATCH_INTERVAL.as_secs_f64() * probe_batches.len() as f64
        / READ_INTERVAL.as_secs_f64()) as usize;
    let mut writer_t = Tracer::new(epoch, true);
    let mut reader_t = Tracer::new(epoch, true);
    let (writer, during) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut rt = [&mut reader_t];
            open_loop(&mut rt, reads, READ_INTERVAL, |t, i| {
                let sql = &inputs.probe[i % inputs.probe.len()];
                t.span(
                    "aqua.answer_during_ingest",
                    PHASE_INGEST_PROBE << 32 | i as u64,
                    |_| sut.answer(sql),
                )
                .is_ok()
            })
        });
        let mut wt = [&mut writer_t];
        let r = open_loop(
            &mut wt,
            probe_batches.len(),
            PROBE_BATCH_INTERVAL,
            |t, b| {
                t.span(
                    "aqua.insert_batch",
                    PHASE_INGEST_PROBE << 32 | b as u64,
                    |_| sut.insert(&probe_batches[b]),
                )
            },
        );
        (r, reader.join().expect("ingest probe reader panicked"))
    });
    if writer.failed > 0 || during.failed > 0 {
        report.failures.push(format!(
            "ingest probe: {} batches, {} reads failed",
            writer.failed, during.failed
        ));
    }
    let grown = sut.aqua.table_snapshot();
    for (b, rows) in probe_batches.iter().enumerate() {
        let mut builder = RelationBuilder::from_schema(grown.schema());
        for row in rows {
            builder.push_row(row).map_err(|e| e.to_string())?;
        }
        let batch = builder.finish();
        t.span("relation.concat", b as u64, |_| {
            Relation::concat(&[&grown, &batch])
        })
        .map_err(|e| e.to_string())?;
        let first = TABLE_ROWS + (inputs.work_batches + b) * BATCH_ROWS;
        t.span("congress.maintain", b as u64, |_| {
            replica.ingest(&batch, first)
        })
        .map_err(|e| e.to_string())?;
    }
    drop(grown);

    // Lazy per-relation structures, built once on an untouched copy.
    let fresh = inputs.base.clone();
    t.span("relation.zone_maps", 0, |_| {
        fresh.zone_maps();
    });
    let fresh = inputs.base.clone();
    let encoded_bytes = t.span("relation.encode", 0, |_| fresh.encoded().encoded_bytes());
    drop(fresh);

    let final_stats = sut.aqua.stats();
    let mut all = phases
        .tracer
        .take()
        .unwrap_or_else(|| Tracer::new(epoch, true));
    all.absorb(t);
    all.absorb(writer_t);
    all.absorb(reader_t);

    let p50 = |name: &str| median(&all.self_us(name));
    let (st, srv) = at_end;
    let answer_us = p50("aqua.answer_sql_shared");
    let self_us = median(&paired);
    let parts = [
        "engine.normalize",
        "engine.parse",
        "engine.execute",
        "aqua.bounds",
    ]
    .iter()
    .map(|n| p50(n))
    .sum::<f64>();
    let batches: Vec<f64> = match &phases.writer {
        Some(wr) => wr.latencies_us.clone(),
        None => writer.latencies_us.clone(),
    };
    let batch = summarize(&batches);
    let during_s = summarize(&all.self_us("aqua.answer_during_ingest"));
    let lags: Vec<f64> = phases
        .segments
        .iter()
        .flat_map(|(_, r)| r.lags_us.iter())
        .chain(phases.writer.iter().flat_map(|r| r.lags_us.iter()))
        .chain(writer.lags_us.iter())
        .copied()
        .collect();
    let lag = summarize(&lags);
    let overhead = ratio(
        median(&phases.segment_latencies(true)),
        median(&phases.segment_latencies(false)),
    ) - 1.0;
    let rows_per_query = if w == Workload::Exact {
        ratio(exact_trace.0 as f64, inputs.probe.len() as f64)
    } else {
        ratio(
            st.counter("aqua_rows_scanned_total") as f64,
            st.counter_family("aqua_queries_total") as f64,
        )
    };
    let delta = |name: &str| {
        final_stats
            .counter(name)
            .saturating_sub(after_setup.counter(name)) as f64
    };
    let evictions = delta("synopsis_evictions_total") + delta("synopsis_delta_merges_total");

    report.metric("server.self_us", self_us, "us");
    report.metric("server.render_us", p50("server.render"), "us");
    report.metric(
        "server.shed",
        srv.counter("server_shed_total") as f64,
        "count",
    );
    report.metric(
        "server.timeouts",
        srv.counter("server_timeouts_total") as f64,
        "count",
    );
    report.metric("aqua.answer_us", answer_us, "us");
    report.metric("aqua.bounds_us", p50("aqua.bounds"), "us");
    report.metric(
        "aqua.answer_cache_hit_ratio",
        cache_ratio(st, "aqua_answer_cache"),
        "fraction",
    );
    report.metric(
        "aqua.plan_cache_hit_ratio",
        cache_ratio(st, "aqua_plan_cache"),
        "fraction",
    );
    report.metric(
        "aqua.cache_entries",
        (st.gauge("aqua_answer_cache_entries") + st.gauge("aqua_plan_cache_entries")) as f64,
        "count",
    );
    report.metric("aqua.insert_batch_ms", p50("aqua.insert_batch") / 1e3, "ms");
    report.metric("aqua.answer_during_ingest_us", during_s.tail, "us");
    report.metric(
        "aqua.refresh_us",
        hist_mean(&final_stats, "synopsis_refresh_us"),
        "us",
    );
    report.metric("engine.normalize_us", p50("engine.normalize"), "us");
    report.metric("engine.parse_us", p50("engine.parse"), "us");
    report.metric("engine.execute_us", p50("engine.execute"), "us");
    report.metric(
        "engine.query_cache_hit_ratio",
        cache_ratio(st, "aqua_cache"),
        "fraction",
    );
    report.metric(
        "engine.rows_scanned_per_query",
        rows_per_query,
        "rows/query",
    );
    report.metric("engine.exact_us", p50("engine.exact"), "us");
    report.metric(
        "relation.chunks_pruned_frac",
        ratio(exact_trace.2 as f64, (exact_trace.1 + exact_trace.2) as f64),
        "fraction",
    );
    report.metric(
        "relation.decode_avoided_frac",
        ratio(exact_trace.3 as f64, exact_trace.1 as f64),
        "fraction",
    );
    report.metric("relation.concat_ms", p50("relation.concat") / 1e3, "ms");
    report.metric(
        "relation.zone_map_build_ms",
        p50("relation.zone_maps") / 1e3,
        "ms",
    );
    report.metric("relation.encode_ms", p50("relation.encode") / 1e3, "ms");
    report.metric(
        "relation.encoded_bytes_per_row",
        encoded_bytes as f64 / TABLE_ROWS as f64,
        "B/row",
    );
    report.metric(
        "congress.census_ms",
        hist_mean(after_setup, "synopsis_build_census_us") / 1e3,
        "ms",
    );
    report.metric(
        "congress.alloc_ms",
        hist_mean(after_setup, "synopsis_build_alloc_us") / 1e3,
        "ms",
    );
    report.metric(
        "congress.draw_ms",
        hist_mean(after_setup, "synopsis_build_draw_us") / 1e3,
        "ms",
    );
    report.metric("congress.maintain_ms", p50("congress.maintain") / 1e3, "ms");
    report.metric(
        "congress.evictions_per_row",
        ratio(evictions, delta("synopsis_ingested_rows_total")),
        "1/row",
    );
    report.metric("ingest.batch_p50_ms", batch.p50 / 1e3, "ms");
    report.metric("ingest.batch_tail_ms", batch.tail / 1e3, "ms");
    report.metric("loadgen.send_lag_tail_us", lag.tail, "us");
    report.metric("trace.overhead_frac", overhead, "fraction");
    report.metric("trace.parts_frac", ratio(parts, answer_us), "fraction");
    report.metric(
        "trace.http_explained_frac",
        ratio(self_us + answer_us, median(&http)),
        "fraction",
    );
    report.tail_meta("aqua.answer_during_ingest_tail", &during_s);
    report.tail_meta("ingest.batch_tail", &batch);
    report.tail_meta("loadgen.send_lag_tail", &lag);
    report.meta("probe_queries", inputs.probe.len());
    report.meta("probe_batches", probe_batches.len());
    report.tracer = Some(all);
    Ok(())
}
