//! One benchmark run: inputs, set-up, the workload's measured phases,
//! output checks, reconciliation and the reported metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use engine::QueryResult;
use relation::{Relation, Value};

use crate::checks::{self, Audit};
use crate::loadgen::{closed_loop, open_loop, HttpConn, LoopResult, Meter};
use crate::probe;
use crate::stats::{self, Summary};
use crate::sut::Sut;
use crate::trace::Tracer;
use crate::workload::{self, picked, BATCH_ROWS, TABLE_ROWS};

/// Client threads (connections, or the writer) driving one workload.
const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Share of the measured time spent in closed-loop rounds.
const CLOSED_SHARE: f64 = 0.4;
/// The measured time is split into rounds of one closed-loop then one
/// open-loop segment (`exact`: closed-loop segments only). Alternating
/// across the whole run lets slow drifts of a shared machine touch every
/// metric alike, and a traced run traces every other round, so traced and
/// untraced segments interleave and their latency difference is the
/// tracing overhead. One more, unmeasured round runs first, so the first
/// measured one does not inherit the set-up's memory churn.
const ROUNDS: usize = 16;
/// A round during which the host stole more than this share of the
/// machine's CPU time measured the neighbours more than the program: such
/// rounds are left out of throughput, latency and CPU per request, as long
/// as at least a quarter of the rounds remain (otherwise the least-stolen
/// quarter is used).
const STEAL_LIMIT: f64 = 0.03;
/// Latency is summarized per window of at least this many consecutive
/// requests — the median, and the tail rule's value (the 11th-largest
/// sample, p95 in a window of 200) — and each is reported as the median
/// over windows. Short windows keep the tail inside the slowest class of
/// request and out of the scheduling stalls a shared host adds to a few
/// percent of requests, which swing a p98 or p99 by several times.
const LATENCY_WINDOW: usize = 200;
const WARM_EXPLORE: usize = 16;
const WARM_EXACT: usize = 8;
/// Four full rounds of the explore generator's grouping × width × date mix.
const AUDIT_QUERIES: usize = 256;
const PROBE_QUERIES: usize = 24;
const PROBE_BATCHES: usize = 6;
/// About one request in this many is kept for the output checks.
const CHECK_ONE_IN: u64 = 32;
/// At most this many exact results are re-run on the oracle path.
const EXACT_CHECKS: usize = 8;

/// Phase tags, so request ids and check subsets differ per phase.
const PHASE_CLOSED: u64 = 1;
const PHASE_OPEN: u64 = 2;
pub const PHASE_PROBE: u64 = 3;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dashboard,
    Explore,
    Ingest,
    Exact,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "dashboard" => Workload::Dashboard,
            "explore" => Workload::Explore,
            "ingest" => Workload::Ingest,
            "exact" => Workload::Exact,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dashboard => "dashboard",
            Workload::Explore => "explore",
            Workload::Ingest => "ingest",
            Workload::Exact => "exact",
        }
    }

    /// Offered rate of the open-loop phase, requests per second: well
    /// below each workload's closed-loop capacity on a 2-CPU machine, so
    /// no seed builds a backlog.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::Dashboard => 1500.0,
            Workload::Explore => 160.0,
            Workload::Ingest => 200.0,
            Workload::Exact => 0.0,
        }
    }

    /// Upper bound on closed-loop requests per second, for sizing streams.
    fn closed_cap_rate(self) -> f64 {
        match self {
            Workload::Dashboard | Workload::Ingest => 40_000.0,
            Workload::Explore => 4_000.0,
            Workload::Exact => 200.0,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check and reconciliation failures; any entry fails the run.
    pub failures: Vec<String>,
    /// Run metadata as `(key, JSON value)`.
    pub meta: Vec<(String, String)>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn tail_meta(&mut self, key: &str, s: &Summary) {
        self.meta(
            key,
            format!(
                "{{\"percentile\":{:.3},\"samples\":{},\"beyond\":{}}}",
                s.tail_pct, s.n, s.beyond
            ),
        );
    }
}

/// Every seeded input of a run.
pub struct Inputs {
    pub base: Relation,
    pub warm: Vec<Arc<str>>,
    pub closed: Vec<Arc<str>>,
    pub open: Vec<Arc<str>>,
    pub audit: Vec<String>,
    pub probe: Vec<Arc<str>>,
    /// The workload's own batches, then the probe's.
    pub batches: Vec<Vec<Vec<Value>>>,
    pub work_batches: usize,
}

fn arcs(v: Vec<String>) -> Vec<Arc<str>> {
    v.into_iter().map(Arc::from).collect()
}

impl Inputs {
    pub fn generate(args: &Args) -> Inputs {
        let (w, seed) = (args.workload, args.seed);
        let closed_n = (w.closed_cap_rate() * args.seconds * CLOSED_SHARE).ceil() as usize;
        let open_n = open_requests(args) * (ROUNDS + 1);
        let work_batches = if w == Workload::Ingest { ROUNDS } else { 0 };
        // Explore regions: [audit | warm | probe | open | closed]; every
        // workload audits the same first AUDIT_QUERIES texts.
        let explore_n = match w {
            Workload::Explore => AUDIT_QUERIES + WARM_EXPLORE + PROBE_QUERIES + open_n + closed_n,
            _ => AUDIT_QUERIES,
        };
        let mut explore = workload::explore_stream(seed, explore_n);
        let mut audit: Vec<String> = explore.drain(..AUDIT_QUERIES).collect();
        let (warm, closed, open, probe) = match w {
            Workload::Dashboard | Workload::Ingest => {
                let cat = arcs(workload::catalogue(seed));
                audit.extend(cat.iter().map(|s| s.to_string()));
                let pick = |region, n| {
                    workload::dashboard_stream(seed, region, cat.len(), n)
                        .into_iter()
                        .map(|i| cat[i].clone())
                        .collect::<Vec<_>>()
                };
                let (closed, open, probe) =
                    (pick(1, closed_n), pick(2, open_n), pick(3, PROBE_QUERIES));
                (cat, closed, open, probe)
            }
            Workload::Explore => {
                let mut rest = arcs(explore).into_iter();
                let mut take = |n| rest.by_ref().take(n).collect::<Vec<_>>();
                let warm = take(WARM_EXPLORE);
                let probe = take(PROBE_QUERIES);
                let open = take(open_n);
                (warm, take(closed_n), open, probe)
            }
            Workload::Exact => (
                arcs(workload::exact_stream(seed, 0, WARM_EXACT)),
                arcs(workload::exact_stream(
                    seed,
                    1,
                    (w.closed_cap_rate() * args.seconds) as usize,
                )),
                Vec::new(),
                arcs(workload::exact_stream(seed, 2, PROBE_QUERIES)),
            ),
        };
        Inputs {
            base: workload::table(seed),
            warm,
            closed,
            open,
            audit,
            probe,
            batches: workload::ingest_batches(seed, work_batches + PROBE_BATCHES),
            work_batches,
        }
    }
}

/// Requests in one open-loop segment.
fn open_requests(args: &Args) -> usize {
    let secs = args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64;
    (args.workload.open_rate() * secs).round() as usize
}

/// Seed of the synopsis's own sampling decisions.
fn synopsis_seed(seed: u64) -> u64 {
    seed ^ 0x4151_5541
}

/// Build, bind and warm; returns the system and the set-up time.
pub fn setup(args: &Args, inputs: &Inputs) -> Result<(Sut, f64), String> {
    let table = inputs.base.clone();
    let t0 = Instant::now();
    let sut = Sut::start(table, synopsis_seed(args.seed))?;
    if args.workload == Workload::Exact {
        for sql in &inputs.warm {
            sut.aqua
                .exact_sql(sql)
                .map_err(|e| format!("warm {sql}: {e}"))?;
        }
    } else {
        let mut conn = sut.connect()?;
        for sql in &inputs.warm {
            match sut.http(&mut conn, sql) {
                Ok(200) => {}
                other => return Err(format!("warm {sql}: {other:?}")),
            }
        }
    }
    Ok((sut, t0.elapsed().as_secs_f64()))
}

/// One HTTP connection of the load generator.
struct Client {
    conn: HttpConn,
    tracer: Tracer,
    captured: Vec<(String, Vec<u8>)>,
}

impl Client {
    fn request(&mut self, sut: &Sut, sql: &str, phase: u64, i: usize, seed: u64) -> bool {
        let Client {
            conn,
            tracer,
            captured,
        } = self;
        let status = tracer.span("server.http", phase << 32 | i as u64, |_| {
            sut.http(conn, sql)
        });
        let ok = matches!(status, Ok(200));
        if ok && picked(seed, phase, i, CHECK_ONE_IN) {
            captured.push((sql.to_string(), conn.body().to_vec()));
        }
        ok
    }
}

/// The exact workload's single in-process client.
struct ExactClient {
    tracer: Tracer,
    captured: Vec<(String, QueryResult)>,
}

/// What the measured phases produced.
#[derive(Default)]
pub struct Phases {
    /// Closed-loop segments of the HTTP workloads, in time order.
    pub closed: Vec<LoopResult>,
    /// Open-loop (`exact`: closed-loop) segments, in time order, and
    /// whether each was traced.
    pub segments: Vec<(bool, LoopResult)>,
    pub writer: Option<LoopResult>,
    pub tracer: Option<Tracer>,
    /// Requests that failed in the unmeasured first round.
    warmup_failed: usize,
    /// Closed-loop stream entries used, the unmeasured round included.
    closed_sent: usize,
    /// Share of CPU time the host stole during each measured round.
    round_steal: Vec<f64>,
    captured_http: Vec<(String, Vec<u8>)>,
    captured_exact: Vec<(String, QueryResult)>,
}

impl Phases {
    fn attempted(&self) -> (u64, u64) {
        let all = self
            .closed
            .iter()
            .chain(self.segments.iter().map(|(_, r)| r))
            .chain(self.writer.iter());
        all.fold((0, 0), |(a, f), r| {
            (a + r.attempted as u64, f + r.failed as u64)
        })
    }

    /// Latencies of the segments, traced or untraced.
    pub fn segment_latencies(&self, traced: bool) -> Vec<f64> {
        self.segments
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, r)| r.latencies_us.iter().copied())
            .collect()
    }
}

fn http_phases(sut: &Sut, inputs: &Inputs, args: &Args, epoch: Instant) -> Result<Phases, String> {
    let readers = if args.workload == Workload::Ingest {
        1
    } else {
        CLIENTS
    };
    let mut clients = (0..readers)
        .map(|_| {
            Ok(Client {
                conn: sut.connect()?,
                tracer: Tracer::new(epoch, false),
                captured: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let seed = args.seed;
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / ROUNDS as f64);
    let per_segment = open_requests(args);
    let interval = Duration::from_secs_f64(1.0 / args.workload.open_rate());
    let mut out = Phases::default();
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut writer = LoopResult::default();
    std::thread::scope(|s| {
        // `ingest`: one writer thread, so every batch allocates from the
        // same place; measured round `k` hands it batch `k - 1` as its
        // open-loop segment starts and waits for it before the round ends,
        // so every such segment holds the same work: one batch and a fixed
        // number of reads.
        let (go, batches) = std::sync::mpsc::channel::<usize>();
        let (finished, done) = std::sync::mpsc::channel();
        let mut wt = Tracer::new(epoch, args.trace);
        let handle = (inputs.work_batches > 0).then(|| {
            s.spawn(move || {
                for b in batches {
                    let due = Instant::now();
                    let ok = wt.span("aqua.insert_batch", b as u64, |_| {
                        sut.insert(&inputs.batches[b])
                    });
                    if finished.send((ok, due.elapsed())).is_err() {
                        break;
                    }
                }
                wt
            })
        });
        let mut sent = 0;
        for k in 0..=ROUNDS {
            let traced = args.trace && k % 2 == 0 && k > 0;
            clients
                .iter_mut()
                .for_each(|c| c.tracer.set_enabled(traced));
            let round = Meter::start();
            let stream = &inputs.closed[sent..];
            let r = closed_loop(&mut clients, stream.len(), closed_for, |c, i| {
                c.request(sut, &stream[i], PHASE_CLOSED, sent + i, seed)
            });
            sent += r.attempted;
            let lo = k * per_segment;
            let cpu = Meter::start();
            let batch = k.checked_sub(1).filter(|&b| b < inputs.work_batches);
            if let Some(b) = batch {
                go.send(b).expect("ingest writer stopped");
            }
            let mut o = open_loop(&mut clients, per_segment, interval, |c, j| {
                c.request(sut, &inputs.open[lo + j], PHASE_OPEN, lo + j, seed)
            });
            if batch.is_some() {
                let (ok, took) = done.recv().expect("ingest writer stopped");
                writer.latencies_us.push(took.as_secs_f64() * 1e6);
                writer.attempted += 1;
                writer.failed += usize::from(!ok);
                writer.elapsed += took;
            }
            o.cpu_s = cpu.cpu_s();
            if k == 0 {
                out.warmup_failed = r.failed + o.failed;
            } else {
                out.closed.push(r);
                out.segments.push((traced, o));
                out.round_steal.push(round.steal_frac());
            }
        }
        out.closed_sent = sent;
        drop(go);
        if let Some(h) = handle {
            tracer.absorb(h.join().expect("ingest writer panicked"));
            out.writer = Some(writer);
        }
    });
    for c in clients {
        tracer.absorb(c.tracer);
        out.captured_http.extend(c.captured);
    }
    out.tracer = Some(tracer);
    Ok(out)
}

fn exact_phases(sut: &Sut, inputs: &Inputs, args: &Args, epoch: Instant) -> Phases {
    let mut client = [ExactClient {
        tracer: Tracer::new(epoch, false),
        captured: Vec::new(),
    }];
    let seed = args.seed;
    let per_segment = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut out = Phases::default();
    let mut offset = 0;
    for k in 0..=ROUNDS {
        let traced = args.trace && k % 2 == 0 && k > 0;
        client[0].tracer.set_enabled(traced);
        let round = Meter::start();
        let stream = &inputs.closed[offset..];
        let r = closed_loop(&mut client, stream.len(), per_segment, |c, i| {
            let (sql, i) = (&stream[i], offset + i);
            let res = c
                .tracer
                .span("aqua.exact_sql", PHASE_CLOSED << 32 | i as u64, |_| {
                    sut.aqua.exact_sql(sql)
                });
            let check = i == 0 || picked(seed, PHASE_CLOSED, i, CHECK_ONE_IN);
            match res {
                Ok(r) if check && c.captured.len() < EXACT_CHECKS => {
                    c.captured.push((sql.to_string(), r));
                    true
                }
                Ok(_) => true,
                Err(_) => false,
            }
        });
        offset += r.attempted;
        if k == 0 {
            out.warmup_failed = r.failed;
        } else {
            out.segments.push((traced, r));
            out.round_steal.push(round.steal_frac());
        }
    }
    out.closed_sent = offset;
    let [c] = client;
    out.captured_exact = c.captured;
    out.tracer = Some(c.tracer);
    out
}

/// The process's peak resident set, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The rounds throughput, latency and CPU per request use: those the host
/// stole at most [`STEAL_LIMIT`] of the CPU time from, or, when that leaves
/// fewer than a quarter, the least-stolen quarter. In time order.
fn quiet_rounds(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = steal.iter().filter(|&&s| s <= STEAL_LIMIT).count();
    order.truncate(quiet.max(steal.len().div_ceil(4)));
    order.sort_unstable();
    order
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    server::json::push_escaped(&mut out, s);
    out
}

/// Run one workload and collect its report.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    let inputs = Inputs::generate(args);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut sut: Option<Sut> = None;
    for _ in 0..repeats {
        if let Some(old) = sut.take() {
            old.server.shutdown();
        }
        let (s, t) = setup(args, &inputs)?;
        setup_s.push(t);
        sut = Some(s);
    }
    let sut = sut.expect("at least one set-up ran");
    let after_setup = sut.aqua.stats();

    let whole = Meter::start();
    let epoch = Instant::now();
    let mut phases = match w {
        Workload::Exact => exact_phases(&sut, &inputs, args, epoch),
        _ => http_phases(&sut, &inputs, args, epoch)?,
    };
    let at_end = (sut.aqua.stats(), sut.server.snapshot());

    // Output checks.
    match w {
        Workload::Dashboard | Workload::Explore => {
            checks::http_bodies(&sut, &phases.captured_http, &mut report.failures)
        }
        Workload::Ingest => {
            // Bodies captured while batches landed belong to generations
            // that no longer exist; re-ask the same SQL now that the
            // writer has stopped.
            let mut conn = sut.connect()?;
            let mut again = Vec::new();
            for (sql, _) in &phases.captured_http {
                match sut.http(&mut conn, sql) {
                    Ok(200) => again.push((sql.clone(), conn.body().to_vec())),
                    other => report.failures.push(format!("re-check {sql}: {other:?}")),
                }
            }
            checks::http_bodies(&sut, &again, &mut report.failures);
        }
        Workload::Exact => checks::exact_results(
            &sut.aqua.table_snapshot(),
            &phases.captured_exact,
            &mut report.failures,
        ),
    }
    if phases.warmup_failed > 0 {
        report.failures.push(format!(
            "{} requests failed in the warm-up round",
            phases.warmup_failed
        ));
    }
    let checked = phases.captured_http.len() + phases.captured_exact.len();
    if checked == 0 {
        report
            .failures
            .push("no response was picked for the output checks".into());
    }

    let (attempted, failed) = phases.attempted();
    report.attempted = attempted;
    report.failed = failed;

    // Throughput, latency and CPU per request come from the rounds the host
    // left alone (in a traced run, from the untraced ones only).
    let untraced: Vec<usize> = (0..phases.segments.len())
        .filter(|&k| !phases.segments[k].0)
        .collect();
    let untraced_steal: Vec<f64> = untraced.iter().map(|&k| phases.round_steal[k]).collect();
    let used: Vec<usize> = quiet_rounds(&untraced_steal)
        .into_iter()
        .map(|i| untraced[i])
        .collect();
    let latencies: Vec<f64> = used
        .iter()
        .flat_map(|&k| phases.segments[k].1.latencies_us.iter().copied())
        .collect();
    let lat = stats::windowed(&latencies, LATENCY_WINDOW);
    let closed: Vec<&LoopResult> = match w {
        Workload::Exact => used.iter().map(|&k| &phases.segments[k].1).collect(),
        _ => used.iter().map(|&k| &phases.closed[k]).collect(),
    };
    let done: usize = closed.iter().map(|r| r.attempted - r.failed).sum();
    // CPU per request is the median over those rounds of each round's own
    // ratio, so rounds in which the machine ran slow for reasons the steal
    // counter does not show (other tenants contending for caches and memory),
    // or in which a workload was still settling, move it only when they are
    // the majority. `ingest` takes it from its open-loop segments: each
    // holds one batch beside a fixed number of reads, so the writer's cost
    // is in every ratio at the same share.
    let cpu_segments: Vec<&LoopResult> = match w {
        Workload::Ingest => used.iter().map(|&k| &phases.segments[k].1).collect(),
        _ => closed.clone(),
    };
    let cpu_per_query = stats::median(
        &cpu_segments
            .iter()
            .map(|r| 1e6 * stats::ratio(r.cpu_s, (r.attempted - r.failed) as f64))
            .collect::<Vec<_>>(),
    );
    let throughput = stats::median(
        &closed
            .iter()
            .map(|r| (r.attempted - r.failed) as f64 / r.elapsed.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    if args.trace {
        probe::layers(
            args,
            &sut,
            &inputs,
            &mut phases,
            &after_setup,
            &at_end,
            epoch,
            &mut report,
        )?;
        report.metric("loadgen.throughput_qps", throughput, "q/s");
        report.metric("loadgen.latency_p50_us", lat.p50, "us");
        report.metric("loadgen.latency_tail_us", lat.tail, "us");
    } else {
        let mut audit = Audit::default();
        for sql in &inputs.audit {
            let served = sut.answer(sql).map_err(|e| format!("audit {sql}: {e}"))?;
            let exact = sut
                .aqua
                .exact_sql(sql)
                .map_err(|e| format!("audit {sql}: {e}"))?;
            audit.add(sql, &served, &exact, &mut report.failures);
        }
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("cpu_us_per_query", cpu_per_query, "us");
        report.metric(
            "success_frac",
            1.0 - stats::ratio(failed as f64, attempted as f64),
            "fraction",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("eps_l1", audit.eps_l1(), "%");
        report.metric("bound_coverage", audit.coverage(), "fraction");
        report.metric("missing_groups_frac", audit.missing_frac(), "fraction");
        report.meta("throughput_qps", throughput);
        report.meta("latency_p50_us", lat.p50);
        report.meta("latency_tail_us", lat.tail);
        report.meta("audit_queries", inputs.audit.len());
        report.meta("audit_bounded_cells", audit.cells());
        report.meta(
            "setup_s_each",
            format!(
                "{:?}",
                setup_s
                    .iter()
                    .map(|s| (s * 1e4).round() / 1e4)
                    .collect::<Vec<_>>()
            ),
        );
    }

    checks::reconcile(&sut, TABLE_ROWS as u64, &mut report.failures);
    sut.server.shutdown();

    report.meta("workload", json_str(w.name()));
    report.meta("seed", args.seed);
    report.meta("run_seconds", args.seconds);
    report.meta("traced", args.trace);
    report.meta("table_rows", TABLE_ROWS);
    report.meta("sample_rows_budget", workload::SAMPLE_ROWS);
    report.meta("clients", CLIENTS);
    report.meta("open_rate_qps", w.open_rate());
    report.meta("latency_samples", latencies.len());
    report.meta("closed_completed", done);
    report.meta(
        "closed_stream_exhausted",
        phases.closed_sent >= inputs.closed.len(),
    );
    report.meta("cpu_steal_frac", whole.steal_frac());
    report.meta(
        "round_steal_frac",
        format!(
            "{:?}",
            phases
                .round_steal
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
    );
    report.meta("rounds_used", format!("{used:?}"));
    report.meta("batch_rows", BATCH_ROWS);
    report.meta("workload_batches", inputs.work_batches);
    report.meta("setup_repeats", repeats);
    report.meta("output_checks", checked);
    report.meta(
        "latency_tail",
        format!(
            "{{\"percentile\":{:.3},\"beyond\":{},\"window\":{LATENCY_WINDOW},\"samples\":{}}}",
            lat.tail_pct, lat.beyond, lat.n
        ),
    );
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.meta("cpu_model", json_str(&cpu_model()));
    report.meta(
        "build_profile",
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rounds_drop_stolen_rounds_but_keep_a_quarter() {
        assert_eq!(quiet_rounds(&[0.0, 0.1, 0.01, 0.02]), vec![0, 2, 3]);
        assert_eq!(quiet_rounds(&[0.2, 0.1, 0.3, 0.05]), vec![3]);
        assert_eq!(quiet_rounds(&[0.0; 3]), vec![0, 1, 2]);
        let spell = [0.2, 0.1, 0.3, 0.05, 0.2, 0.08, 0.3, 0.15];
        assert_eq!(quiet_rounds(&spell), vec![3, 5]);
    }
}
