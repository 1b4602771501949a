//! `servebench`: a seeded serving benchmark for the congressional-sample
//! middleware.
//!
//! ```text
//! servebench --workload dashboard|explore|ingest|exact --seed N --seconds S --trace 0|1
//! ```
//!
//! One process generates the §7.1.1 `lineitem` table from the seed, builds
//! one `Aqua` with a 5% Congress synopsis behind an in-process HTTP
//! server, drives the workload, checks every output it kept, reconciles
//! its counts with the system's, and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` replays the same streams with spans and reports the
//! per-layer breakdown. See README.md.

mod checks;
mod loadgen;
mod probe;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use run::{Args, Report, Workload};

const USAGE: &str =
    "usage: servebench --workload dashboard|explore|ingest|exact --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && (1.0..=600.0).contains(&s)) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The final result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failed
    )
}

fn meta_json(r: &Report) -> String {
    let fields: Vec<String> = r
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Results and spans go under `out/` beside this package; failing to write
/// them is reported but does not fail the run.
fn write_outputs(args: &Args, r: &Report, meta: &str, result: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![(
        format!("{stem}.json"),
        format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
    )];
    if let Some(t) = &r.tracer {
        files.push((format!("{stem}.spans.jsonl"), t.to_jsonl()));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        files
            .iter()
            .try_for_each(|(name, body)| std::fs::write(dir.join(name), body))
    });
    if let Err(e) = written {
        eprintln!("servebench: could not write {}: {e}", dir.display());
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    let meta = meta_json(&report);
    let result = result_line(&report);
    write_outputs(&args, &report, &meta, &result);
    println!("{{\"meta\": {meta}}}");
    println!("{result}");
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload explore --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Explore, 42, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload exact --seed 1 --trace 2").is_err());
        assert!(args("--workload exact --seed 1 --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_us", 1.5, "us");
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
