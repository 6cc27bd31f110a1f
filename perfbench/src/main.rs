//! The repository benchmark: three workloads that load different layers of
//! the simulator, the storage/network models and the query engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <s3_get_ramp|tpch_suite|storage_rw_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! A run repeats one fixed pass of its workload, each time set up afresh,
//! until `--seconds` have passed (at least three passes), and reports
//! medians. Host metrics (what running the simulator costs) and virtual
//! metrics (what the modelled AWS system delivers) are kept apart: every
//! pass of one seed must reproduce the virtual metrics and sanitizer
//! digests bit for bit, and that replay is one of the output checks.
//! `--trace 1` instead runs the on/off arms (sanitizer off, telemetry on,
//! tracer on) and prints the per-layer metrics. The last line of standard
//! output is one JSON object; see `perfbench/WORKLOADS.md`.

// A host-side benchmark: wall-clock timing is its job.
#![allow(clippy::disallowed_methods)]

mod common;
mod layers;
mod ramp;
mod rwmix;
mod tpch;

use common::{median, peak_rss_mib, Arm, Outcome, Workload, MEASURED};
use layers::{ArmWalls, PER_LAYER};
use std::fmt::Write as _;
use std::time::Instant;

/// Passes per run never fall below this, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

const WORKLOADS: [&str; 3] = ["s3_get_ramp", "tpch_suite", "storage_rw_mix"];

/// What to do with a workload.
enum Mode<'a> {
    /// End-to-end metrics over `--seconds`.
    EndToEnd(f64),
    /// Per-layer metrics over `--seconds`.
    Traced(f64),
    /// The tiny-size checks against the parsed `BENCHMARK.json`.
    Smoke(&'a serde_json::Value),
}

/// Run the named workload, at benchmark size or at smoke-test size.
/// `None` if no workload has that name.
fn dispatch(name: &str, seed: u64, mode: Mode) -> Option<Result<Report, String>> {
    fn go<W: Workload>(w: &W, name: &str, seed: u64, mode: Mode) -> Result<Report, String> {
        match mode {
            Mode::EndToEnd(seconds) => Ok(end_to_end(w, seed, seconds)),
            Mode::Traced(seconds) => Ok(traced(w, seed, seconds)),
            Mode::Smoke(spec) => smoke_workload(w, name, seed, spec),
        }
    }
    let tiny = matches!(mode, Mode::Smoke(_));
    Some(match name {
        "s3_get_ramp" => go(&ramp::Ramp::new(tiny), name, seed, mode),
        "tpch_suite" => go(&tpch::Tpch::new(seed, tiny), name, seed, mode),
        "storage_rw_mix" => go(&rwmix::RwMix::new(tiny), name, seed, mode),
        _ => return None,
    })
}

/// Timed passes of one arm.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// The first pass's outcome, with every later pass's checks and
    /// replay comparisons added to its counts.
    outcome: Option<Outcome>,
}

impl Measured {
    /// Fold in a later pass, which must reproduce the first one's virtual
    /// metrics and sanitizer digests exactly.
    fn add(&mut self, outcome: Outcome) {
        let Some(first) = &mut self.outcome else {
            self.outcome = Some(outcome);
            return;
        };
        first.attempted += outcome.attempted;
        first.failed += outcome.failed;
        let same = first.virt.same_bits(&outcome.virt) && first.digests == outcome.digests;
        let first_virt = first.virt;
        first.check(same, || {
            format!(
                "same-seed replay diverged: {first_virt:?} vs {:?}",
                outcome.virt
            )
        });
    }

    fn outcome(&self) -> &Outcome {
        self.outcome.as_ref().expect("at least one pass")
    }
}

/// Set up and run passes of every arm in turn until `seconds` have passed
/// and at least `min_rounds` rounds are done. Taking the arms round-robin
/// spreads slow and fast spells of the host evenly over them.
fn measure<W: Workload>(
    w: &W,
    seed: u64,
    arms: &[Arm],
    seconds: f64,
    min_rounds: usize,
) -> Vec<Measured> {
    let started = Instant::now();
    let mut runs: Vec<Measured> = arms.iter().map(|_| Measured::default()).collect();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        for (&arm, m) in arms.iter().zip(&mut runs) {
            let t = Instant::now();
            let prepared = w.setup(seed, arm);
            m.setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let outcome = w.run(prepared);
            m.wall_s.push(t.elapsed().as_secs_f64());
            m.add(outcome);
        }
        rounds += 1;
    }
    runs
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// The benchmark's result for one run.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// End-to-end metrics with every instrument but the sanitizer off.
fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let m = measure(w, seed, &[MEASURED], seconds, MIN_PASSES)
        .pop()
        .expect("one arm");
    let outcome = m.outcome();
    let mut metrics = vec![
        Metric {
            name: "wall_s",
            unit: "s",
            value: median(&m.wall_s),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&m.setup_s),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: peak_rss_mib(),
        },
    ];
    for (name, unit, value) in outcome.virt.rows() {
        metrics.push(Metric { name, unit, value });
    }
    println!(
        "passes {}, wall_s per pass {:?}, setup_s {:?}, op latency samples {}",
        m.wall_s.len(),
        m.wall_s,
        m.setup_s,
        outcome.virt.op_samples
    );
    Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    }
}

/// The traced run: four arms that differ only in their instruments, then
/// the externally timed layers. Every arm must reproduce the measured
/// arm's virtual metrics, and every sanitized arm its digests too.
fn traced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let labels = ["sanitizer on", "sanitizer off", "telemetry on", "tracer on"];
    let arms = [
        MEASURED,
        Arm {
            sanitizer: false,
            ..MEASURED
        },
        Arm {
            telemetry: true,
            ..MEASURED
        },
        Arm {
            telemetry: true,
            trace: true,
            ..MEASURED
        },
    ];
    let runs = measure(w, seed, &arms, seconds, 2);
    let wall = |i: usize| median(&runs[i].wall_s);
    let walls = ArmWalls {
        measured: wall(0),
        no_sanitizer: wall(1),
        telemetry: wall(2),
        traced: wall(3),
    };
    let reference = runs[0].outcome();
    let (mut attempted, mut failed) = (0, 0);
    for ((label, arm), m) in labels.iter().zip(&arms).zip(&runs) {
        let o = m.outcome();
        attempted += o.attempted + 1;
        failed += o.failed;
        let same =
            o.virt.same_bits(&reference.virt) && (!arm.sanitizer || o.digests == reference.digests);
        if !same {
            failed += 1;
            eprintln!("check failed: {label} changed the virtual result");
        }
    }

    let host = w.host_layers(seed);
    let attributed: f64 = host.per_pass.iter().map(|(_, ms)| ms).sum();
    let remainder_ms = walls.no_sanitizer * 1e3 - attributed;
    let mut ranking = host.per_pass.clone();
    ranking.extend([
        ("sanitizer", (walls.measured - walls.no_sanitizer) * 1e3),
        (
            "executor + storage/net/FaaS models (remainder)",
            remainder_ms,
        ),
        (
            "telemetry registry (off in end-to-end runs)",
            (walls.telemetry - walls.measured) * 1e3,
        ),
        (
            "tracer (off in end-to-end runs)",
            (walls.traced - walls.telemetry) * 1e3,
        ),
    ]);
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "host ms per pass by layer ({:.1} ms with the sanitizer on, {} passes per arm):",
        walls.measured * 1e3,
        runs[0].wall_s.len()
    );
    for (i, (layer, ms)) in ranking.iter().enumerate() {
        let top = if i < 3 { "top" } else { "   " };
        println!("  {top} {layer:<48} {ms:>10.1}");
    }
    println!(
        "tracing overhead: traced vs untraced wall {:+.1}% (registry {:+.1}%, tracer {:+.1}%)",
        (walls.traced / walls.measured - 1.0) * 100.0,
        (walls.telemetry / walls.measured - 1.0) * 100.0,
        (walls.traced - walls.telemetry) / walls.measured * 100.0
    );

    let values = layers::per_layer(runs[3].outcome(), &walls, &host.metrics, remainder_ms);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(spec: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    let field = |m: &serde_json::Value, f: &str| {
        m.get(f)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    spec.get(key)
        .and_then(|v| v.as_array())
        .map(|a| {
            a.iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        })
        .unwrap_or_default()
}

/// One workload at tiny size: every metric present, finite and with a
/// unit, names and units matching `BENCHMARK.json`, two same-seed runs
/// with identical virtual metrics, and no failed output check.
fn smoke_workload<W: Workload>(
    w: &W,
    name: &str,
    seed: u64,
    spec: &serde_json::Value,
) -> Result<Report, String> {
    let runs = [end_to_end(w, seed, 0.0), end_to_end(w, seed, 0.0)];
    let layered = traced(w, seed, 0.0);
    for (report, key) in [(&runs[0], "end_to_end"), (&layered, "per_layer")] {
        let got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        if got != declared(spec, key) {
            return Err(format!("{name}: {key} metrics differ from BENCHMARK.json"));
        }
        if let Some(m) = report
            .metrics
            .iter()
            .find(|m| !m.value.is_finite() || m.unit.is_empty())
        {
            return Err(format!("{name}: {} = {} {:?}", m.name, m.value, m.unit));
        }
        if report.failed > 0 {
            return Err(format!(
                "{name}: {} of {} checks failed",
                report.failed, report.attempted
            ));
        }
    }
    let virtual_names = common::Virtual::default().rows().map(|(name, _, _)| name);
    let virtual_of = |r: &Report| -> Vec<u64> {
        r.metrics
            .iter()
            .filter(|m| virtual_names.contains(&m.name))
            .map(|m| m.value.to_bits())
            .collect()
    };
    if virtual_of(&runs[0]) != virtual_of(&runs[1]) {
        return Err(format!("{name}: same-seed runs differ in virtual metrics"));
    }
    let [r0, _] = runs;
    Ok(r0)
}

/// Every workload at tiny size, checked against `BENCHMARK.json`.
fn smoke() -> Result<(), String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let spec: serde_json::Value =
        serde_json::from_str(&spec).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(|v| v.as_array())
        .map(|a| {
            a.iter()
                .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    for name in WORKLOADS {
        dispatch(name, 7, Mode::Smoke(&spec)).expect("known workload")?;
        println!("smoke {name}: ok");
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => match smoke() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("smoke check failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --smoke",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mode = if args.trace {
        Mode::Traced(args.seconds)
    } else {
        Mode::EndToEnd(args.seconds)
    };
    let report = match dispatch(&args.workload, args.seed, mode) {
        Some(Ok(report)) => report,
        Some(Err(e)) => unreachable!("only the smoke check fails with a message: {e}"),
        None => {
            eprintln!(
                "unknown workload {}; expected one of {WORKLOADS:?}",
                args.workload
            );
            std::process::exit(2);
        }
    };
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::smoke().unwrap();
    }
}
