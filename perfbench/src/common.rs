//! Plumbing shared by the workloads: instrumentation arms, per-simulation
//! hooks, the outcome of one pass, and small statistics helpers.

use skyrise::pricing::SharedMeter;
use skyrise::sim::{EventKind, Histogram, MetricRegistry, MetricsSnapshot, Sanitizer, Sim, Tracer};
use std::collections::BTreeMap;

/// Which of the program's own instruments a simulation runs with. The
/// end-to-end metrics use [`MEASURED`]; the traced run adds the on/off
/// arms whose wall-time deltas give each instrument's host cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm {
    /// Runtime determinism sanitizer (on in every experiment binary).
    pub sanitizer: bool,
    /// Metric registry (`sim::telemetry`).
    pub telemetry: bool,
    /// Virtual-time tracer (`sim::trace`).
    pub trace: bool,
}

/// The configuration the experiment harness runs with: sanitizer on,
/// telemetry and tracing off.
pub const MEASURED: Arm = Arm {
    sanitizer: true,
    telemetry: false,
    trace: false,
};

/// One benchmark workload. A pass sets up fresh simulations (timed as
/// `setup_s`) and then runs them to completion (timed as `wall_s`).
pub trait Workload {
    /// Simulations built and populated, ready to run.
    type Prepared;
    /// Build one pass's inputs and simulations with `arm`'s instruments.
    fn setup(&self, seed: u64, arm: Arm) -> Self::Prepared;
    /// Run a prepared pass and check its outputs.
    fn run(&self, prepared: Self::Prepared) -> Outcome;
    /// Host time of layers that run outside the simulation, timed from
    /// outside on `seed`'s inputs. Only the traced run calls this.
    fn host_layers(&self, _seed: u64) -> HostLayers {
        HostLayers::default()
    }
}

/// Host-timed layers outside the simulation.
#[derive(Default)]
pub struct HostLayers {
    /// Per-layer metrics, in ms.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(layer, estimated ms per pass)` for the host-time ranking.
    pub per_pass: Vec<(&'static str, f64)>,
}

/// The instruments installed in one simulation.
pub struct Hooks {
    sanitizer: Option<Sanitizer>,
    registry: Option<MetricRegistry>,
    tracer: Option<Tracer>,
}

impl Hooks {
    /// Install the arm's instruments. Call before building any model:
    /// components cache their metric handles at construction.
    pub fn install(sim: &Sim, arm: Arm) -> Hooks {
        // Debug builds sanitize by default; make the arm authoritative.
        sim.disable_sanitizer();
        Hooks {
            registry: arm.telemetry.then(|| sim.install_metrics()),
            tracer: arm.trace.then(|| sim.install_tracer()),
            sanitizer: arm.sanitizer.then(|| sim.enable_sanitizer()),
        }
    }
}

/// The virtual end-to-end metrics: outputs of the modelled AWS system,
/// bit-identical for one seed whatever the host does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Virtual {
    /// The workload's headline simulated time.
    pub virtual_s: f64,
    /// Median latency of the workload's client operation.
    pub op_p50_ms: f64,
    /// 99.9th-percentile latency of the workload's client operation.
    pub op_p999_ms: f64,
    /// Share of simulated storage requests not rejected by the service.
    pub ok_share: f64,
    /// The simulated bill.
    pub cost_usd: f64,
    /// Latencies behind `op_p50_ms` and `op_p999_ms` (reported, not a
    /// metric: it says how many samples lie beyond the tail percentile).
    pub op_samples: u64,
}

impl Virtual {
    /// `(name, unit, value)` rows in output order.
    pub fn rows(&self) -> [(&'static str, &'static str, f64); 5] {
        [
            ("virtual_s", "sim_s", self.virtual_s),
            ("op_p50_ms", "sim_ms", self.op_p50_ms),
            ("op_p999_ms", "sim_ms", self.op_p999_ms),
            ("ok_share", "share", self.ok_share),
            ("cost_usd", "usd", self.cost_usd),
        ]
    }

    /// Bitwise equality: the replay contract is bit-for-bit.
    pub fn same_bits(&self, other: &Virtual) -> bool {
        self.op_samples == other.op_samples
            && self
                .rows()
                .iter()
                .zip(other.rows().iter())
                .all(|(a, b)| a.2.to_bits() == b.2.to_bits())
    }
}

/// Everything one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Virtual end-to-end metrics.
    pub virt: Virtual,
    /// Sanitizer digest of every simulation, in execution order.
    pub digests: Vec<u64>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Registry snapshot merged over the pass's simulations.
    pub snapshot: MetricsSnapshot,
    /// Per-layer values the workload derives itself (profiles, meters).
    pub layers: BTreeMap<&'static str, f64>,
    /// Virtual seconds covered by closed trace spans, per service.
    pub span_secs: BTreeMap<&'static str, f64>,
    /// Trace events recorded.
    pub trace_events: u64,
}

impl Outcome {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Fold a finished simulation's instruments into the outcome.
    pub fn absorb(&mut self, hooks: &Hooks) {
        if let Some(report) = hooks.sanitizer.as_ref().and_then(Sanitizer::report) {
            self.digests.push(report.digest);
        }
        if let Some(registry) = &hooks.registry {
            self.snapshot.merge(&registry.snapshot());
        }
        if let Some(tracer) = &hooks.tracer {
            self.trace_events += tracer.len() as u64;
            tracer.with_events(|events| {
                for ev in events {
                    if let (EventKind::Span, Some(d)) = (ev.kind, ev.dur) {
                        *self.span_secs.entry(ev.service).or_insert(0.0) += d.as_secs_f64();
                    }
                }
            });
        }
    }

    /// Add a workload-derived per-layer value (summed over simulations).
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Add the meter's itemised bill to the pricing layer.
    pub fn add_bill(&mut self, meter: &SharedMeter) {
        let bill = meter.borrow().report();
        self.add_layer("pricing.storage_request_usd", bill.storage_request_usd);
        self.add_layer("pricing.lambda_request_usd", bill.lambda_request_usd);
        self.add_layer(
            "pricing.compute_usd",
            bill.lambda_compute_usd + bill.ec2_usd,
        );
        self.add_layer("pricing.capacity_usd", bill.storage_capacity_usd);
    }
}

/// Storage requests the meter saw, and how many the service rejected.
pub fn metered_requests(meter: &SharedMeter) -> (u64, u64) {
    let m = meter.borrow();
    m.storage.values().fold((0, 0), |(all, failed), u| {
        (
            all + u.read_requests + u.write_requests,
            failed + u.failed_requests,
        )
    })
}

/// Smallest value and per-bucket growth of `sim::metrics::Histogram`.
const HIST_MIN: f64 = 1e-9;
const HIST_BASE: f64 = 1.045;

/// Quantile `q` of a histogram, interpolated by rank inside its log bucket.
///
/// `Histogram::quantile` returns the bucket midpoint, so a median over
/// millions of draws reads the same on every seed and hides any change
/// smaller than a bucket (4.5 %). The bucket counts come from the
/// histogram's serialised form; the result is checked to fall in the
/// bucket `Histogram::quantile` names, so a change of bucket layout in
/// the simulator fails loudly here instead of skewing the numbers.
pub fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let json = serde_json::to_value(h);
    let counts: Vec<u64> = json
        .get("counts")
        .and_then(|c| c.as_array())
        .expect("histogram serialises its bucket counts")
        .iter()
        .map(|c| c.as_u64().expect("bucket count is an integer"))
        .collect();
    let target = (q * h.count() as f64).max(1.0);
    let mut seen = 0.0;
    let mut value = h.max();
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= target {
            let frac = (target - seen) / c;
            value = HIST_MIN * HIST_BASE.powf(i as f64 + frac);
            break;
        }
        seen += c;
    }
    let value = value.clamp(h.min(), h.max());
    let coarse = h.quantile(q);
    assert!(
        (value / coarse).ln().abs() <= HIST_BASE.ln() * 1.01,
        "interpolated quantile {value} left the bucket of {coarse}: histogram layout changed"
    );
    value
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a non-empty sample.
pub fn rank_quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A seed for the `index`-th simulation of a pass, spread over the
/// 64-bit space so neighbouring workload seeds share no simulation.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
