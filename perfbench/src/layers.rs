//! Per-layer metrics of the traced run. Counts and virtual-time spans come
//! from the program's own metric registry and tracer; host time per layer
//! comes from on/off arms and from timing public calls from outside.

use crate::common::{interpolated_quantile, Outcome};
use skyrise::sim::MetricsSnapshot;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order. Layers a
/// workload leaves idle report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.requests", "count"),
    ("sim.events", "count"),
    ("sim.polls_per_request", "ratio"),
    ("sim.timer_inserts_per_request", "ratio"),
    ("sim.peak_live_tasks", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.sanitizer_share", "share"),
    ("sim.telemetry_share", "share"),
    ("sim.trace_share", "share"),
    ("net.transfer.count", "count"),
    ("net.timer_inserts_per_transfer", "ratio"),
    ("net.transfer.stalled_slices", "count"),
    ("net.fabric.throttle_onsets", "count"),
    ("storage.s3_standard.ops_ok", "count"),
    ("storage.s3_standard.ops_failed", "count"),
    ("storage.s3_standard.op_p50_ms", "sim_ms"),
    ("storage.s3_standard.op_p99_ms", "sim_ms"),
    ("storage.s3_standard.bytes_read", "bytes"),
    ("storage.s3_standard.bytes_written", "bytes"),
    ("storage.s3_standard.partitions", "count"),
    ("storage.s3_standard.read_gib_s", "GiB/sim_s"),
    ("storage.s3_standard.write_gib_s", "GiB/sim_s"),
    ("storage.dynamodb.ops_ok", "count"),
    ("storage.dynamodb.ops_failed", "count"),
    ("storage.dynamodb.op_p50_ms", "sim_ms"),
    ("storage.dynamodb.op_p99_ms", "sim_ms"),
    ("storage.dynamodb.bytes_read", "bytes"),
    ("storage.dynamodb.bytes_written", "bytes"),
    ("storage.dynamodb.read_gib_s", "GiB/sim_s"),
    ("storage.dynamodb.write_gib_s", "GiB/sim_s"),
    ("storage.client.retries", "count"),
    ("faas.invoke.count", "count"),
    ("faas.sandbox.cold_starts", "count"),
    ("faas.coldstart_share", "share"),
    ("engine.worker.rows_in", "count"),
    ("engine.worker.bytes_read", "bytes"),
    ("engine.worker.cpu_secs", "sim_s"),
    ("engine.worker.io_secs", "sim_s"),
    ("engine.shuffle.read_ratio", "ratio"),
    ("engine.arena.bytes_allocated", "bytes"),
    ("engine.task.retries", "count"),
    ("engine.critical_path_s", "sim_s"),
    ("engine.op.scan_read_s", "sim_s"),
    ("engine.op.shuffle_read_s", "sim_s"),
    ("engine.op.io_stack_s", "sim_s"),
    ("engine.op.filter_s", "sim_s"),
    ("engine.op.project_s", "sim_s"),
    ("engine.op.hash_aggregate_s", "sim_s"),
    ("engine.op.hash_join_s", "sim_s"),
    ("engine.op.sort_s", "sim_s"),
    ("engine.op.limit_s", "sim_s"),
    ("engine.op.sessionize_s", "sim_s"),
    ("engine.op.shuffle_write_s", "sim_s"),
    ("engine.op.result_write_s", "sim_s"),
    ("engine.chain_host_ms", "ms"),
    ("data.generate_host_ms", "ms"),
    ("data.spf_encode_host_ms", "ms"),
    ("data.spf_decode_host_ms", "ms"),
    ("pricing.storage_request_usd", "usd"),
    ("pricing.lambda_request_usd", "usd"),
    ("pricing.compute_usd", "usd"),
    ("pricing.capacity_usd", "usd"),
    ("trace.events", "count"),
    ("trace.storage.span_s", "sim_s"),
    ("trace.net.span_s", "sim_s"),
    ("trace.faas.span_s", "sim_s"),
    ("trace.worker.span_s", "sim_s"),
    ("trace.coordinator.span_s", "sim_s"),
    ("host.sanitizer_ms", "ms"),
    ("host.telemetry_ms", "ms"),
    ("host.trace_ms", "ms"),
    ("host.remainder_ms", "ms"),
];

/// The per-layer metric of a `QueryProfile` operator label.
pub fn operator_metric(label: &str) -> Option<&'static str> {
    Some(match label {
        "scan-read" => "engine.op.scan_read_s",
        "shuffle-read" => "engine.op.shuffle_read_s",
        "io-stack" => "engine.op.io_stack_s",
        "filter" => "engine.op.filter_s",
        "project" => "engine.op.project_s",
        "hash-aggregate" => "engine.op.hash_aggregate_s",
        "hash-join" => "engine.op.hash_join_s",
        "sort" => "engine.op.sort_s",
        "limit" => "engine.op.limit_s",
        "sessionize" => "engine.op.sessionize_s",
        "shuffle-write" => "engine.op.shuffle_write_s",
        "result-write" => "engine.op.result_write_s",
        _ => return None,
    })
}

/// Median host seconds per pass in each arm of the traced run.
pub struct ArmWalls {
    /// Sanitizer on (the end-to-end configuration).
    pub measured: f64,
    /// Sanitizer off.
    pub no_sanitizer: f64,
    /// Sanitizer and metric registry on.
    pub telemetry: f64,
    /// Sanitizer, metric registry and tracer on.
    pub traced: f64,
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute every per-layer metric from the traced arm's outcome, the arm
/// walls and the externally timed host layers. `remainder_ms` is the
/// measured pass's host time not attributed to a timed layer.
pub fn per_layer(
    traced: &Outcome,
    walls: &ArmWalls,
    host: &[(&'static str, f64)],
    remainder_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let s = &traced.snapshot;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let requests = s
        .counters
        .iter()
        .filter(|(k, _)| {
            k.starts_with("storage.") && (k.ends_with(".ops_ok") || k.ends_with(".ops_failed"))
        })
        .map(|(_, v)| *v as f64)
        .sum::<f64>()
        + counter(s, "faas.invoke.count");
    let events = counter(s, "sim.executor.polls") + counter(s, "sim.executor.advances");
    let inserts = counter(s, "sim.timer.inserts");
    let transfers = counter(s, "net.transfer.count");
    m.insert("sim.requests", requests);
    m.insert("sim.events", events);
    m.insert(
        "sim.polls_per_request",
        ratio(counter(s, "sim.executor.polls"), requests),
    );
    m.insert("sim.timer_inserts_per_request", ratio(inserts, requests));
    m.insert(
        "sim.peak_live_tasks",
        s.gauges
            .get("sim.executor.peak_live_tasks")
            .copied()
            .unwrap_or(0.0),
    );
    m.insert("sim.host_ns_per_event", ratio(walls.measured * 1e9, events));
    m.insert(
        "sim.sanitizer_share",
        (walls.measured - walls.no_sanitizer) / walls.measured,
    );
    m.insert(
        "sim.telemetry_share",
        (walls.telemetry - walls.measured) / walls.measured,
    );
    m.insert(
        "sim.trace_share",
        (walls.traced - walls.telemetry) / walls.measured,
    );
    m.insert("net.transfer.count", transfers);
    m.insert("net.timer_inserts_per_transfer", ratio(inserts, transfers));
    for name in [
        "net.transfer.stalled_slices",
        "net.fabric.throttle_onsets",
        "storage.client.retries",
        "faas.invoke.count",
        "faas.sandbox.cold_starts",
        "engine.worker.rows_in",
        "engine.worker.bytes_read",
        "engine.arena.bytes_allocated",
        "engine.task.retries",
    ] {
        m.insert(name, counter(s, name));
    }
    for svc in ["s3_standard", "dynamodb"] {
        for field in ["ops_ok", "ops_failed", "bytes_read", "bytes_written"] {
            let name = format!("storage.{svc}.{field}");
            m.insert(metric_name(&name), counter(s, &name));
        }
        if let Some(h) = s.histograms.get(&format!("storage.{svc}.op_secs")) {
            m.insert(
                metric_name(&format!("storage.{svc}.op_p50_ms")),
                interpolated_quantile(h, 0.5) * 1e3,
            );
            m.insert(
                metric_name(&format!("storage.{svc}.op_p99_ms")),
                interpolated_quantile(h, 0.99) * 1e3,
            );
        }
    }
    for (metric, hist) in [
        ("engine.worker.cpu_secs", "engine.worker.cpu_secs"),
        ("engine.worker.io_secs", "engine.worker.io_secs"),
    ] {
        if let Some(h) = s.histograms.get(hist) {
            m.insert(metric, h.mean() * h.count() as f64);
        }
    }
    m.insert(
        "engine.shuffle.read_ratio",
        ratio(
            counter(s, "engine.shuffle.bytes_read"),
            counter(s, "engine.shuffle.bytes_whole_object"),
        ),
    );
    m.insert("trace.events", traced.trace_events as f64);
    for (service, secs) in &traced.span_secs {
        let key = match *service {
            "net" => "trace.net.span_s",
            "faas" => "trace.faas.span_s",
            "worker" => "trace.worker.span_s",
            "coordinator" => "trace.coordinator.span_s",
            _ => "trace.storage.span_s",
        };
        *m.entry(key).or_insert(0.0) += secs;
    }
    m.insert(
        "host.sanitizer_ms",
        (walls.measured - walls.no_sanitizer) * 1e3,
    );
    m.insert(
        "host.telemetry_ms",
        (walls.telemetry - walls.measured) * 1e3,
    );
    m.insert("host.trace_ms", (walls.traced - walls.telemetry) * 1e3);
    m.insert("host.remainder_ms", remainder_ms);
    for (name, v) in traced.layers.iter().chain(host.iter().map(|(k, v)| (k, v))) {
        m.insert(name, *v);
    }
    m
}

/// The static name in [`PER_LAYER`] equal to `name`.
fn metric_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}
