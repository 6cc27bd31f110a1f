//! Network endpoints, shared fabric constraints, and timed transfers.
//!
//! A transfer moves bytes between two NICs in small virtual-time slices;
//! each slice grants the minimum of the sender's egress bucket, the
//! receiver's ingress bucket, an optional per-flow cap (EC2's well-known
//! 5 Gbps single-flow limit), and an optional shared fabric limit (the
//! ~20 GiB/s aggregate ceiling the paper observes inside a customer VPC).

use crate::bucket::RateLimiter;
use serde::{Deserialize, Serialize};
use skyrise_sim::telemetry::{Counter, TimelineHandle};
use skyrise_sim::{IntervalSeries, SimCtx, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Default scheduling slice for transfers.
pub const DEFAULT_SLICE: SimDuration = SimDuration::from_millis(10);

/// A network interface with independent ingress/egress buckets — the paper
/// concludes "the inbound and outbound token buckets are maintained
/// independently of each other".
#[derive(Debug)]
pub struct Nic {
    /// Ingress limiter.
    pub inbound: RateLimiter,
    /// Egress limiter.
    pub outbound: RateLimiter,
}

impl Nic {
    /// Build from two limiters.
    pub fn new(inbound: RateLimiter, outbound: RateLimiter) -> SharedNic {
        Rc::new(RefCell::new(Nic { inbound, outbound }))
    }

    /// Identical limiter in both directions.
    pub fn symmetric(limiter: RateLimiter) -> SharedNic {
        Rc::new(RefCell::new(Nic {
            inbound: limiter.clone(),
            outbound: limiter,
        }))
    }

    /// A NIC with effectively unlimited bandwidth (test servers).
    pub fn unlimited() -> SharedNic {
        Nic::symmetric(RateLimiter::unlimited(f64::MAX / 8.0))
    }
}

/// Shared handle to a NIC.
pub type SharedNic = Rc<RefCell<Nic>>;

/// A shared medium constraint applied across many transfers, e.g. the VPC
/// aggregate throughput quota.
#[derive(Clone)]
pub struct Fabric {
    limiter: Rc<RefCell<RateLimiter>>,
    name: &'static str,
}

impl Fabric {
    /// A fabric enforcing `rate` bytes/second aggregate with no burst
    /// accumulation.
    pub fn rate_capped(name: &'static str, rate: f64) -> Self {
        Fabric {
            limiter: Rc::new(RefCell::new(RateLimiter::pure_rate(rate, DEFAULT_SLICE))),
            name,
        }
    }

    /// Human-readable name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn grant(&self, now: SimTime, slice: SimDuration, want: f64) -> f64 {
        self.limiter.borrow_mut().grant(now, slice, want)
    }

    fn peek(&self, now: SimTime, slice: SimDuration) -> f64 {
        let mut l = self.limiter.borrow_mut();
        l.advance(now);
        l.peek(slice)
    }
}

/// Options controlling a [`transfer`].
#[derive(Clone, Default)]
pub struct TransferOpts {
    /// Number of parallel TCP connections ("paths" in the paper's setup).
    /// Zero is treated as one.
    pub flows: u32,
    /// Per-flow bandwidth cap in bytes/second (e.g. EC2's 5 Gbps single-flow
    /// limit). `None` disables the cap.
    pub flow_cap: Option<f64>,
    /// Shared fabric constraint (e.g. a VPC).
    pub fabric: Option<Fabric>,
    /// Scheduling slice; defaults to [`DEFAULT_SLICE`].
    pub slice: Option<SimDuration>,
    /// Receive-side throughput recorder.
    pub recorder: Option<Rc<RefCell<IntervalSeries>>>,
    /// Endpoint label attached to trace spans (e.g. the storage service).
    pub label: Option<&'static str>,
}

/// Outcome of a completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferStats {
    /// Bytes moved.
    pub bytes: u64,
    /// Transfer start time.
    pub start: SimTime,
    /// Completion time of the last byte.
    pub end: SimTime,
}

impl TransferStats {
    /// Mean throughput in bytes/second over the whole transfer.
    pub fn mean_throughput(&self) -> f64 {
        let d = (self.end - self.start).as_secs_f64();
        if d <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / d
        }
    }
}

/// Move `bytes` from `src` (egress) to `dst` (ingress), honouring every
/// constraint in `opts`. Completes when the last byte lands.
pub async fn transfer(
    ctx: &SimCtx,
    src: &SharedNic,
    dst: &SharedNic,
    bytes: u64,
    opts: &TransferOpts,
) -> TransferStats {
    let slice = opts.slice.unwrap_or(DEFAULT_SLICE);
    let start = ctx.now();
    let mut remaining = bytes as f64;
    let flow_allow_per_slice = opts
        .flow_cap
        .map(|cap| cap * opts.flows.max(1) as f64 * slice.as_secs_f64());

    let tracer = ctx.tracer();
    let lane = tracer.next_lane();
    let span = tracer.span(ctx, "net", lane, "transfer");
    span.attr("bytes", bytes);
    if let Some(label) = opts.label {
        span.attr("endpoint", label);
    }
    let mut stalled_slices: u64 = 0;
    let mut flowing = true;
    let san = ctx.sanitizer();

    // Telemetry (DESIGN.md §10): handles resolved once per transfer; the
    // per-lane pair is keyed by the endpoint label so suite exports break
    // bytes out by storage service. All of it is a no-op without a registry.
    let metrics = ctx.metrics();
    let telem = metrics.enabled();
    let m_transfers = metrics.counter("net.transfer.count");
    let m_throttles = metrics.counter("net.fabric.throttle_onsets");
    let m_stalls = metrics.counter("net.transfer.stalled_slices");
    let m_secs = metrics.histogram("net.transfer.secs");
    let m_src_sat = metrics.gauge("net.bucket.src_saturation");
    let m_dst_sat = metrics.gauge("net.bucket.dst_saturation");
    let (m_lane_bytes, m_lane_tl) = if telem {
        let lane_name = opts.label.unwrap_or("unlabeled");
        (
            metrics.counter(&format!("net.lane.{lane_name}.bytes")),
            metrics.timeline(&format!("net.lane.{lane_name}"), SimDuration::from_secs(1)),
        )
    } else {
        (Counter::disabled(), TimelineHandle::disabled())
    };

    while remaining > 0.0 {
        let now = ctx.now();
        // Peek every constraint before consuming from any.
        let allow_src = {
            let mut n = src.borrow_mut();
            n.outbound.advance(now);
            if telem {
                m_src_sat.set(n.outbound.saturation(slice));
            }
            n.outbound.peek(slice)
        };
        let allow_dst = {
            let mut n = dst.borrow_mut();
            n.inbound.advance(now);
            if telem {
                m_dst_sat.set(n.inbound.saturation(slice));
            }
            n.inbound.peek(slice)
        };
        let mut allow = allow_src.min(allow_dst).min(remaining);
        if let Some(f) = flow_allow_per_slice {
            allow = allow.min(f);
        }
        if let Some(fabric) = &opts.fabric {
            allow = allow.min(fabric.peek(now, slice));
        }

        if allow > 0.5 {
            if !flowing {
                // Token buckets replenished enough to resume.
                tracer.instant(ctx, "net", lane, "bucket-refill");
                flowing = true;
            }
            // Commit the grant everywhere.
            src.borrow_mut().outbound.consume(now, allow);
            dst.borrow_mut().inbound.consume(now, allow);
            if san.enabled() {
                src.borrow().outbound.assert_conserved(&san, "src.outbound");
                dst.borrow().inbound.assert_conserved(&san, "dst.inbound");
            }
            if let Some(fabric) = &opts.fabric {
                fabric.grant(now, slice, allow);
            }
            remaining -= allow;

            // Time actually needed within this slice at the granted volume.
            let limiting = allow_src
                .min(allow_dst)
                .min(flow_allow_per_slice.unwrap_or(f64::MAX));
            let frac = if limiting > 0.0 {
                (allow / limiting).min(1.0)
            } else {
                1.0
            };
            let dur = slice.mul_f64(frac);
            if let Some(rec) = &opts.recorder {
                rec.borrow_mut().record_span(now, now + dur, allow);
            }
            m_lane_bytes.add(allow as u64);
            m_lane_tl.record_span(now, now + dur, allow);
            if remaining <= 0.5 {
                ctx.sleep(dur).await;
                break;
            }
            ctx.sleep(slice).await;
        } else {
            // Nothing grantable this slice — wait for refill.
            if flowing {
                let onset = tracer.instant(ctx, "net", lane, "throttle-onset");
                onset
                    .attr("src_tokens", allow_src)
                    .attr("dst_tokens", allow_dst);
                if let Some(label) = opts.label {
                    onset.attr("endpoint", label);
                }
                m_throttles.inc();
                flowing = false;
            }
            stalled_slices += 1;
            ctx.sleep(slice).await;
        }
    }
    span.attr("stalled_slices", stalled_slices);
    let end = ctx.now();
    m_transfers.inc();
    m_stalls.add(stalled_slices);
    m_secs.record_duration(end.duration_since(start));

    TransferStats { bytes, start, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::IdleRefill;
    use skyrise_sim::{join_all, Sim, MIB};

    fn mib(x: f64) -> f64 {
        x * MIB as f64
    }

    fn lambda_nic() -> SharedNic {
        let mk = |burst: f64| {
            RateLimiter::lambda_style(
                mib(burst),
                mib(150.0),
                mib(150.0),
                SimDuration::from_millis(100),
                mib(7.5),
                IdleRefill {
                    threshold: SimDuration::from_millis(500),
                    fraction: 1.0,
                },
            )
        };
        Nic::new(mk(1228.8), mk(1024.0))
    }

    #[test]
    fn transfer_within_burst_runs_at_burst_rate() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            transfer(&ctx, &server, &client, 120 * MIB, &TransferOpts::default()).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let gibps = stats.mean_throughput() / (1024.0 * MIB as f64);
        assert!((gibps - 1.2).abs() < 0.05, "throughput {gibps} GiB/s");
    }

    #[test]
    fn transfer_beyond_burst_degrades_to_baseline() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            // 600 MiB: 300 burst + ~300 at 75 MiB/s => ~0.25s + ~4s.
            transfer(&ctx, &server, &client, 600 * MIB, &TransferOpts::default()).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!(dur > 3.5 && dur < 4.6, "duration {dur}s");
    }

    #[test]
    fn independent_in_out_buckets() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            // Drain inbound fully.
            transfer(&ctx, &server, &client, 310 * MIB, &TransferOpts::default()).await;
            // Outbound must still be at full burst.
            let out = transfer(&ctx, &client, &server, 100 * MIB, &TransferOpts::default()).await;
            out.mean_throughput()
        });
        sim.run();
        let tput = h.try_take().unwrap() / MIB as f64;
        assert!(tput > 900.0, "outbound unaffected: {tput} MiB/s");
    }

    #[test]
    fn vpc_fabric_caps_aggregate_throughput() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let fabric = Fabric::rate_capped("vpc", mib(100.0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ctx2 = ctx.clone();
                    let fabric = fabric.clone();
                    ctx.spawn(async move {
                        let a = Nic::unlimited();
                        let b = Nic::unlimited();
                        let opts = TransferOpts {
                            fabric: Some(fabric),
                            ..Default::default()
                        };
                        transfer(&ctx2, &a, &b, 100 * MIB, &opts).await
                    })
                })
                .collect();
            let stats = join_all(handles).await;
            stats.iter().map(|s| s.end).max().unwrap()
        });
        sim.run();
        let end = h.try_take().unwrap().as_secs_f64();
        // 400 MiB through a 100 MiB/s fabric: ~4s.
        assert!((end - 4.0).abs() < 0.3, "end {end}s");
    }

    #[test]
    fn flow_cap_limits_single_connection() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let a = Nic::unlimited();
            let b = Nic::unlimited();
            let opts = TransferOpts {
                flows: 1,
                flow_cap: Some(mib(625.0)), // ~5 Gbps
                ..Default::default()
            };
            transfer(&ctx, &a, &b, 625 * MIB, &opts).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!((dur - 1.0).abs() < 0.05, "duration {dur}");
    }

    #[test]
    fn multiple_flows_raise_the_cap() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let a = Nic::unlimited();
            let b = Nic::unlimited();
            let opts = TransferOpts {
                flows: 4,
                flow_cap: Some(mib(625.0)),
                ..Default::default()
            };
            transfer(&ctx, &a, &b, 2500 * MIB, &opts).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!((dur - 1.0).abs() < 0.05, "duration {dur}");
    }

    #[test]
    fn recorder_sees_all_bytes() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let rec = Rc::new(RefCell::new(IntervalSeries::new(
            SimTime::ZERO,
            SimDuration::from_millis(20),
        )));
        let rec2 = Rc::clone(&rec);
        sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let opts = TransferOpts {
                recorder: Some(rec2),
                ..Default::default()
            };
            transfer(&ctx, &server, &client, 50 * MIB, &opts).await;
        });
        sim.run();
        let total = rec.borrow().total();
        assert!((total - (50 * MIB) as f64).abs() < 1.0, "total {total}");
    }

    #[test]
    fn telemetry_counts_bytes_and_throttles() {
        let mut sim = Sim::new(2);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let opts = TransferOpts {
                label: Some("s3"),
                ..Default::default()
            };
            // 400 MiB is beyond the 300 MiB burst: the transfer must hit
            // the spiky slotted-refill regime and stall between slots.
            transfer(&ctx, &server, &client, 400 * MIB, &opts).await;
        });
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["net.transfer.count"], 1);
        assert!(snap.counters["net.lane.s3.bytes"] >= 399 * MIB);
        assert!(snap.counters["net.fabric.throttle_onsets"] >= 1);
        assert!(snap.counters["net.transfer.stalled_slices"] >= 1);
        assert_eq!(snap.histograms["net.transfer.secs"].count(), 1);
        assert!(snap.gauges["net.bucket.dst_saturation"] > 0.9);
        assert!(snap.timelines.contains_key("net.lane.s3"));
    }

    #[test]
    fn concurrent_transfers_share_one_nic() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let ctx2 = ctx.clone();
                    let client = Rc::clone(&client);
                    let server = Rc::clone(&server);
                    ctx.spawn(async move {
                        transfer(&ctx2, &server, &client, 150 * MIB, &TransferOpts::default()).await
                    })
                })
                .collect();
            join_all(handles).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        // Combined 300 MiB fits the burst budget: both finish ~0.25s.
        let end = stats
            .iter()
            .map(|s| s.end.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(end < 0.35, "end {end}");
    }
}
