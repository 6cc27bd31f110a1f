//! Machinery shared by every storage service: IOPS admission, latency
//! sampling, bandwidth-constrained payload movement, and usage metering.

use crate::error::{Result, StorageError};
use skyrise_net::{transfer, RateLimiter, SharedNic, TransferOpts};
use skyrise_pricing::{SharedMeter, StorageService};
use skyrise_sim::telemetry::{Counter, Gauge, HistogramHandle, MetricRegistry};
use skyrise_sim::{LatencyDist, SimCtx, SimDuration, SimTime};
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

/// Admission control on operations per second: a token bucket over *ops*.
/// Capacity is a short burst allowance (the quota times `burst_seconds`).
#[derive(Debug, Clone)]
pub struct OpsLimiter {
    inner: Rc<RefCell<RateLimiter>>,
    burst_seconds: f64,
}

impl OpsLimiter {
    /// `rate` operations/second with `burst_seconds` worth of burst.
    pub fn new(rate: f64, burst_seconds: f64) -> Self {
        OpsLimiter {
            inner: Rc::new(RefCell::new(RateLimiter::continuous(
                // Burst "rate" for ops admission is effectively unbounded;
                // tokens are the constraint.
                rate.max(1.0) * 1e6,
                rate,
                rate * burst_seconds,
            ))),
            burst_seconds,
        }
    }

    /// Try to admit one operation at `now`.
    pub fn try_admit(&self, now: SimTime) -> bool {
        let mut l = self.inner.borrow_mut();
        l.advance(now);
        if l.available() >= 1.0 {
            l.consume(now, 1.0);
            true
        } else {
            false
        }
    }

    /// Replace the sustained rate, keeping the burst window.
    pub fn set_rate(&self, rate: f64) {
        *self.inner.borrow_mut() =
            RateLimiter::continuous(rate.max(1.0) * 1e6, rate, rate * self.burst_seconds);
    }

    /// The sustained admission rate (ops/s).
    pub fn rate(&self) -> f64 {
        self.inner.borrow().baseline_rate()
    }
}

/// Per-direction request parameters of a service.
#[derive(Debug, Clone)]
pub struct DirectionModel {
    /// First-byte latency distribution (seconds).
    pub latency: LatencyDist,
    /// Per-request bandwidth once streaming (bytes/s).
    pub per_request_bw: f64,
}

/// What a request needs from its caller.
#[derive(Clone, Default)]
pub struct RequestOpts {
    /// The client's NIC; payload movement consumes its tokens. `None`
    /// models an unconstrained client.
    pub client_nic: Option<SharedNic>,
}

impl RequestOpts {
    /// Request issued from the given client NIC.
    pub fn from_nic(nic: &SharedNic) -> Self {
        RequestOpts {
            client_nic: Some(Rc::clone(nic)),
        }
    }
}

/// Time a throttle rejection takes to come back to the client.
pub const REJECT_LATENCY: SimDuration = SimDuration::from_millis(4);

/// Cached per-backend telemetry handles (DESIGN.md §10), keyed by a slug
/// of the service name (`storage.s3_standard.op_secs`, ...). Resolved once
/// at core construction; all no-ops without a registry.
struct CoreMetrics {
    ops_ok: Counter,
    ops_failed: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    op_secs: HistogramHandle,
    inflight: Gauge,
    conn_rejects: Counter,
}

impl CoreMetrics {
    fn new(reg: &MetricRegistry, service: StorageService) -> Self {
        let slug = service_slug(service);
        CoreMetrics {
            ops_ok: reg.counter(&format!("storage.{slug}.ops_ok")),
            ops_failed: reg.counter(&format!("storage.{slug}.ops_failed")),
            bytes_read: reg.counter(&format!("storage.{slug}.bytes_read")),
            bytes_written: reg.counter(&format!("storage.{slug}.bytes_written")),
            op_secs: reg.histogram(&format!("storage.{slug}.op_secs")),
            inflight: reg.gauge(&format!("storage.{slug}.inflight")),
            conn_rejects: reg.counter(&format!("storage.{slug}.conn_rejects")),
        }
    }
}

/// Metric-name slug for a storage service: its display name lowercased
/// with runs of non-alphanumerics collapsed to `_` ("S3 Standard" ->
/// "s3_standard").
pub fn service_slug(service: StorageService) -> String {
    let mut slug = String::new();
    for c in service.name().chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') {
            slug.push('_');
        }
    }
    slug.trim_matches('_').to_string()
}

/// Shared internals of a storage service.
pub struct ServiceCore {
    /// Simulation context.
    pub ctx: SimCtx,
    /// Usage ledger for billing.
    pub meter: SharedMeter,
    /// Which service this core backs (pricing key).
    pub service: StorageService,
    /// Read-direction latency/bandwidth model.
    pub read: DirectionModel,
    /// Write-direction latency/bandwidth model.
    pub write: DirectionModel,
    /// The service's aggregate-bandwidth endpoint: `outbound` caps reads
    /// (service -> client), `inbound` caps writes (client -> service).
    pub service_nic: SharedNic,
    /// Concurrent in-flight request ceiling (None = unbounded).
    pub max_inflight: Option<u32>,
    /// Stand-in NIC for requests without a client NIC, built on first
    /// use. One per core: an unlimited bucket's tokens never drop below its
    /// grant cap, so sharing it grants exactly what a fresh one per request
    /// would.
    unconstrained_client: OnceCell<SharedNic>,
    inflight: Cell<u32>,
    metrics: CoreMetrics,
}

impl ServiceCore {
    /// Construct with aggregate bandwidth caps in bytes/second.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: SimCtx,
        meter: SharedMeter,
        service: StorageService,
        read: DirectionModel,
        write: DirectionModel,
        aggregate_read_bw: f64,
        aggregate_write_bw: f64,
        max_inflight: Option<u32>,
    ) -> Self {
        let service_nic = skyrise_net::Nic::new(
            RateLimiter::pure_rate(aggregate_write_bw, skyrise_net::DEFAULT_SLICE),
            RateLimiter::pure_rate(aggregate_read_bw, skyrise_net::DEFAULT_SLICE),
        );
        let metrics = CoreMetrics::new(&ctx.metrics(), service);
        ServiceCore {
            ctx,
            meter,
            service,
            read,
            write,
            service_nic,
            max_inflight,
            unconstrained_client: OnceCell::new(),
            inflight: Cell::new(0),
            metrics,
        }
    }

    /// Record a request in the meter (failures cost too).
    pub fn meter_request(&self, write: bool, logical_bytes: u64, failed: bool) {
        if failed {
            self.metrics.ops_failed.inc();
        } else {
            self.metrics.ops_ok.inc();
            if write {
                self.metrics.bytes_written.add(logical_bytes);
            } else {
                self.metrics.bytes_read.add(logical_bytes);
            }
        }
        self.meter
            .borrow_mut()
            .record_storage_request(self.service, write, logical_bytes, failed);
    }

    /// Record a completed operation's end-to-end latency (admission to
    /// last byte) into the backend's `storage.<slug>.op_secs` histogram.
    pub fn record_op(&self, start: SimTime) {
        self.metrics
            .op_secs
            .record_duration(self.ctx.now().duration_since(start));
    }

    /// Admit against the in-flight ceiling; the guard releases on drop.
    pub fn admit_connection(&self) -> Result<InflightGuard<'_>> {
        if let Some(max) = self.max_inflight {
            if self.inflight.get() >= max {
                self.metrics.conn_rejects.inc();
                return Err(StorageError::ConnectionRejected);
            }
        }
        self.inflight.set(self.inflight.get() + 1);
        self.metrics.inflight.set(self.inflight.get() as f64);
        Ok(InflightGuard { core: self })
    }

    /// Sample first-byte latency for a direction and sleep it. Returns the
    /// sampled duration so callers can attach it to trace spans.
    pub async fn first_byte(&self, write: bool) -> SimDuration {
        let dist = if write {
            &self.write.latency
        } else {
            &self.read.latency
        };
        let secs = self.ctx.with_rng(|r| r.sample(dist));
        let d = SimDuration::from_secs_f64(secs);
        self.ctx.sleep(d).await;
        d
    }

    /// Stream `logical_bytes` to/from the client after the first byte,
    /// bounded by per-request bandwidth, the service aggregate, and the
    /// client NIC.
    // simlint: allow(CONS002): metered by every caller via `meter_request` before streaming; this helper only models wire time.
    pub async fn stream(&self, write: bool, logical_bytes: u64, opts: &RequestOpts) {
        if logical_bytes == 0 {
            return;
        }
        let model = if write { &self.write } else { &self.read };
        let topts = TransferOpts {
            flows: 1,
            flow_cap: Some(model.per_request_bw),
            label: Some(self.service.name()),
            ..Default::default()
        };
        let client = match &opts.client_nic {
            Some(nic) => nic,
            None => self
                .unconstrained_client
                .get_or_init(skyrise_net::Nic::unlimited),
        };
        if write {
            transfer(&self.ctx, client, &self.service_nic, logical_bytes, &topts).await;
        } else {
            transfer(&self.ctx, &self.service_nic, client, logical_bytes, &topts).await;
        }
    }
}

/// RAII in-flight counter.
pub struct InflightGuard<'a> {
    core: &'a ServiceCore,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.core.inflight.set(self.core.inflight.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_sim::Sim;

    #[test]
    fn ops_limiter_admits_at_rate() {
        let l = OpsLimiter::new(100.0, 1.0);
        let mut admitted = 0;
        // Burst: ~100 ops at t=0.
        for _ in 0..500 {
            if l.try_admit(SimTime::ZERO) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 100);
        // After one second, another ~100.
        let t1 = SimTime::from_nanos(1_000_000_000);
        let mut more = 0;
        for _ in 0..500 {
            if l.try_admit(t1) {
                more += 1;
            }
        }
        assert_eq!(more, 100);
    }

    #[test]
    fn ops_limiter_set_rate() {
        let l = OpsLimiter::new(100.0, 1.0);
        l.set_rate(10.0);
        assert!((l.rate() - 10.0).abs() < 1e-9);
        let mut admitted = 0;
        for _ in 0..100 {
            if l.try_admit(SimTime::from_nanos(1)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn service_slug_normalizes_names() {
        assert_eq!(service_slug(StorageService::S3Standard), "s3_standard");
        assert_eq!(service_slug(StorageService::S3Express), "s3_express");
        assert_eq!(service_slug(StorageService::Efs), "efs");
    }

    #[test]
    fn inflight_guard_releases() {
        let sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let core = ServiceCore::new(
            ctx,
            meter,
            StorageService::Efs,
            DirectionModel {
                latency: LatencyDist::constant(0.001),
                per_request_bw: 1e9,
            },
            DirectionModel {
                latency: LatencyDist::constant(0.001),
                per_request_bw: 1e9,
            },
            1e12,
            1e12,
            Some(2),
        );
        let g1 = core.admit_connection().unwrap();
        let _g2 = core.admit_connection().unwrap();
        assert!(matches!(
            core.admit_connection().err(),
            Some(StorageError::ConnectionRejected)
        ));
        drop(g1);
        assert!(core.admit_connection().is_ok());
    }
}
