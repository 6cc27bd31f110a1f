//! `s3_get_ramp`: fig12's S3 partition-scaling ramp. Consecutive 5 s
//! open-loop windows of 1 KiB GETs offer 1.05x the bucket's current
//! capacity until it has split to a fixed partition count.

use crate::common::{
    interpolated_quantile, metered_requests, sub_seed, Arm, Hooks, Outcome, Virtual, Workload,
};
use skyrise::micro::storageio::populate;
use skyrise::micro::{run_open_loop, StorageIoConfig};
use skyrise::prelude::*;
use skyrise::pricing::SharedMeter;
use skyrise::sim::{Histogram, JoinHandle};
use skyrise_bench::experiments::storage_figs::scaling_profile;
use std::rc::Rc;

const OBJECT_BYTES: u64 = 1024;
const WINDOW_SECS: u64 = 5;
const OVERLOAD: f64 = 1.05;

/// Workload parameters.
pub struct Ramp {
    /// Independent ramps per pass, one simulation each; their mean damps
    /// the seed-to-seed spread of the split timing.
    ramps: u64,
    /// Partition count at which a ramp stops.
    target_partitions: usize,
}

struct RampResult {
    secs: f64,
    offered: u64,
    ok: u64,
    failed: u64,
    latency: Histogram,
    partitions: usize,
}

struct RampSim {
    sim: Sim,
    hooks: Hooks,
    meter: SharedMeter,
    handle: JoinHandle<RampResult>,
}

/// Simulations built and populated, ready to run.
pub struct Prepared(Vec<RampSim>);

fn io_config() -> StorageIoConfig {
    StorageIoConfig {
        clients: 1,
        threads_per_client: 1,
        object_bytes: OBJECT_BYTES,
        write: false,
        duration: SimDuration::from_secs(WINDOW_SECS),
        client_nic: None,
        keyspace_per_thread: 1,
    }
}

impl Ramp {
    /// Benchmark size, or smoke-test size.
    pub fn new(tiny: bool) -> Self {
        Ramp {
            ramps: if tiny { 1 } else { 96 },
            target_partitions: 2,
        }
    }
}

impl Workload for Ramp {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, arm: Arm) -> Prepared {
        let target = self.target_partitions;
        Prepared(
            (0..self.ramps)
                .map(|r| {
                    let sim = Sim::new(sub_seed(seed, r));
                    let hooks = Hooks::install(&sim, arm);
                    let ctx = sim.ctx();
                    let meter = shared_meter();
                    let profile = scaling_profile(0.02);
                    let per_partition = profile.cfg.read_iops_per_partition;
                    let bucket = S3Bucket::new(ctx.clone(), Rc::clone(&meter), profile.cfg);
                    let storage = Storage::S3(Rc::clone(&bucket));
                    let cfg = io_config();
                    populate(&storage, &cfg);
                    let handle = sim.spawn(async move {
                        let start = ctx.now();
                        let mut out = RampResult {
                            secs: 0.0,
                            offered: 0,
                            ok: 0,
                            failed: 0,
                            latency: Histogram::new(),
                            partitions: 0,
                        };
                        let bucket_width = SimDuration::from_secs(1);
                        while bucket.partition_count() < target {
                            let rate = bucket.partition_count() as f64 * per_partition * OVERLOAD;
                            let (ok, failed, latency) =
                                run_open_loop(&ctx, &storage, &cfg, rate, bucket_width).await;
                            out.offered += (rate * WINDOW_SECS as f64) as u64;
                            out.ok += ok.total() as u64;
                            out.failed += failed.total() as u64;
                            out.latency.merge(&latency);
                        }
                        out.secs = (ctx.now() - start).as_secs_f64();
                        out.partitions = bucket.partition_count();
                        out
                    });
                    RampSim {
                        sim,
                        hooks,
                        meter,
                        handle,
                    }
                })
                .collect(),
        )
    }

    fn run(&self, prepared: Prepared) -> Outcome {
        let mut out = Outcome::default();
        let mut latency = Histogram::new();
        let (mut secs, mut offered, mut ok, mut cost) = (0.0, 0u64, 0u64, 0.0);
        let mut partitions = 0;
        let ramps = prepared.0.len() as f64;
        for RampSim {
            mut sim,
            hooks,
            meter,
            handle,
        } in prepared.0
        {
            sim.run();
            out.absorb(&hooks);
            let r = handle.try_take().expect("ramp finished");
            let (requests, rejected) = metered_requests(&meter);
            let bytes_read: u64 = meter.borrow().storage.values().map(|u| u.bytes_read).sum();
            out.check(r.ok + r.failed == r.offered, || {
                format!(
                    "ramp: ok {} + failed {} != offered {}",
                    r.ok, r.failed, r.offered
                )
            });
            out.check(requests == r.offered && rejected == r.failed, || {
                format!(
                    "ramp: meter saw {requests} requests / {rejected} rejected, client {} / {}",
                    r.offered, r.failed
                )
            });
            out.check(bytes_read == r.ok * OBJECT_BYTES, || {
                format!("ramp: {bytes_read} bytes read for {} successful GETs", r.ok)
            });
            out.check(r.partitions == self.target_partitions, || {
                format!("ramp stopped at {} partitions", r.partitions)
            });
            out.add_bill(&meter);
            cost += meter.borrow().report().total_usd();
            partitions += r.partitions;
            secs += r.secs;
            offered += r.offered;
            ok += r.ok;
            latency.merge(&r.latency);
        }
        out.add_layer("storage.s3_standard.partitions", partitions as f64 / ramps);
        out.virt = Virtual {
            virtual_s: secs / ramps,
            op_p50_ms: interpolated_quantile(&latency, 0.5) * 1e3,
            op_p999_ms: interpolated_quantile(&latency, 0.999) * 1e3,
            ok_share: ok as f64 / offered as f64,
            cost_usd: cost,
            op_samples: latency.count(),
        };
        out
    }
}
