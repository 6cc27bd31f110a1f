//! `storage_rw_mix`: fig08's closed loop. Client VMs with c6gn.2xlarge
//! token-bucket NICs, 32 threads each, read and then write 64 MiB S3
//! Standard objects and 400 KiB DynamoDB items.

use crate::common::{
    interpolated_quantile, metered_requests, Arm, Hooks, Outcome, Virtual, Workload,
};
use skyrise::micro::storageio::populate;
use skyrise::micro::{run_closed_loop, StorageIoConfig};
use skyrise::prelude::*;
use skyrise::pricing::SharedMeter;
use skyrise::sim::{Histogram, JoinHandle};
use std::rc::Rc;

/// The services and payload sizes of the paper's throughput runs
/// (Sec. 4.3.1), with the per-layer metric names of each direction.
const SERVICES: [(&str, u64, [&str; 2]); 2] = [
    (
        "s3_standard",
        64 << 20,
        [
            "storage.s3_standard.read_gib_s",
            "storage.s3_standard.write_gib_s",
        ],
    ),
    (
        "dynamodb",
        400 << 10,
        [
            "storage.dynamodb.read_gib_s",
            "storage.dynamodb.write_gib_s",
        ],
    ),
];

/// Workload parameters.
pub struct RwMix {
    /// Client VMs.
    clients: usize,
    /// Threads per client VM (paper: 32).
    threads: usize,
    /// Virtual length of each read or write phase.
    phase_secs: u64,
}

struct Phase {
    service: usize,
    write: bool,
    virtual_s: f64,
    ok: u64,
    failed: u64,
    gib_s: f64,
    latency: Histogram,
    metered: u64,
    metered_bytes: u64,
}

/// A populated simulation with the four phases spawned.
pub struct Prepared {
    sim: Sim,
    hooks: Hooks,
    meter: SharedMeter,
    handle: JoinHandle<Vec<Phase>>,
}

fn metered_bytes(meter: &SharedMeter) -> u64 {
    meter
        .borrow()
        .storage
        .values()
        .map(|u| u.bytes_read + u.bytes_written)
        .sum()
}

impl RwMix {
    /// Benchmark size (fig08's 64 clients x 32 threads), or smoke-test size.
    pub fn new(tiny: bool) -> Self {
        if tiny {
            RwMix {
                clients: 2,
                threads: 4,
                phase_secs: 1,
            }
        } else {
            RwMix {
                clients: 64,
                threads: 32,
                phase_secs: 2,
            }
        }
    }

    fn config(&self, object_bytes: u64, write: bool) -> StorageIoConfig {
        StorageIoConfig {
            clients: self.clients,
            threads_per_client: self.threads,
            object_bytes,
            write,
            duration: SimDuration::from_secs(self.phase_secs),
            client_nic: Some(Rc::new(|| {
                let spec = skyrise::pricing::ec2_instance("c6gn.2xlarge").expect("catalog entry");
                skyrise::compute::nic_for(&spec)
            })),
            keyspace_per_thread: 2,
        }
    }
}

impl Workload for RwMix {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, arm: Arm) -> Prepared {
        let sim = Sim::new(seed);
        let hooks = Hooks::install(&sim, arm);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let stores = [
            Storage::S3(S3Bucket::standard(&ctx, &meter)),
            Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter)),
        ];
        let mut plan = Vec::new();
        for (service, (storage, &(_, bytes, _))) in stores.iter().zip(&SERVICES).enumerate() {
            // `run_closed_loop` populates again on entry; that repeat is the
            // program's own cost and stays in `wall_s`.
            populate(storage, &self.config(bytes, false));
            for write in [false, true] {
                plan.push((service, storage.clone(), self.config(bytes, write)));
            }
        }
        let phase_meter = Rc::clone(&meter);
        let handle = sim.spawn(async move {
            let mut phases = Vec::new();
            for (service, storage, cfg) in plan {
                let (requests0, bytes0) = (
                    metered_requests(&phase_meter).0,
                    metered_bytes(&phase_meter),
                );
                let t0 = ctx.now();
                let r = run_closed_loop(&ctx, &storage, &cfg).await;
                phases.push(Phase {
                    service,
                    write: cfg.write,
                    virtual_s: (ctx.now() - t0).as_secs_f64(),
                    ok: r.ops_series.total() as u64,
                    failed: r.fail_series.total() as u64,
                    gib_s: r.bytes_per_sec / GIB as f64,
                    latency: r.latency,
                    metered: metered_requests(&phase_meter).0 - requests0,
                    metered_bytes: metered_bytes(&phase_meter) - bytes0,
                });
            }
            phases
        });
        Prepared {
            sim,
            hooks,
            meter,
            handle,
        }
    }

    fn run(&self, prepared: Prepared) -> Outcome {
        let Prepared {
            mut sim,
            hooks,
            meter,
            handle,
        } = prepared;
        sim.run();
        let mut out = Outcome::default();
        out.absorb(&hooks);
        let phases = handle.try_take().expect("closed-loop phases finished");
        let mut latency = Histogram::new();
        let (mut secs, mut gib) = (0.0, 0.0);
        for p in &phases {
            let (name, object_bytes, layer) = SERVICES[p.service];
            let dir = if p.write { "write" } else { "read" };
            out.check(p.ok + p.failed == p.metered, || {
                format!(
                    "{name} {dir}: ok {} + failed {} != {} metered requests",
                    p.ok, p.failed, p.metered
                )
            });
            out.check(p.metered_bytes == p.ok * object_bytes, || {
                format!(
                    "{name} {dir}: {} bytes moved by {} successes",
                    p.metered_bytes, p.ok
                )
            });
            out.add_layer(layer[p.write as usize], p.gib_s);
            latency.merge(&p.latency);
            secs += p.virtual_s;
            gib += p.metered_bytes as f64 / GIB as f64;
        }
        let (requests, rejected) = metered_requests(&meter);
        out.add_bill(&meter);
        out.virt = Virtual {
            virtual_s: secs / gib,
            op_p50_ms: interpolated_quantile(&latency, 0.5) * 1e3,
            op_p999_ms: interpolated_quantile(&latency, 0.999) * 1e3,
            ok_share: 1.0 - rejected as f64 / requests as f64,
            cost_usd: meter.borrow().report().total_usd(),
            op_samples: latency.count(),
        };
        out
    }
}
