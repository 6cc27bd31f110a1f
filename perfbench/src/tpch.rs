//! `tpch_suite`: the paper's query mix (TPC-H Q1, Q6, Q12, TPCx-BB Q3)
//! run for several passes on one Lambda deployment over S3 Standard,
//! on the paper's table layout at a fraction of its partitions.

use crate::common::{
    median, metered_requests, rank_quantile, Arm, Hooks, HostLayers, Outcome, Virtual, Workload,
};
use skyrise::data::{spf, tpch, tpcxbb, Batch, Value};
use skyrise::engine::bind::execute_chain;
use skyrise::engine::reference::{self, rows_approx_eq};
use skyrise::engine::{
    queries, DatasetMeta, EngineError, InputSpec, QueryProfile, QueryResponse, UdfRegistry,
};
use skyrise::prelude::*;
use skyrise::pricing::SharedMeter;
use skyrise::sim::JoinHandle;
use skyrise_bench::datasets::PAPER_TABLES;
use std::rc::Rc;
use std::time::Instant;

/// Row-group size of the paper layout loader.
const ROWS_PER_GROUP: usize = 8192;

/// Workload parameters.
pub struct Tpch {
    /// TPC-H payload scale factor (TPCx-BB runs at ten times it, as in
    /// the paper-layout loader).
    payload_sf: f64,
    /// Share of the paper's SF1000 partition counts that is stored.
    fraction: f64,
    /// Passes over the suite on one deployment; the first runs cold.
    passes: usize,
    expected: Expected,
}

/// Reference answers on the generated tables (`engine::reference`).
struct Expected {
    q1: Vec<Vec<Value>>,
    q6: f64,
    q12: Vec<Vec<Value>>,
    bb_q3: Vec<Vec<Value>>,
}

struct Tables {
    tpch: tpch::TpchTables,
    bb: tpcxbb::TpcxBbTables,
}

struct Executed {
    name: String,
    latency_s: f64,
    result: Result<QueryResponse, EngineError>,
    profile: Option<QueryProfile>,
}

/// A loaded, deployed simulation with the query passes spawned.
pub struct Prepared {
    sim: Sim,
    hooks: Hooks,
    meter: SharedMeter,
    bucket: Rc<S3Bucket>,
    handle: JoinHandle<Vec<Executed>>,
}

fn generate(payload_sf: f64, seed: u64) -> Tables {
    Tables {
        tpch: tpch::generate(payload_sf, seed),
        bb: tpcxbb::generate(payload_sf * 10.0, seed),
    }
}

/// Store every table in the paper layout (Table 4) at `fraction` of its
/// SF1000 partition count, with paper-scale logical partition sizes.
fn load(storage: &Storage, tables: &Tables, fraction: f64) -> Vec<DatasetMeta> {
    PAPER_TABLES
        .iter()
        .map(|spec| {
            let batch = match spec.name {
                "h_lineitem" => &tables.tpch.lineitem,
                "h_orders" => &tables.tpch.orders,
                "bb_clickstreams" => &tables.bb.clickstreams,
                "bb_item" => &tables.bb.item,
                other => panic!("no generator for paper table {other}"),
            };
            let layout = DatasetLayout {
                name: spec.name.into(),
                partitions: ((spec.sf1000_partitions as f64 * fraction).round() as usize).max(1),
                target_partition_logical_bytes: Some((spec.partition_mib * MIB as f64) as u64),
                rows_per_group: ROWS_PER_GROUP,
            };
            load_dataset(storage, &layout, batch).expect("dataset loads")
        })
        .collect()
}

impl Tpch {
    /// Benchmark size (payload SF 0.05, 10 % of the paper's partitions,
    /// two passes) or smoke-test size, plus the reference answers for
    /// `seed`'s tables (computed here, outside every timed section).
    pub fn new(seed: u64, tiny: bool) -> Self {
        let (payload_sf, fraction, passes) = if tiny {
            (0.002, 0.01, 1)
        } else {
            (0.05, 0.1, 2)
        };
        let t = generate(payload_sf, seed);
        let expected = Expected {
            q1: reference::q1(&t.tpch.lineitem),
            q6: reference::q6(&t.tpch.lineitem),
            q12: reference::q12(&t.tpch.lineitem, &t.tpch.orders),
            bb_q3: reference::bb_q3(&t.bb.clickstreams, &t.bb.item, "Electronics", 10, 30),
        };
        Tpch {
            payload_sf,
            fraction,
            passes,
            expected,
        }
    }

    fn answer_matches(&self, q: &Executed) -> bool {
        let Some(rows) = q.result.as_ref().ok().and_then(|r| r.rows.as_ref()) else {
            return false;
        };
        let e = &self.expected;
        match q.name.as_str() {
            "tpch-q1" => rows_approx_eq(rows, &e.q1, 1e-9),
            "tpch-q6" => rows
                .first()
                .and_then(|r| r.first())
                .is_some_and(|v| (v.as_f64() - e.q6).abs() <= 1e-9 * e.q6.abs()),
            "tpch-q12" => rows_approx_eq(rows, &e.q12, 1e-9),
            "tpcxbb-q3" => rows_approx_eq(rows, &e.bb_q3, 1e-9),
            _ => false,
        }
    }
}

impl Workload for Tpch {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, arm: Arm) -> Prepared {
        let tables = generate(self.payload_sf, seed);
        let sim = Sim::new(seed);
        let hooks = Hooks::install(&sim, arm);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let bucket = S3Bucket::standard(&ctx, &meter);
        let storage = Storage::S3(Rc::clone(&bucket));
        load(&storage, &tables, self.fraction);
        drop(tables);
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
        let passes = self.passes;
        let profiled = arm.trace;
        let handle = sim.spawn(async move {
            let mut out = Vec::new();
            for _ in 0..passes {
                for plan in queries::suite() {
                    let t0 = ctx.now();
                    let (result, profile) = if profiled {
                        match engine.run_profiled(&plan, QueryConfig::default()).await {
                            Ok((response, profile)) => (Ok(response), Some(profile)),
                            Err(e) => (Err(e), None),
                        }
                    } else {
                        (engine.run(&plan, QueryConfig::default()).await, None)
                    };
                    out.push(Executed {
                        name: plan.name.clone(),
                        latency_s: (ctx.now() - t0).as_secs_f64(),
                        result,
                        profile,
                    });
                }
            }
            out
        });
        Prepared {
            sim,
            hooks,
            meter,
            bucket,
            handle,
        }
    }

    fn run(&self, prepared: Prepared) -> Outcome {
        let Prepared {
            mut sim,
            hooks,
            meter,
            bucket,
            handle,
        } = prepared;
        sim.run();
        let mut out = Outcome::default();
        out.absorb(&hooks);
        let executed = handle.try_take().expect("query passes finished");
        let (requests, rejected) = metered_requests(&meter);
        let (mut coldstart_secs, mut worker_secs) = (0.0, 0.0);
        for q in &executed {
            out.check(self.answer_matches(q), || format!("{} answer", q.name));
            if let Some(p) = &q.profile {
                coldstart_secs += p.coldstart_secs;
                worker_secs += p.cumulative_worker_secs;
                out.add_layer(
                    "engine.critical_path_s",
                    p.critical_path.iter().map(|s| s.duration_secs).sum(),
                );
                for (op, secs) in &p.operator_secs {
                    if let Some(name) = crate::layers::operator_metric(op) {
                        out.add_layer(name, *secs);
                    }
                }
            }
        }
        if coldstart_secs + worker_secs > 0.0 {
            out.add_layer(
                "faas.coldstart_share",
                coldstart_secs / (coldstart_secs + worker_secs),
            );
        }
        out.add_layer(
            "storage.s3_standard.partitions",
            bucket.partition_count() as f64,
        );
        out.add_bill(&meter);
        let latencies: Vec<f64> = executed.iter().map(|q| q.latency_s).collect();
        out.virt = Virtual {
            virtual_s: latencies.iter().sum(),
            op_p50_ms: median(&latencies) * 1e3,
            op_p999_ms: rank_quantile(&latencies, 0.999) * 1e3,
            ok_share: 1.0 - rejected as f64 / requests.max(1) as f64,
            cost_usd: meter.borrow().report().total_usd(),
            op_samples: latencies.len() as u64,
        };
        out
    }

    /// Host time of the data and engine layers, timed from outside the
    /// simulation on this seed's inputs: generation, SPF encode + load,
    /// SPF decode of every stored partition, and `bind::execute_chain`
    /// over the decoded inputs of every scan-fed pipeline of the suite.
    fn host_layers(&self, seed: u64) -> HostLayers {
        let t = Instant::now();
        let tables = generate(self.payload_sf, seed);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;

        let sim = Sim::new(seed);
        let ctx = sim.ctx();
        let bucket = S3Bucket::standard(&ctx, &shared_meter());
        let storage = Storage::S3(Rc::clone(&bucket));
        let t = Instant::now();
        let metas = load(&storage, &tables, self.fraction);
        let encode_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(tables);

        let stored = |meta: &DatasetMeta| -> Vec<Vec<u8>> {
            meta.partitions
                .iter()
                .map(|p| {
                    bucket
                        .backdoor()
                        .get(&p.key)
                        .expect("stored partition")
                        .bytes
                        .to_vec()
                })
                .collect()
        };
        let files: Vec<(String, Vec<Vec<u8>>)> =
            metas.iter().map(|m| (m.name.clone(), stored(m))).collect();
        let t = Instant::now();
        for (_, parts) in &files {
            for file in parts {
                std::hint::black_box(spf::read_all(file, None).expect("stored partition decodes"));
            }
        }
        let decode_ms = t.elapsed().as_secs_f64() * 1e3;

        let udfs = UdfRegistry::with_builtins();
        let mut chain_ms = 0.0;
        for plan in queries::suite() {
            for pipeline in &plan.pipelines {
                let [InputSpec::Scan {
                    dataset,
                    projection,
                    ..
                }] = pipeline.inputs.as_slice()
                else {
                    continue;
                };
                let projection = (!projection.is_empty()).then_some(projection.as_slice());
                let (_, parts) = files
                    .iter()
                    .find(|(name, _)| name == dataset)
                    .expect("scanned dataset is stored");
                let batches: Vec<Batch> = parts
                    .iter()
                    .flat_map(|f| spf::read_all(f, projection).expect("projected decode"))
                    .collect();
                let inputs = vec![batches];
                let t = Instant::now();
                std::hint::black_box(
                    execute_chain(&pipeline.ops, &inputs, &udfs).expect("scan chain executes"),
                );
                chain_ms += t.elapsed().as_secs_f64() * 1e3;
            }
        }
        // Every suite pass decodes its inputs and runs its chains again.
        let passes = self.passes as f64;
        HostLayers {
            metrics: vec![
                ("data.generate_host_ms", generate_ms),
                ("data.spf_encode_host_ms", encode_ms),
                ("data.spf_decode_host_ms", decode_ms),
                ("engine.chain_host_ms", chain_ms),
            ],
            per_pass: vec![
                ("engine kernels", chain_ms * passes),
                ("SPF decode", decode_ms * passes),
            ],
        }
    }
}
