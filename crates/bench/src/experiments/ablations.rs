//! Ablations of the design choices DESIGN.md calls out, plus the paper's
//! "experiments not shown for brevity" (Sec. 4.4.1).

use crate::datasets::load_paper_datasets;
use crate::in_sim;
use skyrise::engine::{queries, Sink};
use skyrise::micro::{text_table, ExperimentResult};
use skyrise::prelude::*;
use skyrise::storage::RetryPolicy;
use std::rc::Rc;

/// Ablation A: shuffle write combining (the paper's Sec. 5.3.2 technique).
/// Q12 with combine ∈ {1, 2, 4, 8}: requests, mean object size, runtime,
/// request cost.
pub fn ablation_combining() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ablation_combining",
        "Shuffle write combining: requests, object sizes, runtime, cost (TPC-H Q12)",
    );
    let mut rows = vec![vec![
        "combine".to_string(),
        "Query [s]".into(),
        "Storage requests".into(),
        "Mean shuffle obj [KiB]".into(),
        "Request cost [c]".into(),
    ]];
    for combine in [1u32, 2, 4, 8] {
        let (secs, requests, mean_kib, cost_cents) = in_sim(0xAB10 + combine as u64, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
                load_paper_datasets(&storage, 0.01, 0.08).unwrap();
                let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
                let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
                engine.warm(48).await;
                let mut plan = queries::q12();
                for p in plan.pipelines.iter_mut() {
                    if p.id != 3 {
                        p.fragments = Some(32);
                    }
                    if let Sink::ShuffleWrite { combine: c, .. } = &mut p.sink {
                        *c = combine;
                    }
                }
                let response = engine.run_default(&plan).await.expect("q12");
                let shuffle_bytes: u64 = response
                    .stages
                    .iter()
                    .map(|s| s.logical_bytes_written)
                    .sum();
                let objects: u64 = response
                    .stages
                    .iter()
                    .filter(|s| s.downstream_fragments > 0)
                    .map(|s| {
                        s.fragments as u64
                            * (s.downstream_fragments as u64).div_ceil(combine as u64)
                    })
                    .sum();
                let report = meter.borrow().report();
                (
                    response.runtime_secs,
                    response.total_requests(),
                    shuffle_bytes as f64 / objects.max(1) as f64 / KIB as f64,
                    report.storage_request_usd * 100.0,
                )
            })
        });
        rows.push(vec![
            combine.to_string(),
            format!("{secs:.2}"),
            requests.to_string(),
            format!("{mean_kib:.1}"),
            format!("{cost_cents:.3}"),
        ]);
        r.scalar(&format!("combine{combine}_requests"), requests as f64);
        r.scalar(&format!("combine{combine}_secs"), secs);
        r.scalar(&format!("combine{combine}_mean_obj_kib"), mean_kib);
        r.scalar(&format!("combine{combine}_cost_cents"), cost_cents);
    }
    println!("{}", text_table(&rows));
    r
}

/// Ablation B: binary size vs coldstart ("we keep binary sizes small
/// (< 10 MiB)", paper Sec. 3.2). Measures cluster startup for 64 cold
/// workers at several artifact sizes.
pub fn ablation_binary_size() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ablation_binary_size",
        "Deployment artifact size vs cold cluster startup",
    );
    let mut rows = vec![vec![
        "Binary [MiB]".to_string(),
        "64-worker cold startup [s]".into(),
    ]];
    for mib in [2u64, 8, 32, 128, 256] {
        let secs = in_sim(0xAB20 + mib, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
                skyrise::micro::minimal::deploy_minimal(&platform, "f", mib << 20);
                let t0 = ctx.now();
                let handles: Vec<_> = (0..64)
                    .map(|_| {
                        let p = Rc::clone(&platform);
                        ctx.spawn(async move {
                            p.invoke("f", String::new()).await.expect("invokes");
                        })
                    })
                    .collect();
                join_all(handles).await;
                (ctx.now() - t0).as_secs_f64()
            })
        });
        rows.push(vec![mib.to_string(), format!("{secs:.2}")]);
        r.scalar(&format!("startup_{mib}mib_secs"), secs);
    }
    println!("{}", text_table(&rows));
    r
}

/// The paper's extra observations (Sec. 4.4.1, "experiments not shown for
/// brevity"): (1) prefix-hashed key naming does not change IOPS scaling;
/// (2) sustained read load does not raise write IOPS beyond a single
/// partition's 3.5K.
pub fn extra_observations() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "extra_observations",
        "Prefix naming is irrelevant to IOPS scaling; write IOPS never scale",
    );

    // (1) Same sustained read overload, plain vs hash-prefixed keys.
    for (arm, hashed) in [(0u64, false), (1, true)] {
        let partitions = in_sim(0xAB30 + arm, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let mut cfg = S3Config::standard();
                cfg.read_iops_per_partition *= 0.1;
                cfg.write_iops *= 0.1;
                cfg.split_interval = SimDuration::from_secs(60);
                let per_partition = cfg.read_iops_per_partition;
                let bucket = S3Bucket::new(ctx.clone(), meter.clone(), cfg);
                let storage = Storage::S3(Rc::clone(&bucket));
                for i in 0..64 {
                    let key = if hashed {
                        format!(
                            "{:016x}/obj{i}",
                            (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                        )
                    } else {
                        format!("data/obj{i}")
                    };
                    storage.backdoor_put(&key, Blob::synthetic(1024));
                }
                let keys: Vec<String> = if hashed {
                    (0..64)
                        .map(|i| {
                            format!(
                                "{:016x}/obj{i}",
                                (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                            )
                        })
                        .collect()
                } else {
                    (0..64).map(|i| format!("data/obj{i}")).collect()
                };
                let client =
                    RetryingClient::new(storage.clone(), ctx.clone(), RetryPolicy::eager());
                // 4 minutes of sustained slight overload.
                let start = ctx.now();
                let mut handles = Vec::new();
                let mut window_start = start;
                for _ in 0..24 {
                    let rate = bucket.partition_count() as f64 * per_partition * 1.02;
                    let n = (rate * 10.0) as u64;
                    for i in 0..n {
                        let at = window_start + SimDuration::from_secs_f64(i as f64 / rate);
                        let client = client.clone();
                        let key = keys[(i % 64) as usize].clone();
                        handles.push(ctx.spawn_at(at, async move {
                            let _ = client.get(&key, 1024, &RequestOpts::default()).await;
                        }));
                    }
                    window_start += SimDuration::from_secs(10);
                    ctx.sleep_until(window_start).await;
                }
                join_all(handles).await;
                bucket.partition_count() as f64
            })
        });
        let label = if hashed {
            "hashed_prefix"
        } else {
            "plain_prefix"
        };
        r.scalar(&format!("{label}_partitions"), partitions);
    }

    // (2) Sustained read load running while write IOPS are probed.
    let (write_iops_cold, write_iops_during_reads) = in_sim(0xAB40, |ctx| {
        Box::pin(async move {
            let meter = shared_meter();
            let mut cfg = S3Config::standard();
            cfg.read_iops_per_partition *= 0.1;
            cfg.write_iops *= 0.1;
            cfg.split_interval = SimDuration::from_secs(60);
            let write_quota = cfg.write_iops;
            let bucket = S3Bucket::new(ctx.clone(), meter.clone(), cfg);
            // Pretend heavy read history has scaled the bucket out.
            bucket.warm_to(5);
            let storage = Storage::S3(Rc::clone(&bucket));
            storage.backdoor_put("k", Blob::synthetic(1024));

            let probe_writes = |label: u64| {
                let ctx = ctx.clone();
                let storage = storage.clone();
                async move {
                    let _ = label;
                    let t0 = ctx.now();
                    let rate = 1_000.0f64; // far above the 350-scaled quota
                    let n = (rate * 10.0) as u64;
                    let ok = Rc::new(std::cell::Cell::new(0u64));
                    let handles: Vec<_> = (0..n)
                        .map(|i| {
                            let at = t0 + SimDuration::from_secs_f64(i as f64 / rate);
                            let storage = storage.clone();
                            let ok = Rc::clone(&ok);
                            ctx.spawn_at(at, async move {
                                if storage
                                    .put(
                                        &format!("w/{i}"),
                                        Blob::synthetic(256),
                                        &RequestOpts::default(),
                                    )
                                    .await
                                    .is_ok()
                                {
                                    ok.set(ok.get() + 1);
                                }
                            })
                        })
                        .collect();
                    join_all(handles).await;
                    ok.get() as f64 / 10.0
                }
            };
            let cold = probe_writes(0).await;
            ctx.sleep(SimDuration::from_secs(30)).await;
            let during = probe_writes(1).await;
            let _ = write_quota;
            (cold, during)
        })
    });
    r.scalar("write_iops_baseline", write_iops_cold);
    r.scalar("write_iops_with_5_read_partitions", write_iops_during_reads);

    let mut rows = vec![vec!["Observation".to_string(), "Value".into()]];
    rows.push(vec![
        "partitions (plain keys)".into(),
        format!("{}", r.scalars["plain_prefix_partitions"]),
    ]);
    rows.push(vec![
        "partitions (hash-prefixed keys)".into(),
        format!("{}", r.scalars["hashed_prefix_partitions"]),
    ]);
    rows.push(vec![
        "write IOPS (1 partition, scaled)".into(),
        format!("{:.0}", write_iops_cold),
    ]);
    rows.push(vec![
        "write IOPS (5 read partitions, scaled)".into(),
        format!("{:.0}", write_iops_during_reads),
    ]);
    println!("{}", text_table(&rows));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn combining_cuts_requests_and_grows_objects() {
        let r = ablation_combining();
        let req1 = r.scalars["combine1_requests"];
        let req8 = r.scalars["combine8_requests"];
        assert!(req8 < 0.7 * req1, "requests {req1} -> {req8}");
        let obj1 = r.scalars["combine1_mean_obj_kib"];
        let obj8 = r.scalars["combine8_mean_obj_kib"];
        assert!(obj8 > 2.5 * obj1, "object size {obj1} -> {obj8}");
        let c1 = r.scalars["combine1_cost_cents"];
        let c8 = r.scalars["combine8_cost_cents"];
        assert!(c8 < c1, "cost {c1} -> {c8}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn small_binaries_start_clusters_faster() {
        let r = ablation_binary_size();
        let small = r.scalars["startup_2mib_secs"];
        let big = r.scalars["startup_256mib_secs"];
        assert!(big > small + 4.0, "{small} vs {big}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn extra_observations_hold() {
        let r = extra_observations();
        // Prefix naming is irrelevant.
        assert_eq!(
            r.scalars["plain_prefix_partitions"],
            r.scalars["hashed_prefix_partitions"]
        );
        assert!(r.scalars["plain_prefix_partitions"] >= 3.0);
        // Write IOPS stay at a single partition's capacity (350 scaled).
        let base = r.scalars["write_iops_baseline"];
        let during = r.scalars["write_iops_with_5_read_partitions"];
        assert!((base - during).abs() / base < 0.15, "{base} vs {during}");
        assert!(base < 500.0, "writes never scale: {base}");
    }
}
