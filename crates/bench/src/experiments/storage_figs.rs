//! Figures 8–13: serverless storage characterisation.
//!
//! The long-running S3 partition-scaling experiments run **time- and
//! IOPS-scaled** in the default fast profile (split interval 80 s instead
//! of 315 s, partition IOPS scaled down) and the reported series are
//! converted back to paper scale; `SKYRISE_FULL=1` runs them unscaled.

use crate::{full_profile, in_sim};
use skyrise::micro::{
    ascii_chart, run_closed_loop, text_table, ExperimentResult, NamedSeries, StorageIoConfig,
};
use skyrise::prelude::*;
use skyrise::pricing::{shared_meter, StoragePricing, StorageService};
use skyrise::storage::{EfsAccount, EfsConfig, RetryPolicy};
use std::rc::Rc;

fn client_nic_factory() -> Rc<dyn Fn() -> SharedNic> {
    // The paper's storage clients: c6gn.2xlarge (25 Gbps burst).
    Rc::new(|| {
        let spec = skyrise::pricing::ec2_instance("c6gn.2xlarge").expect("catalog");
        skyrise::compute::nic_for(&spec)
    })
}

fn make_storage(ctx: &SimCtx, meter: &skyrise::pricing::SharedMeter, which: usize) -> Storage {
    match which {
        0 => Storage::S3(S3Bucket::standard(ctx, meter)),
        1 => Storage::S3(S3Bucket::express(ctx, meter)),
        2 => Storage::Dynamo(DynamoTable::on_demand(ctx, meter)),
        _ => Storage::Efs(EfsFilesystem::elastic(ctx, meter)),
    }
}

const SERVICE_NAMES: [&str; 4] = ["S3 Standard", "S3 Express", "DynamoDB", "EFS"];

/// Fig. 8: aggregated read/write throughput for 1–128 client VMs.
pub fn fig08() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig08",
        "Aggregated storage throughput for varying client VM counts",
    );
    let clients: &[usize] = if full_profile() {
        &[1, 4, 16, 64, 128]
    } else {
        &[1, 8, 32, 128]
    };
    let duration = SimDuration::from_secs(if full_profile() { 30 } else { 6 });
    r.param("clients", format!("{clients:?}"));

    for (svc_idx, svc_name) in SERVICE_NAMES.iter().enumerate() {
        // Object sizes: 64 MiB on S3, the 400 KiB maximum on DynamoDB,
        // 4 MiB files on EFS (paper Sec. 4.3.1).
        let object_bytes: u64 = match svc_idx {
            0 | 1 => 64 << 20,
            2 => 400 << 10,
            _ => 4 << 20,
        };
        for write in [false, true] {
            let mut points = Vec::new();
            for (ci, &n) in clients.iter().enumerate() {
                let seed = 0xF800 + (svc_idx * 100 + ci * 2 + write as usize) as u64;
                let bytes_per_sec = in_sim(seed, move |ctx| {
                    Box::pin(async move {
                        let meter = shared_meter();
                        let storage = make_storage(&ctx, &meter, svc_idx);
                        let cfg = StorageIoConfig {
                            clients: n,
                            threads_per_client: 32,
                            object_bytes,
                            write,
                            duration,
                            client_nic: Some(client_nic_factory()),
                            keyspace_per_thread: 2,
                        };
                        run_closed_loop(&ctx, &storage, &cfg).await.bytes_per_sec
                    })
                });
                points.push((n as f64, bytes_per_sec / GIB as f64));
            }
            let dir = if write { "write" } else { "read" };
            r.scalar(
                &format!("{}_{dir}_gib_s_at_max_clients", svc_name.replace(' ', "_")),
                points.last().expect("points").1,
            );
            r.push_series(NamedSeries::new(&format!("{svc_name} {dir} GiB/s"), points));
        }
    }
    println!("{}", ascii_chart(&r.series, 90, 16));
    r
}

/// Fig. 9: operations per second and container-level quotas per service
/// (EFS with one and two filesystems).
pub fn fig09() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig09",
        "IOPS per serverless storage service with container quotas",
    );
    let duration = SimDuration::from_secs(if full_profile() { 40 } else { 15 });

    struct Arm {
        name: &'static str,
        read_quota: f64,
        write_quota: f64,
        fs_count: usize,
        svc: usize,
    }
    let arms = [
        Arm {
            name: "S3 Standard",
            read_quota: 5_500.0,
            write_quota: 3_500.0,
            fs_count: 1,
            svc: 0,
        },
        Arm {
            name: "S3 Express",
            read_quota: 220_000.0,
            write_quota: 42_000.0,
            fs_count: 1,
            svc: 1,
        },
        Arm {
            name: "DynamoDB",
            read_quota: 12_000.0,
            write_quota: 4_000.0,
            fs_count: 1,
            svc: 2,
        },
        Arm {
            name: "EFS-1",
            read_quota: 55_000.0,
            write_quota: 25_000.0,
            fs_count: 1,
            svc: 3,
        },
        Arm {
            name: "EFS-2",
            read_quota: 55_000.0,
            write_quota: 25_000.0,
            fs_count: 2,
            svc: 3,
        },
    ];

    let mut rows = vec![vec![
        "Service".to_string(),
        "Read IOPS".into(),
        "Write IOPS".into(),
        "Read quota".into(),
        "Write quota".into(),
    ]];
    for (ai, arm) in arms.iter().enumerate() {
        let mut measured = [0.0f64; 2];
        for (wi, write) in [false, true].into_iter().enumerate() {
            let fs_count = arm.fs_count;
            let svc = arm.svc;
            let seed = 0xF900 + (ai * 2 + wi) as u64;
            measured[wi] = in_sim(seed, move |ctx| {
                Box::pin(async move {
                    let meter = shared_meter();
                    // 64 clients x 32 threads of 1 KiB requests.
                    let cfg = StorageIoConfig {
                        clients: 64,
                        threads_per_client: 32,
                        object_bytes: 1024,
                        write,
                        duration,
                        client_nic: None,
                        keyspace_per_thread: 4,
                    };
                    if svc == 3 {
                        // EFS arms share an account-level ceiling.
                        let efs_cfg = EfsConfig::default();
                        let account = EfsAccount::new(&efs_cfg);
                        let filesystems: Vec<_> = (0..fs_count)
                            .map(|_| {
                                EfsFilesystem::new(
                                    ctx.clone(),
                                    meter.clone(),
                                    efs_cfg.clone(),
                                    Some(account.clone()),
                                )
                            })
                            .collect();
                        // Round-robin threads across filesystems: run one
                        // closed loop per filesystem with a client share.
                        let mut total = 0.0;
                        let share = (64 / fs_count).max(1);
                        for fs in filesystems {
                            let cfg = StorageIoConfig {
                                clients: share,
                                ..cfg.clone()
                            };
                            total += run_closed_loop(&ctx, &Storage::Efs(fs), &cfg)
                                .await
                                .ops_per_sec;
                        }
                        total
                    } else {
                        let storage = make_storage(&ctx, &meter, svc);
                        run_closed_loop(&ctx, &storage, &cfg).await.ops_per_sec
                    }
                })
            });
        }
        rows.push(vec![
            arm.name.into(),
            format!("{:.0}", measured[0]),
            format!("{:.0}", measured[1]),
            format!("{:.0}", arm.read_quota * arm.fs_count as f64),
            format!("{:.0}", arm.write_quota * arm.fs_count as f64),
        ]);
        r.scalar(
            &format!("{}_read_iops", arm.name.replace([' ', '-'], "_")),
            measured[0],
        );
        r.scalar(
            &format!("{}_write_iops", arm.name.replace([' ', '-'], "_")),
            measured[1],
        );
    }
    println!("{}", text_table(&rows));
    r
}

/// Fig. 10: request-latency distribution per service.
pub fn fig10() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig10", "Latency distribution of storage requests");
    let per_service: u64 = if full_profile() { 1_000_000 } else { 60_000 };
    r.param("requests_per_service", per_service);

    let mut rows = vec![vec![
        "Service".to_string(),
        "dir".into(),
        "p50 [ms]".into(),
        "p95 [ms]".into(),
        "p99 [ms]".into(),
        "max [ms]".into(),
    ]];
    for (svc_idx, svc_name) in SERVICE_NAMES.iter().enumerate() {
        for write in [false, true] {
            let seed = 0xFA00 + (svc_idx * 2 + write as usize) as u64;
            let summary = in_sim(seed, move |ctx| {
                Box::pin(async move {
                    let meter = shared_meter();
                    let storage = make_storage(&ctx, &meter, svc_idx);
                    // 10 clients using the synchronous APIs (paper 4.3.3):
                    // pace requests below any IOPS limit.
                    let mut hist = skyrise::sim::Histogram::new();
                    let per_thread = per_service / 10;
                    let handles: Vec<_> = (0..10u64)
                        .map(|t| {
                            let ctx2 = ctx.clone();
                            let storage = storage.clone();
                            ctx.spawn(async move {
                                let mut h = skyrise::sim::Histogram::new();
                                let opts = RequestOpts::default();
                                let key = format!("lat/{t}");
                                storage.backdoor_put(&key, Blob::synthetic(1024));
                                for i in 0..per_thread {
                                    let t0 = ctx2.now();
                                    let out = if write {
                                        storage
                                            .put(&key, Blob::synthetic(1024), &opts)
                                            .await
                                            .map(|_| ())
                                    } else {
                                        storage.get(&key, &opts).await.map(|_| ())
                                    };
                                    if out.is_ok() {
                                        h.record((ctx2.now() - t0).as_secs_f64());
                                    }
                                    // Small think time keeps offered load
                                    // well below quotas.
                                    if i % 8 == 7 {
                                        ctx2.sleep(SimDuration::from_millis(15)).await;
                                    }
                                }
                                h
                            })
                        })
                        .collect();
                    for h in join_all(handles).await {
                        hist.merge(&h);
                    }
                    hist.summary()
                })
            });
            let dir = if write { "write" } else { "read" };
            rows.push(vec![
                svc_name.to_string(),
                dir.into(),
                format!("{:.1}", summary.p50 * 1e3),
                format!("{:.1}", summary.p95 * 1e3),
                format!("{:.1}", summary.p99 * 1e3),
                format!("{:.0}", summary.max * 1e3),
            ]);
            r.scalar(
                &format!("{}_{dir}_p50_ms", svc_name.replace(' ', "_")),
                summary.p50 * 1e3,
            );
            r.scalar(
                &format!("{}_{dir}_max_ms", svc_name.replace(' ', "_")),
                summary.max * 1e3,
            );
        }
    }
    println!("{}", text_table(&rows));
    r
}

/// Scaled S3 parameters for the partition-scaling experiments, plus the
/// factors converting fast-profile measurements back to paper scale.
pub struct ScalingProfile {
    pub cfg: S3Config,
    pub iops_factor: f64,
    pub time_factor: f64,
}

/// Build the fast or full scaling profile.
pub fn scaling_profile(fast_iops_scale: f64) -> ScalingProfile {
    if full_profile() {
        ScalingProfile {
            cfg: S3Config::standard(),
            iops_factor: 1.0,
            time_factor: 1.0,
        }
    } else {
        let mut cfg = S3Config::standard();
        cfg.read_iops_per_partition *= fast_iops_scale;
        cfg.write_iops *= fast_iops_scale;
        cfg.split_interval = SimDuration::from_secs(80);
        cfg.window = SimDuration::from_secs(2);
        ScalingProfile {
            cfg,
            iops_factor: 1.0 / fast_iops_scale,
            time_factor: 315.0 / 80.0,
        }
    }
}

/// Fig. 11: S3 IOPS scaling from one to five prefix partitions under a
/// controlled ramp (successful and failed operations over time).
pub fn fig11() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig11", "S3 IOPS scaling under a controlled ramp");
    let profile = scaling_profile(0.1);
    let iops_factor = profile.iops_factor;
    let time_factor = profile.time_factor;
    r.param(
        "profile",
        if full_profile() {
            "full"
        } else {
            "fast (converted)"
        },
    );

    let cfg = profile.cfg.clone();
    let per_partition = profile.cfg.read_iops_per_partition;
    let (ok_series, fail_series, partitions) = in_sim(0xFB11, move |ctx| {
        Box::pin(async move {
            let meter = shared_meter();
            let bucket = S3Bucket::new(ctx.clone(), meter.clone(), cfg);
            let storage = Storage::S3(Rc::clone(&bucket));
            storage.backdoor_put("ramp/obj", Blob::synthetic(1024));
            let client = RetryingClient::new(storage.clone(), ctx.clone(), RetryPolicy::eager());

            let start = ctx.now();
            let bucket_len = SimDuration::from_secs(10);
            let ok = Rc::new(std::cell::RefCell::new(skyrise::sim::IntervalSeries::new(
                start, bucket_len,
            )));
            let fail = Rc::new(std::cell::RefCell::new(skyrise::sim::IntervalSeries::new(
                start, bucket_len,
            )));
            let mut parts: Vec<(f64, f64)> = Vec::new();

            // "Carefully controlled increasing load": each 10 s window
            // offers slightly more than the current capacity, so splits
            // are sustained without a divergent retry backlog — the
            // paper's ramp adds instances at a pace S3's scaling matches.
            let target_partitions = 5;
            let max_secs = if full_profile() { 3_600.0 } else { 900.0 };
            // The load generator is strictly open-loop: each 10 s window's
            // requests go onto a fixed timetable without waiting for the
            // previous window's stragglers (a quiet drain gap would reset
            // S3's sustained-overload detection — and would not happen
            // with the paper's independent client instances either).
            let mut all_handles = Vec::new();
            let mut window_start = ctx.now();
            loop {
                let capacity = bucket.partition_count() as f64 * per_partition;
                let rate = (capacity * 1.02).max(per_partition * 0.95);
                let n = (rate * 10.0) as u64;
                for i in 0..n {
                    let at = window_start + SimDuration::from_secs_f64(i as f64 / rate);
                    let ctx2 = ctx.clone();
                    let client = client.clone();
                    let ok = Rc::clone(&ok);
                    let fail = Rc::clone(&fail);
                    all_handles.push(ctx.spawn_at(at, async move {
                        let out = client.get("ramp/obj", 1024, &RequestOpts::default()).await;
                        let now = ctx2.now();
                        match out {
                            Ok((_, stats)) => {
                                ok.borrow_mut().record(now, 1.0);
                                if stats.throttles > 0 {
                                    fail.borrow_mut().record(now, stats.throttles as f64);
                                }
                            }
                            Err(_) => fail.borrow_mut().record(now, 1.0),
                        }
                    }));
                }
                window_start += SimDuration::from_secs(10);
                ctx.sleep_until(window_start).await;
                parts.push((
                    (ctx.now() - start).as_secs_f64(),
                    bucket.partition_count() as f64,
                ));
                if bucket.partition_count() >= target_partitions
                    || (ctx.now() - start).as_secs_f64() >= max_secs
                {
                    break;
                }
            }
            join_all(all_handles).await;
            let ok = ok.borrow().clone();
            let fail = fail.borrow().clone();
            (ok, fail, parts)
        })
    });

    let convert = |s: &skyrise::sim::IntervalSeries| -> Vec<(f64, f64)> {
        s.points()
            .into_iter()
            .map(|(x, y)| (x * time_factor / 60.0, y * iops_factor))
            .collect()
    };
    let ok_pts = convert(&ok_series);
    let fail_pts = convert(&fail_series);
    let part_pts: Vec<(f64, f64)> = partitions
        .iter()
        .map(|&(t, p)| (t * time_factor / 60.0, p))
        .collect();

    let peak_iops = ok_pts.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
    let final_partitions = part_pts.last().map(|&(_, p)| p).unwrap_or(1.0);
    let total_ok: f64 = ok_pts.iter().map(|&(_, y)| y).sum::<f64>() * 10.0 * time_factor;
    let total_fail: f64 = fail_pts.iter().map(|&(_, y)| y).sum::<f64>() * 10.0 * time_factor;
    let error_rate = total_fail / (total_ok + total_fail).max(1.0);

    println!(
        "{}",
        ascii_chart(
            &[
                NamedSeries::new("successful IOPS", ok_pts.clone()),
                NamedSeries::new("failed IOPS", fail_pts.clone()),
            ],
            90,
            14,
        )
    );
    r.scalar("peak_iops", peak_iops);
    r.scalar("final_partitions", final_partitions);
    r.scalar("error_rate", error_rate);
    if let Some(&(t, _)) = partitions.last() {
        r.scalar("minutes_to_final", t * time_factor / 60.0);
    }
    r.push_series(NamedSeries::new("successful_iops", ok_pts));
    r.push_series(NamedSeries::new("failed_iops", fail_pts));
    r.push_series(NamedSeries::new("partitions", part_pts));
    r
}

/// Fig. 12: time and budget required for S3 IOPS scaling (measured ramp
/// extended to 20 prefix partitions, converted to paper scale).
pub fn fig12() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig12", "Required time and budget for S3 IOPS scaling");
    let profile = scaling_profile(0.02);
    let iops_factor = profile.iops_factor;
    let time_factor = profile.time_factor;
    let per_partition = profile.cfg.read_iops_per_partition;
    let price = StoragePricing::of(StorageService::S3Standard).read_request;

    let cfg = profile.cfg.clone();
    let milestones = in_sim(0xFB12, move |ctx| {
        Box::pin(async move {
            let meter = shared_meter();
            let bucket = S3Bucket::new(ctx.clone(), meter.clone(), cfg);
            let storage = Storage::S3(Rc::clone(&bucket));
            storage.backdoor_put("ramp/obj", Blob::synthetic(1024));
            let start = ctx.now();
            let mut requests = 0u64;
            let mut milestones: Vec<(usize, f64, u64)> = Vec::new(); // (partitions, secs, requests)
            let opts = RequestOpts::default();

            // Adaptive sustained overload: always offer ~1.05x capacity.
            while bucket.partition_count() < 20 {
                let capacity = bucket.partition_count() as f64 * per_partition;
                let rate = capacity * 1.05;
                let window = 5.0f64;
                let n = (rate * window) as u64;
                let t0 = ctx.now();
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let at = t0 + SimDuration::from_secs_f64(i as f64 / rate);
                        let storage = storage.clone();
                        let opts = opts.clone();
                        ctx.spawn_at(at, async move {
                            let _ = storage.get("ramp/obj", &opts).await;
                        })
                    })
                    .collect();
                join_all(handles).await;
                requests += n;
                let parts = bucket.partition_count();
                if milestones.last().map(|&(p, _, _)| p) != Some(parts) {
                    milestones.push((parts, (ctx.now() - start).as_secs_f64(), requests));
                }
            }
            milestones
        })
    });

    let mut time_pts = Vec::new();
    let mut cost_pts = Vec::new();
    let mut rows = vec![vec![
        "Partitions".to_string(),
        "IOPS".into(),
        "Time [h]".into(),
        "Budget [$]".into(),
    ]];
    for &(parts, secs, requests) in &milestones {
        let iops = parts as f64 * per_partition * iops_factor;
        let hours = secs * time_factor / 3600.0;
        let usd = requests as f64 * iops_factor * time_factor * price;
        time_pts.push((iops / 1e3, hours));
        cost_pts.push((iops / 1e3, usd));
        rows.push(vec![
            parts.to_string(),
            format!("{:.1}K", iops / 1e3),
            format!("{hours:.2}"),
            format!("{usd:.0}"),
        ]);
    }
    println!("{}", text_table(&rows));
    let at_50k = time_pts.iter().find(|&&(k, _)| k >= 49.0);
    let cost_50k = cost_pts.iter().find(|&&(k, _)| k >= 49.0);
    if let (Some(&(_, h)), Some(&(_, c))) = (at_50k, cost_50k) {
        r.scalar("hours_to_50k", h);
        r.scalar("usd_to_50k", c);
    }
    if let (Some(&(_, h)), Some(&(_, c))) = (
        time_pts.iter().find(|&&(k, _)| k >= 99.0),
        cost_pts.iter().find(|&&(k, _)| k >= 99.0),
    ) {
        r.scalar("hours_to_100k", h);
        r.scalar("usd_to_100k", c);
    }
    r.push_series(NamedSeries::new("time_hours_vs_kiops", time_pts));
    r.push_series(NamedSeries::new("budget_usd_vs_kiops", cost_pts));
    r
}

/// Fig. 13: S3 scaling down from five to one prefix partitions under
/// hourly and daily probe patterns.
pub fn fig13() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig13", "S3 downscaling under hourly/daily load patterns");
    let profile = scaling_profile(0.1);
    let iops_factor = profile.iops_factor;
    let per_partition = profile.cfg.read_iops_per_partition;

    for (arm, probe_every_h, label) in [(0u64, 2u64, "hourly"), (1, 24, "daily")] {
        let cfg = profile.cfg.clone();
        let series = in_sim(0xFB13 + arm, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let bucket = S3Bucket::new(ctx.clone(), meter.clone(), cfg);
                bucket.warm_to(5);
                let storage = Storage::S3(Rc::clone(&bucket));
                storage.backdoor_put("probe/obj", Blob::synthetic(1024));
                let opts = RequestOpts::default();
                let mut points = Vec::new();
                let total_hours = 5 * 24 + 12;
                let mut hour = 0u64;
                while hour <= total_hours {
                    ctx.sleep(SimDuration::from_hours(probe_every_h)).await;
                    hour += probe_every_h;
                    // Probe: 5 s of load at ~1.2x the 5-partition capacity;
                    // successful rate reveals surviving partitions.
                    let rate = 5.0 * per_partition * 1.2;
                    let n = (rate * 5.0) as u64;
                    let t0 = ctx.now();
                    let ok = Rc::new(std::cell::Cell::new(0u64));
                    let handles: Vec<_> = (0..n)
                        .map(|i| {
                            let at = t0 + SimDuration::from_secs_f64(i as f64 / rate);
                            let storage = storage.clone();
                            let opts = opts.clone();
                            let ok = Rc::clone(&ok);
                            ctx.spawn_at(at, async move {
                                if storage.get("probe/obj", &opts).await.is_ok() {
                                    ok.set(ok.get() + 1);
                                }
                            })
                        })
                        .collect();
                    join_all(handles).await;
                    let measured = ok.get() as f64 / 5.0;
                    points.push((hour as f64 / 24.0, measured));
                }
                points
            })
        });
        let converted: Vec<(f64, f64)> = series
            .into_iter()
            .map(|(d, iops)| (d, iops * iops_factor))
            .collect();
        let last = converted.last().expect("points").1;
        let first = converted.first().expect("points").1;
        r.scalar(&format!("{label}_first_probe_iops"), first);
        r.scalar(&format!("{label}_final_iops"), last);
        r.push_series(NamedSeries::new(&format!("{label} probes"), converted));
    }
    println!("{}", ascii_chart(&r.series, 90, 14));
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
    fn fig09_quota_relationships_hold() {
        let r = fig09();
        // S3 Express provides the highest IOPS.
        assert!(r.scalars["S3_Express_read_iops"] > r.scalars["DynamoDB_read_iops"]);
        assert!(r.scalars["S3_Express_read_iops"] > 150_000.0);
        // EFS misses its documented quota by >10x.
        assert!(r.scalars["EFS_1_read_iops"] < 55_000.0 / 10.0);
        // Two filesystems double EFS read IOPS.
        let ratio = r.scalars["EFS_2_read_iops"] / r.scalars["EFS_1_read_iops"];
        assert!((1.6..=2.4).contains(&ratio), "EFS-2/EFS-1 = {ratio}");
        // S3 Standard sits just at its single-partition quota.
        assert!((4_500.0..=8_500.0).contains(&r.scalars["S3_Standard_read_iops"]));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn fig10_latency_ordering_matches_paper() {
        let r = fig10();
        // S3 Standard has the highest median; Express/DynamoDB/EFS are ~5 ms.
        let s3 = r.scalars["S3_Standard_read_p50_ms"];
        assert!((20.0..=35.0).contains(&s3), "{s3}");
        for svc in ["S3_Express", "DynamoDB", "EFS"] {
            let p50 = r.scalars[&format!("{svc}_read_p50_ms")];
            assert!(p50 < 8.0, "{svc} median {p50}");
        }
        // EFS writes are 2-3x its reads.
        let ratio = r.scalars["EFS_write_p50_ms"] / r.scalars["EFS_read_p50_ms"];
        assert!((1.8..=3.5).contains(&ratio), "{ratio}");
        // Tail latencies reach orders of magnitude above the median.
        assert!(r.scalars["S3_Standard_read_max_ms"] > 600.0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn fig11_scales_iops_with_partition_splits() {
        let r = fig11();
        assert!(
            r.scalars["final_partitions"] >= 4.0,
            "{}",
            r.scalars["final_partitions"]
        );
        assert!(
            r.scalars["peak_iops"] > 20_000.0,
            "peak {}",
            r.scalars["peak_iops"]
        );
        assert!(
            r.scalars["error_rate"] > 0.01 && r.scalars["error_rate"] < 0.5,
            "error rate {}",
            r.scalars["error_rate"]
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn fig08_throughput_crossovers() {
        let r = fig08();
        // Both S3 classes scale far beyond DynamoDB and EFS.
        let s3 = r.scalars["S3_Standard_read_gib_s_at_max_clients"];
        let dy = r.scalars["DynamoDB_read_gib_s_at_max_clients"];
        let efs = r.scalars["EFS_read_gib_s_at_max_clients"];
        assert!(s3 > 10.0 * dy, "S3 {s3} vs DynamoDB {dy}");
        assert!(s3 > 2.0 * efs, "S3 {s3} vs EFS {efs}");
        // DynamoDB saturates around 380 MiB/s; EFS near its 20 GiB/s quota.
        assert!((0.25..=0.45).contains(&dy), "DynamoDB {dy} GiB/s");
        assert!((10.0..=22.0).contains(&efs), "EFS {efs} GiB/s");
        // Writes are universally slower than reads.
        let s3w = r.scalars["S3_Standard_write_gib_s_at_max_clients"];
        assert!(s3w < s3);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn fig12_time_and_budget_grow_superlinearly() {
        let r = fig12();
        let h50 = r.scalars["hours_to_50k"];
        let h100 = r.scalars["hours_to_100k"];
        let c50 = r.scalars["usd_to_50k"];
        let c100 = r.scalars["usd_to_100k"];
        // Doubling IOPS more than doubles both time and budget.
        assert!(h100 > 2.0 * h50, "{h50} -> {h100}");
        assert!(c100 > 2.5 * c50, "{c50} -> {c100}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates a full experiment; run with --release"
    )]
    fn fig13_downscales_over_days() {
        let r = fig13();
        // Starts at ~5 partitions' capacity (27.5K), ends at ~1 (5.5K).
        assert!(r.scalars["hourly_first_probe_iops"] > 20_000.0);
        assert!(r.scalars["hourly_final_iops"] < 9_000.0);
        assert!(r.scalars["daily_final_iops"] < 9_000.0);
    }
}
