//! The storage I/O measurement function (paper Sec. 3.1): "writes or
//! reads randomly generated files of fixed size and number to or from a
//! storage service. For latency measurements, the function calls the
//! synchronous storage service APIs. For throughput measurements, it
//! calls the asynchronous APIs from a fixed-size thread-pool."
//!
//! Behind Figs. 8–13.

use skyrise_net::SharedNic;
use skyrise_sim::{Histogram, IntervalSeries, SimCtx, SimDuration};
use skyrise_storage::{Blob, RequestOpts, Storage};
use std::cell::RefCell;
use std::rc::Rc;

/// One client VM's workload share.
#[derive(Clone)]
pub struct StorageIoConfig {
    /// Number of client VMs.
    pub clients: usize,
    /// Dedicated threads per client (paper: 32).
    pub threads_per_client: usize,
    /// Request payload size.
    pub object_bytes: u64,
    /// Write (true) or read (false).
    pub write: bool,
    /// Measurement window.
    pub duration: SimDuration,
    /// Per-client NIC factory (`None` = unconstrained clients).
    pub client_nic: Option<Rc<dyn Fn() -> SharedNic>>,
    /// Number of pre-created objects per thread to read from.
    pub keyspace_per_thread: usize,
}

impl Default for StorageIoConfig {
    fn default() -> Self {
        StorageIoConfig {
            clients: 1,
            threads_per_client: 32,
            object_bytes: 1024,
            write: false,
            duration: SimDuration::from_secs(10),
            client_nic: None,
            keyspace_per_thread: 4,
        }
    }
}

/// Aggregate outcome of a storage I/O run.
#[derive(Debug, Clone)]
pub struct StorageIoResult {
    /// Successful operations per second.
    pub ops_per_sec: f64,
    /// Failed (throttled/timed-out) operations per second.
    pub failed_per_sec: f64,
    /// Successful payload bytes per second (logical).
    pub bytes_per_sec: f64,
    /// Per-request latency distribution (successes only).
    pub latency: Histogram,
    /// Successful ops over time (1 s buckets).
    pub ops_series: IntervalSeries,
    /// Failed ops over time (1 s buckets).
    pub fail_series: IntervalSeries,
}

/// Key for a benchmark object.
fn bench_key(client: usize, thread: usize, idx: usize) -> String {
    format!("bench/c{client:03}/t{thread:03}/o{idx:04}")
}

/// Pre-create the read working set (unbilled backdoor writes).
pub fn populate(storage: &Storage, cfg: &StorageIoConfig) {
    for c in 0..cfg.clients {
        for t in 0..cfg.threads_per_client {
            for i in 0..cfg.keyspace_per_thread {
                storage.backdoor_put(&bench_key(c, t, i), Blob::synthetic(cfg.object_bytes));
            }
        }
    }
}

/// Closed-loop benchmark: every thread issues the next request as soon as
/// the previous one completes, until the deadline.
pub async fn run_closed_loop(
    ctx: &SimCtx,
    storage: &Storage,
    cfg: &StorageIoConfig,
) -> StorageIoResult {
    populate(storage, cfg);
    let start = ctx.now();
    let deadline = start + cfg.duration;
    let second = SimDuration::from_secs(1);
    let ok_series = Rc::new(RefCell::new(IntervalSeries::new(start, second)));
    let fail_series = Rc::new(RefCell::new(IntervalSeries::new(start, second)));
    let latency = Rc::new(RefCell::new(Histogram::new()));
    let ok_count = Rc::new(RefCell::new(0u64));
    let fail_count = Rc::new(RefCell::new(0u64));
    let bytes = Rc::new(RefCell::new(0u64));

    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        let nic = cfg.client_nic.as_ref().map(|f| f());
        for t in 0..cfg.threads_per_client {
            let ctx2 = ctx.clone();
            let storage = storage.clone();
            let opts = match &nic {
                Some(n) => RequestOpts::from_nic(n),
                None => RequestOpts::default(),
            };
            let cfg = cfg.clone();
            let ok_series = Rc::clone(&ok_series);
            let fail_series = Rc::clone(&fail_series);
            let latency = Rc::clone(&latency);
            let ok_count = Rc::clone(&ok_count);
            let fail_count = Rc::clone(&fail_count);
            let bytes = Rc::clone(&bytes);
            handles.push(ctx.spawn(async move {
                let mut i = 0usize;
                while ctx2.now() < deadline {
                    let key = bench_key(c, t, i % cfg.keyspace_per_thread);
                    i += 1;
                    let t0 = ctx2.now();
                    let outcome = if cfg.write {
                        storage
                            .put(&key, Blob::synthetic(cfg.object_bytes), &opts)
                            .await
                            .map(|()| cfg.object_bytes)
                    } else {
                        storage.get(&key, &opts).await.map(|b| b.logical_len())
                    };
                    let now = ctx2.now();
                    match outcome {
                        Ok(n) => {
                            *ok_count.borrow_mut() += 1;
                            *bytes.borrow_mut() += n;
                            ok_series.borrow_mut().record(now, 1.0);
                            latency.borrow_mut().record((now - t0).as_secs_f64());
                        }
                        Err(_) => {
                            *fail_count.borrow_mut() += 1;
                            fail_series.borrow_mut().record(now, 1.0);
                        }
                    }
                }
            }));
        }
    }
    skyrise_sim::join_all(handles).await;
    let elapsed = (ctx.now() - start).as_secs_f64().max(1e-9);
    let ok_total = *ok_count.borrow();
    let fail_total = *fail_count.borrow();
    let byte_total = *bytes.borrow();
    let result = StorageIoResult {
        ops_per_sec: ok_total as f64 / elapsed,
        failed_per_sec: fail_total as f64 / elapsed,
        bytes_per_sec: byte_total as f64 / elapsed,
        latency: latency.borrow().clone(),
        ops_series: ok_series.borrow().clone(),
        fail_series: fail_series.borrow().clone(),
    };
    result
}

/// Open-loop load: issue requests on a fixed timetable at `rate` requests
/// per second regardless of completions (the Fig. 11 ramp pattern, where
/// Lambda instances generate a deterministic offered load). Each request
/// is a [`SimCtx::spawn_at`] task whose first poll is its arrival. Returns
/// (successes, failures) series in `bucket`-sized intervals.
pub async fn run_open_loop(
    ctx: &SimCtx,
    storage: &Storage,
    cfg: &StorageIoConfig,
    rate_per_sec: f64,
    bucket: SimDuration,
) -> (IntervalSeries, IntervalSeries, Histogram) {
    populate(storage, cfg);
    let start = ctx.now();
    let (clients, threads, keyspace) =
        (cfg.clients, cfg.threads_per_client, cfg.keyspace_per_thread);
    // Every request reads a pre-created object; name each one once here
    // instead of formatting a key per request.
    let keys: Vec<String> = (0..clients)
        .flat_map(|c| {
            (0..threads).flat_map(move |t| (0..keyspace).map(move |k| bench_key(c, t, k)))
        })
        .collect();
    let shared = Rc::new(OpenLoop {
        ctx: ctx.clone(),
        storage: storage.clone(),
        keys,
        ok_series: RefCell::new(IntervalSeries::new(start, bucket)),
        fail_series: RefCell::new(IntervalSeries::new(start, bucket)),
        latency: RefCell::new(Histogram::new()),
    });
    let total = (rate_per_sec * cfg.duration.as_secs_f64()) as u64;
    let gap = SimDuration::from_secs_f64(1.0 / rate_per_sec.max(1e-9));

    let mut handles = Vec::with_capacity(total as usize);
    for i in 0..total {
        let at = start + gap * i;
        let i = i as usize;
        // Request i goes to client i % clients, thread (i / clients) % threads.
        let key = ((i % clients) * threads + (i / clients) % threads) * keyspace + i % keyspace;
        let shared = Rc::clone(&shared);
        handles.push(ctx.spawn_at(at, async move {
            let s = &*shared;
            let t0 = s.ctx.now();
            let outcome = s.storage.get(&s.keys[key], &RequestOpts::default()).await;
            let now = s.ctx.now();
            match outcome {
                Ok(_) => {
                    s.ok_series.borrow_mut().record(now, 1.0);
                    s.latency.borrow_mut().record((now - t0).as_secs_f64());
                }
                Err(_) => s.fail_series.borrow_mut().record(now, 1.0),
            }
        }));
    }
    skyrise_sim::join_all(handles).await;
    let out = (
        shared.ok_series.borrow().clone(),
        shared.fail_series.borrow().clone(),
        shared.latency.borrow().clone(),
    );
    out
}

/// State every request of one [`run_open_loop`] call shares, behind a
/// single `Rc`.
struct OpenLoop {
    ctx: SimCtx,
    storage: Storage,
    /// Object keys in [`populate`] order: client, then thread, then index.
    keys: Vec<String>,
    ok_series: RefCell<IntervalSeries>,
    fail_series: RefCell<IntervalSeries>,
    latency: RefCell<Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{Sim, MIB};
    use skyrise_storage::{DynamoTable, S3Bucket};

    #[test]
    fn closed_loop_read_measures_latency_and_ops() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 2,
                threads_per_client: 8,
                duration: SimDuration::from_secs(5),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        // 16 threads at ~27 ms median latency: ~550 ops/s, no throttling.
        assert!(
            r.ops_per_sec > 300.0 && r.ops_per_sec < 800.0,
            "{}",
            r.ops_per_sec
        );
        assert!(r.failed_per_sec < 5.0, "{}", r.failed_per_sec);
        let med = r.latency.median();
        assert!((med - 0.027).abs() < 0.008, "median {med}");
    }

    #[test]
    fn dynamodb_throughput_saturates_at_service_cap() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 4,
                threads_per_client: 32,
                object_bytes: 400 * 1024,
                duration: SimDuration::from_secs(5),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        let mibps = r.bytes_per_sec / MIB as f64;
        // The paper: ~380 MiB/s read ceiling per table.
        assert!((300.0..=420.0).contains(&mibps), "{mibps} MiB/s");
    }

    #[test]
    fn open_loop_over_capacity_shows_failures() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 4,
                threads_per_client: 8,
                duration: SimDuration::from_secs(10),
                ..StorageIoConfig::default()
            };
            // Offer 8K IOPS against a single 5.5K partition.
            run_open_loop(&ctx, &storage, &cfg, 8_000.0, SimDuration::from_secs(1)).await
        });
        sim.run();
        let (ok, fail, _lat) = h.try_take().unwrap();
        let ok_rate = ok.total() / 10.0;
        let fail_rate = fail.total() / 10.0;
        assert!((5_000.0..=6_500.0).contains(&ok_rate), "ok {ok_rate}");
        assert!(fail_rate > 1_000.0, "fail {fail_rate}");
    }

    #[test]
    fn writes_and_reads_both_work() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 1,
                threads_per_client: 4,
                write: true,
                duration: SimDuration::from_secs(3),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        assert!(r.ops_per_sec > 10.0);
        // Writes have the higher S3 median (40 ms).
        assert!((r.latency.median() - 0.040).abs() < 0.012);
    }
}
