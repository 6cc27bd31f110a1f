//! Event-loop microbenchmark: the current simulator core (slab task
//! table, cancellation-aware quaternary timer heap, coalesced scheduler
//! hooks) against a faithful in-bin port of the previous executor
//! (`HashMap` task table with remove/insert per poll, fresh waker
//! allocation per poll, `BinaryHeap` timers with fired-flag tombstones,
//! per-step `RefCell` borrows). Emits `BENCH_sim.json` with events/sec
//! per workload and the speedup.
//!
//! ```text
//! cargo run --release -p skyrise-bench --bin sim_bench -- --smoke
//! ```
//!
//! Flags: `--smoke` (small inputs — the CI profile), `--out <path>`
//! (default `BENCH_sim.json`).
//!
//! Like `kernel_bench`, these are *real wall-clock* numbers of the
//! library itself: each measurement is the best of N runs to damp
//! scheduler noise. Both executors run the same five workloads with the
//! same virtual-event counts:
//!
//! * `sleep_chain` — many tasks each awaiting a chain of staggered
//!   sleeps; the pure timer-pop / task-poll hot path.
//! * `cancel_storm` — every round races a short sleep against a long
//!   one, cancelling the loser; the tombstone-vs-removal showdown.
//! * `spawn_churn` — waves of short-lived tasks; task-table insert,
//!   wake, remove throughput.
//! * `fan_in` — all tasks sleeping to the same deadlines; equal-deadline
//!   ordering and burst wake handling.
//! * `open_loop` — fig12's shape: windows of requests on a fixed arrival
//!   timetable, each holding a short service sleep. The current executor
//!   starts each request with `SimCtx::spawn_at`; the legacy one has no
//!   such primitive and spawns a task that first awaits `sleep_until`.

// Host-side benchmark binary: wall clock IS the measurement.
#![allow(clippy::disallowed_methods)]

use skyrise::sim::{race, SimDuration, SimTime};

/// Faithful port of the pre-slab executor, kept here as the benchmark
/// baseline so the committed speedup is measured, not remembered.
mod legacy {
    use skyrise::sim::{Sanitizer, SimDuration, SimTime};
    use std::cell::{Cell, RefCell};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, VecDeque};
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::{Rc, Weak};
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Wake, Waker};

    type LocalBoxFuture = Pin<Box<dyn Future<Output = ()>>>;
    pub type TaskId = u64;

    #[derive(Default)]
    struct WakeQueue {
        woken: Mutex<Vec<TaskId>>,
    }

    struct TaskWaker {
        id: TaskId,
        queue: Arc<WakeQueue>,
    }

    impl Wake for TaskWaker {
        fn wake(self: Arc<Self>) {
            self.queue
                .woken
                .lock()
                .expect("wake queue poisoned")
                .push(self.id);
        }
    }

    struct TimerEntry {
        deadline: SimTime,
        seq: u64,
        waker: Waker,
        fired: Rc<Cell<bool>>,
    }

    impl PartialEq for TimerEntry {
        fn eq(&self, other: &Self) -> bool {
            self.deadline == other.deadline && self.seq == other.seq
        }
    }
    impl Eq for TimerEntry {}
    impl PartialOrd for TimerEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for TimerEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
        }
    }

    struct SimState {
        now: Cell<SimTime>,
        // simlint: allow(DET005): benchmark baseline — this is the old
        // executor's keyed-access-only task map, never iterated.
        tasks: RefCell<HashMap<TaskId, LocalBoxFuture>>,
        ready: RefCell<VecDeque<TaskId>>,
        timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
        next_task_id: Cell<TaskId>,
        next_timer_seq: Cell<u64>,
        wake_queue: Arc<WakeQueue>,
        live_tasks: Cell<usize>,
        // The old layout's per-step borrow cost: a separate cell consulted
        // on every poll and every clock advance.
        sanitizer: RefCell<Sanitizer>,
    }

    pub struct Sim {
        state: Rc<SimState>,
    }

    #[derive(Clone)]
    pub struct SimCtx {
        state: Weak<SimState>,
    }

    impl Sim {
        pub fn new(_seed: u64) -> Self {
            Sim {
                state: Rc::new(SimState {
                    now: Cell::new(SimTime::ZERO),
                    // simlint: allow(DET005): keyed access only; see above.
                    tasks: RefCell::new(HashMap::new()),
                    ready: RefCell::new(VecDeque::new()),
                    timers: RefCell::new(BinaryHeap::new()),
                    next_task_id: Cell::new(0),
                    next_timer_seq: Cell::new(0),
                    wake_queue: Arc::new(WakeQueue::default()),
                    live_tasks: Cell::new(0),
                    sanitizer: RefCell::new(Sanitizer::disabled()),
                }),
            }
        }

        pub fn ctx(&self) -> SimCtx {
            SimCtx {
                state: Rc::downgrade(&self.state),
            }
        }

        pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
        where
            F: Future + 'static,
            F::Output: 'static,
        {
            self.ctx().spawn(fut)
        }

        pub fn run(&mut self) -> SimTime {
            loop {
                self.drain_ready();
                let next = {
                    let mut timers = self.state.timers.borrow_mut();
                    loop {
                        match timers.peek() {
                            Some(Reverse(e)) if e.fired.get() => {
                                timers.pop();
                            }
                            Some(Reverse(e)) => break Some(e.deadline),
                            None => break None,
                        }
                    }
                };
                match next {
                    Some(deadline) => {
                        self.state
                            .sanitizer
                            .borrow()
                            .on_advance(self.state.now.get(), deadline);
                        self.state.now.set(deadline);
                        let mut timers = self.state.timers.borrow_mut();
                        while let Some(Reverse(e)) = timers.peek() {
                            if e.deadline > deadline {
                                break;
                            }
                            let e = timers.pop().expect("peeked entry").0;
                            if !e.fired.replace(true) {
                                e.waker.wake();
                            }
                        }
                    }
                    None => {
                        let live = self.state.live_tasks.get();
                        assert!(live == 0, "legacy sim deadlock: {live} task(s) blocked");
                        return self.state.now.get();
                    }
                }
            }
        }

        fn drain_ready(&mut self) {
            loop {
                {
                    let mut woken = self
                        .state
                        .wake_queue
                        .woken
                        .lock()
                        .expect("wake queue poisoned");
                    let mut ready = self.state.ready.borrow_mut();
                    ready.extend(woken.drain(..));
                }
                let Some(id) = self.state.ready.borrow_mut().pop_front() else {
                    let empty = self
                        .state
                        .wake_queue
                        .woken
                        .lock()
                        .expect("wake queue poisoned")
                        .is_empty();
                    if empty {
                        return;
                    }
                    continue;
                };
                let Some(mut fut) = self.state.tasks.borrow_mut().remove(&id) else {
                    continue;
                };
                // The old executor never ran with a live sanitizer (the
                // port keeps it disabled), so no per-task clock is kept.
                self.state
                    .sanitizer
                    .borrow()
                    .on_poll(id, None, self.state.now.get());
                // Fresh waker allocation on every poll — the old cost.
                let waker = Waker::from(Arc::new(TaskWaker {
                    id,
                    queue: Arc::clone(&self.state.wake_queue),
                }));
                let mut cx = Context::from_waker(&waker);
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        self.state.live_tasks.set(self.state.live_tasks.get() - 1);
                        self.state.sanitizer.borrow().on_complete(id);
                    }
                    Poll::Pending => {
                        self.state.tasks.borrow_mut().insert(id, fut);
                    }
                }
            }
        }
    }

    impl SimCtx {
        fn state(&self) -> Rc<SimState> {
            self.state.upgrade().expect("SimCtx used after drop")
        }

        pub fn now(&self) -> SimTime {
            self.state().now.get()
        }

        pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
        where
            F: Future + 'static,
            F::Output: 'static,
        {
            let state = self.state();
            let id = state.next_task_id.get();
            state.next_task_id.set(id + 1);
            state.live_tasks.set(state.live_tasks.get() + 1);

            let slot: Rc<RefCell<JoinSlot<F::Output>>> = Rc::new(RefCell::new(JoinSlot::default()));
            let slot2 = Rc::clone(&slot);
            let wrapped: LocalBoxFuture = Box::pin(async move {
                let out = fut.await;
                let mut s = slot2.borrow_mut();
                s.value = Some(out);
                if let Some(w) = s.waiter.take() {
                    w.wake();
                }
            });
            state.tasks.borrow_mut().insert(id, wrapped);
            state.ready.borrow_mut().push_back(id);
            JoinHandle { slot }
        }

        /// The old executor's open-loop arrival: a task whose first
        /// poll registers a `sleep_until` to the arrival time.
        pub fn spawn_at<F>(&self, deadline: SimTime, fut: F) -> JoinHandle<F::Output>
        where
            F: Future + 'static,
            F::Output: 'static,
        {
            let ctx = self.clone();
            self.spawn(async move {
                ctx.sleep_until(deadline).await;
                fut.await
            })
        }

        pub fn sleep(&self, d: SimDuration) -> Sleep {
            Sleep {
                ctx: self.clone(),
                deadline: self.now().saturating_add(d),
                fired: None,
            }
        }

        pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
            Sleep {
                ctx: self.clone(),
                deadline,
                fired: None,
            }
        }

        fn register_timer(&self, deadline: SimTime, waker: Waker) -> Rc<Cell<bool>> {
            let state = self.state();
            let fired = Rc::new(Cell::new(false));
            let seq = state.next_timer_seq.get();
            state.next_timer_seq.set(seq + 1);
            state.timers.borrow_mut().push(Reverse(TimerEntry {
                deadline,
                seq,
                waker,
                fired: Rc::clone(&fired),
            }));
            fired
        }
    }

    struct JoinSlot<T> {
        value: Option<T>,
        waiter: Option<Waker>,
    }

    impl<T> Default for JoinSlot<T> {
        fn default() -> Self {
            JoinSlot {
                value: None,
                waiter: None,
            }
        }
    }

    pub struct JoinHandle<T> {
        slot: Rc<RefCell<JoinSlot<T>>>,
    }

    impl<T> Future for JoinHandle<T> {
        type Output = T;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
            let mut slot = self.slot.borrow_mut();
            if let Some(v) = slot.value.take() {
                Poll::Ready(v)
            } else {
                slot.waiter = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    pub struct Sleep {
        ctx: SimCtx,
        deadline: SimTime,
        fired: Option<Rc<Cell<bool>>>,
    }

    impl Future for Sleep {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.ctx.now() >= self.deadline {
                if let Some(f) = &self.fired {
                    f.set(true);
                }
                return Poll::Ready(());
            }
            // Re-register on every pending poll, tombstoning the previous
            // entry — the old executor's behaviour.
            if let Some(old) = self.fired.take() {
                old.set(true);
            }
            let deadline = self.deadline;
            let fired = self.ctx.register_timer(deadline, cx.waker().clone());
            self.fired = Some(fired);
            Poll::Pending
        }
    }

    impl Drop for Sleep {
        fn drop(&mut self) {
            if let Some(f) = &self.fired {
                f.set(true);
            }
        }
    }
}

/// The five workloads, instantiated once per executor. Each returns its
/// scheduler-event count (spawns + timer registrations), which is the
/// numerator of events/sec and identical across executors by construction.
macro_rules! workload_impls {
    ($mod_name:ident, $Sim:ty) => {
        mod $mod_name {
            use super::*;

            pub fn sleep_chain(tasks: u64, rounds: u64) -> u64 {
                let mut sim = <$Sim>::new(1);
                // simlint: allow(DET001): `tasks` here is the u64 count parameter, not the legacy HashMap field.
                for t in 0..tasks {
                    let ctx = sim.ctx();
                    sim.spawn(async move {
                        for r in 0..rounds {
                            let us = 1 + (t * 31 + r * 7) % 97;
                            ctx.sleep(SimDuration::from_micros(us)).await;
                        }
                    });
                }
                sim.run();
                tasks * (rounds + 1)
            }

            pub fn cancel_storm(tasks: u64, rounds: u64) -> u64 {
                let mut sim = <$Sim>::new(1);
                // simlint: allow(DET001): `tasks` here is the u64 count parameter, not the legacy HashMap field.
                for t in 0..tasks {
                    let ctx = sim.ctx();
                    sim.spawn(async move {
                        for r in 0..rounds {
                            let us = 1 + (t * 13 + r * 3) % 29;
                            let loser = ctx.sleep(SimDuration::from_millis(1_000));
                            let winner = ctx.sleep(SimDuration::from_micros(us));
                            let _ = race(winner, loser).await;
                        }
                    });
                }
                sim.run();
                tasks * (2 * rounds + 1)
            }

            pub fn spawn_churn(waves: u64, per_wave: u64) -> u64 {
                let mut sim = <$Sim>::new(1);
                let ctx = sim.ctx();
                sim.spawn(async move {
                    for w in 0..waves {
                        let handles: Vec<_> = (0..per_wave)
                            .map(|i| {
                                let ctx = ctx.clone();
                                ctx.clone().spawn(async move {
                                    let ns = 100 + (w * 13 + i) % 50;
                                    ctx.sleep(SimDuration::from_nanos(ns)).await;
                                })
                            })
                            .collect();
                        for h in handles {
                            h.await;
                        }
                    }
                });
                sim.run();
                waves * per_wave * 2 + 1
            }

            pub fn fan_in(tasks: u64, rounds: u64) -> u64 {
                let mut sim = <$Sim>::new(1);
                // simlint: allow(DET001): `tasks` here is the u64 count parameter, not the legacy HashMap field.
                for _ in 0..tasks {
                    let ctx = sim.ctx();
                    sim.spawn(async move {
                        for r in 0..rounds {
                            let deadline = SimTime::from_nanos((r + 1) * 10_000);
                            ctx.sleep_until(deadline).await;
                        }
                    });
                }
                sim.run();
                tasks * (rounds + 1)
            }

            pub fn open_loop(windows: u64, per_window: u64) -> u64 {
                let mut sim = <$Sim>::new(1);
                let ctx = sim.ctx();
                sim.spawn(async move {
                    for w in 0..windows {
                        // Arrivals every 1 µs, strictly after the window
                        // opens, so every one of them waits on a timer.
                        let t0 = ctx.now();
                        let handles: Vec<_> = (0..per_window)
                            .map(|i| {
                                let at = t0 + SimDuration::from_micros(1 + i);
                                let service =
                                    SimDuration::from_micros(20 + (w * 131 + i * 17) % 40);
                                let c = ctx.clone();
                                ctx.spawn_at(at, async move {
                                    c.sleep(service).await;
                                })
                            })
                            .collect();
                        for h in handles {
                            h.await;
                        }
                    }
                });
                sim.run();
                // Root spawn, then per request: spawn, arrival timer,
                // service timer.
                1 + windows * per_window * 3
            }
        }
    };
}

workload_impls!(current, skyrise::sim::Sim);
workload_impls!(baseline, legacy::Sim);

/// `sleep_chain` on the current executor with a metric registry installed:
/// the telemetry-overhead probe. With metrics live the executor keeps its
/// always-on `Cell` stats and flushes them once at exit, so the acceptance
/// bar is an events/sec ratio ≥ 0.95 against the registry-free run (and no
/// measurable difference when no registry is installed — that path is the
/// plain `current::sleep_chain` measured above).
fn sleep_chain_with_metrics(tasks: u64, rounds: u64) -> u64 {
    let mut sim = skyrise::sim::Sim::new(1);
    let registry = sim.install_metrics();
    // simlint: allow(DET001): `tasks` here is the u64 count parameter, not the legacy HashMap field.
    for t in 0..tasks {
        let ctx = sim.ctx();
        sim.spawn(async move {
            for r in 0..rounds {
                let us = 1 + (t * 31 + r * 7) % 97;
                ctx.sleep(SimDuration::from_micros(us)).await;
            }
        });
    }
    sim.run();
    assert!(
        registry.snapshot().counters["sim.executor.polls"] > 0,
        "telemetry probe ran without executor self-profiling"
    );
    tasks * (rounds + 1)
}

/// Best-of-N wall time in seconds.
fn time_best(iters: usize, mut f: impl FnMut() -> u64) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        events = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (events, best)
}

struct Workload {
    name: &'static str,
    events: u64,
    current_eps: f64,
    legacy_eps: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.current_eps / self.legacy_eps
    }
}

fn bench(
    name: &'static str,
    iters: usize,
    cur: impl FnMut() -> u64,
    old: impl FnMut() -> u64,
) -> Workload {
    let (events, cur_secs) = time_best(iters, cur);
    let (events_old, old_secs) = time_best(iters, old);
    assert_eq!(events, events_old, "{name}: event counts diverged");
    Workload {
        name,
        events,
        current_eps: events as f64 / cur_secs,
        legacy_eps: events as f64 / old_secs,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown flag {other} (expected --smoke / --out <path>)"),
        }
    }
    // (tasks/waves, rounds/per_wave) per workload, and best-of iterations.
    let (iters, chain, storm, churn, fan, open) = if smoke {
        (3, (200, 100), (100, 50), (50, 100), (200, 100), (50, 200))
    } else {
        (
            5,
            (1_000, 500),
            (500, 200),
            (200, 500),
            (1_000, 500),
            (200, 1_000),
        )
    };
    println!(
        "sim_bench: mode={} iters={iters}",
        if smoke { "smoke" } else { "full" }
    );

    let workloads = [
        bench(
            "sleep_chain",
            iters,
            || current::sleep_chain(chain.0, chain.1),
            || baseline::sleep_chain(chain.0, chain.1),
        ),
        bench(
            "cancel_storm",
            iters,
            || current::cancel_storm(storm.0, storm.1),
            || baseline::cancel_storm(storm.0, storm.1),
        ),
        bench(
            "spawn_churn",
            iters,
            || current::spawn_churn(churn.0, churn.1),
            || baseline::spawn_churn(churn.0, churn.1),
        ),
        bench(
            "fan_in",
            iters,
            || current::fan_in(fan.0, fan.1),
            || baseline::fan_in(fan.0, fan.1),
        ),
        bench(
            "open_loop",
            iters,
            || current::open_loop(open.0, open.1),
            || baseline::open_loop(open.0, open.1),
        ),
    ];

    let mut log_sum = 0.0;
    for w in &workloads {
        println!(
            "  {:14} {:>9} events  current {:>12.0} ev/s  legacy {:>12.0} ev/s  {:>5.2}x",
            w.name,
            w.events,
            w.current_eps,
            w.legacy_eps,
            w.speedup()
        );
        log_sum += w.speedup().ln();
    }
    let geomean = (log_sum / workloads.len() as f64).exp();
    println!("  geomean speedup: {geomean:.2}x");

    // Telemetry overhead: the same sleep_chain hot path with a registry
    // installed, against the registry-free measurement already taken.
    let (_, telemetry_secs) = time_best(iters, || sleep_chain_with_metrics(chain.0, chain.1));
    let telemetry_eps = workloads[0].events as f64 / telemetry_secs;
    let telemetry_ratio = telemetry_eps / workloads[0].current_eps;
    println!(
        "  telemetry on:  {:>12.0} ev/s ({:.1}% of registry-free throughput)",
        telemetry_eps,
        100.0 * telemetry_ratio
    );

    // Flat structure, hand-formatted: this binary must not drag a JSON
    // dependency into release experiment builds.
    let mut json = String::from("{\n");
    json.push_str("  \"generated_by\": \"sim_bench\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"status\": \"measured\",\n");
    json.push_str(
        "  \"metric\": \"scheduler events per second (spawns + timer registrations)\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"iters\": {}, \
             \"current_events_per_sec\": {:.0}, \"legacy_events_per_sec\": {:.0}, \
             \"speedup\": {:.3}}}{}\n",
            w.name,
            w.events,
            iters,
            w.current_eps,
            w.legacy_eps,
            w.speedup(),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"telemetry_overhead\": {{\"workload\": \"sleep_chain\", \
         \"events_per_sec_enabled\": {telemetry_eps:.0}, \
         \"events_per_sec_disabled\": {:.0}, \
         \"throughput_ratio\": {telemetry_ratio:.3}}},\n",
        workloads[0].current_eps
    ));
    json.push_str(&format!("  \"geomean_speedup\": {geomean:.3}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
