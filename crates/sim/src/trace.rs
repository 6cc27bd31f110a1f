//! Virtual-time tracing: structured spans and point events.
//!
//! Every event is stamped with virtual [`SimTime`], so traces are as
//! deterministic as the simulation itself: identical seeds yield
//! byte-identical exports. A [`Tracer`] is a cheap cloneable handle; the
//! default (disabled) tracer makes every recording call a no-op branch, so
//! instrumented hot paths pay ~nothing when tracing is off.
//!
//! Two exporters are provided:
//! * [`Tracer::chrome_trace_json`] — Chrome Trace Event Format (load in
//!   Perfetto / `chrome://tracing`), pid = service, tid = lane.
//! * [`Tracer::jsonl`] — flat JSONL event log, one event per line, raw
//!   nanosecond timestamps.

use crate::executor::SimCtx;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// An attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (bytes, rows, counts).
    U64(u64),
    /// Float (seconds, rates, fractions).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (keys, function names).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    fn to_json(&self) -> serde_json::Value {
        match self {
            AttrValue::U64(v) => serde_json::Value::from(*v),
            AttrValue::F64(v) => serde_json::Value::from(*v),
            AttrValue::Bool(v) => serde_json::Value::from(*v),
            AttrValue::Str(v) => serde_json::Value::from(v.as_str()),
        }
    }
}

/// Whether an event covers a time range or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration event (`ph:"X"` in Chrome trace terms).
    Span,
    /// A point event (`ph:"i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start (spans) or occurrence (instants) on the virtual timeline.
    pub ts: SimTime,
    /// Span length; `None` for instants and for spans still open at export.
    pub dur: Option<SimDuration>,
    /// Span or instant.
    pub kind: EventKind,
    /// Emitting service — becomes the Chrome-trace process (pid).
    pub service: &'static str,
    /// Instance / worker / request lane — becomes the Chrome-trace thread (tid).
    pub lane: u64,
    /// Event name.
    pub name: &'static str,
    /// Key/value attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct TraceBuf {
    run_id: u64,
    events: RefCell<Vec<TraceEvent>>,
    next_lane: Cell<u64>,
}

/// A cheap cloneable tracing handle.
///
/// The default tracer is *disabled*: every method is a no-op costing only a
/// branch. An enabled tracer (see [`crate::Sim::install_tracer`]) appends
/// events to a shared buffer in execution order, which — the executor being
/// deterministic — makes exports byte-identical across same-seed runs.
#[derive(Clone, Default)]
pub struct Tracer {
    buf: Option<Rc<TraceBuf>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer tagged with a run id (conventionally the sim seed).
    pub fn new(run_id: u64) -> Self {
        Tracer {
            buf: Some(Rc::new(TraceBuf {
                run_id,
                events: RefCell::new(Vec::new()),
                next_lane: Cell::new(0),
            })),
        }
    }

    /// True when events are being recorded. Gate expensive attribute
    /// construction (string formatting) on this.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// The run id this tracer was created with (`None` when disabled).
    pub fn run_id(&self) -> Option<u64> {
        self.buf.as_ref().map(|b| b.run_id)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.events.borrow().len())
    }

    /// True when no events have been recorded (or tracing is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh lane (Chrome-trace tid) for a request / instance.
    /// Deterministic: lanes are handed out in recording order.
    pub fn next_lane(&self) -> u64 {
        match &self.buf {
            Some(b) => {
                let lane = b.next_lane.get();
                b.next_lane.set(lane + 1);
                lane
            }
            None => 0,
        }
    }

    fn push(&self, ev: TraceEvent) -> Option<usize> {
        let buf = self.buf.as_ref()?;
        let mut events = buf.events.borrow_mut();
        events.push(ev);
        Some(events.len() - 1)
    }

    /// Open a span starting now. The span closes (its duration is recorded)
    /// when the returned guard drops, or explicitly via [`Span::end`].
    pub fn span(&self, ctx: &SimCtx, service: &'static str, lane: u64, name: &'static str) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: ctx.now(),
            dur: None,
            kind: EventKind::Span,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: Some(ctx.clone()),
        }
    }

    /// Record a span with explicit start/end — for phases whose timing is
    /// computed rather than awaited (e.g. per-operator slices of one CPU
    /// charge). The returned guard only patches attributes.
    pub fn span_at(
        &self,
        start: SimTime,
        end: SimTime,
        service: &'static str,
        lane: u64,
        name: &'static str,
    ) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: start,
            dur: Some(end.duration_since(start)),
            kind: EventKind::Span,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: None,
        }
    }

    /// Record a point event at the current virtual time. Attributes can be
    /// chained onto the returned guard.
    pub fn instant(
        &self,
        ctx: &SimCtx,
        service: &'static str,
        lane: u64,
        name: &'static str,
    ) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: ctx.now(),
            dur: None,
            kind: EventKind::Instant,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: None,
        }
    }

    /// Run `f` over the recorded events (empty slice when disabled).
    pub fn with_events<T>(&self, f: impl FnOnce(&[TraceEvent]) -> T) -> T {
        match &self.buf {
            Some(b) => f(&b.events.borrow()),
            None => f(&[]),
        }
    }

    /// Export this run as Chrome Trace Event Format JSON (pid = service,
    /// tid = lane). Load the file in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json_multi(&[(String::new(), self)])
    }

    /// Export this run as a flat JSONL event log: one JSON object per line
    /// with raw nanosecond timestamps, in execution order.
    pub fn jsonl(&self) -> String {
        jsonl_multi(&[(String::new(), self)])
    }
}

/// Merge several traced runs into one Chrome-trace JSON document. Each run
/// gets its services namespaced as `label/service` (label omitted when
/// empty), so multi-seed experiments stay distinguishable in Perfetto.
pub fn chrome_trace_json_multi(runs: &[(String, &Tracer)]) -> String {
    // Deterministic pid assignment: first-seen order across runs/events.
    let mut pid_names: Vec<String> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push_ev = |out: &mut String, first: &mut bool, v: serde_json::Value| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&v.to_string());
        *first = false;
    };
    for (label, tracer) in runs {
        tracer.with_events(|events| {
            for ev in events {
                let pname = if label.is_empty() {
                    ev.service.to_string()
                } else {
                    format!("{label}/{}", ev.service)
                };
                let pid = match pid_names.iter().position(|p| *p == pname) {
                    Some(i) => i,
                    None => {
                        pid_names.push(pname.clone());
                        let pid = pid_names.len() - 1;
                        push_ev(
                            &mut out,
                            &mut first,
                            serde_json::json!({
                                "name": "process_name",
                                "ph": "M",
                                "pid": pid,
                                "tid": 0,
                                "args": {"name": pname},
                            }),
                        );
                        pid
                    }
                };
                let mut args = serde_json::Map::new();
                for (k, v) in &ev.attrs {
                    args.insert((*k).to_string(), v.to_json());
                }
                let ts_us = ev.ts.as_nanos() as f64 / 1e3;
                let v = match ev.kind {
                    EventKind::Span => serde_json::json!({
                        "name": ev.name,
                        "ph": "X",
                        "pid": pid,
                        "tid": ev.lane,
                        "ts": ts_us,
                        "dur": ev.dur.unwrap_or(SimDuration::ZERO).as_nanos() as f64 / 1e3,
                        "args": args,
                    }),
                    EventKind::Instant => serde_json::json!({
                        "name": ev.name,
                        "ph": "i",
                        "s": "t",
                        "pid": pid,
                        "tid": ev.lane,
                        "ts": ts_us,
                        "args": args,
                    }),
                };
                push_ev(&mut out, &mut first, v);
            }
        });
    }
    out.push_str("\n]}\n");
    out
}

/// Merge several traced runs into one JSONL log. Each line carries the run
/// label (when non-empty) and run id alongside the event fields.
pub fn jsonl_multi(runs: &[(String, &Tracer)]) -> String {
    let mut out = String::new();
    for (label, tracer) in runs {
        let run_id = tracer.run_id().unwrap_or(0);
        tracer.with_events(|events| {
            for (seq, ev) in events.iter().enumerate() {
                let mut obj = serde_json::Map::new();
                if !label.is_empty() {
                    obj.insert("run".into(), serde_json::Value::from(label.as_str()));
                }
                obj.insert("run_id".into(), serde_json::Value::from(run_id));
                obj.insert("seq".into(), serde_json::Value::from(seq));
                obj.insert("ts_ns".into(), serde_json::Value::from(ev.ts.as_nanos()));
                obj.insert(
                    "kind".into(),
                    serde_json::Value::from(match ev.kind {
                        EventKind::Span => "span",
                        EventKind::Instant => "instant",
                    }),
                );
                obj.insert("service".into(), serde_json::Value::from(ev.service));
                obj.insert("lane".into(), serde_json::Value::from(ev.lane));
                obj.insert("name".into(), serde_json::Value::from(ev.name));
                if let Some(d) = ev.dur {
                    obj.insert("dur_ns".into(), serde_json::Value::from(d.as_nanos()));
                }
                let mut attrs = serde_json::Map::new();
                for (k, v) in &ev.attrs {
                    attrs.insert((*k).to_string(), v.to_json());
                }
                if !attrs.is_empty() {
                    obj.insert("attrs".into(), serde_json::Value::Object(attrs));
                }
                out.push_str(&serde_json::Value::Object(obj).to_string());
                out.push('\n');
            }
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

/// Guard for an in-flight span (or a handle onto an instant / pre-closed
/// span, for attribute patching). Dropping a live span stamps its duration
/// with the current virtual time.
pub struct Span {
    buf: Option<Rc<TraceBuf>>,
    idx: usize,
    /// `Some` while the span is open and should be closed on drop.
    end_ctx: Option<SimCtx>,
}

impl Span {
    fn noop() -> Self {
        Span {
            buf: None,
            idx: 0,
            end_ctx: None,
        }
    }

    /// True when this span is actually recording.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Attach an attribute. No-op (the value is not converted) when tracing
    /// is disabled. Returns `&self` for chaining.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) -> &Self {
        if let Some(buf) = &self.buf {
            buf.events.borrow_mut()[self.idx]
                .attrs
                .push((key, value.into()));
        }
        self
    }

    /// Close the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(buf), Some(ctx)) = (&self.buf, &self.end_ctx) {
            // Skip the duration patch if the simulation is already gone.
            if let Some(now) = ctx.try_now() {
                let mut events = buf.events.borrow_mut();
                let ev = &mut events[self.idx];
                ev.dur = Some(now.duration_since(ev.ts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let tracer = Tracer::disabled();
        let t2 = tracer.clone();
        sim.spawn(async move {
            let span = t2.span(&ctx, "svc", 0, "work");
            span.attr("bytes", 42u64);
            ctx.sleep(SimDuration::from_millis(5)).await;
            t2.instant(&ctx, "svc", 0, "tick");
        });
        sim.run();
        assert!(!tracer.enabled());
        assert_eq!(tracer.len(), 0);
        assert_eq!(tracer.jsonl(), "");
    }

    #[test]
    fn span_durations_follow_virtual_time() {
        let mut sim = Sim::new(1);
        let tracer = sim.install_tracer();
        let ctx = sim.ctx();
        let t2 = tracer.clone();
        sim.spawn(async move {
            let span = t2.span(&ctx, "svc", 3, "work");
            span.attr("bytes", 42u64).attr("cold", true);
            ctx.sleep(SimDuration::from_millis(5)).await;
            drop(span);
            t2.instant(&ctx, "svc", 3, "tick").attr("n", 1u64);
        });
        sim.run();
        assert_eq!(tracer.len(), 2);
        tracer.with_events(|evs| {
            assert_eq!(evs[0].name, "work");
            assert_eq!(evs[0].dur, Some(SimDuration::from_millis(5)));
            assert_eq!(evs[0].lane, 3);
            assert_eq!(evs[0].attrs.len(), 2);
            assert_eq!(evs[1].kind, EventKind::Instant);
            assert_eq!(evs[1].ts, SimTime::from_nanos(5_000_000));
        });
    }

    #[test]
    fn exports_are_valid_json_and_deterministic() {
        fn run() -> (String, String) {
            let mut sim = Sim::new(7);
            let tracer = sim.install_tracer();
            let ctx = sim.ctx();
            let t2 = tracer.clone();
            sim.spawn(async move {
                for i in 0..3u64 {
                    let span = t2.span(&ctx, "net", t2.next_lane(), "transfer");
                    span.attr("bytes", 100 * i);
                    let d = ctx.with_rng(|r| r.gen_range_u64(1, 50));
                    ctx.sleep(SimDuration::from_micros(d)).await;
                }
                t2.instant(&ctx, "storage", 0, "throttle-503");
            });
            sim.run();
            (tracer.chrome_trace_json(), tracer.jsonl())
        }
        let (chrome, jsonl) = run();
        let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("traceEvents array");
        // 4 events + 2 process_name metadata records.
        assert_eq!(events.len(), 6);
        assert!(events.iter().any(|e| e["ph"] == "X"));
        assert!(events.iter().any(|e| e["ph"] == "i"));
        assert!(events.iter().any(|e| e["ph"] == "M"));
        for line in jsonl.lines() {
            let _: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        }
        assert_eq!(jsonl.lines().count(), 4);
        // Byte-identical across same-seed runs.
        let (chrome2, jsonl2) = run();
        assert_eq!(chrome, chrome2);
        assert_eq!(jsonl, jsonl2);
    }

    #[test]
    fn span_at_records_computed_windows() {
        let sim = Sim::new(1);
        let tracer = sim.install_tracer();
        tracer
            .span_at(
                SimTime::from_nanos(100),
                SimTime::from_nanos(400),
                "worker",
                9,
                "filter",
            )
            .attr("rows", 1000u64);
        tracer.with_events(|evs| {
            assert_eq!(evs[0].ts, SimTime::from_nanos(100));
            assert_eq!(evs[0].dur, Some(SimDuration::from_nanos(300)));
        });
    }

    #[test]
    fn lanes_are_sequential() {
        let sim = Sim::new(1);
        let tracer = sim.install_tracer();
        assert_eq!(tracer.next_lane(), 0);
        assert_eq!(tracer.next_lane(), 1);
        assert_eq!(Tracer::disabled().next_lane(), 0);
    }
}
