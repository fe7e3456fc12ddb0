//! Event-level tracing: the [`TraceRecorder`] and its exporters.
//!
//! Where [`crate::StatsRecorder`] *aggregates* (one tree node per span,
//! one total per counter), `TraceRecorder` keeps the *timeline*: a
//! bounded ring buffer of timestamped span begin/end events, with the
//! counter deltas that fired inside a span attributed to it and flushed
//! on its end event. Two exporters turn the buffer into standard
//! profiler inputs:
//!
//! * [`TraceRecorder::to_chrome_trace`] — Chrome trace-event JSON
//!   (the `{"traceEvents":[...]}` object format), loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`TraceRecorder::to_folded_stacks`] — Brendan Gregg's folded-stack
//!   format (`a;b;c <self-nanos>` per line) for `flamegraph.pl` and
//!   compatible tools.
//!
//! Both are emitted through [`crate::json`] / plain string building — no
//! external dependencies — and like every recorder, the whole layer
//! costs one relaxed atomic load per instrumentation point while no
//! recorder is installed.
//!
//! The buffer is bounded ([`TraceRecorder::with_capacity`]): when full,
//! the *oldest* events are dropped (and counted in
//! [`TraceRecorder::dropped`]) so a long run keeps its most recent
//! window rather than aborting or allocating without limit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonValue;
use crate::threads::{lock, render_folded, PerThread, SpanStack};
use crate::{Kind, Recorder};

/// Default event capacity: plenty for a whole CLI run over the example
/// schemas, ~a few MB at worst.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Whether a [`TraceEvent`] opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The span just opened.
    Begin,
    /// The span just closed; the event carries its attributed counters.
    End,
}

/// One timestamped entry in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin or end.
    pub kind: TraceEventKind,
    /// Span name (from the [`crate::names`] registry).
    pub name: &'static str,
    /// The emitting thread's process-wide [`crate::thread_index`].
    pub tid: u32,
    /// Nanoseconds since the recorder was created.
    pub ts_nanos: u64,
    /// Counter deltas that fired while this span was innermost on its
    /// thread. Empty for [`TraceEventKind::Begin`].
    pub counters: BTreeMap<&'static str, u64>,
}

/// Counter deltas by name.
type Counters = BTreeMap<&'static str, u64>;

#[derive(Debug)]
struct TraceInner {
    /// The buffered events, oldest first, at most `capacity` of them.
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Each thread's open spans, with the counter deltas attributed to
    /// them so far.
    threads: PerThread<SpanStack<Counters>>,
    /// Counter deltas that fired with no span open on their thread.
    unattributed: Counters,
}

/// Appends `ev` to the ring, evicting (and counting) the oldest event
/// when it is full.
fn push(events: &mut VecDeque<TraceEvent>, dropped: &mut u64, capacity: usize, ev: TraceEvent) {
    if events.len() >= capacity {
        events.pop_front();
        *dropped += 1;
    }
    events.push_back(ev);
}

/// An event-level [`Recorder`]: a bounded ring buffer of span
/// begin/end events with per-span counter attribution.
///
/// Histogram observations are attributed like counters: the sample
/// value is *summed* into the innermost open span under the histogram's
/// name (the timeline view cares where the work happened; the
/// distribution view is [`crate::StatsRecorder`]'s job).
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    inner: Mutex<TraceInner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder with the [`DEFAULT_CAPACITY`] event buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder whose ring buffer holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            start: Instant::now(),
            inner: Mutex::new(TraceInner {
                events: VecDeque::new(),
                capacity: capacity.max(2),
                dropped: 0,
                threads: PerThread::default(),
                unattributed: Counters::new(),
            }),
        }
    }

    /// Number of events evicted because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.inner).events.iter().cloned().collect()
    }

    /// Counter deltas that fired while no span was open on their thread.
    pub fn unattributed_counters(&self) -> Vec<(&'static str, u64)> {
        lock(&self.inner)
            .unattributed
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Chrome trace-event JSON (object format): `{"traceEvents":[...],
    /// "displayTimeUnit":"ns","otherData":{"dropped":N}}`, where `N` is
    /// the number of events the ring evicted ([`TraceRecorder::dropped`]),
    /// so a truncated timeline says so. Timestamps are microseconds (the
    /// format's unit), as fractional values, relative to recorder
    /// creation. Spans still open at export time appear as `B` events
    /// without a matching `E` — Perfetto renders them as running to the
    /// end of the trace, which is exactly right for a run that failed
    /// mid-span.
    pub fn to_chrome_trace(&self) -> String {
        let inner = lock(&self.inner);
        let number = |v: u64| JsonValue::number(v as f64);
        let args = |counters: &Counters| {
            JsonValue::object(counters.iter().map(|(&name, &v)| (name, number(v))))
        };
        // The fields every span and instant event carries.
        let event = |ph: &str, tid: u32, ts_nanos: u64, name: &str| {
            vec![
                ("ph", JsonValue::string(ph)),
                ("pid", number(1)),
                ("tid", number(u64::from(tid))),
                ("ts", JsonValue::number(ts_nanos as f64 / 1_000.0)),
                ("name", JsonValue::string(name)),
                ("cat", JsonValue::string("chc")),
            ]
        };
        let mut events = vec![JsonValue::object([
            ("ph", JsonValue::string("M")),
            ("pid", number(1)),
            ("name", JsonValue::string("process_name")),
            (
                "args",
                JsonValue::object([("name", JsonValue::string("chc"))]),
            ),
        ])];
        for ev in &inner.events {
            let ph = match ev.kind {
                TraceEventKind::Begin => "B",
                TraceEventKind::End => "E",
            };
            let mut fields = event(ph, ev.tid, ev.ts_nanos, ev.name);
            if !ev.counters.is_empty() {
                fields.push(("args", args(&ev.counters)));
            }
            events.push(JsonValue::object(fields));
        }
        if !inner.unattributed.is_empty() {
            let mut fields = event("i", 0, self.now_nanos(), "counters.unattributed");
            fields.extend([
                ("s", JsonValue::string("g")),
                ("args", args(&inner.unattributed)),
            ]);
            events.push(JsonValue::object(fields));
        }
        JsonValue::object([
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::string("ns")),
            (
                "otherData",
                JsonValue::object([("dropped", number(inner.dropped))]),
            ),
        ])
        .render()
    }

    /// Folded-stack output for flamegraph tools: one
    /// `root;child;leaf <self-nanos>` line per distinct stack, sorted,
    /// where the value is the stack's *exclusive* (self) wall time in
    /// nanoseconds. Spans still open at export time are skipped (their
    /// self time is not yet known); ends whose begin was evicted from
    /// the ring match no open span and are skipped likewise.
    pub fn to_folded_stacks(&self) -> String {
        let inner = lock(&self.inner);
        // Per-tid reconstruction: each open span's (begin_ts, child_nanos).
        let mut stacks: BTreeMap<u32, SpanStack<(u64, u64)>> = BTreeMap::new();
        let mut folded = BTreeMap::new();
        for ev in &inner.events {
            let stack = stacks.entry(ev.tid).or_default();
            match ev.kind {
                TraceEventKind::Begin => stack.enter(ev.name, (ev.ts_nanos, 0)),
                TraceEventKind::End => stack.exit(ev.name, |rest, name, (begin, child)| {
                    let total = ev.ts_nanos.saturating_sub(begin);
                    if let Some(parent) = rest.innermost() {
                        parent.1 = parent.1.saturating_add(total);
                    }
                    let path = rest.names().chain([name]).collect::<Vec<_>>().join(";");
                    *folded.entry(path).or_insert(0) += total.saturating_sub(child);
                }),
            }
        }
        render_folded(&folded)
    }
}

impl Recorder for TraceRecorder {
    fn keeps(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Counter | Kind::Span | Kind::Histogram)
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        let counters = match inner.threads.mine().1.innermost() {
            Some(span) => span,
            None => &mut inner.unattributed,
        };
        *counters.entry(name).or_insert(0) += delta;
    }

    fn histogram(&self, name: &'static str, value: u64) {
        // Attributed like a counter: the timeline cares where the
        // samples came from, not about their distribution.
        self.counter(name, value);
    }

    fn span_enter(&self, name: &'static str) {
        let ts_nanos = self.now_nanos();
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        let (tid, open) = inner.threads.mine();
        open.enter(name, Counters::new());
        let (tid, kind, counters) = (tid as u32, TraceEventKind::Begin, Counters::new());
        let ev = TraceEvent {
            kind,
            name,
            tid,
            ts_nanos,
            counters,
        };
        push(&mut inner.events, &mut inner.dropped, inner.capacity, ev);
    }

    fn span_exit(&self, name: &'static str, _nanos: u64) {
        let ts_nanos = self.now_nanos();
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        let (tid, open) = inner.threads.mine();
        let (tid, kind) = (tid as u32, TraceEventKind::End);
        // Spans closed early with it end at the same timestamp, keeping
        // the B/E stream well nested.
        open.exit(name, |_, name, counters| {
            let ev = TraceEvent {
                kind,
                name,
                tid,
                ts_nanos,
                counters,
            };
            push(&mut inner.events, &mut inner.dropped, inner.capacity, ev);
        });
    }
}

/// Forwards every observation to each of a set of recorders, so
/// `--trace` (aggregated) and `--trace-out` (event-level) can observe
/// one run. It keeps every [`Kind`] any of its sinks keeps; an
/// [`crate::event_with`] payload is then built once and reaches only
/// the sinks that keep its level.
pub struct FanoutRecorder {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
    /// The kinds any sink keeps, in [`Kind::ALL`] order.
    keeps: Vec<Kind>,
}

impl FanoutRecorder {
    /// A recorder fanning out to `sinks`, in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> Self {
        let keeps = Kind::ALL
            .into_iter()
            .filter(|&kind| sinks.iter().any(|s| s.keeps(kind)))
            .collect();
        FanoutRecorder { sinks, keeps }
    }

    fn each(&self, mut f: impl FnMut(&dyn Recorder)) {
        self.sinks.iter().for_each(|s| f(&**s));
    }
}

impl Recorder for FanoutRecorder {
    fn keeps(&self, kind: Kind) -> bool {
        self.keeps.contains(&kind)
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.each(|s| s.counter(name, delta));
    }

    fn histogram(&self, name: &'static str, value: u64) {
        self.each(|s| s.histogram(name, value));
    }

    fn span_enter(&self, name: &'static str) {
        self.each(|s| s.span_enter(name));
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        self.each(|s| s.span_exit(name, nanos));
    }

    fn event(&self, event: &crate::events::Event) {
        let kind = Kind::Event(event.level);
        self.each(|s| {
            if s.keeps(kind) {
                s.event(event);
            }
        });
    }

    fn breadcrumb_slots(&self, name: &'static str, slots: &mut Vec<crate::flight::ItemSlot>) {
        self.each(|s| s.breadcrumb_slots(name, slots));
    }

    fn labeled_counter(&self, name: &'static str, label: u64, delta: u64) {
        self.each(|s| s.labeled_counter(name, label, delta));
    }

    fn labeled_histogram(&self, name: &'static str, label: u64, value: u64) {
        self.each(|s| s.labeled_histogram(name, label, value));
    }

    fn distinct(&self, name: &'static str, key: u64) {
        self.each(|s| s.distinct(name, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn run_demo(r: &TraceRecorder) {
        r.span_enter("outer");
        r.counter("work", 2);
        r.span_enter("inner");
        r.counter("work", 5);
        r.histogram("fanout", 3);
        r.span_exit("inner", 0);
        r.span_exit("outer", 0);
        r.counter("stray", 1);
    }

    #[test]
    fn events_record_in_order_with_attribution() {
        let r = TraceRecorder::new();
        run_demo(&r);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| (e.kind, e.name)).collect::<Vec<_>>(),
            vec![
                (TraceEventKind::Begin, "outer"),
                (TraceEventKind::Begin, "inner"),
                (TraceEventKind::End, "inner"),
                (TraceEventKind::End, "outer"),
            ]
        );
        // Counter deltas ride on the End event of the innermost span.
        assert_eq!(evs[2].counters.get("work"), Some(&5));
        assert_eq!(evs[2].counters.get("fanout"), Some(&3));
        assert_eq!(evs[3].counters.get("work"), Some(&2));
        assert_eq!(r.unattributed_counters(), vec![("stray", 1)]);
        // Timestamps are monotone.
        assert!(evs.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let r = TraceRecorder::with_capacity(4);
        for _ in 0..4 {
            r.span_enter("s");
            r.span_exit("s", 0);
        }
        assert_eq!(r.events().len(), 4);
        assert_eq!(r.dropped(), 4);
        // Oldest events went first: buffer holds the last two pairs.
        assert_eq!(r.events()[0].kind, TraceEventKind::Begin);
    }

    #[test]
    fn exporters_stay_well_formed_after_ring_overflow() {
        // Fill well past capacity so begins are evicted while their ends
        // remain: both exporters must still emit valid output.
        let r = TraceRecorder::with_capacity(4);
        r.span_enter("run");
        for _ in 0..16 {
            r.span_enter("step");
            r.counter("work", 1);
            r.span_exit("step", 0);
        }
        r.span_exit("run", 0);
        assert!(r.dropped() > 0);

        let doc = json::parse(&r.to_chrome_trace()).expect("chrome trace parses after overflow");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(JsonValue::as_str), Some("B" | "E")))
            .count();
        assert_eq!(spans, 4, "exactly the retained events are exported");
        let dropped = doc.get("otherData").and_then(|d| d.get("dropped"));
        assert_eq!(
            dropped.and_then(JsonValue::as_f64),
            Some(r.dropped() as f64),
            "the export says how many events it lost"
        );
        for ev in events {
            if ev.get("ph").and_then(JsonValue::as_str) != Some("M") {
                assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "{ev:?}");
            }
        }

        // Folded stacks: ends whose begins were evicted (`run`'s begin
        // is long gone) are skipped; surviving lines keep the
        // `path value` shape.
        let folded = r.to_folded_stacks();
        for line in folded.lines() {
            let (path, v) = line.rsplit_once(' ').expect("`path value` shape");
            assert!(!path.is_empty());
            v.parse::<u64>().expect("integer self-time");
        }
        assert!(folded.lines().any(|l| l.starts_with("step ")), "{folded}");
    }

    #[test]
    fn chrome_trace_round_trips_and_nests() {
        let r = TraceRecorder::new();
        run_demo(&r);
        let text = r.to_chrome_trace();
        let doc = json::parse(&text).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata + 4 span events + 1 unattributed instant.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "B", "B", "E", "E", "i"]);
        let dropped = doc.get("otherData").and_then(|d| d.get("dropped"));
        assert_eq!(dropped.and_then(JsonValue::as_f64), Some(0.0));
        let inner_end = &events[3];
        assert_eq!(
            inner_end.get("name").and_then(JsonValue::as_str),
            Some("inner")
        );
        assert_eq!(
            inner_end
                .get("args")
                .and_then(|a| a.get("work"))
                .and_then(JsonValue::as_f64),
            Some(5.0)
        );
    }

    #[test]
    fn folded_stacks_show_paths_and_self_time() {
        let r = TraceRecorder::new();
        run_demo(&r);
        let folded = r.to_folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines.iter().any(|l| l.starts_with("outer ")), "{folded}");
        assert!(
            lines.iter().any(|l| l.starts_with("outer;inner ")),
            "{folded}"
        );
        for line in lines {
            let (_, v) = line.rsplit_once(' ').expect("path value");
            v.parse::<u64>().expect("integer self-time");
        }
    }

    #[test]
    fn out_of_order_exits_stay_well_nested() {
        let r = TraceRecorder::new();
        r.span_enter("a");
        r.span_enter("b");
        r.span_exit("a", 0); // 'b' still open: closed first, same ts
        let kinds: Vec<(TraceEventKind, &str)> =
            r.events().iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (TraceEventKind::Begin, "a"),
                (TraceEventKind::Begin, "b"),
                (TraceEventKind::End, "b"),
                (TraceEventKind::End, "a"),
            ]
        );
        // Exit with no matching open span is dropped, not a panic.
        r.span_exit("ghost", 0);
        assert_eq!(r.events().len(), 4);
    }

    #[test]
    fn fanout_feeds_all_sinks() {
        use std::sync::Arc;
        let stats = Arc::new(crate::StatsRecorder::new());
        let trace = Arc::new(TraceRecorder::new());
        let fan = FanoutRecorder::new(vec![
            stats.clone() as Arc<dyn Recorder>,
            trace.clone() as Arc<dyn Recorder>,
        ]);
        fan.span_enter("s");
        fan.counter("c", 2);
        fan.histogram("h", 7);
        fan.span_exit("s", 10);
        assert_eq!(stats.counter_value("c"), 2);
        assert_eq!(stats.histogram_summary("h").unwrap().count, 1);
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.events()[1].counters.get("c"), Some(&2));
    }

    #[test]
    fn fanout_keeps_the_union_of_its_sinks() {
        use crate::{AuditRecorder, EventLevel, FlightRecorder, ProfileRecorder};
        use std::sync::Arc;
        let kept = |r: &dyn Recorder| Kind::ALL.map(|kind| r.keeps(kind));
        let sinks: Vec<Arc<dyn Recorder>> = vec![
            Arc::new(FlightRecorder::new()),
            Arc::new(ProfileRecorder::new()),
            Arc::new(AuditRecorder::with_capacity_and_level(4, EventLevel::Info)),
        ];
        let fan = FanoutRecorder::new(sinks.clone());
        for (k, kind) in Kind::ALL.into_iter().enumerate() {
            let any = sinks.iter().any(|s| kept(&**s)[k]);
            assert_eq!(fan.keeps(kind), any, "{kind:?}");
        }
        assert!(!fan.keeps(Kind::Histogram) && !fan.keeps(Kind::Event(EventLevel::Debug)));
        assert!(fan.keeps(Kind::Labeled) && fan.keeps(Kind::Event(EventLevel::Audit)));
        // No sinks keep nothing.
        assert_eq!(kept(&FanoutRecorder::new(Vec::new())), [false; 8]);
    }
}
