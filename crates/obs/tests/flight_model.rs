//! The recorders that keep per-thread state against one reference model,
//! and the flight recorder's per-call cost.
//!
//! `FlightRecorder` keeps one buffer per thread and merges them when
//! read; `TraceRecorder` and `StatsRecorder` keep one open-span stack per
//! thread on the shared substrate. The model here is the simplest
//! recorder with the same contract: one ring of `capacity` entries, one
//! open-span stack and one span tree per thread and one counter map, all
//! updated in the order the calls were made, with every thread known by
//! the index `chc_obs::thread_index` reports on it. Seeded SplitMix64
//! sequences of enter/exit/counter/event calls are replayed on 1–4
//! threads, one call at a time, so the global call order is known, and
//! after every few calls each read-side view must equal the model's:
//! the flight recorder's `tail()`, `dropped()`, `seq()`, `counters()` and
//! `open_spans()`, the trace recorder's `events()`, `dropped()` and
//! `unattributed_counters()`, and the stats recorder's `span_roots()` and
//! `counters()`, malformed exits included. The `chc-crash/1` document
//! built from the flight recorder must round-trip and carry the same
//! views.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Instant;

use chc_obs::flight::crash_report;
use chc_obs::json::{self, JsonValue};
use chc_obs::{
    Event, EventLevel, FlightKind, FlightRecorder, Recorder, SpanNode, StatsRecorder,
    TraceEventKind, TraceRecorder,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const NAMES: [&str; 4] = ["t.a", "t.b", "t.c", "t.d"];

/// Held by every test here: the timing test must not share the cores
/// with the model test's threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Copy, Debug)]
enum Call {
    Enter(&'static str),
    Exit(&'static str, u64),
    Counter(&'static str, u64),
    Event(&'static str),
}

impl Call {
    fn apply(self, recorder: &dyn Recorder) {
        match self {
            Call::Enter(name) => recorder.span_enter(name),
            Call::Exit(name, nanos) => recorder.span_exit(name, nanos),
            Call::Counter(name, delta) => recorder.counter(name, delta),
            Call::Event(name) => recorder.event(&Event::new(EventLevel::Audit, name)),
        }
    }
}

/// `(seq, thread, kind, name, value)`: a flight entry without its clock.
type Entry = (u64, usize, FlightKind, &'static str, u64);

/// `(kind, name, tid, counters)`: a trace event without its clock.
type TraceEntry = (
    TraceEventKind,
    &'static str,
    u32,
    BTreeMap<&'static str, u64>,
);

/// What the model keeps per thread: its open spans, outermost first
/// (each as the stats node it will become, counters included), and its
/// completed root spans.
#[derive(Default)]
struct ThreadModel {
    open: Vec<SpanNode>,
    roots: Vec<SpanNode>,
}

/// One ring, one stack and tree per thread, one counter map.
struct Model {
    capacity: usize,
    ring: VecDeque<Entry>,
    dropped: u64,
    seq: u64,
    /// Worker id -> the thread index the worker's thread reported.
    index: Vec<usize>,
    threads: Vec<ThreadModel>,
    counters: BTreeMap<&'static str, u64>,
    trace: VecDeque<TraceEntry>,
    trace_dropped: u64,
    unattributed: BTreeMap<&'static str, u64>,
}

impl Model {
    fn new(capacity: usize, index: Vec<usize>) -> Self {
        Model {
            capacity,
            ring: VecDeque::new(),
            dropped: 0,
            seq: 0,
            threads: index.iter().map(|_| ThreadModel::default()).collect(),
            index,
            counters: BTreeMap::new(),
            trace: VecDeque::new(),
            trace_dropped: 0,
            unattributed: BTreeMap::new(),
        }
    }

    /// `TraceRecorder::with_capacity` keeps at least two events.
    fn trace_push(&mut self, entry: TraceEntry) {
        if self.trace.len() == self.capacity.max(2) {
            self.trace.pop_front();
            self.trace_dropped += 1;
        }
        self.trace.push_back(entry);
    }

    fn apply(&mut self, worker: usize, call: Call) {
        let thread = self.index[worker];
        let tid = thread as u32;
        let (kind, name, value) = match call {
            Call::Enter(name) => {
                self.threads[worker].open.push(SpanNode {
                    name,
                    nanos: 0,
                    counters: BTreeMap::new(),
                    children: Vec::new(),
                });
                self.trace_push((TraceEventKind::Begin, name, tid, BTreeMap::new()));
                (FlightKind::SpanEnter, name, 0)
            }
            Call::Exit(name, nanos) => {
                // The innermost open span of that name closes, and every
                // span opened after it closes first; else nothing does.
                let open = &mut self.threads[worker].open;
                let mut closing = match open.iter().rposition(|s| s.name == name) {
                    Some(at) => open.split_off(at),
                    None => Vec::new(),
                };
                while let Some(mut node) = closing.pop() {
                    let end = (TraceEventKind::End, node.name, tid, node.counters.clone());
                    self.trace_push(end);
                    if node.name == name {
                        node.nanos = nanos;
                    }
                    let tree = &mut self.threads[worker];
                    match closing.last_mut().or(tree.open.last_mut()) {
                        Some(parent) => parent.children.push(node),
                        None => tree.roots.push(node),
                    }
                }
                (FlightKind::SpanExit, name, nanos)
            }
            Call::Counter(name, delta) => {
                *self.counters.entry(name).or_insert(0) += delta;
                let attributed = match self.threads[worker].open.last_mut() {
                    Some(span) => &mut span.counters,
                    None => &mut self.unattributed,
                };
                *attributed.entry(name).or_insert(0) += delta;
                (FlightKind::Counter, name, delta)
            }
            Call::Event(name) => (FlightKind::Event, name, 0),
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((self.seq, thread, kind, name, value));
        self.seq += 1;
    }

    /// Workers in thread-index order.
    fn by_index(&self) -> Vec<usize> {
        let mut workers: Vec<usize> = (0..self.index.len()).collect();
        workers.sort_by_key(|&w| self.index[w]);
        workers
    }

    fn open_spans(&self) -> Vec<(usize, Vec<&'static str>)> {
        self.by_index()
            .into_iter()
            .filter(|&w| !self.threads[w].open.is_empty())
            .map(|w| {
                let names = self.threads[w].open.iter().map(|s| s.name).collect();
                (self.index[w], names)
            })
            .collect()
    }

    fn span_roots(&self) -> Vec<SpanNode> {
        let by_index = self.by_index();
        by_index
            .iter()
            .flat_map(|&w| self.threads[w].roots.iter().cloned())
            .collect()
    }
}

/// The next call for `worker`: mostly well-formed span nesting, with
/// exits of spans that are not innermost (or not open at all) mixed in.
fn next_call(rng: &mut SplitMix64, stack: &[SpanNode]) -> Call {
    let name = NAMES[rng.below(NAMES.len())];
    match rng.below(8) {
        0 | 1 => Call::Enter(name),
        2 | 3 => match stack.last() {
            Some(top) => Call::Exit(top.name, rng.next() % 1_000),
            None => Call::Exit(name, 7),
        },
        // Malformed: may close an outer span or one that is not open.
        4 => Call::Exit(name, 9),
        5 | 6 => Call::Counter(name, 1 + rng.next() % 5),
        _ => Call::Event(name),
    }
}

/// The recorders under test, fed the same calls.
struct Recorders {
    flight: FlightRecorder,
    trace: TraceRecorder,
    stats: StatsRecorder,
}

fn assert_matches(r: &Recorders, model: &Model, ctx: &str) {
    let flight = &r.flight;
    let tail: Vec<Entry> = flight
        .tail()
        .iter()
        .map(|e| (e.seq, e.thread, e.kind, e.name, e.value))
        .collect();
    let want: Vec<Entry> = model.ring.iter().copied().collect();
    assert_eq!(tail, want, "tail, {ctx}");
    assert_eq!(flight.dropped(), model.dropped, "dropped, {ctx}");
    assert_eq!(flight.seq(), model.seq, "seq, {ctx}");
    let counters: Vec<(&str, u64)> = model.counters.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(flight.counters(), counters, "counters, {ctx}");
    assert_eq!(flight.open_spans(), model.open_spans(), "open spans, {ctx}");
    assert_eq!(
        flight.has_open_spans(),
        !model.open_spans().is_empty(),
        "has_open_spans, {ctx}"
    );

    let events: Vec<TraceEntry> = r
        .trace
        .events()
        .into_iter()
        .map(|e| (e.kind, e.name, e.tid, e.counters))
        .collect();
    let want: Vec<TraceEntry> = model.trace.iter().cloned().collect();
    assert_eq!(events, want, "trace events, {ctx}");
    assert_eq!(
        r.trace.dropped(),
        model.trace_dropped,
        "trace dropped, {ctx}"
    );
    let unattributed: Vec<(&str, u64)> = model.unattributed.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(
        r.trace.unattributed_counters(),
        unattributed,
        "trace unattributed, {ctx}"
    );

    assert_eq!(
        r.stats.span_roots(),
        model.span_roots(),
        "stats roots, {ctx}"
    );
    assert_eq!(r.stats.counters(), counters, "stats counters, {ctx}");
}

fn number(value: Option<&JsonValue>) -> u64 {
    value.and_then(JsonValue::as_f64).expect("a number") as u64
}

/// The crash report parses back and carries the model's views.
fn assert_crash_report_matches(flight: &FlightRecorder, model: &Model, ctx: &str) {
    let rendered = crash_report("panic", "model check", flight).render();
    let doc = json::parse(&rendered).expect("chc-crash/1 round-trips");
    assert_eq!(doc.render(), rendered, "render is a fixed point, {ctx}");
    let tail = doc.get("flight").and_then(JsonValue::as_array).unwrap();
    assert_eq!(tail.len(), model.ring.len(), "flight length, {ctx}");
    for (got, &(seq, thread, kind, name, value)) in tail.iter().zip(&model.ring) {
        assert_eq!(number(got.get("seq")), seq, "{ctx}");
        assert_eq!(number(got.get("thread")), thread as u64, "{ctx}");
        assert_eq!(
            got.get("kind").and_then(JsonValue::as_str),
            Some(kind.label())
        );
        assert_eq!(got.get("name").and_then(JsonValue::as_str), Some(name));
        assert_eq!(number(got.get("value")), value, "{ctx}");
    }
    assert_eq!(number(doc.get("flight_dropped")), model.dropped, "{ctx}");
    for (name, total) in &model.counters {
        assert_eq!(
            number(doc.get("counters").and_then(|c| c.get(name))),
            *total,
            "counter {name}, {ctx}"
        );
    }
    let threads = doc.get("threads").and_then(JsonValue::as_array).unwrap();
    let open: Vec<(u64, Vec<&str>)> = threads
        .iter()
        .map(|t| {
            let stack = t.get("stack").and_then(JsonValue::as_array).unwrap();
            (
                number(t.get("thread")),
                stack.iter().map(|s| s.as_str().unwrap()).collect(),
            )
        })
        .collect();
    let want: Vec<(u64, Vec<&str>)> = model
        .open_spans()
        .into_iter()
        .map(|(idx, stack)| (idx as u64, stack))
        .collect();
    assert_eq!(open, want, "crash report threads, {ctx}");
}

/// Replays `calls` seeded calls on `workers` threads, one at a time, and
/// compares the recorders with the model every few calls.
fn run_case(workers: usize, capacity: usize, seed: u64, calls: usize) {
    let ctx = format!("{workers} thread(s), capacity {capacity}, seed {seed}");
    let recorders = Arc::new(Recorders {
        flight: FlightRecorder::with_capacity(capacity),
        trace: TraceRecorder::with_capacity(capacity),
        stats: StatsRecorder::new(),
    });
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let mut senders = Vec::new();
    let mut handles = Vec::new();
    let mut index = Vec::new();
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel::<Call>();
        let recorders = recorders.clone();
        let done = done_tx.clone();
        handles.push(thread::spawn(move || {
            done.send(chc_obs::thread_index())
                .expect("coordinator alive");
            for call in rx {
                call.apply(&recorders.flight);
                call.apply(&recorders.trace);
                call.apply(&recorders.stats);
                done.send(0).expect("coordinator alive");
            }
        }));
        senders.push(tx);
        index.push(done_rx.recv().expect("worker reports its thread index"));
    }
    let mut model = Model::new(capacity, index);
    let mut rng = SplitMix64(seed);
    for i in 0..calls {
        let worker = rng.below(workers);
        let call = next_call(&mut rng, &model.threads[worker].open);
        senders[worker].send(call).expect("worker alive");
        done_rx.recv().expect("worker acked");
        model.apply(worker, call);
        if i % 37 == 0 {
            assert_matches(&recorders, &model, &format!("{ctx}, after call {i}"));
        }
    }
    assert_matches(&recorders, &model, &ctx);
    assert_crash_report_matches(&recorders.flight, &model, &ctx);
    drop(senders);
    for handle in handles {
        handle.join().expect("worker exits cleanly");
    }
    // Buffers outlive their threads: a dead thread's state still reads.
    assert_matches(&recorders, &model, &format!("{ctx}, workers joined"));
}

#[test]
fn per_thread_recorders_match_the_one_stack_per_thread_model() {
    let _serial = serial();
    for workers in 1..=4 {
        for capacity in [1, 4, 4096] {
            for seed in [1, 0x5eed, 0xdead_beef] {
                run_case(workers, capacity, seed ^ workers as u64, 600);
            }
        }
    }
}

#[test]
fn fresh_recorders_match_the_empty_model() {
    let _serial = serial();
    let recorders = Recorders {
        flight: FlightRecorder::with_capacity(4),
        trace: TraceRecorder::with_capacity(4),
        stats: StatsRecorder::new(),
    };
    let model = Model::new(4, Vec::new());
    assert_matches(&recorders, &model, "empty");
    assert_crash_report_matches(&recorders.flight, &model, "empty");
}

/// The always-on path must stay cheap enough to leave installed in every
/// run: pin the cost per recorded transition of counters, spans (two
/// transitions each) and events, with two threads writing at once, the
/// same way the disabled path is pinned in `chc-obs`'s unit tests. Each
/// figure is the best of a few short rounds, so a thread descheduled by
/// its neighbours does not count as a slow recorder. This lives in its
/// own test binary so its two busy threads do not slow the unit tests'
/// own timing checks, and runs alone within it.
#[test]
fn flight_recording_is_cheap() {
    let _serial = serial();
    const ROUNDS: u32 = 5;
    const ITERS: u32 = 20_000;
    fn best_ns_per_transition(transitions: u32, mut work: impl FnMut()) -> u128 {
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                work();
                start.elapsed().as_nanos() / u128::from(transitions)
            })
            .min()
            .expect("at least one round")
    }
    let flight = Arc::new(FlightRecorder::new());
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let flight = flight.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let _scope = chc_obs::scoped(flight);
                barrier.wait();
                let counter = best_ns_per_transition(ITERS, || {
                    for _ in 0..ITERS {
                        chc_obs::counter("t.hot", 1);
                    }
                });
                let span = best_ns_per_transition(2 * ITERS, || {
                    for _ in 0..ITERS {
                        let _span = chc_obs::span("t.span");
                    }
                });
                let event = best_ns_per_transition(ITERS, || {
                    for i in 0..ITERS {
                        chc_obs::event_with(EventLevel::Audit, "t.event", |ev| {
                            ev.field("i", u64::from(i))
                        });
                    }
                });
                black_box([("counter", counter), ("span", span), ("event", event)])
            })
        })
        .collect();
    for worker in workers {
        for (what, per_call) in worker.join().unwrap() {
            assert!(
                per_call < 1_000,
                "flight-recorded {what} took {per_call} ns/transition (limit 1000 ns)"
            );
        }
    }
    let per_thread = u64::from(ROUNDS * ITERS);
    assert_eq!(flight.seq(), 2 * 4 * per_thread);
    assert_eq!(flight.counters(), vec![("t.hot", 2 * per_thread)]);
}
