//! The flight recorder: an always-on bounded black box, plus the
//! crash/stall diagnostics built on top of it.
//!
//! A [`FlightRecorder`] is a [`Recorder`] sink that keeps the most
//! recent span transitions and counter deltas, along with the
//! per-thread stack of currently-open spans, a per-thread breadcrumb
//! naming the item being worked on, and a running total per counter
//! name. It is designed to be installed *unconditionally* in
//! long-lived binaries, so that when the process dies there is always a
//! recent-history tail to dump, and its write path is built to cost
//! close to nothing:
//!
//! * **Per-thread buffers.** Each thread writes to its own bounded ring
//!   (drop-oldest, like [`crate::TraceRecorder`]), open-span stack and
//!   counter list. A thread finds its buffer through a thread-local
//!   table and registers it with the recorder once, on first use, under
//!   its process-wide [`crate::thread_index`]. A write is one relaxed
//!   sequence bump plus the lock of the thread's own buffer, which only
//!   readers ever contend for. Readers ([`FlightRecorder::tail`],
//!   [`FlightRecorder::counters`], …) merge the buffers; the merged tail
//!   is the last `capacity` transitions by sequence number, exactly what
//!   one shared ring of that capacity would hold.
//! * **Spans and counters only.** The flight recorder declares those
//!   two [`Kind`]s and no other ([`Recorder::keeps`]). Histograms,
//!   labeled metrics, distinct keys and structured events (the audit
//!   ledger owns those) are left to the sinks that keep them, so while
//!   the flight recorder is the only one installed, as under plain
//!   `chc`, each of them costs one relaxed load, and instrumented code
//!   prepares none of them: no key hashing, label scope or per-class
//!   timing.
//! * **Phases, not items.** Instrumented code marks phases with spans
//!   and sums counters per phase; which item a phase is on is a
//!   [`crate::breadcrumb`]: one "current item" slot per thread buffer,
//!   set with a relaxed store and no ring entry, read by [`crash_report`]
//!   and, as progress, by the [`Watchdog`].
//!
//! `tests/flight_model.rs` checks the merged views against a one-ring
//! reference model and pins the per-call cost on two threads
//! (`flight_recording_is_cheap`).
//!
//! The dump is a `chc-crash/1` JSON document produced by
//! [`crash_report`]: the flight tail, open-span stacks and current items
//! per thread, the
//! counter and [`crate::memalloc`] snapshots, and whatever key/value
//! context the host registered via [`set_context`] (schema digest,
//! build info, argv). [`CrashWriter`] renders and writes it
//! round-trip-checked, at most once per process, from either:
//!
//! * a panic hook (the host wires [`CrashWriter::dump`] into
//!   `std::panic::set_hook`), or
//! * a [`Watchdog`]: a background thread that declares a stall when
//!   neither the flight sequence number nor any thread's breadcrumb
//!   item changes while spans are still open, and dumps the same report
//!   with `"reason":"stall"`.
//!
//! [`render_crash_report`] renders the resulting file human-readably
//! (`chc doctor`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::{self, JsonValue};
use crate::threads::{lock, thread_index, SpanStack, Ticker};
use crate::{memalloc, Kind, Recorder};

/// Default ring capacity: enough for a few thousand recent transitions
/// without the tail dominating the crash report.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What kind of transition a [`FlightEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened.
    SpanEnter,
    /// A span closed; `value` is its duration in nanoseconds.
    SpanExit,
    /// A counter was bumped; `value` is the delta.
    Counter,
}

impl FlightKind {
    /// The label used in `chc-crash/1` JSON.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::SpanEnter => "enter",
            FlightKind::SpanExit => "exit",
            FlightKind::Counter => "counter",
        }
    }
}

/// One recent transition held in the flight ring.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Monotone per-recorder sequence number.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// The writing thread's process-wide [`crate::thread_index`].
    pub thread: usize,
    /// Transition kind.
    pub kind: FlightKind,
    /// Counter/span name.
    pub name: &'static str,
    /// Kind-dependent value: counter delta, span-exit nanos, else 0.
    pub value: u64,
}

/// What one thread has recorded into one flight recorder.
struct ThreadLog {
    /// The thread's [`thread_index`].
    thread: usize,
    ring: VecDeque<FlightEntry>,
    dropped: u64,
    stack: SpanStack<()>,
    /// Running totals per counter name, in order of first use.
    counters: Vec<(&'static str, u64)>,
    /// The name of the live breadcrumb, whose current item is
    /// [`ThreadBuffer::item`].
    item_name: Option<&'static str>,
}

/// [`ThreadBuffer::item`] while the breadcrumb has named no item yet.
const NO_ITEM: u64 = u64::MAX;

/// One thread's buffer. Only that thread writes to it; the lock is for
/// the readers that merge the buffers. Aligned so that two threads'
/// buffers never share a cache line.
#[repr(align(128))]
struct ThreadBuffer {
    log: Mutex<ThreadLog>,
    /// The breadcrumb's current item, outside the lock: the owning
    /// thread stores it once per item, relaxed.
    item: AtomicU64,
}

impl ThreadBuffer {
    /// The breadcrumb's name and current item, if it has named one.
    fn current_item(&self, log: &ThreadLog) -> Option<(&'static str, u64)> {
        let item = self.item.load(Ordering::Relaxed);
        log.item_name.filter(|_| item != NO_ITEM).map(|n| (n, item))
    }
}

/// Source of [`FlightRecorder`] ids. Ids are never reused, so a stale
/// thread-local entry cannot alias a newer recorder.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's buffer in each flight recorder it has written to,
    /// keyed by recorder id.
    static BUFFERS: RefCell<Vec<(u64, Arc<ThreadBuffer>)>> = const { RefCell::new(Vec::new()) };
}

/// The sequence counter, alone on its cache line: every thread bumps
/// it, and it must not drag the read-only fields next to it between
/// cores on each bump.
#[repr(align(128))]
struct Seq(AtomicU64);

/// The always-on black box. See the module docs.
pub struct FlightRecorder {
    id: u64,
    start: Instant,
    capacity: usize,
    seq: Seq,
    /// Every thread's buffer, in order of first use.
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
}

impl FlightRecorder {
    /// A flight recorder with the [`DEFAULT_CAPACITY`] ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A flight recorder keeping at most `capacity` recent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            capacity: capacity.max(1),
            seq: Seq(AtomicU64::new(0)),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Transitions recorded so far (including dropped ones).
    pub fn seq(&self) -> u64 {
        self.seq.0.load(Ordering::Relaxed)
    }

    /// The watchdog's liveness signal: the sequence number, and each
    /// thread's current item. A loop that sums its counters per phase
    /// records no transition per item, but moves its breadcrumb.
    fn progress(&self) -> (u64, Vec<Option<(&'static str, u64)>>) {
        let items = self.thread_states().into_iter().map(|(_, _, item)| item);
        (self.seq(), items.collect())
    }

    /// Calls `f` with every thread's log, in order of first use, while
    /// holding all of their locks.
    fn with_logs<R>(&self, f: impl FnOnce(&[&ThreadLog]) -> R) -> R {
        self.with_buffers(|buffers| f(&buffers.iter().map(|(_, log)| *log).collect::<Vec<_>>()))
    }

    /// [`FlightRecorder::with_logs`], with each log's buffer.
    fn with_buffers<R>(&self, f: impl FnOnce(&[(&ThreadBuffer, &ThreadLog)]) -> R) -> R {
        let threads = lock(&self.threads);
        let guards: Vec<MutexGuard<'_, ThreadLog>> = threads.iter().map(|b| lock(&b.log)).collect();
        let buffers: Vec<_> = threads
            .iter()
            .map(|b| &**b)
            .zip(guards.iter().map(|g| &**g))
            .collect();
        f(&buffers)
    }

    /// The merged tail and the number of entries it no longer holds.
    fn merged(&self) -> (Vec<FlightEntry>, u64) {
        self.with_logs(|logs| {
            let mut tail: Vec<FlightEntry> = logs
                .iter()
                .flat_map(|log| log.ring.iter().cloned())
                .collect();
            tail.sort_unstable_by_key(|e| e.seq);
            let recorded: u64 = logs
                .iter()
                .map(|log| log.dropped + log.ring.len() as u64)
                .sum();
            let keep = tail.len().min(self.capacity);
            tail.drain(..tail.len() - keep);
            (tail, recorded - keep as u64)
        })
    }

    /// Entries evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.merged().1
    }

    /// The current ring contents, oldest first: the last `capacity`
    /// transitions of all threads, by sequence number.
    pub fn tail(&self) -> Vec<FlightEntry> {
        self.merged().0
    }

    /// Open-span stacks by thread index, outermost first, for threads
    /// that currently have at least one span open.
    pub fn open_spans(&self) -> Vec<(usize, Vec<&'static str>)> {
        self.thread_states()
            .into_iter()
            .filter(|(_, stack, _)| !stack.is_empty())
            .map(|(thread, stack, _)| (thread, stack))
            .collect()
    }

    /// Per thread that has an open span or a current item, by thread
    /// index: its open spans, outermost first, and its breadcrumb's
    /// current item.
    fn thread_states(&self) -> Vec<ThreadState> {
        let mut states: Vec<_> = self.with_buffers(|buffers| {
            buffers
                .iter()
                .map(|(buffer, log)| {
                    (
                        log.thread,
                        log.stack.names().collect(),
                        buffer.current_item(log),
                    )
                })
                .filter(|(_, stack, item): &ThreadState| !stack.is_empty() || item.is_some())
                .collect()
        });
        states.sort_unstable_by_key(|&(thread, _, _)| thread);
        states
    }

    /// True when any thread has an open span — the watchdog's "work
    /// was in progress" condition.
    pub fn has_open_spans(&self) -> bool {
        self.with_logs(|logs| logs.iter().any(|log| !log.stack.is_empty()))
    }

    /// Running counter totals, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.with_logs(|logs| {
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            for &(name, value) in logs.iter().flat_map(|log| &log.counters) {
                *totals.entry(name).or_insert(0) += value;
            }
            totals.into_iter().collect()
        })
    }

    /// Registers a buffer for the calling thread.
    fn register(&self) -> Arc<ThreadBuffer> {
        let buffer = Arc::new(ThreadBuffer {
            log: Mutex::new(ThreadLog {
                thread: thread_index(),
                ring: VecDeque::with_capacity(self.capacity),
                dropped: 0,
                stack: SpanStack::default(),
                counters: Vec::new(),
                item_name: None,
            }),
            item: AtomicU64::new(NO_ITEM),
        });
        lock(&self.threads).push(buffer.clone());
        buffer
    }

    /// Calls `f` with the calling thread's buffer, registering it first
    /// if this is the thread's first write.
    fn with_buffer<R>(&self, f: impl FnOnce(&Arc<ThreadBuffer>) -> R) -> R {
        BUFFERS.with(|buffers| {
            let mut buffers = buffers.borrow_mut();
            let at = match buffers.iter().position(|(id, _)| *id == self.id) {
                Some(at) => at,
                None => {
                    // Forget the buffers of recorders that were dropped.
                    buffers.retain(|(_, b)| Arc::strong_count(b) > 1);
                    buffers.push((self.id, self.register()));
                    buffers.len() - 1
                }
            };
            f(&buffers[at].1)
        })
    }

    fn record(&self, kind: FlightKind, name: &'static str, value: u64) {
        self.with_buffer(|buffer| {
            let mut guard = lock(&buffer.log);
            let log = &mut *guard;
            match kind {
                FlightKind::SpanEnter => log.stack.enter(name, ()),
                FlightKind::SpanExit => log.stack.exit(name, |_, _, ()| {}),
                FlightKind::Counter => match log.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += value,
                    None => log.counters.push((name, value)),
                },
            }
            if log.ring.len() == self.capacity {
                log.ring.pop_front();
                log.dropped += 1;
            }
            log.ring.push_back(FlightEntry {
                seq: self.seq.0.fetch_add(1, Ordering::Relaxed),
                micros: self.start.elapsed().as_micros() as u64,
                thread: log.thread,
                kind,
                name,
                value,
            });
        });
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for FlightRecorder {
    /// Spans and counters only: the ring holds no events (the audit
    /// ledger owns them; the breadcrumb says which item a phase is on).
    /// Histograms (they ride hot loops), labeled metrics and distinct
    /// keys are the stats and profile recorders' job, so under the
    /// flight recorder alone instrumented code skips preparing them.
    fn keeps(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Counter | Kind::Span)
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.record(FlightKind::Counter, name, delta);
    }

    fn span_enter(&self, name: &'static str) {
        self.record(FlightKind::SpanEnter, name, 0);
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        self.record(FlightKind::SpanExit, name, nanos);
    }

    fn breadcrumb_slots(&self, name: &'static str, slots: &mut Vec<ItemSlot>) {
        let buffer = self.with_buffer(Arc::clone);
        let mut log = lock(&buffer.log);
        let outer = log.item_name.replace(name);
        let outer = outer.map(|n| (n, buffer.item.swap(NO_ITEM, Ordering::Relaxed)));
        drop(log);
        slots.push(ItemSlot { buffer, outer });
    }
}

// --- breadcrumbs ----------------------------------------------------

/// One thread's "current item" slot in one flight recorder, handed out
/// by [`Recorder::breadcrumb_slots`] for a [`Breadcrumb`].
pub struct ItemSlot {
    buffer: Arc<ThreadBuffer>,
    /// The breadcrumb this one shadows on the thread, restored on drop.
    outer: Option<(&'static str, u64)>,
}

/// Names the item the thread is working on in every flight recorder
/// installed when [`crate::breadcrumb`] made it; the item is cleared
/// (an outer breadcrumb's restored) when it drops. See the module docs.
#[must_use = "the breadcrumb is cleared when this guard drops"]
pub struct Breadcrumb {
    slots: Vec<ItemSlot>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Breadcrumb {
    pub(crate) fn new(slots: Vec<ItemSlot>) -> Self {
        Breadcrumb {
            slots,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Makes `item` the current item: one relaxed store per flight
    /// recorder, no lock and no ring entry.
    #[inline]
    pub fn set(&self, item: u64) {
        for slot in &self.slots {
            slot.buffer.item.store(item, Ordering::Relaxed);
        }
    }
}

impl Drop for Breadcrumb {
    fn drop(&mut self) {
        for slot in &self.slots {
            let mut log = lock(&slot.buffer.log);
            log.item_name = slot.outer.map(|(name, _)| name);
            let item = slot.outer.map_or(NO_ITEM, |(_, item)| item);
            slot.buffer.item.store(item, Ordering::Relaxed);
        }
    }
}

/// A thread's index, open spans and current item; see
/// [`FlightRecorder::thread_states`].
type ThreadState = (usize, Vec<&'static str>, Option<(&'static str, u64)>);

// --- crash-report context -------------------------------------------

static CONTEXT: Mutex<Option<BTreeMap<String, String>>> = Mutex::new(None);

/// Registers a key/value pair (schema digest, build info, argv, …) to
/// be embedded in any crash report this process writes. Later writes
/// to the same key replace the value.
pub fn set_context(key: &str, value: &str) {
    let mut guard = CONTEXT.lock().expect("crash context lock");
    guard
        .get_or_insert_with(BTreeMap::new)
        .insert(key.to_string(), value.to_string());
}

/// Registers an input file as `{key}_file` (its path) and
/// `{key}_digest` (16 hex digits of `digest` of its contents), so a
/// post-mortem names the exact input that was being processed.
pub fn set_file_context(key: &str, path: &str, contents: &[u8]) {
    set_context(&format!("{key}_file"), path);
    set_context(
        &format!("{key}_digest"),
        &format!("{:016x}", digest(contents)),
    );
}

/// A 64-bit digest that tells inputs apart (not a cryptographic hash).
/// The bytes are read as 8-byte little-endian words, dealt round-robin
/// to four independent lanes so the multiplies of neighbouring words
/// overlap instead of waiting on each other. Each step xors a word into
/// its lane and replaces the lane by the two halves of its 128-bit
/// product with an odd constant, xored, so every bit reaches every
/// other; then the lanes, the zero-padded tail words and the length are
/// folded in the same way.
fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |hash: u64, word: u64| {
        let product = u128::from(hash ^ word) * u128::from(K);
        product as u64 ^ (product >> 64) as u64
    };
    let word = |chunk: &[u8]| {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(w)
    };
    let mut lanes = [1, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(chunk));
        }
    }
    let hash = lanes.into_iter().fold(0, step);
    let hash = blocks.remainder().chunks(8).map(word).fold(hash, step);
    step(hash, bytes.len() as u64)
}

/// The registered crash context, sorted by key.
pub fn context() -> Vec<(String, String)> {
    let guard = CONTEXT.lock().expect("crash context lock");
    guard
        .as_ref()
        .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
        .unwrap_or_default()
}

// --- chc-crash/1 ----------------------------------------------------

/// Builds a `chc-crash/1` document from the flight recorder's current
/// state. `reason` is `"panic"` or `"stall"`; `message` is the panic
/// payload or a stall description.
pub fn crash_report(reason: &str, message: &str, flight: &FlightRecorder) -> JsonValue {
    let mem = memalloc::snapshot_json();
    let threads = flight
        .thread_states()
        .into_iter()
        .map(|(idx, stack, item)| {
            let mut fields = vec![
                ("thread", JsonValue::number(idx as f64)),
                (
                    "stack",
                    JsonValue::array(stack.into_iter().map(JsonValue::string)),
                ),
            ];
            if let Some((name, value)) = item {
                let item = [
                    ("name", JsonValue::string(name)),
                    ("value", JsonValue::number(value as f64)),
                ];
                fields.push(("item", JsonValue::object(item)));
            }
            JsonValue::object(fields)
        });
    let tail = flight.tail().into_iter().map(|e| {
        JsonValue::object([
            ("seq", JsonValue::number(e.seq as f64)),
            ("t_us", JsonValue::number(e.micros as f64)),
            ("thread", JsonValue::number(e.thread as f64)),
            ("kind", JsonValue::string(e.kind.label())),
            ("name", JsonValue::string(e.name)),
            ("value", JsonValue::number(e.value as f64)),
        ])
    });
    let counters = flight
        .counters()
        .into_iter()
        .map(|(name, value)| (name, JsonValue::number(value as f64)));
    let ctx = context();
    JsonValue::object([
        ("schema", JsonValue::string("chc-crash/1")),
        ("reason", JsonValue::string(reason)),
        ("message", JsonValue::string(message)),
        ("pid", JsonValue::number(f64::from(std::process::id()))),
        (
            "uptime_us",
            JsonValue::number(flight.start.elapsed().as_micros() as f64),
        ),
        (
            "context",
            JsonValue::object(ctx.iter().map(|(k, v)| (k.as_str(), JsonValue::string(v)))),
        ),
        ("mem", mem),
        ("counters", JsonValue::object(counters)),
        ("threads", JsonValue::array(threads)),
        ("flight", JsonValue::array(tail)),
        ("flight_dropped", JsonValue::number(flight.dropped() as f64)),
    ])
}

/// Renders a `chc-crash/1` document (as written by [`crash_report`])
/// human-readably: the `chc doctor` output. Missing fields render as
/// `?` or zero, so a truncated report still shows what it has.
pub fn render_crash_report(doc: &JsonValue) -> impl std::fmt::Display + '_ {
    use crate::{format_bytes, format_ns};

    let str_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let num_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;

    crate::display_with(move |f| {
        writeln!(f, "chc crash report ({})", str_of(doc.get("reason")))?;
        writeln!(f, "  message: {}", str_of(doc.get("message")))?;
        writeln!(
            f,
            "  pid {} after {}",
            num_of(doc.get("pid")),
            format_ns(num_of(doc.get("uptime_us")).saturating_mul(1_000)),
        )?;

        if let Some(JsonValue::Obj(ctx)) = doc.get("context") {
            if !ctx.is_empty() {
                writeln!(f, "\ncontext:")?;
                for (k, v) in ctx {
                    writeln!(f, "  {:<14} {}", k, v.as_str().unwrap_or("?"))?;
                }
            }
        }

        if let Some(mem) = doc.get("mem") {
            if num_of(mem.get("installed")) == 1 {
                let allocs = num_of(mem.get("allocs"));
                writeln!(
                    f,
                    "\nmemory: {} allocated over {allocs} allocs; live {} ({} allocs), peak {}",
                    format_bytes(num_of(mem.get("bytes_total"))),
                    format_bytes(num_of(mem.get("bytes_live"))),
                    allocs.saturating_sub(num_of(mem.get("frees"))),
                    format_bytes(num_of(mem.get("bytes_peak"))),
                )?;
            } else {
                writeln!(
                    f,
                    "\nmemory: tracking allocator not installed in this binary"
                )?;
            }
        }

        if let Some(JsonValue::Obj(counters)) = doc.get("counters") {
            if !counters.is_empty() {
                let mut rows: Vec<(&str, u64)> = counters
                    .iter()
                    .map(|(k, v)| (k.as_str(), num_of(Some(v))))
                    .collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let shown = rows.len().min(20);
                writeln!(f, "\ncounters (top {shown} of {}):", rows.len())?;
                for (name, value) in rows.iter().take(shown) {
                    writeln!(f, "  {name:<32} {value:>12}")?;
                }
            }
        }

        writeln!(f, "\nopen spans at time of death:")?;
        let threads = doc.get("threads").and_then(|v| v.as_array()).unwrap_or(&[]);
        if threads.is_empty() {
            writeln!(f, "  (none)")?;
        }
        for t in threads {
            write!(f, "  thread {}: ", num_of(t.get("thread")))?;
            let stack = t.get("stack").and_then(|v| v.as_array()).unwrap_or(&[]);
            let mut sep = "";
            for name in stack.iter().filter_map(|v| v.as_str()) {
                write!(f, "{sep}{name}")?;
                sep = " > ";
            }
            if sep.is_empty() {
                f.write_str("(idle)")?;
            }
            if let Some(item) = t.get("item") {
                let (name, value) = (str_of(item.get("name")), num_of(item.get("value")));
                write!(f, " (at {name} {value})")?;
            }
            writeln!(f)?;
        }

        let flight = doc.get("flight").and_then(|v| v.as_array()).unwrap_or(&[]);
        let dropped = num_of(doc.get("flight_dropped"));
        let shown = flight.len().min(40);
        let skipped = flight.len() - shown;
        write!(
            f,
            "\nflight tail (last {shown} of {} recorded",
            flight.len()
        )?;
        if dropped > 0 {
            write!(f, ", {dropped} older dropped from ring")?;
        }
        writeln!(f, "):")?;
        if skipped > 0 {
            writeln!(
                f,
                "  … {skipped} earlier entr(ies) elided; read the JSON for all"
            )?;
        }
        for e in flight.iter().skip(skipped) {
            let kind = str_of(e.get("kind"));
            let value = num_of(e.get("value"));
            let suffix = match kind.as_str() {
                "exit" => format!(" ({})", format_ns(value)),
                "counter" => format!(" +{value}"),
                _ => String::new(),
            };
            writeln!(
                f,
                "  [{:>8}] t+{:<10} thread {} {:<7} {}{}",
                num_of(e.get("seq")),
                format_ns(num_of(e.get("t_us")).saturating_mul(1_000)),
                num_of(e.get("thread")),
                kind,
                str_of(e.get("name")),
                suffix,
            )?;
        }
        Ok(())
    })
}

/// Where a crash report goes: `explicit` (a `--crash-out` path) if
/// given, else a pid-stamped `chc-crash-<pid>.json` in `$CHC_CRASH_DIR`,
/// else nowhere.
pub fn crash_destination(explicit: Option<&str>) -> Option<PathBuf> {
    explicit.map(PathBuf::from).or_else(|| {
        let dir = std::env::var("CHC_CRASH_DIR")
            .ok()
            .filter(|d| !d.is_empty())?;
        Some(PathBuf::from(dir).join(format!("chc-crash-{}.json", std::process::id())))
    })
}

/// The crash-report message for a panic: its payload (when it is a
/// string) and where it was raised.
pub fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    match info.location() {
        Some(loc) => format!("{payload} (at {loc})"),
        None => payload,
    }
}

/// Writes a crash report at most once per process: shared by the
/// panic hook and the [`Watchdog`] so whichever fires first wins.
pub struct CrashWriter {
    flight: Arc<FlightRecorder>,
    path: Option<PathBuf>,
    written: AtomicBool,
}

impl CrashWriter {
    /// A writer dumping to `path` (`None` = diagnostics-only host:
    /// [`CrashWriter::dump`] becomes a no-op returning `None`).
    pub fn new(flight: Arc<FlightRecorder>, path: Option<PathBuf>) -> Self {
        CrashWriter {
            flight,
            path,
            written: AtomicBool::new(false),
        }
    }

    /// The flight recorder this writer watches.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The destination, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Builds, round-trip-checks, and writes the `chc-crash/1` report.
    /// Only the first call writes; later calls (second panic, watchdog
    /// racing the panic hook) return `None`.
    pub fn dump(&self, reason: &str, message: &str) -> Option<io::Result<PathBuf>> {
        let path = self.path.as_ref()?;
        if self.written.swap(true, Ordering::SeqCst) {
            return None;
        }
        let doc = crash_report(reason, message, &self.flight);
        let rendered = doc.render();
        if let Err(err) = json::parse(&rendered) {
            return Some(Err(io::Error::other(format!(
                "chc-crash/1 report failed its round-trip check: {err}"
            ))));
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(err) = std::fs::create_dir_all(parent) {
                    return Some(Err(err));
                }
            }
        }
        Some(std::fs::write(path, rendered).map(|()| path.clone()))
    }
}

// --- stall watchdog -------------------------------------------------

/// A background thread that dumps a `"reason":"stall"` crash report
/// when neither the flight sequence number nor any thread's breadcrumb
/// item changes for `timeout` while spans are still open. Stop it with
/// [`Watchdog::stop`]; dropping the handle stops it too.
pub struct Watchdog(Ticker);

impl Watchdog {
    /// Starts the watchdog. `timeout` is clamped to at least 10 ms.
    pub fn start(writer: Arc<CrashWriter>, timeout: Duration) -> Watchdog {
        let timeout = timeout.max(Duration::from_millis(10));
        let tick = (timeout / 4).max(Duration::from_millis(5));
        let mut last = writer.flight().progress();
        let mut last_change = Instant::now();
        Watchdog(Ticker::start("chc-watchdog", tick, move || {
            let progress = writer.flight().progress();
            if progress != last {
                last = progress;
                last_change = Instant::now();
                return true;
            }
            if last_change.elapsed() < timeout || !writer.flight().has_open_spans() {
                return true;
            }
            let stalled = last_change.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let message = format!(
                "no flight-recorder activity for {} with spans still open",
                crate::format_ns(stalled)
            );
            if let Some(Ok(path)) = writer.dump("stall", &message) {
                eprintln!("chc: watchdog stall report written to {}", path.display());
            }
            false
        }))
    }

    /// Signals the thread to exit and joins it.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chc-obs-flight-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let flight = FlightRecorder::with_capacity(4);
        for _ in 0..10 {
            flight.counter("t.ops", 1);
        }
        let tail = flight.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(flight.dropped(), 6);
        assert_eq!(tail.first().unwrap().seq, 6, "oldest surviving entry");
        assert_eq!(tail.last().unwrap().seq, 9);
        assert_eq!(flight.counters(), vec![("t.ops", 10)]);
    }

    #[test]
    fn open_span_stacks_follow_enter_and_exit() {
        let flight = FlightRecorder::new();
        let me = thread_index();
        flight.span_enter("outer");
        flight.span_enter("inner");
        assert_eq!(flight.open_spans(), vec![(me, vec!["outer", "inner"])]);
        flight.span_exit("inner", 42);
        assert_eq!(flight.open_spans(), vec![(me, vec!["outer"])]);
        // A malformed exit for a span that is not open is ignored.
        flight.span_exit("inner", 7);
        assert_eq!(flight.open_spans(), vec![(me, vec!["outer"])]);
        flight.span_exit("outer", 99);
        assert!(!flight.has_open_spans());
    }

    #[test]
    fn events_nobody_keeps_skip_the_ring_and_build_no_payload() {
        let flight = Arc::new(FlightRecorder::new());
        let built = std::cell::Cell::new(0);
        {
            let _scope = crate::scoped(flight.clone());
            for level in crate::EventLevel::ALL {
                assert!(!flight.keeps(Kind::Event(level)), "{level:?}");
                crate::event_with(level, "t.event", |ev| {
                    built.set(built.get() + 1);
                    ev.field("k", "v")
                });
                crate::event(Event::new(level, "t.event"));
            }
        }
        assert_eq!(built.get(), 0, "no payload is built");
        assert_eq!(flight.seq(), 0, "no flight transition is recorded");
        assert!(flight.tail().is_empty());
    }

    #[test]
    fn breadcrumbs_name_the_current_item_without_a_ring_entry() {
        let flight = Arc::new(FlightRecorder::new());
        let me = thread_index();
        let item = |flight: &FlightRecorder| {
            let states = flight.thread_states();
            states.iter().find(|s| s.0 == me).and_then(|s| s.2)
        };
        let _scope = crate::scoped(flight.clone());
        {
            let outer = crate::breadcrumb("t.outer");
            assert_eq!(item(&flight), None, "no item named yet");
            outer.set(7);
            assert_eq!(item(&flight), Some(("t.outer", 7)));
            {
                let inner = crate::breadcrumb("t.inner");
                inner.set(3);
                inner.set(4);
                assert_eq!(item(&flight), Some(("t.inner", 4)));
            }
            assert_eq!(item(&flight), Some(("t.outer", 7)), "outer restored");
            let _span = crate::span("t.phase");
            outer.set(8);
            let doc = json::parse(&crash_report("panic", "boom", &flight).render()).unwrap();
            let threads = doc.get("threads").and_then(|v| v.as_array()).unwrap();
            let at = threads[0].get("item").expect("the item is reported");
            assert_eq!(at.get("name").and_then(|v| v.as_str()), Some("t.outer"));
            assert_eq!(at.get("value").and_then(|v| v.as_f64()), Some(8.0));
            assert!(render_crash_report(&doc)
                .to_string()
                .contains("t.phase (at t.outer 8)"));
        }
        assert_eq!(item(&flight), None, "cleared on drop");
        assert_eq!(flight.seq(), 2, "only the span's enter and exit");
    }

    #[test]
    fn digests_tell_one_byte_edits_apart() {
        let base: Vec<u8> = (0..100u8).collect();
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=base.len() {
            assert!(seen.insert(digest(&base[..len])), "prefix of {len} bytes");
        }
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut edited = base.clone();
                edited[at] ^= 1 << bit;
                assert!(seen.insert(digest(&edited)), "bit {bit} of byte {at}");
            }
        }
        assert_eq!(digest(&base), digest(&base.clone()));
        set_file_context("t_input", "in.txt", &base);
        let got = context()
            .into_iter()
            .find(|(k, _)| k == "t_input_digest")
            .map(|(_, v)| v);
        assert_eq!(got, Some(format!("{:016x}", digest(&base))));
    }

    #[test]
    fn crash_report_round_trips_with_tail_and_stacks() {
        let flight = FlightRecorder::new();
        flight.span_enter("cli.load");
        flight.counter("load.ops", 3);
        set_context("schema_digest", "deadbeef");
        let doc = crash_report("panic", "boom", &flight);
        let parsed = json::parse(&doc.render()).expect("chc-crash/1 round-trips");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("chc-crash/1")
        );
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("panic"));
        let threads = parsed.get("threads").and_then(|v| v.as_array()).unwrap();
        assert_eq!(threads.len(), 1);
        let stack = threads[0].get("stack").and_then(|v| v.as_array()).unwrap();
        assert_eq!(stack[0].as_str(), Some("cli.load"));
        let tail = parsed.get("flight").and_then(|v| v.as_array()).unwrap();
        assert!(!tail.is_empty());
        assert!(parsed
            .get("context")
            .and_then(|c| c.get("schema_digest"))
            .is_some());
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("load.ops"))
            .is_some());
        assert!(parsed
            .get("mem")
            .and_then(|m| m.get("bytes_peak"))
            .is_some());
    }

    #[test]
    fn crash_writer_writes_once() {
        let flight = Arc::new(FlightRecorder::new());
        flight.span_enter("t.span");
        let path = tmp("crash-once.json");
        let _ = std::fs::remove_file(&path);
        let writer = CrashWriter::new(flight, Some(path.clone()));
        let first = writer.dump("panic", "first").expect("first dump runs");
        assert_eq!(first.expect("write ok"), path);
        assert!(
            writer.dump("stall", "second").is_none(),
            "second dump suppressed"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("message").and_then(|v| v.as_str()),
            Some("first")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_writer_without_destination_is_a_no_op() {
        let writer = CrashWriter::new(Arc::new(FlightRecorder::new()), None);
        assert!(writer.dump("panic", "boom").is_none());
    }

    #[test]
    fn watchdog_dumps_a_stall_report_when_activity_stops() {
        let flight = Arc::new(FlightRecorder::new());
        flight.span_enter("t.stalled");
        let path = tmp("stall.json");
        let _ = std::fs::remove_file(&path);
        let writer = Arc::new(CrashWriter::new(flight, Some(path.clone())));
        let mut dog = Watchdog::start(writer, Duration::from_millis(40));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        dog.stop();
        let body = std::fs::read_to_string(&path).expect("stall report written");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("stall"));
        // A 40 ms stall is at least 40 ms, not "0.0s".
        let message = parsed.get("message").and_then(|v| v.as_str()).unwrap();
        assert!(
            message.starts_with("no flight-recorder activity for "),
            "{message}"
        );
        assert!(message.contains("ms with spans still open"), "{message}");
        assert!(!message.contains("0.0s"), "{message}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_stays_quiet_while_activity_continues() {
        let flight = Arc::new(FlightRecorder::new());
        flight.span_enter("t.busy");
        let path = tmp("no-stall.json");
        let _ = std::fs::remove_file(&path);
        let writer = Arc::new(CrashWriter::new(flight.clone(), Some(path.clone())));
        let mut dog = Watchdog::start(writer, Duration::from_millis(60));
        for _ in 0..12 {
            flight.counter("t.tick", 1);
            std::thread::sleep(Duration::from_millis(10));
        }
        dog.stop();
        assert!(!path.exists(), "no stall report while the seq advances");
    }

    #[test]
    fn watchdog_stays_quiet_while_the_breadcrumb_moves() {
        let flight = Arc::new(FlightRecorder::new());
        let _scope = crate::scoped(flight.clone());
        let _span = crate::span("t.busy");
        let crumb = crate::breadcrumb("t.item");
        let path = tmp("no-stall-items.json");
        let _ = std::fs::remove_file(&path);
        let writer = Arc::new(CrashWriter::new(flight.clone(), Some(path.clone())));
        let mut dog = Watchdog::start(writer, Duration::from_millis(60));
        let seq = flight.seq();
        for item in 0..12 {
            crumb.set(item);
            std::thread::sleep(Duration::from_millis(10));
        }
        dog.stop();
        assert_eq!(flight.seq(), seq, "no transition while the item moves");
        assert!(!path.exists(), "no stall report while the item moves");
    }
}
