//! # chc-obs — zero-dependency observability for the excuses system
//!
//! Every experiment in EXPERIMENTS.md is ultimately about *counting
//! work*: run-time safety checks eliminated (§5.4), search steps per
//! attribute lookup (§4.2.4), fragments probed vs. skipped by type
//! deduction (§5.5). This crate gives all the `chc-*` crates one way to
//! report that work:
//!
//! * **named counters** and **histograms** ([`counter`], [`histogram`]),
//! * **hierarchical spans** with monotonic [`std::time::Instant`] timing
//!   ([`span`]),
//! * **structured audit events** with leveled key-value payloads
//!   ([`event`], [`event_with`]), delivered only to sinks that keep
//!   their level — see [`events`],
//! * a per-thread **breadcrumb** naming the item being worked on, for
//!   crash reports ([`breadcrumb`]) — see [`flight`],
//! * **labeled metrics** and **distinct-work tracking** for cost
//!   attribution ([`labeled_counter`], [`labeled_histogram`],
//!   [`distinct`], [`label_scope`]) — see [`profile`],
//!
//! behind a cheap [`Recorder`] trait. Each recorder declares the
//! [`Kind`]s of observation it keeps ([`Recorder::keeps`]), and the
//! declarations are counted into one keep-table when it is installed.
//! While no installed recorder keeps a kind, emitting it is a single
//! relaxed atomic load and a predictable branch, and instrumented code
//! skips preparing it ([`keeps`]). That holds whether nothing is
//! installed (a library caller's default) or the `chc` CLI's always-on
//! [`FlightRecorder`] is, which keeps spans and counters only: under
//! plain `chc`, histograms, labeled metrics, distinct keys and events
//! cost one load each.
//!
//! ## Installing a recorder
//!
//! [`StatsRecorder`] is the batteries-included implementation: it
//! aggregates counters, histograms, and a span tree, and renders them as
//! a human-readable tree ([`StatsRecorder::render_tree`]), a counter
//! table ([`StatsRecorder::render_counters`]), or line-delimited JSON
//! ([`StatsRecorder::to_json_lines`]).
//!
//! [`TraceRecorder`] keeps the event-level timeline instead: a bounded
//! ring of timestamped span begin/end events exportable as Chrome
//! trace-event JSON (Perfetto) or folded stacks (flamegraphs) — see
//! [`trace`]. [`AuditRecorder`] retains the structured-event ledger and
//! renders it as JSON lines — see [`events`]. [`FanoutRecorder`] feeds
//! one run to several recorders at once (the CLI's `--trace
//! --trace-out` combination). Recorders that keep per-thread state key
//! it by one process-wide [`thread_index`], so their views of a
//! multi-threaded run name the same threads.
//!
//! Recorders can be installed two ways:
//!
//! * [`set_global`] — process-wide, used by the `chc` CLI's
//!   `--trace`/`--stats` flags;
//! * [`scoped`] — a thread-local override active until the returned
//!   guard drops. This is what tests and the `report` binary use, so
//!   parallel test threads never see each other's counters.
//!
//! ```
//! use std::sync::Arc;
//! use chc_obs as obs;
//!
//! let stats = Arc::new(obs::StatsRecorder::new());
//! {
//!     let _scope = obs::scoped(stats.clone());
//!     let _span = obs::span("demo.work");
//!     obs::counter("demo.widgets", 3);
//! }
//! assert_eq!(stats.counter_value("demo.widgets"), 3);
//! ```
//!
//! The counter/span name registry lives in [`names`]; docs/OBSERVABILITY.md
//! maps each name to the experiment (E1–E10) it feeds.

// `deny`, not `forbid`: `memalloc` opts back in for its one unsafe
// surface (the `GlobalAlloc` impl); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod flight;
pub mod json;
pub mod memalloc;
pub mod names;
pub mod profile;
pub mod sampler;
mod stats;
mod threads;
pub mod trace;

pub use events::{AuditRecorder, Event, EventLevel, FieldValue};
pub use flight::{Breadcrumb, CrashWriter, FlightEntry, FlightKind, FlightRecorder, Watchdog};
pub use memalloc::{MemSnapshot, ProbeStats, ThreadProbe, TrackingAllocator};
pub use profile::{LabeledSnapshot, ProfileRecorder};
pub use sampler::SpanSampler;
pub use stats::{Histogram, HistogramSummary, SpanNode, StatsRecorder};
pub use threads::thread_index;
pub use trace::{FanoutRecorder, TraceEvent, TraceEventKind, TraceRecorder};

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// One kind of observation a [`Recorder`] can receive, for
/// [`Recorder::keeps`]: each emit function reaches sinks only through
/// the kind it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// [`counter`].
    Counter,
    /// [`span`] enters and exits.
    Span,
    /// [`histogram`].
    Histogram,
    /// [`labeled_counter`], [`labeled_histogram`] and
    /// [`labeled_counter_scoped`].
    Labeled,
    /// [`distinct`].
    Distinct,
    /// [`event`] and [`event_with`] at this level.
    Event(EventLevel),
}

/// The number of [`Kind`]s, events counted once per level.
const KINDS: usize = 5 + EventLevel::ALL.len();

impl Kind {
    /// Every kind, events lowest level first.
    pub const ALL: [Kind; KINDS] = [
        Kind::Counter,
        Kind::Span,
        Kind::Histogram,
        Kind::Labeled,
        Kind::Distinct,
        Kind::Event(EventLevel::Debug),
        Kind::Event(EventLevel::Info),
        Kind::Event(EventLevel::Audit),
    ];

    /// This kind's slot in the keep-table.
    #[inline]
    const fn index(self) -> usize {
        match self {
            Kind::Counter => 0,
            Kind::Span => 1,
            Kind::Histogram => 2,
            Kind::Labeled => 3,
            Kind::Distinct => 4,
            Kind::Event(level) => 5 + level as usize,
        }
    }
}

/// A sink for instrumentation events. Every observation method defaults
/// to discarding it, so a sink implements what it keeps and declares
/// those kinds in [`Recorder::keeps`].
///
/// Implementations must be cheap to call re-entrantly; the instrumented
/// crates call these from hot loops whenever a recorder is installed.
pub trait Recorder: Send + Sync {
    /// Whether this sink keeps observations of `kind`. An emit function
    /// reaches the sinks only while some installed recorder keeps its
    /// kind, and instrumented code prepares an observation (hashes a
    /// key, opens a label scope, times a class) only then. The answers
    /// are read when the recorder is installed ([`set_global`],
    /// [`scoped`]) and when it is removed, so they must not change in
    /// between. While no installed recorder keeps a kind, emitting it
    /// costs one relaxed atomic load.
    fn keeps(&self, kind: Kind) -> bool;
    /// Add `delta` to the named counter.
    fn counter(&self, _name: &'static str, _delta: u64) {}
    /// Record one observation of `value` in the named histogram.
    fn histogram(&self, _name: &'static str, _value: u64) {}
    /// A span with this name just opened on the calling thread.
    fn span_enter(&self, _name: &'static str) {}
    /// The innermost open span with this name on the calling thread
    /// just closed, having run for `nanos` nanoseconds. A recorder that
    /// keeps open spans closes that span and every span opened after it
    /// on the thread, and ignores an exit with no such span open.
    fn span_exit(&self, _name: &'static str, _nanos: u64) {}
    /// A structured event was emitted at a level this sink keeps
    /// ([`Kind::Event`]), payload included. Recorders that aggregate
    /// numeric work (stats, traces, the flight recorder) keep no level;
    /// [`AuditRecorder`] retains the stream.
    fn event(&self, _event: &events::Event) {}
    /// Hands over the calling thread's "current item" slot for the
    /// breadcrumb `name`, if this sink keeps one; see [`breadcrumb`].
    /// Only the flight recorder does.
    fn breadcrumb_slots(&self, _name: &'static str, _slots: &mut Vec<flight::ItemSlot>) {}
    /// Add `delta` to the named counter *under a label* — a cheap
    /// interned `u64` key such as a class id, a query id, or a
    /// structural pair hash. [`ProfileRecorder`] builds per-label
    /// attributions from these with bounded cardinality.
    fn labeled_counter(&self, _name: &'static str, _label: u64, _delta: u64) {}
    /// Record one observation of `value` in the named histogram under a
    /// label; see [`Recorder::labeled_counter`].
    fn labeled_histogram(&self, _name: &'static str, _label: u64, _value: u64) {}
    /// A distinct-work observation: the instrumented site performed a
    /// unit of work identified by `key` (typically a structural hash of
    /// its inputs). Recorders that track duplicate work keep a compact
    /// seen-set per name and add 1 to the counter `name` only the first
    /// time each key is seen, so `foo.distinct` can sit next to the
    /// plain total `foo`.
    fn distinct(&self, _name: &'static str, _key: u64) {}
}

/// The keep-table: the live recorder installations (global plus scoped,
/// on any thread), and per [`Kind`] how many of them keep it. Every emit
/// function reads one of these counts with one relaxed load. The table
/// has its cache line to itself, so the `GLOBAL` lock's state, which
/// every dispatch writes, never shares it.
#[repr(align(64))]
struct KeepTable {
    installed: AtomicU32,
    keeping: [AtomicU32; KINDS],
}

static KEEP: KeepTable = KeepTable {
    installed: AtomicU32::new(0),
    keeping: [const { AtomicU32::new(0) }; KINDS],
};

/// Counts `recorder` and the kinds it keeps into (`installed`) or out of
/// the keep-table.
fn count_installation(recorder: &dyn Recorder, installed: bool) {
    let step = |count: &AtomicU32| {
        if installed {
            count.fetch_add(1, Ordering::Relaxed);
        } else {
            count.fetch_sub(1, Ordering::Relaxed);
        }
    };
    step(&KEEP.installed);
    for kind in Kind::ALL {
        if recorder.keeps(kind) {
            step(&KEEP.keeping[kind.index()]);
        }
    }
}

/// True if some installed recorder (global, or scoped on any thread)
/// keeps observations of `kind`.
///
/// Gate the *preparation* of an observation on this (a hashed key, a
/// label scope, a timed region); the emit functions already test their
/// own kind, and [`event_with`] builds a payload only for a sink that
/// keeps it.
#[inline]
pub fn keeps(kind: Kind) -> bool {
    KEEP.keeping[kind.index()].load(Ordering::Relaxed) != 0
}

/// True if any recorder (global or scoped, on any thread) is installed.
#[inline]
fn enabled() -> bool {
    KEEP.installed.load(Ordering::Relaxed) != 0
}

static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    static LOCAL: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// Calls `f` with the active recorder: the innermost scoped one, else
/// the global one. Both are borrowed for the duration of `f` (the global
/// one under its read lock), so no call clones an `Arc`.
fn dispatch(f: impl FnOnce(&dyn Recorder)) {
    LOCAL.with(|l| match l.borrow().last() {
        Some(r) => f(&**r),
        None => {
            if let Ok(global) = GLOBAL.read() {
                if let Some(r) = global.as_deref() {
                    f(r);
                }
            }
        }
    });
}

/// Installs `recorder` as the process-wide sink, replacing any previous
/// one. Pass-through for scoped recorders: a thread with a live
/// [`scoped`] guard keeps reporting to its own recorder.
pub fn set_global(recorder: Arc<dyn Recorder>) {
    let mut g = GLOBAL.write().expect("obs global lock");
    count_installation(&*recorder, true);
    if let Some(old) = g.replace(recorder) {
        count_installation(&*old, false);
    }
}

/// Removes the process-wide recorder installed by [`set_global`].
pub fn clear_global() {
    let mut g = GLOBAL.write().expect("obs global lock");
    if let Some(old) = g.take() {
        count_installation(&*old, false);
    }
}

/// Guard returned by [`scoped`]; dropping it uninstalls the recorder.
#[must_use = "the recorder is uninstalled when this guard drops"]
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `recorder` for the current thread until the guard drops.
///
/// Scoped recorders shadow the global one and nest (last installed
/// wins), so a test can meter exactly one region of code regardless of
/// what the process or enclosing scopes are doing.
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopeGuard {
    count_installation(&*recorder, true);
    LOCAL.with(|l| l.borrow_mut().push(recorder));
    ScopeGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(recorder) = LOCAL.with(|l| l.borrow_mut().pop()) {
            count_installation(&*recorder, false);
        }
    }
}

/// Adds `delta` to the named counter on the active recorder, if any.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if keeps(Kind::Counter) {
        dispatch(|r| r.counter(name, delta));
    }
}

/// Records `value` into the named histogram on the active recorder.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if keeps(Kind::Histogram) {
        dispatch(|r| r.histogram(name, value));
    }
}

/// Adds `delta` to the named counter under `label` (class id, query id,
/// pair hash, …) on the active recorder. One relaxed load while no
/// installed recorder keeps labeled metrics.
#[inline]
pub fn labeled_counter(name: &'static str, label: u64, delta: u64) {
    if keeps(Kind::Labeled) {
        dispatch(|r| r.labeled_counter(name, label, delta));
    }
}

/// Records `value` into the named histogram under `label` on the active
/// recorder. One relaxed load while no installed recorder keeps labeled
/// metrics.
#[inline]
pub fn labeled_histogram(name: &'static str, label: u64, value: u64) {
    if keeps(Kind::Labeled) {
        dispatch(|r| r.labeled_histogram(name, label, value));
    }
}

/// Reports a distinct-work observation: recorders that track duplicate
/// work bump the counter `name` only the first time they see `key`.
/// One relaxed load while no installed recorder keeps distinct keys;
/// gate computing `key` on [`keeps`]`(`[`Kind::Distinct`]`)`.
#[inline]
pub fn distinct(name: &'static str, key: u64) {
    if keeps(Kind::Distinct) {
        dispatch(|r| r.distinct(name, key));
    }
}

thread_local! {
    /// The attribution-label stack for this thread; see [`label_scope`].
    static LABELS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`label_scope`]; dropping it pops the label.
#[must_use = "the label is popped when this guard drops"]
pub struct LabelGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pushes an attribution label for the current thread until the guard
/// drops. Deep instrumentation sites that cannot see what they work
/// *for* (the subtype decision, the sat procedure) read the innermost
/// label via [`current_label`] so their counters attribute to the class
/// (or query) being processed. Callers should gate on
/// [`keeps`]`(`[`Kind::Labeled`]`)` — the stack is maintained
/// unconditionally.
pub fn label_scope(label: u64) -> LabelGuard {
    LABELS.with(|l| l.borrow_mut().push(label));
    LabelGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for LabelGuard {
    fn drop(&mut self) {
        LABELS.with(|l| l.borrow_mut().pop());
    }
}

/// The innermost attribution label pushed by [`label_scope`], if any.
#[inline]
pub fn current_label() -> Option<u64> {
    LABELS.with(|l| l.borrow().last().copied())
}

/// Adds `delta` to the labeled series of `name` under the innermost
/// [`label_scope`] label; a no-op when no label scope is active. One
/// relaxed load while no installed recorder keeps labeled metrics.
#[inline]
pub fn labeled_counter_scoped(name: &'static str, delta: u64) {
    if keeps(Kind::Labeled) {
        if let Some(label) = current_label() {
            dispatch(|r| r.labeled_counter(name, label, delta));
        }
    }
}

/// Emits a structured event to the active recorder, if it keeps the
/// event's level. One relaxed load while no installed recorder does.
#[inline]
pub fn event(event: Event) {
    let kind = Kind::Event(event.level);
    if keeps(kind) {
        dispatch(|r| {
            if r.keeps(kind) {
                r.event(&event);
            }
        });
    }
}

/// Emits the event `name` at `level` with a lazily built payload:
/// `fields` adds the key-value fields to the bare event. Both run only
/// when the active recorder keeps events at `level`
/// ([`Kind::Event`]); while no installed recorder does, this
/// is one relaxed load, so hot paths pay for resolving names or
/// rendering values only while an audit sink is listening.
#[inline]
pub fn event_with(level: EventLevel, name: &'static str, fields: impl FnOnce(Event) -> Event) {
    let kind = Kind::Event(level);
    if keeps(kind) {
        dispatch(|r| {
            if r.keeps(kind) {
                r.event(&fields(Event::new(level, name)));
            }
        });
    }
}

/// Names the item the calling thread is about to work on, for a crash
/// report: returns a [`Breadcrumb`] whose [`Breadcrumb::set`] records
/// each item (an object surrogate, an op number) under `name` in the
/// thread's buffer of every installed flight recorder. Setting an item
/// is one relaxed store per flight recorder, with no lock and no ring
/// entry; the [`flight::crash_report`] shows the last item set while the
/// breadcrumb is alive. With no flight recorder installed, it is inert.
pub fn breadcrumb(name: &'static str) -> Breadcrumb {
    let mut slots = Vec::new();
    if enabled() {
        dispatch(|r| r.breadcrumb_slots(name, &mut slots));
    }
    Breadcrumb::new(slots)
}

/// RAII guard for a timed span; created by [`span`].
///
/// When no installed recorder keeps spans at creation the guard is
/// fully inert — it holds no `Instant` and its drop is a no-op branch.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a named span. The span closes (and its wall time is reported)
/// when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if keeps(Kind::Span) {
        dispatch(|r| r.span_enter(name));
        SpanGuard {
            name,
            start: Some(Instant::now()),
        }
    } else {
        SpanGuard { name, start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            dispatch(|r| r.span_exit(self.name, nanos));
        }
    }
}

/// `1.2MB`-style byte rendering (binary units), shared by every table
/// and report that shows memory.
pub fn format_bytes(bytes: u64) -> String {
    if bytes < 1_024 {
        format!("{bytes}B")
    } else if bytes < 1_024 * 1_024 {
        format!("{:.1}KB", bytes as f64 / 1_024.0)
    } else if bytes < 1_024 * 1_024 * 1_024 {
        format!("{:.1}MB", bytes as f64 / (1_024.0 * 1_024.0))
    } else {
        format!("{:.2}GB", bytes as f64 / (1_024.0 * 1_024.0 * 1_024.0))
    }
}

/// A [`fmt::Display`] that runs `write`: how a renderer writes straight
/// into its caller's formatter instead of building a `String` first
/// (`std::fmt::from_fn` is newer than the workspace's minimum Rust).
pub fn display_with(write: impl Fn(&mut fmt::Formatter<'_>) -> fmt::Result) -> impl fmt::Display {
    struct DisplayWith<F>(F);
    impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> fmt::Display for DisplayWith<F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (self.0)(f)
        }
    }
    DisplayWith(write)
}

/// `1.2us`-style duration rendering; milliseconds are the largest unit
/// (`1234.56ms`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_noops() {
        // No recorder in scope: these must not panic and must be cheap.
        counter("t.noop", 1);
        histogram("t.noop", 1);
        let _s = span("t.noop");
    }

    #[test]
    fn scoped_recorder_catches_events() {
        let stats = Arc::new(StatsRecorder::new());
        {
            let _g = scoped(stats.clone());
            counter("t.scoped", 2);
            counter("t.scoped", 3);
        }
        counter("t.scoped", 100); // after the scope: dropped
        assert_eq!(stats.counter_value("t.scoped"), 5);
    }

    #[test]
    fn inner_scope_shadows_outer() {
        let outer = Arc::new(StatsRecorder::new());
        let inner = Arc::new(StatsRecorder::new());
        let _a = scoped(outer.clone());
        {
            let _b = scoped(inner.clone());
            counter("t.shadow", 1);
        }
        counter("t.shadow", 10);
        assert_eq!(inner.counter_value("t.shadow"), 1);
        assert_eq!(outer.counter_value("t.shadow"), 10);
    }
}
