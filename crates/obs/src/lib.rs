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
//!   ([`event`], [`event_with`], whose payload is built only for sinks
//!   that read it) — see [`events`],
//! * **labeled metrics** and **distinct-work tracking** for cost
//!   attribution ([`labeled_counter`], [`labeled_histogram`],
//!   [`distinct`], [`label_scope`]) — see [`profile`],
//!
//! behind a cheap [`Recorder`] trait. When no recorder is installed
//! (the default), every instrumentation call is a single relaxed atomic
//! load and a predictable branch — instrumented hot paths cost ~nothing.
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
pub use flight::{CrashWriter, FlightEntry, FlightKind, FlightRecorder, Watchdog};
pub use memalloc::{MemSnapshot, ProbeStats, ThreadProbe, TrackingAllocator};
pub use profile::{LabeledSnapshot, ProfileRecorder};
pub use sampler::SpanSampler;
pub use stats::{Histogram, HistogramSummary, SpanNode, StatsRecorder};
pub use threads::thread_index;
pub use trace::{FanoutRecorder, TraceEvent, TraceEventKind, TraceRecorder};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A sink for instrumentation events. Every method defaults to
/// discarding its observation, so a sink implements only what it keeps.
///
/// Implementations must be cheap to call re-entrantly; the instrumented
/// crates call these from hot loops whenever a recorder is installed.
pub trait Recorder: Send + Sync {
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
    /// A structured event was emitted. Recorders that aggregate numeric
    /// work (stats, traces) ignore the audit stream; [`AuditRecorder`]
    /// retains it.
    ///
    /// Events emitted through [`event_with`] carry their fields only
    /// when [`Recorder::reads_event_payloads`] says this sink reads
    /// them; otherwise `event` sees the name and level alone.
    fn event(&self, _event: &events::Event) {}
    /// Whether this sink reads the fields of events at `level`.
    /// [`event_with`] runs its payload closure only when the active
    /// recorder answers yes, so a sink that keeps names at most (the
    /// flight recorder) never pays for rendering values. Defaults to
    /// `false`; a sink that overrides [`Recorder::event`] to read
    /// fields must override this too.
    fn reads_event_payloads(&self, _level: EventLevel) -> bool {
        false
    }
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

/// Number of live recorder installations (global plus scoped). While
/// zero, instrumentation calls return after one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    static LOCAL: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// True if any recorder (global or scoped-on-this-thread) may be live.
///
/// Use this to skip *preparing* expensive event payloads; the emit
/// functions already check it internally.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
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
    if g.replace(recorder).is_none() {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes the process-wide recorder installed by [`set_global`].
pub fn clear_global() {
    let mut g = GLOBAL.write().expect("obs global lock");
    if g.take().is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
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
    LOCAL.with(|l| l.borrow_mut().push(recorder));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    ScopeGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().pop());
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Adds `delta` to the named counter on the active recorder, if any.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        dispatch(|r| r.counter(name, delta));
    }
}

/// Records `value` into the named histogram on the active recorder.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        dispatch(|r| r.histogram(name, value));
    }
}

/// Adds `delta` to the named counter under `label` (class id, query id,
/// pair hash, …) on the active recorder. One relaxed load when disabled.
#[inline]
pub fn labeled_counter(name: &'static str, label: u64, delta: u64) {
    if enabled() {
        dispatch(|r| r.labeled_counter(name, label, delta));
    }
}

/// Records `value` into the named histogram under `label` on the active
/// recorder. One relaxed load when disabled.
#[inline]
pub fn labeled_histogram(name: &'static str, label: u64, value: u64) {
    if enabled() {
        dispatch(|r| r.labeled_histogram(name, label, value));
    }
}

/// Reports a distinct-work observation: recorders that track duplicate
/// work bump the counter `name` only the first time they see `key`.
/// One relaxed load when disabled.
#[inline]
pub fn distinct(name: &'static str, key: u64) {
    if enabled() {
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
/// (or query) being processed. Callers should gate on [`enabled`] — the
/// stack is maintained unconditionally.
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
/// [`label_scope`] label; a no-op when no label scope is active (or no
/// recorder is installed). One relaxed load when disabled.
#[inline]
pub fn labeled_counter_scoped(name: &'static str, delta: u64) {
    if enabled() {
        if let Some(label) = current_label() {
            dispatch(|r| r.labeled_counter(name, label, delta));
        }
    }
}

/// Emits a structured event to the active recorder, if any.
#[inline]
pub fn event(event: Event) {
    if enabled() {
        dispatch(|r| r.event(&event));
    }
}

/// Emits the event `name` at `level` with a lazily built payload:
/// `fields` adds the key-value fields to the bare event, and runs only
/// when the active recorder reads payloads at `level`
/// ([`Recorder::reads_event_payloads`]). Every other sink receives the
/// bare event, so hot paths pay for resolving names or rendering values
/// only while an audit sink is listening.
#[inline]
pub fn event_with(level: EventLevel, name: &'static str, fields: impl FnOnce(Event) -> Event) {
    if enabled() {
        dispatch(|r| {
            let event = Event::new(level, name);
            let event = if r.reads_event_payloads(level) {
                fields(event)
            } else {
                event
            };
            r.event(&event);
        });
    }
}

/// RAII guard for a timed span; created by [`span`].
///
/// When no recorder is active at creation the guard is fully inert — it
/// holds no `Instant` and its drop is a no-op branch.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a named span. The span closes (and its wall time is reported)
/// when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
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
