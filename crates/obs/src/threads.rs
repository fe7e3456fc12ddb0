//! The per-thread substrate under every recorder: one process-wide
//! thread index ([`thread_index`]) that keys every recorder's
//! per-thread state ([`PerThread`], or the flight recorder's buffers),
//! one open-span stack with the one out-of-order-exit policy
//! ([`SpanStack::exit`]), one folded-stack renderer ([`render_folded`])
//! and one stop-promptly background thread ([`Ticker`]) for the sampler
//! and the watchdog.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

static NEXT_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's dense process-wide index: 0 for the first
/// thread a recorder saw, then 1, 2, … in order of first call. Indices
/// are never reused. This is the `tid` of [`crate::TraceEvent`], the
/// `thread` of [`crate::FlightEntry`] and the order of the
/// [`crate::StatsRecorder`] span trees, so all three name the same
/// thread.
pub fn thread_index() -> usize {
    INDEX.with(|index| {
        if index.get() == usize::MAX {
            index.set(NEXT_INDEX.fetch_add(1, Ordering::Relaxed));
        }
        index.get()
    })
}

/// Locks `mutex` even if a panicking thread poisoned it: the crash
/// report and the `--*-out` files are written from a panic hook, and a
/// black box that will not open after a crash defeats its purpose. Every
/// recorder update under these locks leaves the data consistent at each
/// step (nothing in them panics short of an aborting allocation
/// failure), so a poisoned guard is safe to read.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's open spans, outermost first, each with the value its
/// recorder keeps per open span.
#[derive(Debug)]
pub(crate) struct SpanStack<T>(Vec<(&'static str, T)>);

impl<T> Default for SpanStack<T> {
    fn default() -> Self {
        SpanStack(Vec::new())
    }
}

impl<T> SpanStack<T> {
    /// Opens the span `name`.
    pub(crate) fn enter(&mut self, name: &'static str, value: T) {
        self.0.push((name, value));
    }

    /// Closes the innermost open span named `name` and every span
    /// opened after it, innermost first, handing each to `close` with
    /// the stack that remains under it. Does nothing when no span of
    /// that name is open.
    pub(crate) fn exit(
        &mut self,
        name: &'static str,
        mut close: impl FnMut(&mut Self, &'static str, T),
    ) {
        if let Some(at) = self.0.iter().rposition(|&(open, _)| open == name) {
            while self.0.len() > at {
                let (name, value) = self.0.pop().expect("the stack holds the span at `at`");
                close(self, name, value);
            }
        }
    }

    /// The innermost open span's value.
    pub(crate) fn innermost(&mut self) -> Option<&mut T> {
        self.0.last_mut().map(|(_, value)| value)
    }

    /// Whether no span is open.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The open spans' names, outermost first.
    pub(crate) fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(name, _)| name)
    }

    /// The open spans' values, outermost first.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|(_, value)| value)
    }
}

/// One recorder's state per thread, keyed by [`thread_index`].
#[derive(Debug, Default)]
pub(crate) struct PerThread<T>(Vec<Option<T>>);

impl<T: Default> PerThread<T> {
    /// The calling thread's index and state, created on first use.
    pub(crate) fn mine(&mut self) -> (usize, &mut T) {
        let index = thread_index();
        if self.0.len() <= index {
            self.0.resize_with(index + 1, || None);
        }
        (index, self.0[index].get_or_insert_with(T::default))
    }

    /// Every thread's state that exists, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }
}

/// Folded-stack text for flamegraph tools: one `a;b;c <value>` line per
/// path, sorted by path.
pub(crate) fn render_folded(folded: &BTreeMap<String, u64>) -> String {
    folded
        .iter()
        .map(|(path, value)| format!("{path} {value}\n"))
        .collect()
}

/// A named background thread that calls `tick` every interval until
/// `tick` returns `false` or [`Ticker::stop`] is called. The wait is a
/// condvar wait, so a stop wakes the thread at once: shutdown waits for
/// the tick in flight, never for the rest of the interval. Dropping the
/// ticker stops it.
pub(crate) struct Ticker {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Ticker {
    pub(crate) fn start(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> Ticker {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (flag, cvar) = &*signal;
                let mut stopped = lock(flag);
                // Checked before every wait: a stop may have set the flag
                // (and fired its unheard notification) before this thread
                // first took the lock.
                while !*stopped {
                    let (guard, wait) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if !*stopped && wait.timed_out() && !tick() {
                        return;
                    }
                }
            })
            .unwrap_or_else(|e| panic!("spawn {name} thread: {e}"));
        Ticker {
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Signals the thread and joins it. Idempotent; after it returns no
    /// tick runs.
    pub(crate) fn stop(&self) {
        let (flag, cvar) = &*self.stop;
        *lock(flag) = true;
        cvar.notify_all();
        if let Some(handle) = lock(&self.handle).take() {
            // A tick that panicked was reported by the panic hook; all
            // stopping needs is the thread gone.
            let _ = handle.join();
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
    }
}
