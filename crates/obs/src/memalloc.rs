//! Memory attribution: a tracking [`GlobalAlloc`] wrapper plus
//! thread-scoped probes.
//!
//! Binaries opt in by installing the wrapper as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: chc_obs::memalloc::TrackingAllocator =
//!     chc_obs::memalloc::TrackingAllocator;
//! ```
//!
//! Once installed, every allocation and deallocation in the process
//! updates a handful of relaxed atomics (alloc/free counts, cumulative
//! bytes, live bytes, peak live bytes). That is the *entire* fast path:
//! the allocator never dispatches into recorders — recorder sinks take
//! locks and allocate, and calling them from inside `alloc` would
//! re-enter the allocator. Attribution instead flows through
//! thread-local cells that scope guards sample from safe code:
//!
//! * [`probe`] returns a [`ThreadProbe`] measuring bytes allocated and
//!   peak net-live growth on the current thread between construction
//!   and [`ThreadProbe::stats`]. This is what `check_class` uses for
//!   per-class attribution (emitted as labeled metrics by the caller).
//! * [`span_mem`] is the fire-and-forget variant for instrumented
//!   spans (`sdl.compile`, `extent.load`, `query.execute`, ...): it
//!   probes while the guard lives and emits a counter/histogram pair
//!   at drop — but only when an installed recorder keeps counters or
//!   histograms *and* the tracking allocator is live, so binaries
//!   without the wrapper never grow spurious zero-valued `mem.*` rows in
//!   their snapshots.
//!
//! Reallocation is accounted as a free of the old size plus an
//! allocation of the new size. Per-thread "peak live" is the maximum
//! *net growth* of the thread's live bytes over the probe window
//! (clamped at zero), so a scope that only frees memory reports 0
//! rather than underflowing.

// `GlobalAlloc` is the one unsafe surface of chc-obs; everything the
// unsafe blocks do is delegate to `System` and bump atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Kind;

/// The process-wide counters. Every allocation and free on every thread
/// updates them, so they get a cache line of their own: another static
/// on it (the recorder's lock, read on every counter call) would be
/// slowed by every other thread's allocations.
#[repr(align(64))]
struct Totals {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_total: AtomicU64,
    bytes_live: AtomicU64,
    bytes_peak: AtomicU64,
}

static TOTALS: Totals = Totals {
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    bytes_total: AtomicU64::new(0),
    bytes_live: AtomicU64::new(0),
    bytes_peak: AtomicU64::new(0),
};

thread_local! {
    /// Cumulative bytes allocated by this thread (monotone).
    static TL_ALLOC: Cell<u64> = const { Cell::new(0) };
    /// Net live-byte growth on this thread since it started.
    static TL_LIVE: Cell<i64> = const { Cell::new(0) };
    /// Max of `TL_LIVE` since the innermost probe opened.
    static TL_PEAK: Cell<i64> = const { Cell::new(0) };
    /// Open [`ThreadProbe`] count; thread-local accounting is skipped
    /// entirely while it is zero.
    static TL_PROBES: Cell<u32> = const { Cell::new(0) };
}

#[inline]
fn note_alloc(size: u64) {
    TOTALS.allocs.fetch_add(1, Ordering::Relaxed);
    TOTALS.bytes_total.fetch_add(size, Ordering::Relaxed);
    let live = TOTALS.bytes_live.fetch_add(size, Ordering::Relaxed) + size;
    let mut peak = TOTALS.bytes_peak.load(Ordering::Relaxed);
    while live > peak {
        match TOTALS.bytes_peak.compare_exchange_weak(
            peak,
            live,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(seen) => peak = seen,
        }
    }
    // `try_with` so allocations during thread teardown (after TLS
    // destruction) degrade to global-only accounting instead of
    // aborting the process.
    let _ = TL_PROBES.try_with(|probes| {
        if probes.get() > 0 {
            let _ = TL_ALLOC.try_with(|c| c.set(c.get() + size));
            let _ = TL_LIVE.try_with(|c| {
                let live = c.get() + size as i64;
                c.set(live);
                let _ = TL_PEAK.try_with(|p| {
                    if live > p.get() {
                        p.set(live);
                    }
                });
            });
        }
    });
}

#[inline]
fn note_free(size: u64) {
    TOTALS.frees.fetch_add(1, Ordering::Relaxed);
    TOTALS.bytes_live.fetch_sub(size, Ordering::Relaxed);
    let _ = TL_PROBES.try_with(|probes| {
        if probes.get() > 0 {
            let _ = TL_LIVE.try_with(|c| c.set(c.get() - size as i64));
        }
    });
}

/// The tracking allocator. Zero-sized; delegates to [`System`].
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note_free(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// True once the tracking allocator has observed at least one
/// allocation — i.e. the running binary installed [`TrackingAllocator`]
/// as its `#[global_allocator]`. (Rust allocates before `main`, so by
/// the time anyone asks, an installed wrapper has always fired.)
pub fn installed() -> bool {
    TOTALS.allocs.load(Ordering::Relaxed) > 0
}

/// A point-in-time copy of the global allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Allocations observed (reallocs count once more).
    pub allocs: u64,
    /// Deallocations observed.
    pub frees: u64,
    /// Cumulative bytes allocated.
    pub bytes_total: u64,
    /// Bytes currently live.
    pub bytes_live: u64,
    /// Peak live bytes.
    pub bytes_peak: u64,
}

/// Read the global allocator counters. All zeros when the tracking
/// allocator is not installed.
pub fn snapshot() -> MemSnapshot {
    MemSnapshot {
        allocs: TOTALS.allocs.load(Ordering::Relaxed),
        frees: TOTALS.frees.load(Ordering::Relaxed),
        bytes_total: TOTALS.bytes_total.load(Ordering::Relaxed),
        bytes_live: TOTALS.bytes_live.load(Ordering::Relaxed),
        bytes_peak: TOTALS.bytes_peak.load(Ordering::Relaxed),
    }
}

/// Emits [`snapshot`] through the active recorder as the `mem.*`
/// counters (`mem.allocs`, `mem.frees`, `mem.bytes.total`,
/// `mem.bytes.live`, `mem.bytes.peak`); a no-op when the tracking
/// allocator is not installed.
pub fn record_counters() {
    use crate::names;
    if !installed() {
        return;
    }
    let m = snapshot();
    crate::counter(names::MEM_ALLOCS, m.allocs);
    crate::counter(names::MEM_FREES, m.frees);
    crate::counter(names::MEM_BYTES_TOTAL, m.bytes_total);
    crate::counter(names::MEM_BYTES_LIVE, m.bytes_live);
    crate::counter(names::MEM_BYTES_PEAK, m.bytes_peak);
}

/// [`snapshot`] as the `"mem"` object of the `chc-crash/1` and
/// `chc-profile/1` documents, with `installed` as 0 or 1.
pub fn snapshot_json() -> crate::json::JsonValue {
    use crate::json::JsonValue;
    let m = snapshot();
    JsonValue::object([
        (
            "installed",
            JsonValue::number(f64::from(u8::from(installed()))),
        ),
        ("allocs", JsonValue::number(m.allocs as f64)),
        ("frees", JsonValue::number(m.frees as f64)),
        ("bytes_total", JsonValue::number(m.bytes_total as f64)),
        ("bytes_live", JsonValue::number(m.bytes_live as f64)),
        ("bytes_peak", JsonValue::number(m.bytes_peak as f64)),
    ])
}

/// What a [`ThreadProbe`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Bytes allocated on this thread while the probe was open.
    pub bytes_allocated: u64,
    /// Peak net growth of this thread's live bytes over the probe
    /// window, clamped at zero.
    pub peak_live: u64,
}

/// Measures this thread's allocation activity between construction and
/// drop. Not `Send`: the numbers are meaningless off-thread.
///
/// Probes nest: an inner probe narrows the peak window to its own
/// lifetime and, on drop, folds its peak back into the enclosing
/// probe's window.
pub struct ThreadProbe {
    start_alloc: u64,
    start_live: i64,
    saved_peak: i64,
    _not_send: PhantomData<*const ()>,
}

/// Open a [`ThreadProbe`] on the current thread.
pub fn probe() -> ThreadProbe {
    TL_PROBES.with(|c| c.set(c.get() + 1));
    let start_live = TL_LIVE.with(Cell::get);
    let saved_peak = TL_PEAK.with(|p| {
        let saved = p.get();
        p.set(start_live);
        saved
    });
    ThreadProbe {
        start_alloc: TL_ALLOC.with(Cell::get),
        start_live,
        saved_peak,
        _not_send: PhantomData,
    }
}

impl ThreadProbe {
    /// What the probe has measured so far.
    pub fn stats(&self) -> ProbeStats {
        let bytes_allocated = TL_ALLOC.with(Cell::get).saturating_sub(self.start_alloc);
        let peak = TL_PEAK.with(Cell::get).max(TL_LIVE.with(Cell::get));
        ProbeStats {
            bytes_allocated,
            peak_live: (peak - self.start_live).max(0) as u64,
        }
    }
}

impl Drop for ThreadProbe {
    fn drop(&mut self) {
        let _ = TL_PEAK.try_with(|p| p.set(p.get().max(self.saved_peak)));
        let _ = TL_PROBES.try_with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// A fire-and-forget memory probe for instrumented spans: while the
/// guard lives it measures like [`probe`]; at drop it emits the bytes
/// allocated as a counter under `bytes_name` and the peak net-live
/// growth as a histogram observation under `peak_name`.
///
/// Inert (no probe, no emission) unless an installed recorder keeps
/// counters or histograms *and* the tracking allocator is live — see
/// the module docs.
pub struct SpanMemGuard {
    probe: Option<ThreadProbe>,
    bytes_name: &'static str,
    peak_name: &'static str,
}

/// Open a [`SpanMemGuard`]. Construct it *inside* the span it measures
/// (after the [`crate::span`] guard) so its drop-time emissions are
/// attributed to that span.
pub fn span_mem(bytes_name: &'static str, peak_name: &'static str) -> SpanMemGuard {
    let kept = crate::keeps(Kind::Counter) || crate::keeps(Kind::Histogram);
    let probe = if kept && installed() {
        Some(probe())
    } else {
        None
    };
    SpanMemGuard {
        probe,
        bytes_name,
        peak_name,
    }
}

impl Drop for SpanMemGuard {
    fn drop(&mut self) {
        if let Some(probe) = self.probe.take() {
            let stats = probe.stats();
            drop(probe);
            crate::counter(self.bytes_name, stats.bytes_allocated);
            crate::histogram(self.peak_name, stats.peak_live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Instant;

    // The chc-obs test binary runs under the tracking allocator so
    // these tests exercise the real alloc path.
    #[global_allocator]
    static TEST_ALLOC: TrackingAllocator = TrackingAllocator;

    #[test]
    fn global_counters_track_alloc_and_free() {
        let before = snapshot();
        assert!(installed(), "test binary installs the tracking allocator");
        let v: Vec<u8> = black_box(Vec::with_capacity(4096));
        let mid = snapshot();
        assert!(mid.allocs > before.allocs);
        assert!(mid.bytes_total >= before.bytes_total + 4096);
        assert!(mid.bytes_peak >= 4096);
        drop(v);
        let after = snapshot();
        assert!(after.frees > mid.frees);
    }

    #[test]
    fn probe_attributes_bytes_and_peak_to_the_thread() {
        let p = probe();
        let v: Vec<u8> = black_box(vec![0u8; 10_000]);
        let stats_live = p.stats();
        drop(v);
        let stats_after = p.stats();
        assert!(
            stats_live.bytes_allocated >= 10_000,
            "probe saw the allocation: {stats_live:?}"
        );
        assert!(stats_live.peak_live >= 10_000);
        // Freeing does not reduce cumulative bytes or the peak.
        assert!(stats_after.bytes_allocated >= stats_live.bytes_allocated);
        assert!(stats_after.peak_live >= 10_000);
    }

    #[test]
    fn nested_probe_narrows_then_folds_back_the_peak() {
        let outer = probe();
        {
            let big: Vec<u8> = black_box(vec![0u8; 50_000]);
            drop(big);
        }
        // Outer has seen a 50k peak; an inner probe must not inherit it.
        let inner = probe();
        let small: Vec<u8> = black_box(vec![0u8; 1_000]);
        let inner_stats = inner.stats();
        assert!(inner_stats.peak_live >= 1_000);
        assert!(
            inner_stats.peak_live < 50_000,
            "inner probe window excludes the outer peak: {inner_stats:?}"
        );
        drop(small);
        drop(inner);
        assert!(
            outer.stats().peak_live >= 50_000,
            "outer probe keeps its own peak after the inner closes"
        );
    }

    #[test]
    fn probe_that_only_frees_reports_zero_peak() {
        let v: Vec<u8> = black_box(vec![0u8; 8_192]);
        let p = probe();
        drop(v);
        let stats = p.stats();
        assert_eq!(stats.peak_live, 0);
    }

    #[test]
    fn other_threads_do_not_leak_into_a_probe() {
        let p = probe();
        std::thread::spawn(|| {
            let v: Vec<u8> = black_box(vec![0u8; 1 << 20]);
            black_box(v.len());
        })
        .join()
        .unwrap();
        let stats = p.stats();
        assert!(
            stats.bytes_allocated < 1 << 20,
            "megabyte allocated off-thread must not be attributed here: {stats:?}"
        );
    }

    #[test]
    fn span_mem_emits_bytes_and_peak_under_a_scoped_recorder() {
        let stats = std::sync::Arc::new(crate::StatsRecorder::new());
        {
            let _guard = crate::scoped(stats.clone());
            let mem = span_mem("mem.test.bytes", "mem.test.peak");
            let v: Vec<u8> = black_box(vec![0u8; 20_000]);
            black_box(v.len());
            drop(v);
            drop(mem);
        }
        assert!(
            stats.counter_value("mem.test.bytes") >= 20_000,
            "bytes counter records the allocation"
        );
        let peak = stats
            .histogram_summary("mem.test.peak")
            .expect("peak histogram recorded");
        assert_eq!(peak.count, 1);
        assert!(peak.max >= 20_000);
    }

    /// The allocator fast path (no probe open) must stay a few relaxed
    /// atomics: pin it with the same style of smoke test the disabled
    /// recorder path uses. 200 ns per alloc+free pair is an order of
    /// magnitude above the expected cost, low enough to catch a lock
    /// or recorder dispatch sneaking into `alloc`. The fastest of several
    /// batches is judged, so one batch preempted on a busy host does not
    /// fail the test; a slow fast path slows every batch.
    #[test]
    fn tracked_alloc_fast_path_is_cheap() {
        let iters: u32 = 200_000;
        // Warm up the allocator's size classes.
        for _ in 0..1_000 {
            black_box(Box::new(0u64));
        }
        let batch = || {
            let start = Instant::now();
            for i in 0..iters {
                black_box(Box::new(u64::from(i)));
            }
            start.elapsed().as_nanos() / u128::from(iters)
        };
        let per_pair = (0..5).map(|_| batch()).min().expect("five batches");
        assert!(
            per_pair < 200,
            "tracked alloc+free pair took {per_pair} ns in the fastest of 5 batches (limit 200 ns)"
        );
    }
}
