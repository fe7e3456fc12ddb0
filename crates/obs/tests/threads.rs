//! Multi-threaded recording stress tests.
//!
//! `scoped()` recorders are thread-local by design: two threads metering
//! their own regions concurrently must never cross-attribute counters or
//! interleave each other's span trees, even though a global recorder may
//! also be installed. Loom is out of reach offline, so this is a
//! seeded-schedule stress test on std threads: every thread derives its
//! op sequence (span nesting, counter bumps, yields) from a SplitMix64
//! stream, a barrier lines the threads up to maximize interleaving, and
//! the expected per-thread totals are recomputed independently.

use std::sync::{Arc, Barrier};

use chc_obs::{FanoutRecorder, StatsRecorder, TraceEventKind, TraceRecorder};

/// SplitMix64, same constants as `chc_workloads::rng` (obs cannot
/// depend on workloads without a cycle).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

const SPANS: [&str; 4] = ["t.a", "t.b", "t.c", "t.d"];

/// Runs one seeded op sequence against the active recorder, returning
/// the exact counter total the recorder should have seen.
fn run_schedule(seed: u64, ops: usize) -> u64 {
    let mut rng = Rng(seed);
    let mut expected = 0u64;
    let mut depth = 0usize;
    let mut guards: Vec<chc_obs::SpanGuard> = Vec::new();
    for _ in 0..ops {
        match rng.next() % 4 {
            0 if depth < SPANS.len() => {
                guards.push(chc_obs::span(SPANS[depth]));
                depth += 1;
            }
            1 if depth > 0 => {
                guards.pop();
                depth -= 1;
            }
            2 => {
                let delta = rng.next() % 16;
                chc_obs::counter("t.work", delta);
                expected += delta;
            }
            _ => std::thread::yield_now(),
        }
    }
    // Close innermost-first (a Vec drops front-to-back, which would
    // exit the outermost span while its children are still open).
    while guards.pop().is_some() {}
    expected
}

#[test]
fn concurrent_scoped_recorders_do_not_cross_attribute() {
    let threads = 8;
    let ops = 4000;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let stats = Arc::new(StatsRecorder::new());
                let trace = Arc::new(TraceRecorder::new());
                let fan: Arc<dyn chc_obs::Recorder> = Arc::new(FanoutRecorder::new(vec![
                    stats.clone() as Arc<dyn chc_obs::Recorder>,
                    trace.clone() as Arc<dyn chc_obs::Recorder>,
                ]));
                barrier.wait();
                let expected = {
                    let _guard = chc_obs::scoped(fan);
                    run_schedule(0xC0FFEE + t, ops)
                };
                (t, chc_obs::thread_index() as u32, expected, stats, trace)
            })
        })
        .collect();
    for h in handles {
        let (t, tid, expected, stats, trace) = h.join().expect("thread survives");
        // Exact attribution: each recorder saw its own thread's deltas,
        // all of them, and nothing else.
        assert_eq!(
            stats.counter_value("t.work"),
            expected,
            "thread {t} counter total"
        );
        // The span tree is well formed: only the expected names, and the
        // nesting discipline (t.a at depth 0, t.b below it, …) held.
        fn check(node: &chc_obs::SpanNode, depth: usize, t: u64) {
            assert_eq!(node.name, SPANS[depth], "thread {t} nesting");
            for child in &node.children {
                check(child, depth + 1, t);
            }
        }
        for root in stats.span_roots() {
            check(&root, 0, t);
        }
        // The event timeline is well nested per thread and single-tid.
        let events = trace.events();
        assert!(
            events.iter().all(|e| e.tid == tid),
            "thread {t} saw one tid, its own"
        );
        let mut stack = Vec::new();
        for ev in &events {
            match ev.kind {
                TraceEventKind::Begin => stack.push(ev.name),
                TraceEventKind::End => {
                    assert_eq!(stack.pop(), Some(ev.name), "thread {t} B/E nesting");
                }
            }
        }
        // Every span was closed, so the sum of End-event deltas plus
        // unattributed deltas accounts for every bump.
        let trace_total: u64 = events
            .iter()
            .flat_map(|e| e.counters.get("t.work").copied())
            .sum::<u64>()
            + trace
                .unattributed_counters()
                .iter()
                .find(|(n, _)| *n == "t.work")
                .map(|(_, v)| *v)
                .unwrap_or(0);
        assert_eq!(trace_total, expected, "thread {t} trace counter total");
    }
}

#[test]
fn global_and_scoped_recorders_coexist_across_threads() {
    // A process-wide recorder catches threads without a scope; threads
    // with a scope shadow it completely.
    let global = Arc::new(StatsRecorder::new());
    chc_obs::set_global(global.clone());
    let barrier = Arc::new(Barrier::new(2));
    let b2 = barrier.clone();
    let scoped_thread = std::thread::spawn(move || {
        let mine = Arc::new(StatsRecorder::new());
        b2.wait();
        {
            let _g = chc_obs::scoped(mine.clone());
            for _ in 0..500 {
                chc_obs::counter("t.scoped_only", 1);
            }
        }
        mine
    });
    let b3 = barrier.clone();
    let global_thread = std::thread::spawn(move || {
        b3.wait();
        for _ in 0..500 {
            chc_obs::counter("t.global_only", 2);
        }
    });
    let mine = scoped_thread.join().unwrap();
    global_thread.join().unwrap();
    chc_obs::clear_global();
    assert_eq!(mine.counter_value("t.scoped_only"), 500);
    assert_eq!(mine.counter_value("t.global_only"), 0);
    assert_eq!(global.counter_value("t.global_only"), 1000);
    assert_eq!(global.counter_value("t.scoped_only"), 0);
}

#[test]
fn one_trace_recorder_shared_by_many_threads_keeps_tids_apart() {
    // The CLI installs a single global TraceRecorder; if the traced code
    // ever goes parallel, per-thread open-span stacks must keep each
    // thread's timeline self-consistent.
    let trace = Arc::new(TraceRecorder::new());
    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let trace = trace.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let r: Arc<dyn chc_obs::Recorder> = trace;
                barrier.wait();
                for _ in 0..200 {
                    r.span_enter("t.outer");
                    r.counter("t.n", 1);
                    r.span_enter("t.inner");
                    r.span_exit("t.inner", 0);
                    r.span_exit("t.outer", 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let events = trace.events();
    let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), threads, "each thread got its own tid");
    for &tid in &tids {
        let mut stack = Vec::new();
        for ev in events.iter().filter(|e| e.tid == tid) {
            match ev.kind {
                TraceEventKind::Begin => stack.push(ev.name),
                TraceEventKind::End => assert_eq!(stack.pop(), Some(ev.name)),
            }
        }
        assert!(stack.is_empty(), "tid {tid} timeline closed");
    }
    // Counter attribution stayed on the right thread's spans: every
    // t.outer end event carries exactly its own bump.
    for ev in events
        .iter()
        .filter(|e| e.kind == TraceEventKind::End && e.name == "t.outer")
    {
        assert_eq!(ev.counters.get("t.n"), Some(&1));
    }
}

#[test]
fn one_stats_recorder_shared_by_many_threads_keeps_trees_apart() {
    // The StatsRecorder twin of the test above: `chc load --trace`
    // installs one global StatsRecorder that every worker thread reports
    // to, so each thread must grow its own span tree. Thread `t` opens
    // only spans named for it and bumps `t.n` by `t + 1` in its outer
    // span and by `10 * (t + 1)` in its inner one.
    const OUTER: [&str; 4] = ["t0.outer", "t1.outer", "t2.outer", "t3.outer"];
    const INNER: [&str; 4] = ["t0.inner", "t1.inner", "t2.inner", "t3.inner"];
    const ROUNDS: usize = 200;
    let stats = Arc::new(StatsRecorder::new());
    let barrier = Arc::new(Barrier::new(OUTER.len()));
    let handles: Vec<_> = (0..OUTER.len())
        .map(|t| {
            let stats = stats.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let r: Arc<dyn chc_obs::Recorder> = stats;
                barrier.wait();
                for _ in 0..ROUNDS {
                    r.span_enter(OUTER[t]);
                    r.counter("t.n", t as u64 + 1);
                    std::thread::yield_now();
                    r.span_enter(INNER[t]);
                    r.counter("t.n", 10 * (t as u64 + 1));
                    std::thread::yield_now();
                    r.span_exit(INNER[t], 1);
                    r.span_exit(OUTER[t], 2);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let roots = stats.span_roots();
    assert_eq!(roots.len(), OUTER.len() * ROUNDS, "one root per round");
    for root in &roots {
        let t = OUTER
            .iter()
            .position(|&n| n == root.name)
            .unwrap_or_else(|| panic!("root {} is not an outer span", root.name));
        let bumps = |node: &chc_obs::SpanNode| node.counters.get("t.n").copied();
        assert_eq!(bumps(root), Some(t as u64 + 1), "{} counters", root.name);
        assert_eq!(
            root.children.len(),
            1,
            "{} has its own inner span only",
            root.name
        );
        let inner = &root.children[0];
        assert_eq!(inner.name, INNER[t], "children come from the root's thread");
        assert_eq!(
            bumps(inner),
            Some(10 * (t as u64 + 1)),
            "{} counters",
            inner.name
        );
        assert!(inner.children.is_empty(), "{} has no children", inner.name);
    }
    assert_eq!(
        stats.counter_value("t.n"),
        ROUNDS as u64 * 11 * (1 + 2 + 3 + 4)
    );
}
