//! Statistical span-stack sampling.
//!
//! [`TraceRecorder`](crate::TraceRecorder) records *every* span
//! transition into a bounded ring — exact, but the ring caps history and
//! each event pays a slot. [`SpanSampler`] inverts the trade-off: it is
//! a [`Recorder`](crate::Recorder) that only maintains each thread's
//! *currently open* span stack (keyed by [`crate::thread_index`], like
//! every recorder's per-thread state), while a background thread wakes
//! on a fixed interval and snapshots every stack into folded-stack
//! counts. Long runs get statistical flamegraphs at O(threads × depth)
//! memory, no ring, and no per-event cost beyond the open-stack
//! bookkeeping.
//!
//! Sampling and span transitions serialize on one mutex, so a sample can
//! never observe a torn stack: a thread is seen either before or after a
//! `span_exit`, never mid-pop. [`SpanSampler::stop`] signals the thread
//! and joins it; every tick taken before the join is in the totals
//! (`samples() ==` sum of folded counts `+ idle()`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::threads::{lock, render_folded, PerThread, SpanStack, Ticker};

#[derive(Default)]
struct SamplerInner {
    /// Each thread's open spans, from its first span event on.
    stacks: PerThread<SpanStack<()>>,
    /// Folded stack → number of samples that observed it.
    folded: BTreeMap<String, u64>,
    /// Per-thread samples taken while the thread's stack was non-empty.
    busy: u64,
    /// Per-thread samples taken while the thread's stack was empty.
    idle: u64,
}

impl SamplerInner {
    fn tick(&mut self) {
        for stack in self.stacks.iter() {
            if stack.is_empty() {
                self.idle += 1;
            } else {
                self.busy += 1;
                let path = stack.names().collect::<Vec<_>>().join(";");
                *self.folded.entry(path).or_insert(0) += 1;
            }
        }
    }
}

/// A background span-stack sampler; see the [module docs](self).
///
/// Construct with [`SpanSampler::start`], install it like any recorder
/// (usually fanned out next to a
/// [`ProfileRecorder`](crate::ProfileRecorder)), and call
/// [`SpanSampler::stop`] before reading the folded stacks. Dropping a
/// running sampler also stops it.
pub struct SpanSampler {
    inner: Arc<Mutex<SamplerInner>>,
    ticker: Ticker,
    interval: Duration,
}

impl SpanSampler {
    /// Spawns the sampling thread, waking every `interval` (clamped to
    /// at least 10 µs so a zero interval cannot spin a core).
    pub fn start(interval: Duration) -> SpanSampler {
        let interval = interval.max(Duration::from_micros(10));
        let inner = Arc::new(Mutex::new(SamplerInner::default()));
        let sampled = Arc::clone(&inner);
        let ticker = Ticker::start("chc-obs-sampler", interval, move || {
            lock(&sampled).tick();
            true
        });
        SpanSampler {
            inner,
            ticker,
            interval,
        }
    }

    /// The sampling interval the background thread sleeps between ticks.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Signals the sampling thread and joins it — promptly, even when
    /// the interval is long. Idempotent; after it returns, the folded
    /// counts are final and include every tick taken before the join.
    pub fn stop(&self) {
        self.ticker.stop();
    }

    /// Total per-thread samples taken (busy + idle): each tick samples
    /// every thread that has entered a span once.
    pub fn samples(&self) -> u64 {
        let inner = lock(&self.inner);
        inner.busy + inner.idle
    }

    /// Per-thread samples that found an empty span stack.
    pub fn idle(&self) -> u64 {
        lock(&self.inner).idle
    }

    /// The sampled profile in folded-stack format — one
    /// `outer;inner <count>` line per distinct open-span path, sorted by
    /// path — ready for `inferno`/`flamegraph.pl`. Values are sample
    /// counts; multiply by [`SpanSampler::interval`] for wall time.
    pub fn to_folded_stacks(&self) -> String {
        render_folded(&lock(&self.inner).folded)
    }

    /// The distinct sampled paths and their counts, hottest first.
    pub fn folded_counts(&self) -> Vec<(String, u64)> {
        let inner = lock(&self.inner);
        let mut v: Vec<(String, u64)> = inner.folded.iter().map(|(p, &c)| (p.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl crate::Recorder for SpanSampler {
    fn keeps(&self, kind: crate::Kind) -> bool {
        kind == crate::Kind::Span
    }

    fn span_enter(&self, name: &'static str) {
        lock(&self.inner).stacks.mine().1.enter(name, ());
    }

    fn span_exit(&self, name: &'static str, _nanos: u64) {
        lock(&self.inner).stacks.mine().1.exit(name, |_, _, ()| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder as _;
    use std::thread;

    #[test]
    fn clean_shutdown_joins_without_losing_samples() {
        let sampler = SpanSampler::start(Duration::from_micros(50));
        sampler.span_enter("t.outer");
        sampler.span_enter("t.inner");
        // One thread has entered a span, so each tick takes one sample.
        while sampler.samples() < 20 {
            thread::sleep(Duration::from_micros(100));
        }
        sampler.span_exit("t.inner", 1);
        sampler.span_exit("t.outer", 1);
        sampler.stop();
        sampler.stop(); // idempotent
        let folded: u64 = sampler.folded_counts().iter().map(|&(_, c)| c).sum();
        assert_eq!(
            sampler.samples(),
            folded + sampler.idle(),
            "every sample is either in a folded stack or idle"
        );
        assert!(folded >= 20, "open spans must have been observed");
        let after = sampler.samples();
        thread::sleep(Duration::from_millis(2));
        assert_eq!(sampler.samples(), after, "no ticks after join");
        assert!(sampler
            .folded_counts()
            .iter()
            .any(|(p, _)| p == "t.outer;t.inner"));
    }

    #[test]
    fn sampling_mid_span_exit_never_tears_a_stack() {
        let sampler = Arc::new(SpanSampler::start(Duration::from_micros(20)));
        let worker = {
            let sampler = Arc::clone(&sampler);
            thread::spawn(move || {
                for _ in 0..20_000 {
                    sampler.span_enter("t.a");
                    sampler.span_enter("t.b");
                    sampler.span_exit("t.b", 1);
                    // Exit out of order once in a while: close t.a with
                    // t.c still open; the stack must stay well-formed.
                    sampler.span_enter("t.c");
                    sampler.span_exit("t.a", 1);
                }
            })
        };
        worker.join().expect("worker");
        sampler.stop();
        let folded = sampler.to_folded_stacks();
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
            assert!(!path.is_empty() && !path.starts_with(';') && !path.ends_with(';'));
            assert!(!path.contains(";;"), "torn stack in {line:?}");
            count.parse::<u64>().expect("count is a number");
            for frame in path.split(';') {
                assert!(
                    ["t.a", "t.b", "t.c"].contains(&frame),
                    "unknown frame in {line:?}"
                );
            }
        }
    }

    #[test]
    fn stop_returns_promptly_even_with_a_long_interval() {
        let sampler = SpanSampler::start(Duration::from_secs(3600));
        sampler.span_enter("t.x");
        let start = std::time::Instant::now();
        sampler.stop();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stop must wake the sleeping thread, not wait out the interval"
        );
    }

    #[test]
    fn tracks_threads_independently() {
        let sampler = Arc::new(SpanSampler::start(Duration::from_micros(50)));
        sampler.span_enter("t.main");
        let other = {
            let sampler = Arc::clone(&sampler);
            thread::spawn(move || {
                sampler.span_enter("t.worker");
                thread::sleep(Duration::from_millis(5));
                sampler.span_exit("t.worker", 1);
            })
        };
        thread::sleep(Duration::from_millis(5));
        other.join().expect("worker");
        sampler.span_exit("t.main", 1);
        sampler.stop();
        let paths: Vec<String> = sampler
            .folded_counts()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert!(paths.iter().any(|p| p == "t.main"), "main thread sampled");
        assert!(paths.iter().any(|p| p == "t.worker"), "worker sampled");
        assert!(
            !paths.iter().any(|p| p.contains("t.main;t.worker")),
            "stacks never bleed across threads"
        );
    }
}
