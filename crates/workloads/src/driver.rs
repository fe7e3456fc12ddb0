//! A closed/open-loop load harness over the excuses library.
//!
//! The paper's §6 asks that the excused-contradiction model hold up
//! under realistic mixed workloads ("statistics about exceptional
//! cases"); this module is the measurement surface for that claim and
//! for every later scale PR. It drives configurable mixes of
//! validate / query / insert / evolve operations against a [`Target`] —
//! today the in-process library ([`LibraryTarget`]), later a `chcd`
//! daemon — in two modes:
//!
//! * **closed loop**: N worker threads, each issuing the next operation
//!   as soon as the previous one (plus optional think time) completes.
//!   Throughput is an *output*; latency excludes queueing.
//! * **open loop**: operations arrive at a fixed rate on a shared
//!   schedule; latency is measured from the *intended* arrival time, so
//!   a stalled server accrues queueing delay instead of silently
//!   dropping load (coordinated-omission correction).
//!
//! The operation sequence is a pure function of `(seed, mix)` through
//! the in-tree SplitMix64 — the same config replays the same operation
//! kinds and parameters regardless of thread count, which the
//! determinism tests pin. Per-worker latency recorders
//! ([`chc_obs::Histogram`]) merge exactly like `chc-obs` trace tids:
//! each thread records locally, the driver folds them after the run.
//!
//! Results land in three sinks: `chc-load/1` JSON lines for
//! `$CHC_BENCH_JSON` (guarded by `chc_bench::gate`), a human-readable
//! text table, and a self-contained HTML report ([`report`]).

pub mod report;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use chc_core::{virtualize, MissingPolicy, Semantics, ValidationOptions, Virtualized};
use chc_extent::{refresh_virtual_extents, validate_stored, ExtentStore};
use chc_model::{ClassId, Oid, Schema, Sym, Value};
use chc_obs::{Histogram, HistogramSummary};
use chc_query::{compile as compile_query, execute, CheckMode, Plan, Query};
use chc_types::{Atom, EntityFacts, TypeContext};

use crate::hospital::{build as build_hospital, HospitalParams};
use crate::rng::SplitMix64;

/// The four operation kinds a mix weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Validate one stored object against the schema (§5.2 semantics).
    Validate,
    /// Execute one compiled query plan (§5.4 check elimination).
    Query,
    /// Create one object and fill its attributes admissibly.
    Insert,
    /// Toggle an object's membership in a subclass, then re-validate —
    /// the §6 veracity story as an online operation.
    Evolve,
}

impl OpKind {
    /// All kinds, in mix-spec order.
    pub const ALL: [OpKind; 4] = [OpKind::Validate, OpKind::Query, OpKind::Insert, OpKind::Evolve];

    /// Stable lowercase name (mix-spec key and JSON id segment).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Validate => "validate",
            OpKind::Query => "query",
            OpKind::Insert => "insert",
            OpKind::Evolve => "evolve",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Validate => 0,
            OpKind::Query => 1,
            OpKind::Insert => 2,
            OpKind::Evolve => 3,
        }
    }
}

/// Integer weights per operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSpec {
    /// Weight per kind, in [`OpKind::ALL`] order.
    pub weights: [u32; 4],
}

impl Default for MixSpec {
    /// The ISSUE/ROADMAP reference mix: validate-heavy with a trickle of
    /// writes (`validate=70,query=20,insert=9,evolve=1`).
    fn default() -> Self {
        MixSpec { weights: [70, 20, 9, 1] }
    }
}

impl MixSpec {
    /// Parses `validate=70,query=20,insert=9,evolve=1`. Omitted kinds
    /// get weight 0; at least one weight must be positive.
    pub fn parse(spec: &str) -> Result<MixSpec, String> {
        let mut weights = [0u32; 4];
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry `{part}` is not `kind=weight`"))?;
            let weight: u32 = value
                .trim()
                .parse()
                .map_err(|e| format!("mix weight `{value}`: {e}"))?;
            let kind = OpKind::ALL
                .iter()
                .find(|k| k.name() == key.trim())
                .ok_or_else(|| format!("unknown mix kind `{}` (validate|query|insert|evolve)", key.trim()))?;
            weights[kind.index()] = weight;
        }
        if weights.iter().all(|&w| w == 0) {
            return Err(format!("mix `{spec}` has no positive weight"));
        }
        Ok(MixSpec { weights })
    }

    /// Total weight (> 0 by construction via [`MixSpec::parse`]).
    pub fn total(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }

    /// Canonical `validate=70,query=20,...` rendering (zero weights kept,
    /// so the string round-trips through [`MixSpec::parse`]).
    pub fn render(&self) -> String {
        OpKind::ALL
            .iter()
            .map(|k| format!("{}={}", k.name(), self.weights[k.index()]))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// One generated operation: the kind plus raw random payloads that the
/// target resolves against its current state (`pick` selects objects /
/// plans / recipes, `aux` breaks secondary ties, `value_seed` seeds
/// value generation for inserts). Keeping the payloads raw — rather than
/// resolved object ids — is what makes the *sequence* a pure function of
/// `(seed, mix)` even though the store mutates underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// Position in the global operation sequence.
    pub index: u64,
    /// The operation kind, drawn from the mix weights.
    pub kind: OpKind,
    /// Primary selector payload.
    pub pick: u64,
    /// Secondary selector payload.
    pub aux: u64,
    /// Seed for any further per-operation randomness (insert values).
    pub value_seed: u64,
}

/// Stateless random-access generator: `op_at(i)` depends only on
/// `(seed, mix, i)`, so N workers can claim indices from a shared
/// counter and the executed sequence `0..total` is identical to a
/// single-threaded run.
#[derive(Debug, Clone)]
pub struct OpGenerator {
    seed: u64,
    mix: MixSpec,
}

impl OpGenerator {
    /// A generator for this seed and mix.
    pub fn new(seed: u64, mix: MixSpec) -> Self {
        OpGenerator { seed, mix }
    }

    /// The `i`-th operation of the sequence.
    pub fn op_at(&self, i: u64) -> Operation {
        // Decorrelate neighboring indices: a plain `seed + i·γ` would
        // make op i's draws overlap op i+1's, since SplitMix64 state
        // advances by a constant. One warm-up draw after an odd-multiplier
        // jolt gives each index an independent-looking stream.
        let mut rng = SplitMix64::new(self.seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        let roll = rng.next_u64() % self.mix.total();
        let mut acc = 0u64;
        let mut kind = OpKind::Validate;
        for k in OpKind::ALL {
            acc += self.mix.weights[k.index()] as u64;
            if roll < acc {
                kind = k;
                break;
            }
        }
        Operation {
            index: i,
            kind,
            pick: rng.next_u64(),
            aux: rng.next_u64(),
            value_seed: rng.next_u64(),
        }
    }
}

/// The outcome of one operation, as reported by the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Did the operation succeed (e.g. validation found no violations)?
    pub ok: bool,
    /// A target-defined work figure (rows scanned, violations found, …).
    pub work: u64,
}

/// Something the driver can aim traffic at. Implemented in-process by
/// [`LibraryTarget`]; a future `chcd` client implements the same trait,
/// which is why the driver never touches the library directly.
pub trait Target: Send + Sync {
    /// Executes one operation against the target.
    fn run(&self, op: &Operation) -> OpOutcome;

    /// `(setting, value)` rows for the report's setup table.
    fn setup_rows(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// How traffic is issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// N workers, next op when the previous completes (+ think time).
    Closed {
        /// Worker threads.
        threads: usize,
        /// Pause between an operation's completion and the next issue.
        think: Duration,
    },
    /// Fixed arrival rate on a shared schedule; latency is measured from
    /// the intended arrival time (coordinated-omission corrected).
    Open {
        /// Worker threads servicing the arrival schedule.
        threads: usize,
        /// Target arrivals per second.
        rate: f64,
    },
}

impl Mode {
    fn threads(&self) -> usize {
        match *self {
            Mode::Closed { threads, .. } | Mode::Open { threads, .. } => threads.max(1),
        }
    }

    fn describe(&self) -> String {
        match *self {
            Mode::Closed { threads, think } if think.is_zero() => {
                format!("closed ({} thread(s))", threads.max(1))
            }
            Mode::Closed { threads, think } => {
                format!("closed ({} thread(s), think {think:?})", threads.max(1))
            }
            Mode::Open { threads, rate } => {
                format!("open ({} thread(s), {rate:.0} ops/s)", threads.max(1))
            }
        }
    }
}

/// When the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Wall-clock budget.
    Duration(Duration),
    /// Exact operation count — the reproducible choice for tests and the
    /// bench gate (the executed sequence is then thread-count invariant).
    Ops(u64),
}

/// A load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Identifier for JSON ids (`load/<id>/<op>`) and report titles.
    pub id: String,
    /// Operation mix weights.
    pub mix: MixSpec,
    /// Closed or open loop.
    pub mode: Mode,
    /// Duration or op-count budget.
    pub stop: StopRule,
    /// Seed for the operation sequence.
    pub seed: u64,
    /// Time-series bucket width; [`Duration::ZERO`] picks one
    /// automatically (stop budget / 50, clamped into 50 ms ..= 1 s).
    pub window: Duration,
    /// `CHC_BENCH_SLOW`-style perturbation: operations whose
    /// `load/<id>/<op>` id contains this substring run twice per
    /// recorded latency — an honest ~2× regression for gate testing.
    pub slow_match: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            id: "load".to_string(),
            mix: MixSpec::default(),
            mode: Mode::Closed { threads: 1, think: Duration::ZERO },
            stop: StopRule::Ops(1_000),
            seed: 0xC_10AD,
            window: Duration::ZERO,
            slow_match: std::env::var("CHC_BENCH_SLOW").ok().filter(|s| !s.is_empty()),
        }
    }
}

impl LoadConfig {
    fn effective_window(&self) -> Duration {
        if !self.window.is_zero() {
            return self.window;
        }
        let budget = match self.stop {
            StopRule::Duration(d) => d,
            StopRule::Ops(_) => Duration::from_secs(5),
        };
        (budget / 50).clamp(Duration::from_millis(50), Duration::from_secs(1))
    }
}

/// Parses `5s`, `250ms`, `1m`, or a bare number of seconds.
pub fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let (digits, unit) = match text.find(|c: char| !c.is_ascii_digit() && c != '.') {
        Some(at) => text.split_at(at),
        None => (text, "s"),
    };
    let value: f64 = digits
        .parse()
        .map_err(|e| format!("duration `{text}`: {e}"))?;
    let secs = match unit.trim() {
        "s" | "sec" | "" => value,
        "ms" => value / 1_000.0,
        "us" => value / 1_000_000.0,
        "m" | "min" => value * 60.0,
        other => return Err(format!("duration `{text}`: unknown unit `{other}`")),
    };
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("duration `{text}` is not a non-negative time"));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Per-op-type result block.
#[derive(Debug, Clone)]
pub struct OpTypeStats {
    /// The operation kind.
    pub kind: OpKind,
    /// Operations executed.
    pub ops: u64,
    /// Operations whose outcome was ok.
    pub ok: u64,
    /// Operations whose outcome was a failure.
    pub failed: u64,
    /// Latency distribution in nanoseconds.
    pub latency: HistogramSummary,
}

/// One time-series bucket: throughput plus tail latency over the window.
#[derive(Debug, Clone, Copy)]
pub struct WindowPoint {
    /// Offset of the window start from the run start.
    pub start: Duration,
    /// Operations completed in the window.
    pub ops: u64,
    /// 95th-percentile latency over the window, ns (0 if empty).
    pub p95_ns: u64,
}

/// Everything a run produced, ready for the three sinks.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// The configured id.
    pub id: String,
    /// The mix, canonically rendered.
    pub mix: MixSpec,
    /// Human description of the mode.
    pub mode_desc: String,
    /// Worker threads used.
    pub threads: usize,
    /// Sequence seed.
    pub seed: u64,
    /// Wall clock from first issue to last completion.
    pub elapsed: Duration,
    /// The time-series bucket width used.
    pub window: Duration,
    /// Total operations executed.
    pub total_ops: u64,
    /// Per-kind stats, in [`OpKind::ALL`] order, zero-op kinds omitted.
    pub per_op: Vec<OpTypeStats>,
    /// All-kinds latency distribution.
    pub overall: HistogramSummary,
    /// Throughput + p95 time series (trailing empty windows trimmed).
    pub windows: Vec<WindowPoint>,
    /// Target-provided setup rows for the report.
    pub setup: Vec<(String, String)>,
    /// Memory footprint over the run, when the host binary installed
    /// the [`chc_obs::memalloc`] tracking allocator (`None` otherwise).
    pub mem: Option<MemUsage>,
}

/// Memory footprint of a load run, from the tracking allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemUsage {
    /// Bytes allocated process-wide during the run.
    pub bytes_allocated: u64,
    /// Peak live bytes process-wide (includes setup before the run).
    pub bytes_peak: u64,
    /// Bytes live when the run finished.
    pub bytes_live: u64,
}

impl LoadSummary {
    /// Overall throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }

    /// The `chc-load/1` JSON lines for `$CHC_BENCH_JSON`: one line per
    /// op kind plus an `all` aggregate. Each line doubles as a
    /// `type: "bench"` record (`median_ns`/`min_ns`/`max_ns`/`samples`/
    /// `iters`), so `bench-diff collect` folds load latencies into the
    /// same gate that guards the micro-benches.
    ///
    /// `min_ns` is reported as the p10 of the op-latency distribution,
    /// not the global minimum: a micro-bench sample is a batch *mean*
    /// (its min is already a robust statistic), whereas a load sample is
    /// one raw op, whose absolute minimum over thousands of ops is an
    /// extreme value that barely moves under a uniform slowdown. The
    /// gate's systematic-regression test compares fresh `min_ns` against
    /// the baseline median, so it needs the fast-path estimate that
    /// shifts with the distribution. `max_ns` stays the true maximum.
    pub fn to_bench_lines(&self) -> String {
        use chc_obs::json::JsonValue;
        let mut out = String::new();
        let mut line = |id: String, ops: u64, s: &HistogramSummary, throughput: f64| {
            let obj = JsonValue::object([
                ("type", JsonValue::string("bench")),
                ("schema", JsonValue::string("chc-load/1")),
                ("id", JsonValue::string(&id)),
                ("median_ns", JsonValue::number(s.p50 as f64)),
                ("min_ns", JsonValue::number(s.p10 as f64)),
                ("max_ns", JsonValue::number(s.max as f64)),
                ("samples", JsonValue::number(ops as f64)),
                ("iters", JsonValue::number(1.0)),
                ("mean_ns", JsonValue::number(s.mean)),
                ("p95_ns", JsonValue::number(s.p95 as f64)),
                ("p99_ns", JsonValue::number(s.p99 as f64)),
                ("p999_ns", JsonValue::number(s.p999 as f64)),
                ("throughput_ops_s", JsonValue::number(throughput)),
            ]);
            out.push_str(&obj.render());
            out.push('\n');
        };
        for op in &self.per_op {
            let share = if self.total_ops == 0 {
                0.0
            } else {
                op.ops as f64 / self.total_ops as f64
            };
            line(
                format!("load/{}/{}", self.id, op.kind.name()),
                op.ops,
                &op.latency,
                self.throughput() * share,
            );
        }
        line(
            format!("load/{}/all", self.id),
            self.total_ops,
            &self.overall,
            self.throughput(),
        );
        out
    }

    /// The human-readable table (the CLI prints this on stderr).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "load: {} — {} — mix {} — {:.2}s elapsed, {} ops ({:.0} ops/s)",
            self.id,
            self.mode_desc,
            self.mix.render(),
            self.elapsed.as_secs_f64(),
            self.total_ops,
            self.throughput(),
        );
        let _ = writeln!(
            out,
            "  {:<9} {:>9} {:>9} {:>6}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "op", "ops", "ok", "fail", "min", "p50", "p95", "p99", "p99.9", "max", "mean"
        );
        let mut rows: Vec<(&str, u64, u64, u64, HistogramSummary)> = self
            .per_op
            .iter()
            .map(|o| (o.kind.name(), o.ops, o.ok, o.failed, o.latency))
            .collect();
        rows.push((
            "all",
            self.total_ops,
            self.per_op.iter().map(|o| o.ok).sum(),
            self.per_op.iter().map(|o| o.failed).sum(),
            self.overall,
        ));
        for (name, ops, ok, fail, s) in rows {
            let _ = writeln!(
                out,
                "  {:<9} {:>9} {:>9} {:>6}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                ops,
                ok,
                fail,
                fmt_ns(s.min),
                fmt_ns(s.p50),
                fmt_ns(s.p95),
                fmt_ns(s.p99),
                fmt_ns(s.p999),
                fmt_ns(s.max),
                fmt_ns(s.mean.round() as u64),
            );
        }
        if let Some(m) = &self.mem {
            let _ = writeln!(
                out,
                "  mem: {} allocated, peak live {}, live at end {}",
                chc_obs::format_bytes(m.bytes_allocated),
                chc_obs::format_bytes(m.bytes_peak),
                chc_obs::format_bytes(m.bytes_live),
            );
        }
        if !self.windows.is_empty() {
            let peak = self
                .windows
                .iter()
                .map(|w| w.ops)
                .max()
                .unwrap_or(0) as f64
                / self.window.as_secs_f64();
            let worst_p95 = self.windows.iter().map(|w| w.p95_ns).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "  windows: {} × {:?} — peak {:.0} ops/s, worst p95 {}",
                self.windows.len(),
                self.window,
                peak,
                fmt_ns(worst_p95),
            );
        }
        out
    }
}

/// `1.2us`-style nanosecond rendering for tables.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Per-worker recording state; merged after the run.
struct WorkerStats {
    hists: [Histogram; 4],
    ok: [u64; 4],
    failed: [u64; 4],
    windows: Vec<(u64, Histogram)>,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            hists: [Histogram::new(), Histogram::new(), Histogram::new(), Histogram::new()],
            ok: [0; 4],
            failed: [0; 4],
            windows: Vec::new(),
        }
    }

    fn record(&mut self, kind: OpKind, latency_ns: u64, ok: bool, window_idx: usize) {
        let k = kind.index();
        self.hists[k].record(latency_ns);
        if ok {
            self.ok[k] += 1;
        } else {
            self.failed[k] += 1;
        }
        while self.windows.len() <= window_idx {
            self.windows.push((0, Histogram::new()));
        }
        let cell = &mut self.windows[window_idx];
        cell.0 += 1;
        cell.1.record(latency_ns);
    }
}

/// Runs the configured load against `target` and folds the per-worker
/// recorders into a [`LoadSummary`].
pub fn run_load(target: &dyn Target, cfg: &LoadConfig) -> LoadSummary {
    let _span = chc_obs::span(chc_obs::names::SPAN_LOAD_RUN);
    let gen = OpGenerator::new(cfg.seed, cfg.mix);
    let threads = cfg.mode.threads();
    let window = cfg.effective_window();
    let next = AtomicU64::new(0);
    let slow: [bool; 4] = {
        let mut slow = [false; 4];
        if let Some(needle) = &cfg.slow_match {
            for k in OpKind::ALL {
                slow[k.index()] =
                    format!("load/{}/{}", cfg.id, k.name()).contains(needle.as_str());
            }
        }
        slow
    };
    // Crash-injection knob for the diagnostics smoke tests: the worker
    // that claims op index $CHC_CRASH_INJECT panics mid-run, exercising
    // the panic hook, sink flushing, and the chc-crash/1 report.
    let crash_inject: Option<u64> = std::env::var("CHC_CRASH_INJECT")
        .ok()
        .and_then(|v| v.parse().ok());
    let mem_before = chc_obs::memalloc::snapshot();
    let deadline = match cfg.stop {
        StopRule::Duration(d) => Some(d),
        StopRule::Ops(_) => None,
    };
    let op_budget = match cfg.stop {
        StopRule::Ops(n) => Some(n),
        StopRule::Duration(_) => None,
    };
    let start = Instant::now();
    let workers: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let gen = &gen;
                let next = &next;
                scope.spawn(move || {
                    let mut stats = WorkerStats::new();
                    loop {
                        if let Some(d) = deadline {
                            if start.elapsed() >= d {
                                break;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if let Some(n) = op_budget {
                            if i >= n {
                                break;
                            }
                        }
                        if crash_inject == Some(i) {
                            panic!("load: crash injected at op {i} (CHC_CRASH_INJECT)");
                        }
                        let op = gen.op_at(i);
                        let issue = match cfg.mode {
                            Mode::Open { rate, .. } => {
                                // Shared arrival schedule: op i is *due* at
                                // i/rate. Sleep until then; if we are late the
                                // latency below includes the queueing delay.
                                let due = Duration::from_secs_f64(i as f64 / rate.max(1e-9));
                                if let Some(d) = deadline {
                                    if due >= d {
                                        break;
                                    }
                                }
                                let now = start.elapsed();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                due
                            }
                            Mode::Closed { .. } => start.elapsed(),
                        };
                        let outcome = target.run(&op);
                        if slow[op.kind.index()] {
                            target.run(&op);
                        }
                        let done = start.elapsed();
                        let latency = done.saturating_sub(issue);
                        let latency_ns = latency.as_nanos().min(u64::MAX as u128) as u64;
                        let window_idx = (done.as_nanos() / window.as_nanos()) as usize;
                        stats.record(op.kind, latency_ns, outcome.ok, window_idx);
                        if let Mode::Closed { think, .. } = cfg.mode {
                            if !think.is_zero() {
                                std::thread::sleep(think);
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker")).collect()
    });
    let elapsed = start.elapsed();

    // Fold per-worker recorders: per-kind histograms merge pairwise, the
    // time series merges per window index.
    let mut hists = [Histogram::new(), Histogram::new(), Histogram::new(), Histogram::new()];
    let mut ok = [0u64; 4];
    let mut failed = [0u64; 4];
    let mut windows: Vec<(u64, Histogram)> = Vec::new();
    for w in &workers {
        for k in 0..4 {
            hists[k].merge(&w.hists[k]);
            ok[k] += w.ok[k];
            failed[k] += w.failed[k];
        }
        for (i, cell) in w.windows.iter().enumerate() {
            while windows.len() <= i {
                windows.push((0, Histogram::new()));
            }
            windows[i].0 += cell.0;
            windows[i].1.merge(&cell.1);
        }
    }
    while windows.last().is_some_and(|(n, _)| *n == 0) {
        windows.pop();
    }
    let mut overall = Histogram::new();
    let mut per_op = Vec::new();
    for k in OpKind::ALL {
        let i = k.index();
        overall.merge(&hists[i]);
        if hists[i].count() > 0 {
            per_op.push(OpTypeStats {
                kind: k,
                ops: hists[i].count(),
                ok: ok[i],
                failed: failed[i],
                latency: hists[i].summary(),
            });
        }
    }
    let total_ops = overall.count();
    chc_obs::counter(chc_obs::names::LOAD_OPS, total_ops);
    chc_obs::counter(chc_obs::names::LOAD_FAILURES, failed.iter().sum());
    LoadSummary {
        id: cfg.id.clone(),
        mix: cfg.mix,
        mode_desc: cfg.mode.describe(),
        threads,
        seed: cfg.seed,
        elapsed,
        window,
        total_ops,
        per_op,
        overall: overall.summary(),
        windows: windows
            .iter()
            .enumerate()
            .map(|(i, (n, h))| WindowPoint {
                start: window * i as u32,
                ops: *n,
                p95_ns: if h.count() == 0 { 0 } else { h.summary().p95 },
            })
            .collect(),
        setup: target.setup_rows(),
        mem: chc_obs::memalloc::installed().then(|| {
            let now = chc_obs::memalloc::snapshot();
            MemUsage {
                bytes_allocated: now.bytes_total.saturating_sub(mem_before.bytes_total),
                bytes_peak: now.bytes_peak,
                bytes_live: now.bytes_live,
            }
        }),
    }
}

// ---------------------------------------------------------------------------
// The in-process target.
// ---------------------------------------------------------------------------

/// How a value for an attribute is generated on insert, precomputed from
/// the effective conditional type under total membership knowledge.
/// `Ref` resolves at insert time against the live store (pick a member
/// of every listed class), so reference-valued schemas like the hospital
/// produce admissible objects too.
#[derive(Debug, Clone)]
enum Fill {
    Tokens(Vec<Sym>),
    Int(i64, i64),
    Str,
    Ref(Vec<ClassId>),
}

#[derive(Debug, Clone)]
struct Recipe {
    class: ClassId,
    fills: Vec<(Sym, Fill)>,
}

struct SharedState {
    store: ExtentStore,
    objects: Vec<Oid>,
}

/// Tuning for [`LibraryTarget::new`].
#[derive(Debug, Clone)]
pub struct TargetOptions {
    /// Probability that an insert draws its class from the excused pool
    /// (classes under at least one applicable excuser) — the ε knob.
    pub epsilon: f64,
    /// Refresh virtual extents after every this many write operations
    /// (0 disables batched refreshing). Amortized §5.6 maintenance.
    pub refresh_every: u64,
    /// Cap on the precompiled query-plan pool.
    pub max_plans: usize,
    /// Validation options used by validate and evolve operations.
    pub validation: ValidationOptions,
}

impl Default for TargetOptions {
    fn default() -> Self {
        TargetOptions {
            epsilon: 0.05,
            refresh_every: 64,
            max_plans: 32,
            validation: ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Vacuous,
            },
        }
    }
}

/// The in-process [`Target`]: a virtualized schema plus an extent store
/// behind one `RwLock`. Validate and query take the read lock; insert
/// and evolve the write lock — the contention profile a real server
/// would see from a naive single-store design, which is exactly what
/// later storage PRs are measured against.
pub struct LibraryTarget {
    v: Virtualized,
    shared: RwLock<SharedState>,
    plans: Vec<Plan>,
    recipes: Vec<Recipe>,
    recipe_by_class: std::collections::BTreeMap<ClassId, usize>,
    excused_recipes: Vec<usize>,
    plain_recipes: Vec<usize>,
    evolve_pairs: Vec<(ClassId, ClassId)>,
    opts: TargetOptions,
    initial_objects: usize,
    writes: AtomicU64,
}

impl LibraryTarget {
    /// Builds a target from a virtualized schema, a populated store, and
    /// the object pool eligible for validate/evolve picks. Precompiles
    /// the query-plan pool and the per-class insert recipes.
    pub fn new(
        v: Virtualized,
        store: ExtentStore,
        objects: Vec<Oid>,
        opts: TargetOptions,
    ) -> LibraryTarget {
        let schema = &v.schema;
        let ctx = TypeContext::with_virtuals(&v);

        // Insert recipes: one per concrete class, drawn from the
        // effective conditional type under total membership knowledge
        // (the same rule `populate()` applies per object, hoisted to
        // setup so the hot path allocates nothing schema-sized).
        let mut recipes = Vec::new();
        let mut excused_recipes = Vec::new();
        let mut plain_recipes = Vec::new();
        let excused_sites: Vec<(ClassId, Sym)> = schema.excused_constraints().collect();
        for class in schema.class_ids() {
            if schema.class(class).is_virtual() {
                continue;
            }
            let mut facts = EntityFacts::of_class(schema, class);
            for other in schema.class_ids() {
                if !facts.known_in(other) {
                    facts.assume_not_in(schema, other);
                }
            }
            let mut fills = Vec::new();
            for attr in schema.applicable_attrs(class) {
                let Some(ty) = ctx.attr_type(&facts, attr) else { continue };
                let mut tokens = Vec::new();
                let mut int_range = None;
                let mut has_str = false;
                let mut ref_classes: Option<Vec<ClassId>> = None;
                for atom in &ty.atoms {
                    match atom {
                        Atom::Enum(set) => tokens.extend(set.iter().copied()),
                        Atom::Int(lo, hi) => int_range = Some((*lo, *hi)),
                        Atom::Str => has_str = true,
                        Atom::Entity(entity) => {
                            ref_classes.get_or_insert_with(|| {
                                entity
                                    .pos
                                    .iter()
                                    .map(|i| ClassId::from_raw(i as u32))
                                    .collect()
                            });
                        }
                        _ => {}
                    }
                }
                if let Some((lo, hi)) = int_range {
                    fills.push((attr, Fill::Int(lo, hi)));
                } else if !tokens.is_empty() {
                    fills.push((attr, Fill::Tokens(tokens)));
                } else if has_str {
                    fills.push((attr, Fill::Str));
                } else if let Some(classes) = ref_classes {
                    fills.push((attr, Fill::Ref(classes)));
                }
            }
            let idx = recipes.len();
            let excused = excused_sites.iter().any(|&(on, attr)| {
                schema.is_subclass(class, on)
                    && schema.applicable_excusers(class, on, attr).next().is_some()
            });
            if excused {
                excused_recipes.push(idx);
            } else {
                plain_recipes.push(idx);
            }
            recipes.push(Recipe { class, fills });
        }

        // Query-plan pool: stride-sample (class, attr) projection sites
        // so the pool spans the hierarchy instead of clustering on the
        // first classes, and keep only plans that type-check.
        let mut candidates = Vec::new();
        for class in schema.class_ids() {
            if schema.class(class).is_virtual() {
                continue;
            }
            for attr in schema.applicable_attrs(class) {
                candidates.push((class, attr));
            }
        }
        let stride = (candidates.len() / opts.max_plans.max(1)).max(1);
        let mut plans = Vec::new();
        for (class, attr) in candidates.iter().step_by(stride) {
            if plans.len() >= opts.max_plans {
                break;
            }
            let query = Query::over(*class).emit(vec![*attr]);
            if let Ok(plan) = compile_query(&ctx, &query, CheckMode::Eliminate) {
                plans.push(plan);
            }
        }

        // Evolve pairs: (base, subclass) membership toggles.
        let mut evolve_pairs = Vec::new();
        for class in schema.class_ids() {
            if schema.class(class).is_virtual() {
                continue;
            }
            for sub in schema.direct_subclasses(class) {
                if !schema.class(sub).is_virtual() {
                    evolve_pairs.push((class, sub));
                }
            }
        }

        let initial_objects = objects.len();
        let recipe_by_class = recipes
            .iter()
            .enumerate()
            .map(|(i, r)| (r.class, i))
            .collect();
        LibraryTarget {
            v,
            shared: RwLock::new(SharedState { store, objects }),
            plans,
            recipes,
            recipe_by_class,
            excused_recipes,
            plain_recipes,
            evolve_pairs,
            opts,
            initial_objects,
            writes: AtomicU64::new(0),
        }
    }

    /// Builds a target from a schema by virtualizing it and populating
    /// `per_class` instances of every concrete class via
    /// [`crate::populate`].
    pub fn from_schema(
        schema: &Schema,
        per_class: usize,
        seed: u64,
        opts: TargetOptions,
    ) -> Result<LibraryTarget, String> {
        let v = virtualize(schema).map_err(|e| e.to_string())?;
        let (mut store, objects) = crate::populate(
            &v.schema,
            &crate::PopulateParams { per_class, seed },
        );
        refresh_virtual_extents(&mut store, &v);
        Ok(LibraryTarget::new(v, store, objects, opts))
    }

    /// The virtualized schema the target runs on.
    pub fn schema(&self) -> &Schema {
        &self.v.schema
    }

    /// Applies a recipe's fills to `oid`: scalar fills draw from the
    /// per-op rng; `Ref` fills pick a live member of the required
    /// classes (left unset when no candidate exists yet). Returns the
    /// number of attributes set.
    fn apply_fills(
        &self,
        state: &mut SharedState,
        oid: Oid,
        fills: &[(Sym, Fill)],
        rng: &mut SplitMix64,
    ) -> u64 {
        let mut applied = 0u64;
        for (attr, fill) in fills {
            let value = match fill {
                Fill::Tokens(tokens) => {
                    Some(Value::Tok(*rng.choose(tokens).expect("non-empty fill")))
                }
                Fill::Int(lo, hi) => Some(Value::Int(rng.gen_range_i64(*lo, *hi))),
                Fill::Str => {
                    Some(Value::Str(format!("v{}", rng.next_u64() % 1_000_000).into()))
                }
                Fill::Ref(classes) => {
                    let candidates: Vec<Oid> = match classes.split_first() {
                        Some((first, rest)) => state
                            .store
                            .extent(*first)
                            .filter(|&o| {
                                o != oid && rest.iter().all(|c| state.store.is_member(o, *c))
                            })
                            .collect(),
                        None => Vec::new(),
                    };
                    rng.choose(&candidates).map(|&o| Value::Obj(o))
                }
            };
            if let Some(value) = value {
                state.store.set_attr(oid, *attr, value);
                applied += 1;
            }
        }
        applied
    }

    /// Amortized §5.6 maintenance: every `refresh_every` writes, the
    /// writer holding the lock refreshes all virtual extents.
    fn note_write(&self, state: &mut SharedState) {
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.opts.refresh_every > 0 && n.is_multiple_of(self.opts.refresh_every) {
            refresh_virtual_extents(&mut state.store, &self.v);
            chc_obs::counter(chc_obs::names::LOAD_VIRTUAL_REFRESHES, 1);
        }
    }
}

impl Target for LibraryTarget {
    fn run(&self, op: &Operation) -> OpOutcome {
        let schema = &self.v.schema;
        match op.kind {
            OpKind::Validate => {
                let state = self.shared.read().expect("load state lock");
                if state.objects.is_empty() {
                    return OpOutcome { ok: true, work: 0 };
                }
                let oid = state.objects[(op.pick % state.objects.len() as u64) as usize];
                let violations =
                    validate_stored(schema, &state.store, self.opts.validation, oid);
                OpOutcome { ok: violations.is_empty(), work: violations.len() as u64 }
            }
            OpKind::Query => {
                if self.plans.is_empty() {
                    return OpOutcome { ok: true, work: 0 };
                }
                let plan = &self.plans[(op.pick % self.plans.len() as u64) as usize];
                let state = self.shared.read().expect("load state lock");
                let result = execute(schema, &state.store, plan);
                OpOutcome { ok: true, work: result.stats.rows_scanned as u64 }
            }
            OpKind::Insert => {
                if self.recipes.is_empty() {
                    return OpOutcome { ok: true, work: 0 };
                }
                // ε-biased class choice: excused-pool classes exercise
                // the excuse branch of every later validate that picks
                // the object.
                let excused_roll = (op.aux >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let pool = if excused_roll < self.opts.epsilon && !self.excused_recipes.is_empty()
                {
                    &self.excused_recipes
                } else if !self.plain_recipes.is_empty() {
                    &self.plain_recipes
                } else {
                    &self.excused_recipes
                };
                let recipe = &self.recipes[pool[(op.pick % pool.len() as u64) as usize]];
                let mut rng = SplitMix64::new(op.value_seed);
                let mut state = self.shared.write().expect("load state lock");
                let state = &mut *state;
                let oid = state.store.create(schema, &[recipe.class]);
                let work = self.apply_fills(state, oid, &recipe.fills, &mut rng);
                state.objects.push(oid);
                self.note_write(state);
                OpOutcome { ok: true, work }
            }
            OpKind::Evolve => {
                if self.evolve_pairs.is_empty() {
                    return OpOutcome { ok: true, work: 0 };
                }
                let (base, sub) =
                    self.evolve_pairs[(op.pick % self.evolve_pairs.len() as u64) as usize];
                let mut state = self.shared.write().expect("load state lock");
                let state = &mut *state;
                let count = state.store.count(base);
                if count == 0 {
                    return OpOutcome { ok: true, work: 0 };
                }
                let oid = state
                    .store
                    .extent(base)
                    .nth((op.aux % count as u64) as usize)
                    .expect("extent index in range");
                if state.store.is_member(oid, sub) {
                    state.store.remove_from_class(schema, oid, sub);
                } else {
                    state.store.add_to_class(schema, oid, sub);
                    // Evolution with repair: refill the object per the
                    // subclass recipe so the promotion is admissible
                    // (e.g. a new Alcoholic gets a Psychologist), leaving
                    // genuine contradictions for validation to report.
                    if let Some(&i) = self.recipe_by_class.get(&sub) {
                        let mut rng = SplitMix64::new(op.value_seed);
                        self.apply_fills(state, oid, &self.recipes[i].fills, &mut rng);
                    }
                }
                // Veracity (§6): an evolution is immediately re-checked.
                let violations =
                    validate_stored(schema, &state.store, self.opts.validation, oid);
                self.note_write(state);
                OpOutcome { ok: violations.is_empty(), work: 1 + violations.len() as u64 }
            }
        }
    }

    fn setup_rows(&self) -> Vec<(String, String)> {
        let state = self.shared.read().expect("load state lock");
        vec![
            ("classes".to_string(), self.v.schema.num_classes().to_string()),
            ("attribute declarations".to_string(), self.v.schema.num_attr_decls().to_string()),
            ("initial objects".to_string(), self.initial_objects.to_string()),
            ("objects now".to_string(), state.store.num_objects().to_string()),
            ("query plans".to_string(), self.plans.len().to_string()),
            ("insert recipes".to_string(), self.recipes.len().to_string()),
            (
                "excused classes (ε pool)".to_string(),
                format!("{} of {}", self.excused_recipes.len(), self.recipes.len()),
            ),
            ("evolve pairs".to_string(), self.evolve_pairs.len().to_string()),
            ("epsilon".to_string(), format!("{:.3}", self.opts.epsilon)),
            (
                "virtual refresh batch".to_string(),
                self.opts.refresh_every.to_string(),
            ),
        ]
    }
}

/// A hospital-database target with the exceptional fraction driven by ε:
/// ε/2 tubercular, ε/4 alcoholic, ε/4 ambulatory patients — the
/// substrate E13's latency-vs-ε table sweeps.
pub fn hospital_target(patients: usize, epsilon: f64, seed: u64) -> LibraryTarget {
    let db = build_hospital(&HospitalParams {
        patients,
        tubercular_fraction: epsilon / 2.0,
        alcoholic_fraction: epsilon / 4.0,
        ambulatory_fraction: epsilon / 4.0,
        seed,
        ..HospitalParams::default()
    });
    let opts = TargetOptions {
        epsilon,
        validation: ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Vacuous,
        },
        ..TargetOptions::default()
    };
    LibraryTarget::new(db.virtualized, db.store, db.patients, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_renders_and_rejects() {
        let mix = MixSpec::parse("validate=70,query=20,insert=9,evolve=1").unwrap();
        assert_eq!(mix, MixSpec::default());
        assert_eq!(mix.render(), "validate=70,query=20,insert=9,evolve=1");
        assert_eq!(MixSpec::parse(&mix.render()).unwrap(), mix);
        let sparse = MixSpec::parse("query=1").unwrap();
        assert_eq!(sparse.weights, [0, 1, 0, 0]);
        assert!(MixSpec::parse("validate=0").is_err());
        assert!(MixSpec::parse("frobnicate=3").is_err());
        assert!(MixSpec::parse("validate").is_err());
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("2").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1m").unwrap(), Duration::from_secs(60));
        assert!(parse_duration("5 fortnights").is_err());
    }

    #[test]
    fn op_generator_is_pure_and_mix_faithful() {
        let gen = OpGenerator::new(42, MixSpec::default());
        let a: Vec<Operation> = (0..500).map(|i| gen.op_at(i)).collect();
        let b: Vec<Operation> = (0..500).map(|i| gen.op_at(i)).collect();
        assert_eq!(a, b);
        // Random access equals sequential access (pure function of i).
        assert_eq!(gen.op_at(499), a[499]);
        // The kind distribution tracks the 70/20/9/1 weights.
        let n = 10_000u64;
        let mut counts = [0u64; 4];
        for i in 0..n {
            counts[gen.op_at(i).kind.index()] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.70).abs() < 0.03, "{counts:?}");
        assert!((counts[1] as f64 / n as f64 - 0.20).abs() < 0.03, "{counts:?}");
        assert!(counts[3] > 0, "{counts:?}");
    }

    #[test]
    fn closed_loop_run_over_hospital_covers_all_kinds() {
        let target = hospital_target(120, 0.2, 7);
        let cfg = LoadConfig {
            id: "t".to_string(),
            stop: StopRule::Ops(400),
            mode: Mode::Closed { threads: 2, think: Duration::ZERO },
            slow_match: None,
            ..LoadConfig::default()
        };
        let summary = run_load(&target, &cfg);
        assert_eq!(summary.total_ops, 400);
        assert_eq!(summary.per_op.iter().map(|o| o.ops).sum::<u64>(), 400);
        assert_eq!(summary.per_op.len(), 4, "all four kinds ran: {:?}", summary.per_op);
        for op in &summary.per_op {
            let s = &op.latency;
            assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p999 <= s.max);
        }
        assert!(!summary.windows.is_empty());
        assert_eq!(summary.windows.iter().map(|w| w.ops).sum::<u64>(), 400);
        let text = summary.render_text();
        assert!(text.contains("validate"), "{text}");
        assert!(text.contains("ops/s"), "{text}");
    }

    #[test]
    fn open_loop_latency_is_measured_from_schedule() {
        // A deliberately slow target (1 ms per op) at 10× the rate it can
        // sustain: coordinated-omission-corrected latency must grow well
        // past the service time, because it includes queueing delay.
        struct Slow;
        impl Target for Slow {
            fn run(&self, _op: &Operation) -> OpOutcome {
                std::thread::sleep(Duration::from_millis(1));
                OpOutcome { ok: true, work: 0 }
            }
        }
        let cfg = LoadConfig {
            id: "slow".to_string(),
            mode: Mode::Open { threads: 1, rate: 10_000.0 },
            stop: StopRule::Ops(50),
            slow_match: None,
            ..LoadConfig::default()
        };
        let summary = run_load(&Slow, &cfg);
        assert_eq!(summary.total_ops, 50);
        // Op 50 was due at 5 ms but runs ~50 ms in: its recorded latency
        // is dominated by the backlog, so max ≫ the 1 ms service time.
        assert!(
            summary.overall.max > 10_000_000,
            "coordinated omission not corrected: max {}ns",
            summary.overall.max
        );
    }

    #[test]
    fn slow_match_perturbs_only_matching_ops() {
        // Counts `run` calls per kind: a slowed op runs twice per recorded
        // latency, every other op once, whatever the host's timing.
        #[derive(Default)]
        struct Counting([AtomicU64; 4]);
        impl Target for Counting {
            fn run(&self, op: &Operation) -> OpOutcome {
                self.0[op.kind.index()].fetch_add(1, Ordering::Relaxed);
                OpOutcome { ok: true, work: 0 }
            }
        }
        let target = Counting::default();
        let cfg = LoadConfig {
            id: "s".to_string(),
            stop: StopRule::Ops(300),
            mix: MixSpec::parse("validate=1,query=1").unwrap(),
            slow_match: Some("load/s/validate".to_string()),
            ..LoadConfig::default()
        };
        let summary = run_load(&target, &cfg);
        assert_eq!(summary.total_ops, 300);
        for kind in OpKind::ALL {
            let ops = summary.per_op.iter().find(|o| o.kind == kind).map_or(0, |o| o.ops);
            let per_op = if kind == OpKind::Validate { 2 } else { 1 };
            let runs = target.0[kind.index()].load(Ordering::Relaxed);
            assert_eq!(runs, per_op * ops, "{} ran {runs} times for {ops} ops", kind.name());
            if matches!(kind, OpKind::Validate | OpKind::Query) {
                assert!(ops > 0, "no {} ops in the mix", kind.name());
            }
        }
    }

    #[test]
    fn bench_lines_carry_schema_and_gate_fields() {
        let target = hospital_target(50, 0.1, 3);
        let cfg = LoadConfig {
            id: "hosp".to_string(),
            stop: StopRule::Ops(120),
            slow_match: None,
            ..LoadConfig::default()
        };
        let summary = run_load(&target, &cfg);
        let lines = chc_obs::json::parse_lines(&summary.to_bench_lines()).unwrap();
        assert!(lines.len() >= 2);
        for line in &lines {
            assert_eq!(line.get("type").and_then(|v| v.as_str()), Some("bench"));
            assert_eq!(line.get("schema").and_then(|v| v.as_str()), Some("chc-load/1"));
            for key in ["id", "median_ns", "min_ns", "max_ns", "samples", "iters", "p999_ns"] {
                assert!(line.get(key).is_some(), "missing {key}: {}", line.render());
            }
        }
        let all = lines
            .iter()
            .find(|l| l.get("id").and_then(|v| v.as_str()) == Some("load/hosp/all"))
            .expect("aggregate line");
        assert_eq!(all.get("samples").and_then(|v| v.as_f64()), Some(120.0));
    }

    #[test]
    fn epsilon_biases_inserts_toward_excused_classes() {
        // Pure-insert run at ε=1: every insert that *can* pick an excused
        // class does. The hospital schema's excused pool is non-empty.
        let target = hospital_target(30, 1.0, 5);
        assert!(!target.excused_recipes.is_empty());
        let cfg = LoadConfig {
            id: "e".to_string(),
            mix: MixSpec::parse("insert=1").unwrap(),
            stop: StopRule::Ops(200),
            slow_match: None,
            ..LoadConfig::default()
        };
        let before = target.shared.read().unwrap().store.num_objects();
        let summary = run_load(&target, &cfg);
        assert_eq!(summary.total_ops, 200);
        let state = target.shared.read().unwrap();
        assert_eq!(state.store.num_objects(), before + 200);
        let schema = &target.v.schema;
        let excused_classes: Vec<ClassId> = target
            .excused_recipes
            .iter()
            .map(|&i| target.recipes[i].class)
            .collect();
        let new_excused = state
            .objects
            .iter()
            .rev()
            .take(200)
            .filter(|&&o| {
                state
                    .store
                    .classes_of(o)
                    .iter()
                    .any(|c| excused_classes.contains(c))
            })
            .count();
        assert_eq!(new_excused, 200, "ε=1 inserts all hit the excused pool");
        drop(state);
        // schema borrow kept alive for clarity of the assertion above
        let _ = schema;
    }
}
