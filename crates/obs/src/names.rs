//! The counter/span name registry.
//!
//! Every name the `chc-*` crates emit lives here, so docs, the CLI, and
//! the `report` binary all spell them identically. The mapping from
//! each name to the experiment (E1–E10) it feeds is documented in
//! `docs/OBSERVABILITY.md`.

// --- chc-core::check (E1, E7) ---

/// Classes visited by the specialization-or-excuse checker.
pub const CHECK_CLASSES: &str = "check.classes";
/// Inherited-constraint contradictions detected (range not subsumed).
pub const CHECK_CONTRADICTIONS: &str = "check.contradictions";
/// Contradictions resolved by a covering `excuses` clause.
pub const CHECK_EXCUSES_RESOLVED: &str = "check.excuses_resolved";
/// Joint-satisfiability calls (§5.3 emptiness checks).
pub const CHECK_JOINT_SAT_CALLS: &str = "check.joint_sat_calls";
/// Span: one whole `check(schema)` run.
pub const SPAN_CHECK_SCHEMA: &str = "check.schema";
/// Labeled histogram: nanoseconds spent checking one class; the label is
/// the class id. Only emitted while a recorder is installed; the
/// per-class time shares in `chc profile` come from here.
pub const CHECK_CLASS_NANOS: &str = "check.class.nanos";

// --- chc-core::sat (E14) ---

/// Joint-admissibility decisions (`common_value_witness_of` calls),
/// counted at the decision procedure itself — unlike
/// [`CHECK_JOINT_SAT_CALLS`], which counts the checker's call sites,
/// this also covers lint and `explain` traffic.
pub const SAT_CALLS: &str = "sat.calls";
/// Distinct joint-admissibility decisions, deduped by the
/// `(class, attr)` pair. See [`SUBTYPE_QUERIES_DISTINCT`].
pub const SAT_CALLS_DISTINCT: &str = "sat.calls.distinct";

// --- chc-model / chc-types (E2, E3, E8, E14) ---

/// Subtype/subsumption decisions, over both the range lattice
/// (`Range::subsumes`) and the conditional-type lattice (`subtype`).
pub const SUBTYPE_QUERIES: &str = "subtype.queries";
/// Distinct subtype/subsumption decisions: [`SUBTYPE_QUERIES`] deduped
/// by a structural hash of the `(sub, sup)` pair. The gap between the
/// two is the duplicate-work ratio E14 tabulates — the measured case
/// for memoizing the decision procedure.
pub const SUBTYPE_QUERIES_DISTINCT: &str = "subtype.queries.distinct";
/// `AttrTypeCache` lookups that hit.
pub const TYPECACHE_HITS: &str = "typecache.hits";
/// `AttrTypeCache` lookups that missed.
pub const TYPECACHE_MISSES: &str = "typecache.misses";
/// Narrowing steps taken (membership branching + not-in deduction).
pub const NARROW_STEPS: &str = "narrow.steps";
/// Span: `TypeContext::precompute` building the `AttrTypeCache`.
pub const SPAN_TYPES_PRECOMPUTE: &str = "types.precompute";

// --- chc-query::eval (E4) ---

/// Run-time safety checks actually executed during evaluation.
pub const QUERY_CHECKS_EXECUTED: &str = "query.checks_executed";
/// Checks proven unnecessary by the compiler and skipped (§5.4).
pub const QUERY_CHECKS_ELIMINATED: &str = "query.checks_eliminated";
/// Rows scanned by the evaluator.
pub const QUERY_ROWS_SCANNED: &str = "query.rows_scanned";
/// Rows that passed all checks and were emitted.
pub const QUERY_ROWS_EMITTED: &str = "query.rows_emitted";
/// Span: one `execute(plan)` call.
pub const SPAN_QUERY_EXECUTE: &str = "query.execute";

// --- chc-extent::store (E5) ---

/// Extents touched when adding an entity (ancestor fan-out).
pub const EXTENT_ADD_FANOUT: &str = "extent.add_fanout";
/// Extents touched when removing (descendant fan-out).
pub const EXTENT_REMOVE_FANOUT: &str = "extent.remove_fanout";
/// Histogram: fan-out size per add/remove operation.
pub const EXTENT_FANOUT_HIST: &str = "extent.fanout";

// --- chc-storage::engine (E6) ---

/// Fragments physically probed while fetching.
pub const STORAGE_FRAGMENTS_PROBED: &str = "storage.fragments_probed";
/// Fragments skipped because type deduction proved them incompatible.
pub const STORAGE_FRAGMENTS_SKIPPED: &str = "storage.fragments_skipped";
/// Span: building a partitioned store from an extent store.
pub const SPAN_STORAGE_BUILD: &str = "storage.build";

// --- chc-baselines (E3) ---

/// Ancestor-walk steps taken by default-inheritance `default_range`.
pub const BASELINE_SEARCH_STEPS: &str = "baseline.search_steps";

// --- chc-sdl (compilation) ---

/// Span: parsing + lowering SDL source into a `Schema`.
pub const SPAN_SDL_COMPILE: &str = "sdl.compile";

// --- chc-extent (data loading, E5) ---

/// Span: parsing + loading a `.chd` data file into an `ExtentStore`.
pub const SPAN_EXTENT_LOAD: &str = "extent.load";
/// Span: recomputing every virtual class's extent (§5.6).
pub const SPAN_EXTENT_REFRESH: &str = "extent.refresh_virtual";
/// Span: the validate phase, judging every stored object against its
/// classes (the `chc validate` hot phase). One span per phase, not per
/// object: the object being judged is the flight recorder's breadcrumb,
/// named [`EVENT_VALIDATE_OBJECT`].
pub const SPAN_VALIDATE_ALL: &str = "validate.all";

// --- chc-core::validate (E11, audit ledger) ---

/// Run-time constraint checks actually executed by instance validation
/// (one per `(object, class, attribute)` evaluation; vacuous skips of
/// unset attributes are not counted). The audit ledger writes exactly
/// one `validate.check` event per increment.
pub const VALIDATE_CHECKS: &str = "validate.checks";
/// Checks whose value escaped the declared range but was admitted by an
/// applicable excuse (§5.2 — the "exceptional cases" of §6).
pub const VALIDATE_ADMITTED: &str = "validate.admitted";
/// Validation plans built by one validation loop: one per distinct
/// membership signature among the objects it validated.
pub const VALIDATE_PLANS: &str = "validate.plans";
/// Event: one executed run-time check — object surrogate, class,
/// attribute, value, verdict, and the admitting excuse if any.
pub const EVENT_VALIDATE_CHECK: &str = "validate.check";
/// Event: maps a loaded object's source name to its surrogate, so the
/// ledger's `object` fields can be joined back to `.chd` names. Also the
/// name of the breadcrumb whose item is the surrogate being validated.
pub const EVENT_VALIDATE_OBJECT: &str = "validate.object";

// --- chc-lint ---

/// Span: one whole `chc_lint::run(schema)` pass.
pub const SPAN_LINT_RUN: &str = "lint.run";
/// Lint findings emitted (all codes, post-severity-filtering).
pub const LINT_FIRED: &str = "lint.fired";
/// Classes visited by the lint pass.
pub const LINT_CLASSES: &str = "lint.classes";
/// Span: one `chc_lint::run_queries` pass over a `.chq` batch.
pub const SPAN_LINT_QUERY: &str = "lint.query";
/// Residual hazards found by the query safety analyzer (Q001 inputs).
pub const LINT_HAZARDS: &str = "lint.hazards";
/// Guard sets successfully synthesized by Q005.
pub const LINT_GUARDS_SYNTHESIZED: &str = "lint.guards_synthesized";

// --- chc CLI ---

/// Span: the whole CLI command (`cli.check`, `cli.validate`, ...).
pub const SPAN_CLI_CHECK: &str = "cli.check";
/// Span: the `validate` command.
pub const SPAN_CLI_VALIDATE: &str = "cli.validate";
/// Span: the `lint` command.
pub const SPAN_CLI_LINT: &str = "cli.lint";
/// Span: the `query` command (plan + execute over loaded data).
pub const SPAN_CLI_QUERY: &str = "cli.query";
/// Span: the `diff` command (semantic schema diff + evolution lints).
pub const SPAN_CLI_DIFF: &str = "cli.diff";
/// Span: parsing + compiling the input schema.
pub const SPAN_CLI_COMPILE: &str = "cli.compile";
/// Span: the `profile` command (workload under attribution + sampler).
pub const SPAN_CLI_PROFILE: &str = "cli.profile";

// --- chc-obs::memalloc (memory attribution, E15) ---

/// Allocations observed by the tracking allocator (reallocs count once
/// more). Emitted into the stats snapshot at teardown by binaries that
/// install [`chc_obs::memalloc::TrackingAllocator`](crate::memalloc).
pub const MEM_ALLOCS: &str = "mem.allocs";
/// Deallocations observed by the tracking allocator.
pub const MEM_FREES: &str = "mem.frees";
/// Cumulative bytes allocated process-wide.
pub const MEM_BYTES_TOTAL: &str = "mem.bytes.total";
/// Bytes live at snapshot time.
pub const MEM_BYTES_LIVE: &str = "mem.bytes.live";
/// Peak live bytes process-wide.
pub const MEM_BYTES_PEAK: &str = "mem.bytes.peak";
/// Labeled counter: bytes allocated while checking one class; the
/// label is the class id (same scope as [`CHECK_CLASS_NANOS`]).
pub const MEM_CHECK_CLASS_BYTES: &str = "mem.check.class.bytes";
/// Labeled histogram: peak net-live growth (bytes) while checking one
/// class; the label is the class id.
pub const MEM_CHECK_CLASS_PEAK: &str = "mem.check.class.peak_live";
/// Bytes allocated inside one whole `check(schema)` run.
pub const MEM_CHECK_SCHEMA_BYTES: &str = "mem.check.bytes";
/// Histogram: peak net-live growth per `check(schema)` run.
pub const MEM_CHECK_SCHEMA_PEAK: &str = "mem.check.peak_live";
/// Bytes allocated compiling SDL source into a `Schema`.
pub const MEM_SDL_COMPILE_BYTES: &str = "mem.sdl.compile.bytes";
/// Histogram: peak net-live growth per SDL compile.
pub const MEM_SDL_COMPILE_PEAK: &str = "mem.sdl.compile.peak_live";
/// Bytes allocated loading a `.chd` file into an `ExtentStore`.
pub const MEM_EXTENT_LOAD_BYTES: &str = "mem.extent.load.bytes";
/// Histogram: peak net-live growth per extent load.
pub const MEM_EXTENT_LOAD_PEAK: &str = "mem.extent.load.peak_live";
/// Bytes allocated executing one query plan.
pub const MEM_QUERY_EXECUTE_BYTES: &str = "mem.query.execute.bytes";
/// Histogram: peak net-live growth per query execution.
pub const MEM_QUERY_EXECUTE_PEAK: &str = "mem.query.execute.peak_live";

// --- chc-workloads load driver ---

/// Span: the `load` command.
pub const SPAN_CLI_LOAD: &str = "cli.load";
/// Span: one whole `chc_workloads::driver::run_load` run.
pub const SPAN_LOAD_RUN: &str = "load.run";
/// Operations completed by the load driver, per run.
pub const LOAD_OPS: &str = "load.ops";
/// Operations whose outcome was a failure (validation violations, …).
pub const LOAD_FAILURES: &str = "load.failures";
/// Batched virtual-extent refreshes paid by write operations.
pub const LOAD_VIRTUAL_REFRESHES: &str = "load.virtual_refreshes";
