#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline, with no network and
# no pre-fetched registry index. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline (root package: integration + doc tests)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo fmt --check (chc-obs), rustfmt --check (src/bin/chc.rs)"
cargo fmt --check -p chc-obs
rustfmt --edition 2021 --check src/bin/chc.rs

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> output byte-compare: every line of scripts/stdout.cksum"
ledger="$(mktemp "${TMPDIR:-/tmp}/chc-ledger.XXXXXX.jsonl")"
trap 'rm -f "$ledger"' EXIT
grep -v '^#' scripts/stdout.cksum | while read -r crc bytes what args; do
    # `args` is shell-quoted in the file (a query string holds spaces).
    eval "set -- $args"
    case "$what" in
        stdout) got="$(./target/release/chc "$@" | cksum)" ;;
        ledger) ./target/release/chc --audit-out "$ledger" "$@" >/dev/null
                got="$(cksum < "$ledger")" ;;
        *) echo "FAIL: unknown output kind '$what' in scripts/stdout.cksum" >&2; exit 1 ;;
    esac
    if [ "$got" != "$crc $bytes" ]; then
        echo "FAIL: chc $args $what is '$got', pinned '$crc $bytes'" >&2; exit 1
    fi
done
rm -f "$ledger"

echo "==> malformed .chd sweep: positioned syntax errors (exit 2), never a crash"
deep="$(mktemp "${TMPDIR:-/tmp}/chc-deep.XXXXXX.chd")"
trap 'rm -f "$deep"' EXIT
# A record value nested 20,000 deep: past the loader's nesting limit, and
# deep enough to overflow the stack of a recursive parser.
{
    printf 'ann : Patient { name = '
    printf '[city = %.0s' $(seq 20000)
    printf '1'
    printf ']%.0s' $(seq 20000)
    printf ' }\n'
} >"$deep"
for chd in tests/fixtures/malformed/*.chd "$deep"; do
    rc=0
    err="$(./target/release/chc validate examples/data/hospital.sdl "$chd" 2>&1 >/dev/null)" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q '^error: line [0-9][0-9]*: ' <<<"$err"; then
        echo "FAIL: chc validate on $chd exited $rc with: $err" >&2; exit 1
    fi
done
rm -f "$deep"

echo "==> chc lint --deny warnings over examples/*.sdl"
for sdl in examples/data/*.sdl; do
    ./target/release/chc lint "$sdl" --deny warnings
done

echo "==> chc lint --query --deny warnings over examples/*_queries.chq"
for chq in examples/data/*_queries.chq; do
    sdl="${chq%_queries.chq}.sdl"
    ./target/release/chc lint --query "$chq" "$sdl" --deny warnings
done

echo "==> chc profile smoke: folded stacks + chc-profile/1 JSON, stdout pure"
prof="$(mktemp "${TMPDIR:-/tmp}/chc-profile.XXXXXX.json")"
flame="$(mktemp "${TMPDIR:-/tmp}/chc-profile.XXXXXX.folded")"
pout="$(mktemp "${TMPDIR:-/tmp}/chc-profile.XXXXXX.stdout")"
trap 'rm -f "$prof" "$flame" "$pout"' EXIT
./target/release/chc profile check --hier classes=800,seed=1025 \
    --interval 100us --profile-out "$prof" --flame-out "$flame" \
    >"$pout" 2>/dev/null
test -s "$prof" && test -s "$flame"
grep -q '"schema":"chc-profile/1"' "$prof"          # tagged document
grep -q '"subtype.queries.distinct"' "$prof"        # duplicate-work counters
grep -q '"sat.calls.distinct"' "$prof"
grep -q '"hot_classes"' "$prof"
! grep -Evq '^[^ ]+ [0-9]+$' "$flame"               # folded-stack line shape
test "$(wc -l < "$pout")" -eq 1                     # stdout: one summary line
grep -q '^profile: check' "$pout"

echo "==> chc profile --mem smoke: per-class memory columns reconcile"
mem_err="$(mktemp "${TMPDIR:-/tmp}/chc-profile-mem.XXXXXX.stderr")"
trap 'rm -f "$prof" "$flame" "$pout" "$mem_err"' EXIT
./target/release/chc profile check --hier classes=800,seed=1025 --mem \
    >/dev/null 2>"$mem_err"
grep -q ' alloc ' "$mem_err"                        # memory columns present
grep -q 'mem: global .*% of global.*max class peak' "$mem_err"

echo "==> chc load smoke: HTML report emitted and well-formed"
report="$(mktemp "${TMPDIR:-/tmp}/chc-load-report.XXXXXX.html")"
trap 'rm -f "$report" "$prof" "$flame" "$pout" "$mem_err"' EXIT
./target/release/chc load examples/data/hospital.sdl examples/data/hospital.chd \
    --ops 500 --threads 2 --seed 42 --report "$report" >/dev/null
test -s "$report"
iconv -f UTF-8 -t UTF-8 "$report" >/dev/null   # parses as UTF-8
grep -q 'table class="summary"' "$report"      # has the summary table
grep -q '<svg' "$report"                       # has the time-series charts

echo "==> chc diff smoke: evolution lints on the hospital pair, both directions"
# Forward (widen + add a class): info-only, passes even under --deny warnings.
./target/release/chc diff examples/data/hospital.sdl \
    examples/data/hospital-evolved.sdl --deny warnings >/dev/null
# Reverse (narrowing under stored objects): D001 must fail the run.
if ./target/release/chc diff examples/data/hospital-evolved.sdl \
    examples/data/hospital.sdl --deny warnings >/dev/null; then
    echo "FAIL: reverse hospital diff passed --deny warnings (D001 missing)" >&2; exit 1
fi
diff_json="$(mktemp "${TMPDIR:-/tmp}/chc-diff.XXXXXX.json")"
trap 'rm -f "$diff_json" "$report" "$prof" "$flame" "$pout" "$mem_err"' EXIT
./target/release/chc diff examples/data/hospital.sdl \
    examples/data/hospital-evolved.sdl --format json >"$diff_json"
grep -q '"schema":"chc-diff/1"' "$diff_json"
grep -q '"schema":"chc-lint/1"' "$diff_json"        # nested lint envelope
grep -q '"kind":"diff"' "$diff_json"

echo "==> chc check --incremental smoke: verdict identical to the full check"
full_out="$(mktemp "${TMPDIR:-/tmp}/chc-check.XXXXXX.full")"
inc_out="$(mktemp "${TMPDIR:-/tmp}/chc-check.XXXXXX.inc")"
trap 'rm -f "$diff_json" "$full_out" "$inc_out" "$report" "$prof" "$flame" "$pout" "$mem_err"' EXIT
full_rc=0; inc_rc=0
./target/release/chc check crates/workloads/fixtures/evolve400-new.sdl \
    >"$full_out" || full_rc=$?
./target/release/chc check crates/workloads/fixtures/evolve400-new.sdl \
    --incremental --since crates/workloads/fixtures/evolve400-old.sdl \
    >"$inc_out" 2>/dev/null || inc_rc=$?
test "$full_rc" -eq "$inc_rc"
cmp -s "$full_out" "$inc_out"                       # byte-identical stdout

echo "==> crash smoke: induced panic writes chc-crash/1, doctor renders it"
crash_dir="$(mktemp -d "${TMPDIR:-/tmp}/chc-crash.XXXXXX")"
dout="$(mktemp "${TMPDIR:-/tmp}/chc-doctor.XXXXXX.stdout")"
trap 'rm -rf "$crash_dir"; rm -f "$report" "$prof" "$flame" "$pout" "$mem_err" "$dout"' EXIT
if CHC_CRASH_INJECT=32 ./target/release/chc \
    --stats-out "$crash_dir/stats.json" \
    load --hier classes=60,seed=7 --ops 64 --threads 2 \
    --crash-out "$crash_dir/crash.json" >/dev/null 2>&1; then
    echo "FAIL: injected panic exited 0" >&2; exit 1
fi
test -s "$crash_dir/crash.json"
grep -q '"schema":"chc-crash/1"' "$crash_dir/crash.json"
grep -q '"reason":"panic"' "$crash_dir/crash.json"
test -s "$crash_dir/stats.json"                # sinks flushed on the panic path
./target/release/chc doctor "$crash_dir/crash.json" >"$dout" 2>/dev/null
grep -q '^chc crash report (panic)' "$dout"    # doctor renders on stdout
grep -q 'open spans at time of death:' "$dout"
grep -q 'cli.load' "$dout"

echo "OK: all verification gates passed"
