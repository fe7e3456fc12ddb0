#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline, with no network and
# no pre-fetched registry index. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temporary file lives in one directory, removed by the one EXIT
# trap (a later `trap … EXIT` would replace an earlier one).
tmp="$(mktemp -d "${TMPDIR:-/tmp}/chc-verify.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> the benchmark harness (perfbench/harness) builds against this tree"
# It calls the library API directly, so an API change it depends on
# fails here rather than only when the benchmark runs.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline \
    --manifest-path perfbench/harness/Cargo.toml

echo "==> cargo test -q --offline (root package: integration + doc tests)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo fmt --check (chc-obs, chc-sdl), rustfmt --check (src/bin/chc.rs)"
cargo fmt --check -p chc-obs
cargo fmt --check -p chc-sdl
rustfmt --edition 2021 --check src/bin/chc.rs

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> output byte-compare: every line of scripts/stdout.cksum, stdout lines also under --stats"
ledger="$tmp/ledger.jsonl"
grep -v '^#' scripts/stdout.cksum | while read -r crc bytes what args; do
    # `args` is shell-quoted in the file (a query string holds spaces).
    eval "set -- $args"
    # A report with error diagnostics exits 1 and is pinned like any
    # other; any other nonzero exit (usage, I/O, panic) fails.
    code=0
    case "$what" in
        stdout) got="$(./target/release/chc "$@" | cksum; exit "${PIPESTATUS[0]}")" || code=$? ;;
        ledger) ./target/release/chc --audit-out "$ledger" "$@" >/dev/null || code=$?
                got="$(cksum < "$ledger")" ;;
        *) echo "FAIL: unknown output kind '$what' in scripts/stdout.cksum" >&2; exit 1 ;;
    esac
    if [ "$code" -gt 1 ]; then
        echo "FAIL: chc $args exited $code" >&2; exit 1
    fi
    if [ "$got" != "$crc $bytes" ]; then
        echo "FAIL: chc $args $what is '$got', pinned '$crc $bytes'" >&2; exit 1
    fi
    # The same stdout under `--stats`, whose recorder keeps every kind of
    # observation the flight recorder alone leaves unprepared: recording
    # must change no output byte.
    if [ "$what" = stdout ]; then
        code=0
        got="$(./target/release/chc --stats "$@" 2>/dev/null | cksum; exit "${PIPESTATUS[0]}")" || code=$?
        if [ "$code" -gt 1 ] || [ "$got" != "$crc $bytes" ]; then
            echo "FAIL: chc --stats $args stdout is '$got' (exit $code), pinned '$crc $bytes'" >&2
            exit 1
        fi
    fi
done

echo "==> malformed .chd sweep: positioned syntax errors (exit 2), never a crash"
deep="$tmp/deep.chd"
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

echo "==> malformed .sdl sweep: positioned errors (exit 2), never a crash"
deep_sdl="$tmp/deep.sdl"
# A record type nested 20,000 deep: past the parser's nesting limit, and
# deep enough to overflow the stack of a recursive parser.
{
    printf 'class A with x : '
    printf '[x : %.0s' $(seq 20000)
    printf '1..2'
    printf ']%.0s' $(seq 20000)
    printf ';\n'
} >"$deep_sdl"
for sdl in tests/fixtures/malformed/*.sdl "$deep_sdl"; do
    rc=0
    err="$(./target/release/chc check "$sdl" 2>&1 >/dev/null)" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "^error: $sdl: [0-9][0-9]*:[0-9][0-9]*: " <<<"$err"; then
        echo "FAIL: chc check on $sdl exited $rc with: $err" >&2; exit 1
    fi
done

echo "==> malformed JSON sweep: chc doctor gives positioned errors (exit 2), never a crash"
deep_json="$tmp/deep.json"
cut_json="$tmp/cut.json"
# 50,000 unclosed arrays: past the reader's nesting limit, and deep
# enough to overflow the stack of a recursive parser.
printf '[%.0s' $(seq 50000) >"$deep_json"
# A crash report cut off inside a string.
head -c 100 tests/fixtures/crash/load-panic.json >"$cut_json"
for json in "$deep_json" "$cut_json"; do
    rc=0
    err="$(./target/release/chc doctor "$json" 2>&1 >/dev/null)" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "^error: $json: not valid JSON: [0-9][0-9]*:[0-9][0-9]*: " <<<"$err"; then
        echo "FAIL: chc doctor on $json exited $rc with: $err" >&2; exit 1
    fi
done

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
prof="$tmp/profile.json"
flame="$tmp/profile.folded"
pout="$tmp/profile.stdout"
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
mem_err="$tmp/profile-mem.stderr"
./target/release/chc profile check --hier classes=800,seed=1025 --mem \
    >/dev/null 2>"$mem_err"
grep -q ' alloc ' "$mem_err"                        # memory columns present
grep -q 'mem: global .*% of global.*max class peak' "$mem_err"

echo "==> chc load smoke: HTML report emitted and well-formed"
report="$tmp/load-report.html"
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
diff_json="$tmp/diff.json"
./target/release/chc diff examples/data/hospital.sdl \
    examples/data/hospital-evolved.sdl --format json >"$diff_json"
grep -q '"schema":"chc-diff/1"' "$diff_json"
grep -q '"schema":"chc-lint/1"' "$diff_json"        # nested lint envelope
grep -q '"kind":"diff"' "$diff_json"

echo "==> crash smoke: induced panic writes chc-crash/1, doctor renders it"
crash_dir="$tmp/crash"
mkdir "$crash_dir"
dout="$tmp/doctor.stdout"
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
