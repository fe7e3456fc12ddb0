#!/usr/bin/env python3
"""End-to-end benchmark of the `chc` binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload schema-ci --seed 1 --seconds 20 --trace 0

It builds `chc` and the benchmark harness (`perfbench/harness`) in
release mode, generates the workload's inputs from the seed, runs every
request as a `chc` subprocess in a closed loop (one request at a time),
checks every output against the generator's answers, and prints one JSON
object as the last line of stdout. With `--trace 0` that object holds the
end-to-end metrics; with `--trace 1` the harness also replays the same
requests in-process and the object holds the per-layer metrics.

Shared hosts switch between speed states a third apart every few
seconds, and drift over minutes, moving every timing alike. Every 0.3 s,
and around every request that takes more than 50 ms, the
benchmark also runs `calibrate`, a fixed piece of work that uses nothing
from the code under test, and reports each end-to-end time at a
nominal host speed: every sample is scaled by CALIBRATE_NOMINAL_S over the
mean of the `calibrate` runs just before and just after it (op rates
inversely), and the metric is the median of the scaled samples.
Per-layer times are raw.

Workloads (why each was chosen is recorded in BENCHMARK.json):
  schema-ci      check, lint, diff and incremental check of a generated
                 1600-class schema, as a schema author's CI runs them
  data-validate  validate and four queries over 100,000 patients
  online-mix     `chc load` with 2 threads and 50,000 mixed operations

Every workload runs all seven request kinds; the kinds a workload is not
about run on the 14-class hospital schema and 1,000 patients, where a
change aimed at the large inputs should show no change.
"""

import argparse
import bisect
import collections
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("schema-ci", "data-validate", "online-mix")
KIND_METRIC = {
    "check": "check_s",
    "lint": "lint_s",
    "diff": "diff_s",
    "incremental": "incremental_s",
    "validate": "validate_s",
    "query": "query_s",
}
# Each request whose cold run is short is repeated within a pass until
# it has taken about this long, so the medians of fast requests rest on
# many samples; every request kind runs at least KIND_REPEATS times a pass.
REPEAT_TARGET_S = 0.4
MAX_REPEATS = 25
KIND_REPEATS = 2
MIN_PASSES = 2
SETUPS = 3
REQUEST_TIMEOUT_S = 150
CALIBRATE_EVERY_S = 0.3
# Requests whose cold run takes this long get a `calibrate` run right
# before and right after them; one ending within ADJACENT_S counts.
BRACKET_S = 0.05
ADJACENT_S = 0.005
# About the median `calibrate` time on a 2-core Xeon build host; a
# constant, so normalized figures compare across runs and commits.
CALIBRATE_NOMINAL_S = 0.030


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Builds `chc` and the harness; returns `chc`, `perfbench` and `calibrate`."""
    if not (root / "Cargo.toml").is_file() or not (root / "src" / "bin" / "chc.rs").is_file():
        raise BenchError("run from the root of a checkout: no Cargo.toml or src/bin/chc.rs here")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "chc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "harness" / "Cargo.toml")],
    ):
        try:
            rc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            raise BenchError(f"cannot run cargo: {e}")
        if rc != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return release / "chc", release / "perfbench", release / "calibrate"


def spawn(argv, cwd, out_path, err_path, env=None):
    """Runs one process to completion; returns (wall s, exit code, peak RSS KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def generate(perfbench, out_dir, workload, seed, scale):
    """Writes the workload's inputs into `out_dir`; returns (start, end)."""
    start = time.perf_counter()
    rc = subprocess.run(
        [str(perfbench), "gen", "--workload", workload, "--seed", str(seed),
         "--out", str(out_dir), "--scale", scale],
        stdout=sys.stderr,
    ).returncode
    if rc != 0:
        raise BenchError(f"input generation failed for {workload} seed {seed}")
    return start, time.perf_counter()


def setup(perfbench, host, run_dir, workload, seed, scale):
    """Generates the inputs SETUPS times into fresh directories and checks
    the copies are byte-identical; returns (inputs dir, [(start, end)])."""
    spans, dirs = [], []
    for i in range(SETUPS):
        d = run_dir / f"inputs{i}"
        host.sample()
        spans.append(generate(perfbench, d, workload, seed, scale))
        dirs.append(d)
    host.sample()
    first = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
    for d in dirs[1:]:
        if {p.name: p.read_bytes() for p in sorted(d.iterdir())} != first:
            raise BenchError(f"seed {seed} gave different inputs on two generations")
        shutil.rmtree(d)
    return dirs[0], spans


class Host:
    """Samples the host's speed by timing `calibrate`."""

    def __init__(self, calibrate, scratch):
        self.calibrate = calibrate
        self.scratch = scratch
        self.starts, self.ends, self.walls = [], [], []

    def sample(self):
        out = self.scratch / "calibrate.out"
        start = time.perf_counter()
        wall, code, _ = spawn([str(self.calibrate)], self.scratch, out, out)
        if code != 0:
            raise BenchError("calibrate failed")
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.walls.append(wall)

    def sample_every(self, seconds):
        if not self.ends or time.perf_counter() - self.ends[-1] >= seconds:
            self.sample()

    def slowdown(self, start, end):
        """How much slower than nominal the host ran over [start, end]:
        the `calibrate` runs just before and just after, over nominal."""
        near = self.walls[max(0, bisect.bisect_right(self.ends, start) - 1):][:1]
        after = bisect.bisect_left(self.starts, end)
        near += self.walls[after:after + 1]
        return statistics.fmean(near) / CALIBRATE_NOMINAL_S

    def scaled(self, start, end, seconds):
        """`seconds` measured over [start, end], at nominal host speed."""
        return seconds / self.slowdown(start, end)


class Runner:
    """Runs requests as `chc` subprocesses and checks their outputs."""

    def __init__(self, chc, inputs):
        self.chc = chc
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.peak_rss_kib = 0
        self.walls = {}  # request index -> [(start, end, wall s)]
        self.load = []  # (start, end, chc-load/1 "all" line) per `chc load` run
        self.reference = {}  # args tuple -> (exit, stdout)
        self.seen_lint = {}  # request index -> (exit, stdout)
        self.failures = []

    def invoke(self, args, env=None):
        out = self.inputs / "out.txt"
        err = self.inputs / "err.txt"
        wall, code, rss = spawn([str(self.chc), *args], self.inputs, out, err, env)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return wall, code, out.read_bytes(), err.read_text(errors="replace")

    def run(self, index, req, timed):
        """Runs one request; records its wall time when `timed`."""
        env = None
        bench_json = self.inputs / "bench.jsonl"
        if req["kind"] == "load":
            bench_json.unlink(missing_ok=True)
            env = dict(os.environ, CHC_BENCH_JSON=str(bench_json))
        start = time.perf_counter()
        wall, code, out, err = self.invoke(req["args"], env)
        end = time.perf_counter()
        weight = req["expect"].get("ops", 1) if req["kind"] == "load" else 1
        self.attempted += weight
        try:
            overall = self.verify(index, req, code, out, err, bench_json)
        except (ValueError, KeyError, IndexError, TypeError, StopIteration, OSError) as e:
            self.failed += weight
            self.failures.append(f"{' '.join(req['args'])}: {e}")
            return
        if timed:
            self.walls.setdefault(index, []).append((start, end, wall))
            if overall is not None:
                self.load.append((start, end, overall))

    def verify(self, index, req, code, out, err, bench_json):
        """Raises unless the output is right; returns a load run's "all" line."""
        kind, expect = req["kind"], req["expect"]
        text = out.decode(errors="replace")
        lines = text.splitlines()

        def need(cond, what):
            if not cond:
                raise ValueError(f"{what} (exit {code})")

        if kind == "check":
            need(code == expect["exit"], "unexpected exit code")
            last = lines[-1] if lines else ""
            clean = f": {expect['classes']} classes, " in last and last.endswith("clean")
            need(clean or last.startswith("0 error(s)"), "schema does not check with 0 errors")
        elif kind == "lint":
            need(code in (0, 1), "unexpected exit code")
            first = self.seen_lint.setdefault(index, (code, out))
            need(first == (code, out), "lint output differs between runs")
        elif kind == "diff":
            need(code == 0, "unexpected exit code")
            doc = json.loads(text)
            edits = doc["edits"]
            need(len(edits) == expect["edits"], f"{len(edits)} edits reported")
            need(edits[0]["class"] == expect["class"] and edits[0].get("attr") == expect["attr"],
                 "edit reported at the wrong site")
        elif kind == "incremental":
            ref_args = tuple(expect["same_as"])
            if ref_args not in self.reference:
                _, rcode, rout, _ = self.invoke(list(ref_args))
                self.reference[ref_args] = (rcode, rout)
            need((code, out) == self.reference[ref_args], "output differs from a full check")
        elif kind == "validate":
            need(code == expect["exit"], "unexpected exit code")
            summary = re.fullmatch(r"(\d+) object\(s\), (\d+) invalid", lines[-1])
            need(summary is not None, "no summary line")
            need(int(summary.group(1)) == expect["objects"], "wrong object count")
            named = {line.split(":", 1)[0] for line in lines[:-1]}
            need(named == set(expect["invalid"]), "wrong objects named invalid")
            need(int(summary.group(2)) == len(expect["invalid"]), "wrong invalid count")
            self.rejected += 1
        elif kind == "query":
            need(code == 0, "unexpected exit code")
            need(len(lines) == expect["rows"], f"{len(lines)} rows, expected {expect['rows']}")
        elif kind == "load":
            need(code == 0, "unexpected exit code")
            reported = re.match(r"load: (\d+) ops in ", text)
            need(reported and int(reported.group(1)) == expect["ops"], "wrong op count")
            rows = [json.loads(l) for l in bench_json.read_text().splitlines()]
            overall = next(r for r in rows if r["id"].endswith("/all"))
            need(overall["samples"] == expect["ops"], "wrong latency sample count")
            table = next(l.split() for l in err.splitlines() if l.split()[:1] == ["all"])
            self.rejected += int(table[3])
            return overall
        else:
            raise ValueError(f"unknown request kind {kind}")
        return None


def measure(runner, host, requests, seconds):
    """Cold pass, then timed passes until `seconds` have elapsed."""
    cold = []
    for i, req in enumerate(requests):
        start = time.perf_counter()
        runner.run(i, req, timed=False)
        cold.append(time.perf_counter() - start)
    per_kind = collections.Counter(req["kind"] for req in requests)
    repeats = [max(-(-KIND_REPEATS // per_kind[req["kind"]]),
                   min(MAX_REPEATS, round(REPEAT_TARGET_S / max(c, 1e-6))))
               for req, c in zip(requests, cold)]
    # The host's speed changes every few seconds, so each request's repeats
    # are spread evenly over the pass, and the phases (golden-ratio steps)
    # keep the slow requests apart with fast ones running between them.
    schedule = sorted(((k + (i * 0.618034) % 1) / repeats[i], i) for i in range(len(requests))
                      for k in range(repeats[i]))
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for _, i in schedule:
            bracket = cold[i] >= BRACKET_S
            host.sample_every(ADJACENT_S if bracket else CALIBRATE_EVERY_S)
            runner.run(i, requests[i], timed=True)
            if bracket:
                host.sample()
        passes += 1
    host.sample()
    return passes


def end_to_end(runner, host, requests, setups):
    """The end-to-end metrics at nominal host speed, and the raw walls by kind."""
    by_kind = {}
    for i, req in enumerate(requests):
        by_kind.setdefault(req["kind"], []).extend(runner.walls.get(i, []))
    metrics = {"setup_s": (statistics.median(host.scaled(a, b, b - a) for a, b in setups), "s")}
    for kind, name in KIND_METRIC.items():
        samples = by_kind.get(kind)
        if not samples:
            raise BenchError(f"no successful {kind} request to measure")
        metrics[name] = (statistics.median(host.scaled(*s) for s in samples), "s")
    if not runner.load:
        raise BenchError("no successful load request to measure")

    def load_median(field, rate=False):
        values = []
        for start, end, line in runner.load:
            slowdown = host.slowdown(start, end)
            values.append(line[field] * slowdown if rate else line[field] / slowdown)
        return statistics.median(values)

    metrics["ops_per_s"] = (load_median("throughput_ops_s", rate=True), "1/s")
    metrics["op_p50_us"] = (load_median("median_ns") / 1e3, "us")
    metrics["op_p99_us"] = (load_median("p99_ns") / 1e3, "us")
    metrics["peak_rss_mb"] = (runner.peak_rss_kib / 1024, "MB")
    raw = {kind: [wall for _, _, wall in samples] for kind, samples in by_kind.items()}
    return metrics, raw


def per_layer(perfbench, runner, requests, e2e_by_kind):
    try:
        out = subprocess.run(
            [str(perfbench), "trace", "--dir", str(runner.inputs)],
            stdout=subprocess.PIPE,
            timeout=REQUEST_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("traced replay timed out")
    if out.returncode != 0:
        raise BenchError("traced replay failed")
    doc = json.loads(out.stdout)
    runner.attempted += len(requests)
    runner.failed += len(doc["failures"])
    runner.failures.extend(f"traced {f}" for f in doc["failures"])
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    traced = doc["request_s"]
    gap = 0.0
    for kind in KIND_METRIC:
        overhead = statistics.median(e2e_by_kind[kind]) - traced[kind]
        metrics[f"cli.{kind}.overhead_s"] = (overhead, "s")
        gap += overhead * sum(1 for r in requests if r["kind"] == kind)
    metrics["trace.gap_s"] = (gap, "s")
    load_mean_ns = statistics.median(line["mean_ns"] for _, _, line in runner.load)
    metrics["driver.overhead_ratio"] = (load_mean_ns / doc["inprocess_load_mean_ns"], "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    run_dir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        chc, perfbench, calibrate = build(root)
        run_dir.mkdir(parents=True)
        host = Host(calibrate, run_dir)
        inputs, setups = setup(perfbench, host, run_dir, args.workload, args.seed, args.scale)
        requests = json.loads((inputs / "requests.json").read_text())["requests"]
        runner = Runner(chc, inputs)
        passes = measure(runner, host, requests, args.seconds)
        metrics, by_kind = end_to_end(runner, host, requests, setups)
        if args.trace:
            metrics = per_layer(perfbench, runner, requests, by_kind)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in runner.failures[:10]:
        log(f"perfbench: failed: {failure}")
    samples = sum(line["samples"] for _, _, line in runner.load)
    speed = CALIBRATE_NOMINAL_S / statistics.median(host.walls)
    print(f"{args.workload} seed {args.seed}: host at {speed:.3f}x nominal speed "
          f"({len(host.walls)} calibrate runs); {passes} timed passes; op latency over "
          f"{samples} ops in {len(runner.load)} chc load runs; attempted {runner.attempted}, "
          f"failed {runner.failed} (failed_share {runner.failed / runner.attempted:.6f}), "
          f"rejected {runner.rejected}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
