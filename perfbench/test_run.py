"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_run.py
"""

import contextlib
import io
import json
import unittest
from pathlib import Path
from unittest import mock

from perfbench import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--scale", "tiny"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = tiny_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)


class WrongAnswerTest(unittest.TestCase):
    def test_a_wrong_expected_answer_counts_as_a_failed_op(self):
        real_generate = run.generate

        def off_by_one(perfbench, out_dir, workload, seed, scale):
            wall = real_generate(perfbench, out_dir, workload, seed, scale)
            path = out_dir / "requests.json"
            doc = json.loads(path.read_text())
            query = next(r for r in doc["requests"] if r["kind"] == "query")
            query["expect"]["rows"] += 1
            path.write_text(json.dumps(doc))
            return wall

        with mock.patch.object(run, "generate", off_by_one):
            code, result = tiny_run("online-mix", 0)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
