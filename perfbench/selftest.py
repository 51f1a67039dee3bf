"""Tests of the benchmark itself, on reduced workloads (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import os
import unittest

import run
import tracing

run.load_package()

import numpy as np  # noqa: E402  (after load_package pins BLAS threads)

LATTICE_SPANS = {n for n in tracing.SPAN_NAMES if n.startswith("lattice.")}
FPTAS_SPANS = {"approx.fptas_solve", "approx.orthonormalize", "rowsample.row_sample", "perm1d.sort_match"}

# Reduced families: each keeps one declined operation where the full one has them.
REDUCED = {
    "fptas-large": (
        [run.fptas_op(2, 12, 0), run.fptas_op(2, 12, 1), run.fptas_op(3, 8, 2)],
        {"cli.main", "model.read_instance_record"} | FPTAS_SPANS,
    ),
    "fptas-sweep": (
        [run.sweep_op(4.0, 0, trials=3), run.sweep_op(64.0, 1, trials=3)],
        {"cli.main", "model.gen_gaussian_noisy", "oracle.ols_given_perm"} | FPTAS_SPANS,
    ),
    "lattice-recover": (
        [run.lattice_op(5, 3), run.lattice_op(7, 1)],
        {"cli.main", "model.read_instance_record"} | LATTICE_SPANS,
    ),
}

DETERMINISTIC_REPORT = ("metric fail_frac", "metric cost_ratio.max", "metric success_rate.mean")


def traced_run(workload, seed=0):
    ops, _ = REDUCED[workload]
    return run.run(workload, seed, seconds=0, trace=True, ops=ops)


def originals():
    return {(mod.__name__, attr): getattr(mod, attr) for mod, attr in tracing.targets()}


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = originals()
        cls.reps = {w: traced_run(w) for w in REDUCED}

    def test_spans_fire_only_where_expected(self):
        for workload, (_, expected) in REDUCED.items():
            layers = self.reps[workload]["layers"]
            for name in tracing.SPAN_NAMES:
                calls = layers[name + ".calls"]
                with self.subTest(workload=workload, span=name):
                    if name in expected:
                        self.assertGreater(calls, 0)
                        self.assertGreater(layers[name + ".s"], 0.0)
                    else:
                        self.assertEqual(calls, 0)
                        self.assertEqual(layers[name + ".s"], 0.0)

    def test_declined_operations_stay_visible(self):
        self.assertEqual(self.reps["fptas-large"]["layers"]["approx.fptas_solve.refused"], 1)
        self.assertEqual(self.reps["lattice-recover"]["layers"]["lattice.recover.none"], 1)
        for workload, rep in self.reps.items():
            self.assertEqual(rep["quality"]["failed"], 0, workload)

    def test_functions_unpatched_outside_traced_passes(self):
        self.assertFalse(any(tracing.is_patched(f) for f in self.before.values()))
        ops, _ = REDUCED["fptas-sweep"]
        run.run("fptas-sweep", 0, seconds=0, trace=False, ops=ops)
        self.assertEqual(originals(), self.before)

    def test_plain_run_times_every_operation(self):
        ops, _ = REDUCED["lattice-recover"]
        rep = run.run("lattice-recover", 0, seconds=0, trace=False, ops=ops)
        results = run.by_operation(rep["passes"])
        self.assertEqual(set(results), {op.name for op in ops})
        for r in (r for rs in results.values() for r in rs):
            self.assertGreater(r.seconds, 0.0)
            self.assertGreater(r.scaled, 0.0)
        e2e = rep["e2e"]
        self.assertTrue(all(math.isfinite(e2e[k]) and e2e[k] > 0 for k in ("setup_s", "wall_s", "peak_rss_mb")))
        # One of the two operations is declined, so the median over operations is infinite.
        self.assertEqual(e2e["op_s.p50"], math.inf)
        self.assertEqual(rep["quality"]["fail_frac"], 0.5)

    def test_counts_and_quality_repeat_exactly(self):
        for workload in REDUCED:
            first, again = self.reps[workload], traced_run(workload, seed=1)
            with self.subTest(workload=workload):
                self.assertTrue(first["deterministic"])
                for key in tracing.COUNT_KEYS:
                    self.assertEqual(first["layers"][key], again["layers"][key], key)
                self.assertEqual(first["quality"], again["quality"])
                lines = [
                    [ln for ln in run.report_lines(workload, 0, rep) if ln.startswith(DETERMINISTIC_REPORT)]
                    for rep in (first, again)
                ]
                self.assertEqual(lines[0], lines[1])

    def test_checks_reject_wrong_answers(self):
        op = run.fptas_op(2, 12, 0)
        work = os.path.join(run.WORK, "selftest")
        os.makedirs(work, exist_ok=True)
        try:
            cli = run.load_package()
            run.generate(cli, [op], work, run.ReferenceClock(), reps=1)
            checker = run.Checker([op], work)
            code, out, err, _ = run.call(cli, op.command(work))
            self.assertEqual(checker.check(op, code, out, err).status, "ok")
            doc = json.loads(out)
            doc["cost"] *= 0.5
            self.assertEqual(checker.check(op, 0, json.dumps(doc), "").status, "failed")
            doc = json.loads(out)
            inst = checker.refs[op.name][0].instance
            w = np.asarray(doc["w"]) + 1.0
            resid = (inst.x @ w)[doc["perm"]] - inst.y
            doc["w"], doc["cost"] = w.tolist(), float(resid @ resid)
            self.assertEqual(checker.check(op, 0, json.dumps(doc), "").status, "failed")
            self.assertEqual(checker.check(op, 4, "", "internal error: x").status, "failed")
        finally:
            for name in os.listdir(work):
                os.remove(os.path.join(work, name))
            os.rmdir(work)

    def test_lattice_check_uses_exact_substitution(self):
        rec = {
            "x": [[1.0, 0.0], [0.0, 1.0]],
            "y": [2.0, 3.0],
            "anchor": {"x0": [1.0, 1.0], "y0": 5.0},
            "truth": {"w_bar": [2.0, 3.0], "pi_bar": [0, 1, 2]},
        }
        good = json.dumps({"solver": "lattice", "anchor": 0, "perm": [0, 1, 2], "w": ["2/1", "3/1"]})
        self.assertEqual(run.check_lattice(0, good, "", rec).status, "ok")
        off = json.dumps({"solver": "lattice", "anchor": 0, "perm": [0, 1, 2], "w": ["2/1", "3000001/1000000"]})
        self.assertEqual(run.check_lattice(0, off, "", rec).status, "failed")
        fail = json.dumps({"solver": "lattice", "failure": "no anchor hypothesis verified"})
        self.assertEqual(run.check_lattice(3, fail, "", rec).status, "declined")

    def test_benchmark_json_declares_what_is_printed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_units())
        rep = self.reps["lattice-recover"]
        printed = json.loads(run.result_json(rep, trace=True))["metrics"]
        self.assertEqual(set(printed), set(run.per_layer_units()))
        self.assertTrue(all(math.isfinite(m["value"]) for m in printed.values()))


if __name__ == "__main__":
    unittest.main()
