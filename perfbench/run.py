"""Benchmark of the shuffle-regress command line on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fptas-large --seed 0 --seconds 35 --trace 0

Every workload is a fixed family of ``gen`` / ``solve`` / ``sweep-snr``
invocations driven in-process through ``shuffle_regress.cli.main`` by one
closed-loop client: the next operation starts only after the previous one has
returned.  Set-up writes the instance files with ``gen``; the program sees only
those files.  A pass runs every operation of the family once, in an order drawn
from ``--seed``; passes repeat until ``--seconds`` have elapsed.  Every output
is checked (cost recomputation, exact substitution, CSV well-formedness).
Timings are reported at reference speed (see ``ReferenceClock``), which
cancels most of the drift in speed of a shared host.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes and reports per-layer metrics from the traced ones (see
``tracing.py``).  Human-readable report lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed`` counts wrong answers and crashes; budget refusals
and declared recovery failures are documented outcomes, counted as declined in
``fail_frac`` and as +inf latencies.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_REPS = 7
REF_S = 0.02  # median seconds of reference_seconds() on the machine the benchmark was written on
TAIL_BEYOND = 10
SWEEP_TRIALS = 20
EPS = 0.5
SWEEP_HEADER = ["snr", "n", "d", "mean_err", "std_err", "success_rate", "baseline_mean_err", "wall_time_s"]

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Pin BLAS to one thread, put ``src`` on the path and import the CLI."""
    if not os.path.isfile(os.path.join(SRC, "shuffle_regress", "__init__.py")):
        raise SystemExit("perfbench: package source not found under %s" % SRC)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from shuffle_regress import cli

    return cli


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``argv`` plus the path of its instance file
    (``gen`` non-empty) or of its CSV output (``gen`` empty)."""

    kind: str
    name: str
    argv: tuple
    gen: tuple = ()

    def path(self, work: str) -> str:
        return os.path.join(work, self.name + (".json" if self.gen else ".csv"))

    def command(self, work: str) -> list:
        return list(self.argv) + [self.path(work)]


def fptas_op(d: int, n: int, seed: int) -> Op:
    return Op(
        kind="fptas",
        name="fptas-d%d-n%d-s%d" % (d, n, seed),
        argv=("solve", "--solver", "fptas", "--eps", str(EPS), "--instance"),
        gen=("gen", "--model", "gaussian", "--snr", "4", "--n", str(n), "--d", str(d), "--seed", str(seed), "-o"),
    )


def lattice_op(n: int, seed: int) -> Op:
    return Op(
        kind="lattice",
        name="lattice-n%d-s%d" % (n, seed),
        argv=("solve", "--solver", "lattice", "--instance"),
        gen=("gen", "--model", "noiseless", "--unanchored", "--n", str(n), "--d", "2", "--p", "16", "--seed", str(seed), "-o"),
    )


def sweep_op(snr: float, seed: int, trials: int = SWEEP_TRIALS) -> Op:
    return Op(
        kind="sweep",
        name="sweep-snr%g-s%d" % (snr, seed),
        argv=(
            "sweep-snr", "--model", "gaussian", "--solver", "fptas", "--n", "6", "--d", "2",
            "--eps", str(EPS), "--trials", str(trials), "--jobs", "1",
            "--snr-grid", repr(snr), "--seed", str(seed), "-o",
        ),
    )


SNR_GRID = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# Families are fixed and drawn by instance seed without filtering, so budget
# refusals (fptas-large) and recovery failures at n = 7 (lattice-recover)
# stay in the measurement.  The run seed orders the closed loop.
WORKLOADS = {
    "fptas-large": [
        fptas_op(d, n, s) for d, n in ((2, 12), (2, 14), (2, 16), (3, 8), (3, 9)) for s in range(3)
    ],
    "fptas-sweep": [sweep_op(SNR_GRID[i % len(SNR_GRID)], i) for i in range(24)],
    "lattice-recover": [lattice_op(n, s) for n in (5, 6, 7) for s in range(6)],
}


# ---------------------------------------------------------------------------
# running one operation and checking its output


def call(cli, argv):
    """Run ``cli.main(argv)`` with captured output; returns (code, out, err, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed operation, not a failed run
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


@dataclass
class Outcome:
    status: str  # "ok", "declined" or "failed"
    detail: str = ""
    quality: float = math.nan  # cost ratio (fptas) or success rate (sweep)


def _last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def fptas_reference(record) -> float:
    """Brute-force optimum for n <= 8, else the planted-permutation OLS cost
    (an upper bound on the optimum)."""
    from shuffle_regress.oracle import brute_force, ols_given_perm

    inst = record.instance
    if inst.n <= 8:
        return brute_force(inst).cost
    return ols_given_perm(inst.x, inst.y, record.truth.pi_bar).cost


def check_fptas(code, out, err, record, ref) -> Outcome:
    import numpy as np

    if code == 2 and "budget" in err:
        return Outcome("declined", err.strip())
    if code != 0:
        return Outcome("failed", "exit %r: %s" % (code, err.strip()[-200:]))
    doc = _last_json(out)
    x, y = record.instance.x, record.instance.y
    perm = doc["perm"]
    if sorted(perm) != list(range(len(y))):
        return Outcome("failed", "perm is not a permutation")
    resid = (x @ np.asarray(doc["w"], dtype=float))[perm] - y
    cost = float(resid @ resid)
    if not math.isclose(cost, doc["cost"], rel_tol=1e-9, abs_tol=1e-12):
        return Outcome("failed", "reported cost %r, recomputed %r" % (doc["cost"], cost))
    if cost > (1.0 + EPS) * ref * (1.0 + 1e-9) + 1e-12:
        return Outcome("failed", "cost %r above (1+eps) x reference %r" % (cost, ref))
    return Outcome("ok", quality=cost / ref if ref > 0 else 1.0)


def check_lattice(code, out, err, doc_file) -> Outcome:
    if code == 3 and _last_json(out).get("failure"):
        return Outcome("declined", "no anchor hypothesis verified")
    if code != 0:
        return Outcome("failed", "exit %r: %s" % (code, err.strip()[-200:]))
    doc = _last_json(out)
    xs = [[Fraction(v) for v in doc_file["anchor"]["x0"]]] + [[Fraction(v) for v in row] for row in doc_file["x"]]
    ys = [Fraction(doc_file["anchor"]["y0"])] + [Fraction(v) for v in doc_file["y"]]
    perm = doc["perm"]
    w = [Fraction(v) for v in doc["w"]]
    if sorted(perm) != list(range(len(ys))) or len(w) != len(xs[0]):
        return Outcome("failed", "malformed answer")
    for i, yi in enumerate(ys):
        if yi != sum((wv * xv for wv, xv in zip(w, xs[perm[i]])), Fraction(0)):
            return Outcome("failed", "equation %d does not hold exactly" % i)
    truth = doc_file["truth"]
    if perm != truth["pi_bar"] or w != [Fraction(v) for v in truth["w_bar"]]:
        return Outcome("failed", "verified answer differs from the planted truth")
    return Outcome("ok")


def check_sweep(code, out, err, path, op) -> Outcome:
    if code != 0:
        return Outcome("failed", "exit %r: %s" % (code, err.strip()[-200:]))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0] != SWEEP_HEADER or len(rows[1]) != len(SWEEP_HEADER):
        return Outcome("failed", "expected the header and one row")
    try:
        snr, n, d, mean_err, std_err, rate, base, wall = (float(v) for v in rows[1])
    except ValueError:
        return Outcome("failed", "non-numeric field")
    want_snr = float(op.argv[op.argv.index("--snr-grid") + 1])
    trials = int(op.argv[op.argv.index("--trials") + 1])
    ok = (
        (snr, n, d) == (want_snr, 6.0, 2.0)
        and all(math.isfinite(v) and v >= 0 for v in (mean_err, std_err, base, wall))
        and 0.0 <= rate <= 1.0
        and abs(rate * trials - round(rate * trials)) < 1e-9
    )
    if not ok:
        return Outcome("failed", "row out of range: %r" % rows[1])
    return Outcome("ok", quality=rate)


class Checker:
    """Reference data for every operation, computed after set-up, untimed."""

    def __init__(self, ops, work):
        from shuffle_regress.model import read_instance_record

        self.work = work
        self.refs = {}
        for op in ops:
            if op.kind == "fptas":
                rec = read_instance_record(op.path(work))
                self.refs[op.name] = (rec, fptas_reference(rec))
            elif op.kind == "lattice":
                with open(op.path(work)) as fh:
                    self.refs[op.name] = json.load(fh)

    def check(self, op, code, out, err) -> Outcome:
        try:
            if op.kind == "fptas":
                return check_fptas(code, out, err, *self.refs[op.name])
            if op.kind == "lattice":
                return check_lattice(code, out, err, self.refs[op.name])
            return check_sweep(code, out, err, op.path(self.work), op)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
            return Outcome("failed", "unreadable output: %r" % e)


# ---------------------------------------------------------------------------
# set-up, passes and metrics


_REF_DATA = []  # filled on first use, after load_package() has pinned BLAS threads


def reference_seconds() -> float:
    """Time one fixed computation that uses nothing of the package, to
    measure how fast the host runs at this moment.

    It mixes interpreter arithmetic, small numpy calls, big-integer and
    integer-list arithmetic (about an eighth of the time each) with sorts of
    a 40000-element array (about half).  On the shared 2-vCPU machine the
    benchmark was written on, over minutes in which its speed drifted by
    50 %, this mix slowed in step with all three workloads: the ratio of a
    workload's 10-second median to this one varied 4 times less than the
    workload's own median.
    """
    import numpy as np

    if not _REF_DATA:
        rng = np.random.default_rng(0)
        a = [3**200 + i for i in range(200)]
        b = [5**190 + i for i in range(200)]
        _REF_DATA.extend((rng.standard_normal((6, 2)), rng.standard_normal(40000), a, b))
    small, big, a, b = _REF_DATA
    t0 = time.perf_counter()
    acc = 0
    for i in range(36000):
        acc += i * i
    for _ in range(170):
        np.linalg.svd(small, full_matrices=False)
        np.argsort(small[:, 0])
    x, m = 3**3000, 7**2900
    for _ in range(13):
        x = (x * x) % m
    for _ in range(13):
        acc += sum(u * v for u, v in zip(a, b)) + len([u * v - v for u, v in zip(a, b)])
    for _ in range(27):
        np.sort(big)
    return time.perf_counter() - t0


class ReferenceClock:
    """Times steps at the reference speed.

    The host is shared, and its speed drifts by tens of percent over minutes
    and in bursts of seconds.  The clock times ``reference_seconds()`` between
    consecutive steps and scales each step's seconds by ``REF_S`` over the
    mean of the reference times just before and just after it.  That cancels
    most of the drift; what is left is mostly bursts shorter than one step,
    which the medians over a run absorb.
    """

    def __init__(self):
        self.refs = [reference_seconds()]

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (result, seconds, factor), where
        ``seconds * factor`` is the time at reference speed."""
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.refs.append(reference_seconds())
        return result, seconds, 2.0 * REF_S / (self.refs[-2] + self.refs[-1])


def _import_once() -> float:
    code = "import time; t = time.perf_counter(); import shuffle_regress; print(time.perf_counter() - t)"
    res = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout)


def import_seconds(clock, reps: int = SETUP_REPS) -> float:
    """Median time, at reference speed, to import the package in a fresh interpreter."""
    times = []
    for _ in range(reps):
        measured, _, factor = clock.time(_import_once)
        times.append(measured * factor)
    return statistics.median(times)


def _generate_once(cli, ops, work):
    for op in ops:
        if op.gen:
            code, _, err, _ = call(cli, list(op.gen) + [op.path(work)])
            if code != 0:
                raise RuntimeError("gen failed for %s: %s" % (op.name, err.strip()))


def generate(cli, ops, work, clock, reps: int = SETUP_REPS) -> float:
    """Write every instance file ``reps`` times; median seconds of one round,
    at reference speed."""
    times = []
    for _ in range(reps):
        _, seconds, factor = clock.time(_generate_once, cli, ops, work)
        times.append(seconds * factor)
    return statistics.median(times)


@dataclass
class OpResult:
    name: str
    seconds: float  # as measured
    scaled: float  # at reference speed
    outcome: Outcome


@dataclass
class Pass:
    traced: bool
    results: list
    layers: dict = None

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def run_pass(cli, ops, checker, work, clock, tracer=None, deadline=math.inf) -> Pass:
    """Run ``ops`` in order; stop before an operation once ``deadline`` has passed."""
    results = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for idx, op in enumerate(ops):
            if time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = idx
            (code, out, err, seconds), _, factor = clock.time(call, cli, op.command(work))
            results.append(OpResult(op.name, seconds, seconds * factor, checker.check(op, code, out, err)))
    return Pass(traced=tracer is not None, results=results)


def measure(cli, ops, checker, work, clock, seed, seconds, trace) -> list:
    """Closed-loop passes until ``seconds`` have elapsed.

    Without ``trace`` the first pass is complete and later passes stop at the
    deadline.  With ``trace`` the passes alternate plain, traced, plain, ...,
    every pass is complete and at least one of each kind runs.
    """
    rng = random.Random(seed)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or (trace and len(passes) < 2):
        order = list(ops)
        rng.shuffle(order)
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        cut = deadline if passes and not trace else math.inf
        p = run_pass(cli, order, checker, work, clock, tracer, cut)
        if tracer is not None:
            p.layers = tracing.layer_metrics(tracer.spans)
        passes.append(p)
    return passes


def plain_latencies(passes) -> list:
    """Per-operation seconds at reference speed over the plain passes;
    declined and failed operations count as +inf."""
    return [r.scaled if r.outcome.status == "ok" else math.inf for p in passes if not p.traced for r in p.results]


def tail(latencies):
    """Highest nearest-rank percentile with at least ``TAIL_BEYOND`` samples
    beyond it: (value, percentile); (nan, nan) when there are too few samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return math.nan, math.nan
    j = n - TAIL_BEYOND - 1
    return sorted(latencies)[j], 100.0 * (j + 1) / n


def by_operation(passes) -> dict:
    """Results of each operation, by name, over the plain passes."""
    out = {}
    for r in (r for p in passes if not p.traced for r in p.results):
        out.setdefault(r.name, []).append(r)
    return out


def end_to_end(passes, setup_s, attr="scaled") -> dict:
    """Plain-pass metrics at reference speed (``attr="seconds"``: as measured).

    Both timings come from each operation's median time over the run, which
    stays at the usual speed through bursts of load on the host, faster as
    well as slower ones.  ``wall_s`` is their sum; ``op_s.p50`` their median
    over operations, where an operation that was declined or failed counts as
    +inf.
    """
    med, ok = {}, {}
    for name, results in by_operation(passes).items():
        med[name] = statistics.median(getattr(r, attr) for r in results)
        ok[name] = all(r.outcome.status == "ok" for r in results)
    return {
        "setup_s": setup_s,
        "wall_s": sum(med.values()),
        "op_s.p50": statistics.median([med[k] if ok[k] else math.inf for k in med]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def quality(passes) -> dict:
    """Outcome metrics.  ``ops``, ``declined`` and ``failed`` count every
    execution; ``fail_frac`` and ``quality`` take each operation once (its
    first execution), so they repeat exactly however many passes ran."""
    results = [r for p in passes for r in p.results]
    first = {}
    for r in results:
        first.setdefault(r.name, r.outcome)
    q = [o.quality for o in first.values() if o.status == "ok" and not math.isnan(o.quality)]
    return {
        "ops": len(results),
        "declined": sum(r.outcome.status == "declined" for r in results),
        "failed": sum(r.outcome.status == "failed" for r in results),
        "operations": len(first),
        "op_declined": sum(o.status == "declined" for o in first.values()),
        "op_failed": sum(o.status == "failed" for o in first.values()),
        "fail_frac": sum(o.status != "ok" for o in first.values()) / len(first),
        "quality": sorted(q),
    }


def per_layer(passes) -> tuple:
    """(metrics, deterministic): counts from the traced passes, which must
    agree exactly; times are medians over traced passes."""
    traced = [p for p in passes if p.traced]
    first = traced[0].layers
    deterministic = all(p.layers[k] == first[k] for p in traced for k in tracing.COUNT_KEYS)
    out = {}
    for key in first:
        if key in tracing.COUNT_KEYS:
            out[key] = first[key]
        else:
            out[key] = statistics.median(p.layers[key] for p in traced)
    plain_wall = statistics.median(p.wall for p in passes if not p.traced)
    out["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / plain_wall - 1.0
    return out, deterministic


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        if name in tracing.SELF_TIMED:
            units[name + ".self_s"] = "s"
    units.update({
        "approx.fptas_solve.refused": "count",
        "rowsample.row_sample.rows": "count",
        "lattice.recover.none": "count",
        "lattice.find_permutation.none": "count",
        "lattice.guess_hit_ratio": "ratio",
        "lattice.lll_reduce.dim.max": "count",
        "lattice.lll_reduce.input_bits.max": "bits",
        "trace.overhead_frac": "ratio",
    })
    return units


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def run(workload, seed, seconds, trace, ops=None) -> dict:
    """Set up, measure and check one workload; returns everything reported."""
    cli = load_package()
    clock = ReferenceClock()
    t_import = import_seconds(clock)
    ops = WORKLOADS[workload] if ops is None else ops
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setup_s = t_import + generate(cli, ops, work, clock)
        checker = Checker(ops, work)
        passes = measure(cli, ops, checker, work, clock, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    rep = {
        "passes": passes,
        "quality": quality(passes),
        "e2e": end_to_end(passes, setup_s),
        "as_measured": end_to_end(passes, math.nan, "seconds"),
        "ref_s": statistics.median(clock.refs),
    }

    if trace:
        rep["layers"], rep["deterministic"] = per_layer(passes)
    return rep


# ---------------------------------------------------------------------------
# output


def _fmt(v) -> str:
    return "%.6g" % v if isinstance(v, float) else str(v)


def report_lines(workload, seed, rep) -> list:
    q = rep["quality"]
    passes = rep["passes"]
    lat = plain_latencies(passes)
    t_val, t_pct = tail(lat)
    lines = [
        "workload %s seed %d: %d passes (%d traced), %d executions of %d operations, closed loop, 1 client"
        % (workload, seed, len(passes), sum(p.traced for p in passes), q["ops"], q["operations"]),
        "env %s" % json.dumps(environment(), sort_keys=True),
        "pass_wall_s %s" % " ".join("%.4f%s" % (p.wall, "(traced)" if p.traced else "") for p in passes),
    ]
    for name, val in rep["e2e"].items():
        lines.append("metric %s %s %s" % (name, _fmt(val), E2E_UNITS[name]))
    raw = rep["as_measured"]
    lines.append(
        "as_measured wall_s %s s, op_s.p50 %s s; reference computation median %s s, scaled to %g s"
        % (_fmt(raw["wall_s"]), _fmt(raw["op_s.p50"]), _fmt(rep["ref_s"]), REF_S)
    )
    lines.append(
        "metric op_s.tail %s s (p%.1f of %d plain operations, %d beyond; declined and failed count as +inf)"
        % (_fmt(t_val), t_pct, len(lat), TAIL_BEYOND)
    )
    lines.append(
        "metric fail_frac %s ratio (%d declined, %d failed of %d operations)"
        % (_fmt(q["fail_frac"]), q["op_declined"], q["op_failed"], q["operations"])
    )
    if workload == "fptas-large" and q["quality"]:
        lines.append("metric cost_ratio.max %s ratio" % _fmt(max(q["quality"])))
    if workload == "fptas-sweep" and q["quality"]:
        lines.append("metric success_rate.mean %s ratio" % _fmt(statistics.fmean(q["quality"])))
    if "layers" in rep:
        for name, unit in per_layer_units().items():
            lines.append("layer %s %s %s" % (name, _fmt(rep["layers"][name]), unit))
    for p in passes:
        for r in p.results:
            if r.outcome.status != "ok":
                lines.append("%s %s: %s" % (r.outcome.status, r.name, r.outcome.detail[:160]))
    return lines


def result_json(rep, trace) -> str:
    q = rep["quality"]
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rep["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in rep["e2e"].items()}
    correct = q["failed"] == 0 and rep.get("deterministic", True)
    return json.dumps(
        {"correct": correct, "attempted": q["ops"], "failed": q["failed"], "metrics": metrics},
        allow_nan=False,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_package()
    rep = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(args.workload, args.seed, rep):
        print(line)
    try:
        print(result_json(rep, args.trace))
    except ValueError as e:  # a non-finite metric, e.g. most operations declined
        print("perfbench: cannot report: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
