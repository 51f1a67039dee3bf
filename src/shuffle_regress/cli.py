"""Command line front end.

Subcommands:

* ``gen``                write a random instance to a JSON file
* ``solve``              solve one instance file (``fptas``, ``brute`` or ``lattice``)
* ``sweep-snr``          Monte-Carlo error / success sweep over an SNR grid (CSV)
* ``check-order-stats``  uniform order-statistics sanity report (JSON)
* ``check-w2``           sorted-projection distance decay check (CSV)
* ``reduce``             3-partition instance -> permuted-linear-system file

The two check commands run at fixed sizes and take no setting but
``check-w2``'s output path.

``gen --p`` (noiseless model only) puts the values on the ``2^-p`` grid and
writes the exact instance as it is; the writer refuses a grid so fine that some
response is no double.  ``solve --solver lattice`` recovers from the exact
rationals the file's doubles denote; the separation margin comes from their
denominators, so no grid exponent is recorded.

Exit codes: 0 success; 2 usage or validation error (bad flags, malformed
files, refused caps or budgets); 3 declared solver failure (exact recovery
verified nothing, or a check command's assertion failed); 4 internal
invariant breach.

Determinism: every command is seeded and byte-reproducible, with one
exception: the ``wall_time_s`` column of ``sweep-snr`` measures real elapsed
time.  ``--jobs`` (default 1) changes timings only, never row contents or
order.  Per-trial entropy is ``SeedSequence([seed, snr_index, trial_index])``;
spawn children 0-2 feed the instance generators (covariates, permutation,
noise) and child 3 draws the weight vector.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import lattice
from .approx import DEFAULT_BUDGET, fptas_solve
from .errors import BudgetExceededError, CapExceededError, InternalInvariantError
from .hardness import ThreePartitionInstance, reduce_3partition
from .model import (
    AnchoredInstance,
    GroundTruth,
    gen_gaussian_noisy,
    gen_noiseless_anchored,
    gen_uniform_noisy,
    quantize_noiseless,
    random_unit_vector,
    read_instance_record,
    write_instance,
)
from .oracle import BRUTE_CAP, brute_force, ols_given_perm
from .perm1d import sort_match

__all__ = ["main", "order_stats_report", "w2_report"]

SWEEP_COLUMNS = (
    "snr",
    "n",
    "d",
    "mean_err",
    "std_err",
    "success_rate",
    "baseline_mean_err",
    "wall_time_s",
)

_SWEEP_P = 16  # the lattice sweep quantizes its draws on the 2^-16 grid

# check-order-stats: (n, trials, seed), and the largest relative miss of the
# pair statistic, the bound acceptance 09 applies at n = 10
_ORDER_STATS = (10, 100_000, 0)
_ORDER_STATS_TOL = 0.01
# check-w2: (n grid, d, trials, seed); the shrink rule reads n = 100 -> 10000
_W2 = ((100, 1000, 10000), 20, 50, 0)


def _w_rng(entropy) -> np.random.Generator:
    # child 3: children 0-2 belong to the instance generators; built
    # alone, it is the fourth child of SeedSequence(entropy).spawn(4)
    child = np.random.SeedSequence(entropy, spawn_key=(3,))
    return np.random.Generator(np.random.Philox(child))


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.model == "noiseless":
        if args.snr is not None:
            raise ValueError("--snr does not apply to the noiseless model")
        if args.p is not None and args.p < 1:
            raise ValueError("--p must be >= 1")
    else:
        if args.unanchored:
            raise ValueError("--unanchored applies to the noiseless model only")
        if args.p is not None:
            raise ValueError("--p applies to the noiseless model only")
        if args.snr is None:
            raise ValueError("--snr is required for the %s model" % args.model)
        if not args.snr > 0:
            raise ValueError("--snr must be > 0")
        sigma = 1 / math.sqrt(args.snr)  # --snr inf gives sigma 0

    w_bar = random_unit_vector(args.d, _w_rng(args.seed))

    if args.model == "gaussian":
        inst, truth = gen_gaussian_noisy(w_bar, args.n, sigma, args.seed)
    elif args.model == "uniform":
        inst, truth = gen_uniform_noisy(w_bar, args.n, sigma, args.seed)
    else:
        inst, truth = gen_noiseless_anchored(w_bar, args.n, args.seed, anchored=not args.unanchored)

    if args.p is not None:
        # regenerate on the grid so the exact identity survives quantization;
        # w_q is a double rounded to the grid, so it is a double again
        inst, w_q = quantize_noiseless(inst, truth, args.p)
        truth = GroundTruth(w_bar=w_q, pi_bar=truth.pi_bar, sigma=0.0)

    write_instance(args.output, inst, truth=truth)
    print("wrote %s (model=%s n=%d d=%d)" % (args.output, args.model, args.n, args.d))
    return 0


# ---------------------------------------------------------------------------
# solve


def _fptas_settings(args) -> tuple[float, int]:
    """``--eps`` and ``--budget`` with their defaults; other solvers refuse both."""
    for flag, value in (("--eps", args.eps), ("--budget", args.budget)):
        if value is not None and args.solver != "fptas":
            raise ValueError("%s applies to --solver fptas only" % flag)
    eps = 0.5 if args.eps is None else args.eps
    return eps, DEFAULT_BUDGET if args.budget is None else args.budget


def cmd_solve(args) -> int:
    eps, budget = _fptas_settings(args)
    inst = read_instance_record(args.instance).instance

    if args.solver in ("fptas", "brute"):
        if isinstance(inst, AnchoredInstance):
            raise ValueError("solver %r expects an unanchored instance" % args.solver)
        if args.solver == "fptas":
            sol = fptas_solve(inst, eps, budget=budget)
            out = {"solver": "fptas", "eps": eps}
        else:
            sol = brute_force(inst)
            out = {"solver": "brute"}
        out.update(
            cost=sol.cost,
            w=[float(v) for v in sol.w],
            perm=list(sol.perm.map),
        )
        print(json.dumps(out))
        return 0

    if not isinstance(inst, AnchoredInstance):
        raise ValueError("solver lattice expects an anchored instance")
    res = lattice.recover(inst)
    if res is None:
        print(json.dumps({"solver": "lattice", "failure": "no anchor hypothesis verified"}))
        print("failure: no anchor hypothesis verified", file=sys.stderr)
        return 3
    print(json.dumps({"solver": "lattice", **res.as_jsonable()}))
    return 0


# ---------------------------------------------------------------------------
# sweep-snr


def _sweep_cell(args, eps: float, budget: int, cell: tuple) -> list:
    snr_index, snr = cell
    t0 = time.perf_counter()
    errs: list = []
    base_errs: list = []
    successes = 0
    for trial in range(args.trials):
        ent = [args.seed, snr_index, trial]
        w_bar = random_unit_vector(args.d, _w_rng(ent))
        if args.solver == "lattice":
            inst, truth = gen_noiseless_anchored(w_bar, args.n, ent, anchored=False)
            q, w_q = quantize_noiseless(inst, truth, _SWEEP_P)
            res = lattice.recover(q)
            wq = np.array(w_q, dtype=float)
            if res is not None:
                errs.append(float(np.linalg.norm(np.array(res.w, dtype=float) - wq)))
                if res.perm.map == truth.pi_bar.map and res.w == w_q:
                    successes += 1
            xa = np.array([inst.x0, *inst.x], dtype=float)
            ya = np.array([inst.y0, *inst.y], dtype=float)
            base = ols_given_perm(xa, ya, truth.pi_bar)
            base_errs.append(float(np.linalg.norm(base.w - wq)))
        else:
            sigma = 1 / math.sqrt(snr)
            gen = gen_gaussian_noisy if args.model == "gaussian" else gen_uniform_noisy
            inst, truth = gen(w_bar, args.n, sigma, ent)
            if args.solver == "fptas":
                sol = fptas_solve(inst, eps, budget=budget)
            else:
                sol = brute_force(inst)
            errs.append(float(np.linalg.norm(sol.w - w_bar)))
            if sol.perm.map == truth.pi_bar.map:
                successes += 1
            base = ols_given_perm(inst.x, inst.y, truth.pi_bar)
            base_errs.append(float(np.linalg.norm(base.w - w_bar)))
    wall = time.perf_counter() - t0
    mean = float(np.mean(errs)) if errs else float("nan")
    std = float(np.std(errs)) if errs else float("nan")
    return [
        snr,
        args.n,
        args.d,
        mean,
        std,
        successes / args.trials,
        float(np.mean(base_errs)),
        wall,
    ]


def cmd_sweep(args) -> int:
    eps, budget = _fptas_settings(args)
    grid = _parse_grid(args.snr_grid, float)
    if (args.solver == "lattice") != (args.model == "noiseless"):
        raise ValueError("the lattice solver pairs with the noiseless model only")
    if args.n < 1 or args.d < 1 or args.trials < 1 or args.jobs < 1:
        raise ValueError("n, d, trials and jobs must be >= 1")
    if args.model == "noiseless":
        grid = [math.inf]
    elif any(not s > 0 for s in grid):
        raise ValueError("snr grid values must be > 0")
    if args.solver == "brute" and args.n > BRUTE_CAP:
        cells = ", ".join("(snr=%s, n=%d, d=%d)" % (s, args.n, args.d) for s in grid)
        raise CapExceededError(
            "brute solver capped at n <= %d; refused cells: %s" % (BRUTE_CAP, cells)
        )
    cell = functools.partial(_sweep_cell, args, eps, budget)
    # the pool starts every worker at once, so never more than there are cells
    workers = min(args.jobs, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(cell, enumerate(grid)))
    else:
        rows = list(map(cell, enumerate(grid)))
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SWEEP_COLUMNS)
        wr.writerows(rows)
    print("wrote %s (%d rows)" % (args.output, len(rows)))
    return 0


# ---------------------------------------------------------------------------
# check-order-stats


def order_stats_report(n: int, trials: int, seed: int) -> dict:
    """Empirical vs exact moments of uniform order statistics on [-1/2, 1/2].

    The pair statistic is ``sum_i (u_(i) + u_(n+1-i))^2``; its exact mean is
    ``(1 - 1/(n+1))/2`` for even ``n`` and ``(1 - 1/(n+2))/2`` for odd ``n``.
    Rank means satisfy ``E[u_(r)] = r/(n+1) - 1/2``.
    """
    if n < 2 or trials < 1:
        raise ValueError("need n >= 2 and trials >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    u = rng.random((trials, n)) - 0.5
    u.sort(axis=1)
    pair_emp = float((((u + u[:, ::-1]) ** 2).sum(axis=1)).mean())
    if n % 2 == 0:
        pair_exact = 0.5 * (1.0 - 1.0 / (n + 1))
    else:
        pair_exact = 0.5 * (1.0 - 1.0 / (n + 2))
    ranks = [
        {
            "r": r,
            "empirical": float(u[:, r - 1].mean()),
            "exact": r / (n + 1) - 0.5,
        }
        for r in range(1, n + 1)
    ]
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "pair_sum_sq": {
            "empirical": pair_emp,
            "exact": pair_exact,
            "rel_err": abs(pair_emp - pair_exact) / pair_exact,
        },
        "rank_means": ranks,
    }


def cmd_check_order_stats(args) -> int:
    rep = order_stats_report(*_ORDER_STATS)
    print(json.dumps(rep, indent=1))
    if rep["pair_sum_sq"]["rel_err"] > _ORDER_STATS_TOL:
        print(
            "failure: pair statistic off by %.3g (tol %.3g)"
            % (rep["pair_sum_sq"]["rel_err"], _ORDER_STATS_TOL),
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# check-w2


def w2_report() -> list:
    """Mean squared sorted-projection distance per sample size.

    For each ``n`` of the ``_W2`` grid, draws Gaussian covariates and two
    independent unit directions, and averages ``min_perm ||(Xu)_perm - Xv||^2``
    (computed by sorting) over trials.  Rows are dicts with ``n``,
    ``mean_sq`` and ``mean_sq_per_n``.
    """
    n_grid, d, trials, seed = _W2
    rows = []
    for ni, n in enumerate(n_grid):
        tot = 0.0
        for trial in range(trials):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([seed, ni, trial]))
            )
            x = rng.standard_normal((n, d))
            u = random_unit_vector(d, rng)
            v = random_unit_vector(d, rng)
            tot += sort_match(x @ u, x @ v).cost
        mean_sq = tot / trials
        rows.append({"n": int(n), "mean_sq": mean_sq, "mean_sq_per_n": mean_sq / n})
    return rows


def cmd_check_w2(args) -> int:
    rows = w2_report()
    with open(args.output, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("n", "mean_sq", "mean_sq_per_n"))
        for row in rows:
            wr.writerow((row["n"], row["mean_sq"], row["mean_sq_per_n"]))
    print("wrote %s (%d rows)" % (args.output, len(rows)))
    per_n = [row["mean_sq_per_n"] for row in rows]
    for a, b in zip(per_n, per_n[1:]):
        if b > a:
            print("failure: per-n mean increased along the grid", file=sys.stderr)
            return 3
    ratio = per_n[0] / per_n[-1]
    print("shrink factor n=100 -> n=10000: %.3f" % ratio)
    if ratio < 4.0:
        print("failure: shrink factor %.3f below 4" % ratio, file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    inst = reduce_3partition(ThreePartitionInstance(z=tuple(_parse_grid(args.z, int))))
    write_instance(args.output, inst)
    print("wrote %s (n=%d d=%d); zero brute-force cost means feasible" % (args.output, inst.n, inst.d))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _parse_grid(text: str, typ):
    try:
        vals = [typ(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ValueError("bad grid %r: %s" % (text, e)) from e
    if not vals:
        raise ValueError("empty grid %r" % text)
    return vals


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shuffle-regress",
        description="Linear regression with an unknown row correspondence.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a random instance as JSON")
    g.add_argument("--model", choices=("gaussian", "uniform", "noiseless"), required=True)
    g.add_argument("--n", type=int, required=True, help="number of shuffled measurements")
    g.add_argument("--d", type=int, required=True, help="number of covariates")
    g.add_argument("--snr", type=float, help="signal-to-noise ratio ||w||^2 / sigma^2; inf for no noise")
    g.add_argument("--p", type=int, help="noiseless only: put covariates and weights on the 2^-p grid")
    g.add_argument("--unanchored", action="store_true", help="noiseless only: shuffle the anchor row too")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--output", "-o", required=True)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--solver", choices=("fptas", "brute", "lattice"), required=True)
    s.add_argument("--eps", type=float, help="fptas only: accuracy (default 0.5)")
    s.add_argument("--budget", type=int, help="fptas only: evaluation budget")

    w = sub.add_parser("sweep-snr", help="Monte-Carlo sweep over an SNR grid, CSV output")
    w.add_argument("--model", choices=("gaussian", "uniform", "noiseless"), required=True)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--d", type=int, required=True)
    w.add_argument("--snr-grid", default="1,2,4,8", help="comma separated SNR values (ignored for noiseless)")
    w.add_argument("--trials", type=int, default=50)
    w.add_argument("--solver", choices=("fptas", "brute", "lattice"), required=True)
    w.add_argument("--eps", type=float, help="fptas only: accuracy (default 0.5)")
    w.add_argument("--budget", type=int, help="fptas only: evaluation budget")
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--jobs", type=int, default=1, help="parallel cells (default 1)")
    w.add_argument("--output", "-o", required=True)

    sub.add_parser("check-order-stats", help="order-statistics sanity report, n = 10")

    c = sub.add_parser("check-w2", help="sorted-projection distance decay check, n = 100..10000")
    c.add_argument("--output", "-o", required=True)

    r = sub.add_parser("reduce", help="3-partition to permuted-linear-system instance")
    r.add_argument("--z", required=True, help="comma separated values, 3k of them; k and c follow")
    r.add_argument("--output", "-o", required=True)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parsing leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so the command functions can be replaced
    commands = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "sweep-snr": cmd_sweep,
        "check-order-stats": cmd_check_order_stats,
        "check-w2": cmd_check_w2,
        "reduce": cmd_reduce,
    }
    try:
        return int(commands[args.command](args) or 0)
    except (BudgetExceededError, ValueError, OSError) as e:
        # ParseError, SchemaError, CapExceededError, RankDeficiencyError and
        # DegenerateInstanceError are ValueErrors
        print("error: %s" % e, file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
