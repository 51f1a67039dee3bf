"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance NN] name: PASS/FAIL (detail)`` line so
a full run doubles as a checklist; thresholds and budgets are stated inline.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from shuffle_regress import (
    ThreePartitionInstance,
    brute_force,
    fptas_solve,
    gen_gaussian_noisy,
    gen_noiseless_anchored,
    gen_uniform_noisy,
    lll_reduce,
    quantize_noiseless,
    recover,
    reduce_3partition,
    row_sample,
    sort_match,
    LatticeBasis,
)
from shuffle_regress.lattice import subset_sum_basis
from shuffle_regress.model import random_unit_vector
from shuffle_regress.oracle import ols_given_perm
from shuffle_regress.cli import order_stats_report, w2_report

from reference import (
    SubsetSumInstance,
    approx_factor,
    check_3partition_brute,
    dense,
    det,
    gen_yes_instance,
    guess_embedding,
    lagarias_odlyzko,
    mat,
    perm_match_brute,
    pls_feasible_brute,
    solve,
    solve_weighted_ls,
    subset_sum_brute,
    transpose,
)

F = Fraction


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print("[acceptance %02d] %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "[acceptance %02d] %s: %s" % (num, name, detail)


def _gen(entropy):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def test_criterion_01_fptas_ratio(capsys):
    """fptas cost <= (1 + eps) * brute cost + 1e-9 on every draw; < 5 min."""
    t0 = time.monotonic()
    total = 0
    good = 0
    worst = 0.0
    for n in (4, 5, 6, 7):
        for d in (1, 2):
            for eps in (0.25, 0.5):
                for trial in range(50):
                    wr = _gen([10, n, d, int(eps * 100), trial])
                    w_bar = random_unit_vector(d, wr)
                    inst, _ = gen_gaussian_noisy(
                        w_bar, n, 0.5, [11, n, d, int(eps * 100), trial]
                    )
                    approx = fptas_solve(inst, eps)
                    exact = brute_force(inst)
                    total += 1
                    bound = (1.0 + eps) * exact.cost + 1e-9
                    if approx.cost <= bound:
                        good += 1
                    if exact.cost > 0:
                        worst = max(worst, approx.cost / exact.cost)
    elapsed = time.monotonic() - t0
    ok = good == total and elapsed < 300.0
    _report(
        capsys, 1, "fptas within 1+eps of brute force", ok,
        "%d/%d instances, worst ratio %.6f, %.1fs" % (good, total, worst, elapsed),
    )


def test_criterion_02_sort_match_optimal(capsys):
    """sort_match equals the brute-force assignment optimum; 200 pairs."""
    t0 = time.monotonic()
    total = 0
    good = 0
    for trial in range(200):
        rng = _gen([20, trial])
        n = int(rng.integers(1, 8))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fast = sort_match(a, b).cost
        slow = perm_match_brute(a, b).cost
        total += 1
        if abs(fast - slow) <= 1e-12 * max(1.0, abs(fast), abs(slow)):
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == total
    _report(
        capsys, 2, "sorting solves the 1-d matching", ok,
        "%d/%d pairs agree to 1e-12 relative, %.1fs" % (good, total, elapsed),
    )


def test_criterion_03_row_sampling(capsys):
    """4k rows, one nonzero each, rank k, c-approximate LS; 100 cases < 1 min."""
    t0 = time.monotonic()
    combos = [(n, k) for n in (8, 16, 32, 64) for k in (1, 2, 3, 4)]
    total = 0
    good = 0
    for idx in range(100):
        n, k = combos[idx % len(combos)]
        rng = _gen([30, idx])
        x = rng.normal(size=(n, k))
        u, _ = np.linalg.qr(x)
        b = rng.normal(size=n)
        s = row_sample(u)
        s_mat = dense(s)
        c = approx_factor(n, k)
        w_hat = solve_weighted_ls(s, u, b)
        opt = float(((u @ (u.T @ b) - b) ** 2).sum())
        got = float(((u @ w_hat - b) ** 2).sum())
        total += 1
        if (
            len(s.rows) == 4 * k
            and (np.count_nonzero(s_mat, axis=1) <= 1).all()
            and np.linalg.matrix_rank(s_mat @ u) == k
            and got <= c * opt + 1e-9
        ):
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == total and elapsed < 60.0
    _report(
        capsys, 3, "barrier row sampling", ok,
        "%d/%d cases satisfy size, sparsity, rank and c-approximation, %.1fs"
        % (good, total, elapsed),
    )


def _lll_test_basis(seed, dim):
    rng = _gen([40, seed])
    return tuple(tuple(int(v) for v in rng.integers(-10, 11, size=dim)) for _ in range(dim))


def _shortest_nonzero_sq(reduced, original):
    """Exact lattice first minimum, enumerated over the reduced basis ``B``
    of the square lattice that ``original`` spans.

    A shortest vector ``v`` is no longer than the shortest original column,
    ``R``, and its coefficients ``z = B^-1 v`` are integers, so
    ``|z_i| <= R * |row i of B^-1|``; every nonzero ``z`` in that box is
    tried.  The bounds are exact rationals, floored.
    """
    m = len(reduced)
    r_sq = min(sum(v * v for v in c) for c in original)
    b = transpose(mat(reduced))
    inv_cols = [solve(b, [F(int(i == j)) for i in range(m)]) for j in range(m)]
    bounds = [
        math.isqrt(math.floor(r_sq * sum(col[i] ** 2 for col in inv_cols))) for i in range(m)
    ]
    axes = [np.arange(-k, k + 1, dtype=np.int64) for k in bounds]
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    z = z[np.any(z != 0, axis=1)]
    v = z @ np.array(reduced, dtype=np.int64)
    return int(np.einsum("ij,ij->i", v, v).min())


@pytest.mark.parametrize("seed, dim, want", [(18, 5, 25), (33, 4, 12)])
def test_first_minimum_reference_is_exact(seed, dim, want):
    # two of acceptance 04's bases whose first minimum needs a coefficient
    # above 8 over the original columns
    cols = _lll_test_basis(seed, dim)
    red = lll_reduce(LatticeBasis(columns=cols))
    assert _shortest_nonzero_sq(red.columns, cols) == want


def test_criterion_04_lll_defect_bound(capsys):
    """||b_1|| <= 2^((k-1)/2) lambda_1 and unimodular change of basis; 50 bases."""
    t0 = time.monotonic()
    total = 0
    good = 0
    seed = 0
    while total < 50:
        dim = 2 + total % 5
        cols = _lll_test_basis(seed, dim)
        seed += 1
        try:
            red = lll_reduce(LatticeBasis(columns=cols))
        except ValueError:
            continue  # dependent draw, take another
        total += 1
        b1_sq = sum(v * v for v in red.columns[0])
        orig = transpose(mat(cols))
        t_cols = []
        unimodular_ok = True
        for c in red.columns:
            coeffs = solve(orig, [F(v) for v in c])
            if coeffs is None or any(v.denominator != 1 for v in coeffs):
                unimodular_ok = False
                break
            t_cols.append([int(v) for v in coeffs])
        if unimodular_ok:
            unimodular_ok = det(mat(transpose(t_cols))) in (1, -1)
        # the first minimum is enumerated over the reduced basis, which spans
        # the original lattice only when the change of basis is unimodular
        if unimodular_ok and b1_sq <= 2 ** (dim - 1) * _shortest_nonzero_sq(red.columns, cols):
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == total and elapsed < 60.0
    _report(
        capsys, 4, "integral LLL reduction", ok,
        "%d/%d bases meet the defect bound with unimodular transforms, %.1fs"
        % (good, total, elapsed),
    )


def test_criterion_05_lagarias_odlyzko_low_density(capsys):
    """>= 90% planted-subset recovery on 10-item 48-bit instances; < 1 min."""
    t0 = time.monotonic()
    total = 50
    found = 0
    verified = 0
    for trial in range(total):
        rng = _gen([50, trial])
        vals = [int(v) for v in rng.integers(1, 2**48, size=10)]
        mask = rng.integers(0, 2, size=10)
        if mask.sum() == 0:
            mask[0] = 1
        target = int(sum(v for v, m in zip(vals, mask) if m))
        ssi = SubsetSumInstance(
            sources={i: F(v) for i, v in enumerate(vals)},
            target=F(target),
        )
        res = lagarias_odlyzko(ssi, F(2) ** 16)
        if res.subset is None:
            continue
        found += 1
        exact = sum(vals[i] for i in res.subset) == target
        brute = subset_sum_brute(tuple(vals), target)
        if exact and brute is not None:
            verified += 1
    elapsed = time.monotonic() - t0
    ok = found >= 45 and verified == found and elapsed < 60.0
    _report(
        capsys, 5, "lattice subset-sum search", ok,
        "%d/%d found, %d/%d verified against brute force, %.1fs"
        % (found, total, verified, found, elapsed),
    )


@pytest.fixture(scope="module")
def recovery_runs():
    """Shared instances for the exact-recovery and planted-vector criteria."""
    t0 = time.monotonic()
    cells = [((2, 3), False), ((3, 4), True)]
    runs = []
    for cell_idx, ((d, n), anchored) in enumerate(cells):
        for trial in range(20):
            wr = _gen([60, cell_idx, trial])
            w_bar = random_unit_vector(d, wr)
            inst, truth = gen_noiseless_anchored(
                w_bar, n, [61, cell_idx, trial], anchored=anchored
            )
            q, w_q = quantize_noiseless(inst, truth, 16)
            res = recover(q)
            runs.append(
                {"cell": (d, n), "q": q, "truth": truth, "w_q": w_q, "res": res}
            )
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def test_criterion_06_exact_recovery(capsys, recovery_runs):
    """>= 90% exact (permutation, weights) recovery per cell at p=16; < 10 min."""
    runs = recovery_runs["runs"]
    elapsed = recovery_runs["elapsed"]
    by_cell = {}
    for r in runs:
        ok = (
            r["res"] is not None
            and r["res"].perm.map == r["truth"].pi_bar.map
            and r["res"].w == r["w_q"]
        )
        got, tot = by_cell.get(r["cell"], (0, 0))
        by_cell[r["cell"]] = (got + int(ok), tot + 1)
    ok = all(got >= math.ceil(0.9 * tot) for got, tot in by_cell.values())
    ok = ok and elapsed < 600.0
    detail = ", ".join(
        "(d=%d,n=%d) %d/%d" % (d, n, got, tot) for (d, n), (got, tot) in sorted(by_cell.items())
    )
    _report(capsys, 6, "exact recovery from n+1 quantized measurements", ok,
            detail + ", %.1fs" % elapsed)


def test_criterion_07_planted_vector_membership(capsys, recovery_runs):
    """(1, indicator of the true matching, 0) lies in the permutation
    sublattice of every true anchor guess: the target column plus the free
    columns of the true pairs."""
    t0 = time.monotonic()
    runs = recovery_runs["runs"]
    total = 0
    good = 0
    for r in runs:
        q, truth = r["q"], r["truth"]
        n, d = q.n, q.d
        a_star = truth.pi_bar(0)
        slots = [0 if j == a_star else j for j in range(1, n + 1)]  # x0 in slot a_star
        basis = subset_sum_basis(*guess_embedding(q, a_star, slots))
        (v,) = [list(col) for col in basis.columns if col[0] != 0]
        free = {}
        for col in basis.columns:
            if col[0] == 0:
                (pair,) = [
                    (i, j) for i in range(1, n) for j in range(1, n) if col[1 + i * n + j]
                ]
                free[pair] = col
        want = [0] * basis.dim
        want[0] = 1
        for i in range(n):
            j = slots.index(truth.pi_bar(i + 1))
            if i and j:
                v = [a + b for a, b in zip(v, free[i, j])]
            want[1 + i * n + j] = 1
        total += 1
        if v == want and sum(x * x for x in v) == n + 1:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == total
    _report(
        capsys, 7, "planted matching vector in the lattice", ok,
        "%d/%d instances, squared length n+1 exactly, %.1fs" % (good, total, elapsed),
    )


def test_criterion_08_hardness_reduction(capsys):
    """3-partition answer survives the reduction on 20 planted + 1 no-instance."""
    t0 = time.monotonic()
    cases = []
    for i in range(20):
        c = (15, 19, 23, 27)[i % 4]
        cases.append(gen_yes_instance(2, c, i))
    cases.append(ThreePartitionInstance(z=(4, 4, 4, 6, 6, 6)))
    total = 0
    good = 0
    saw_no = False
    for tp in cases:
        want = check_3partition_brute(tp)
        got = pls_feasible_brute(reduce_3partition(tp))
        saw_no = saw_no or not want
        total += 1
        if got == want:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == total and saw_no and elapsed < 60.0
    _report(
        capsys, 8, "3-partition reduction equivalence", ok,
        "%d/%d instances agree (incl. a genuine no-instance), %.1fs"
        % (good, total, elapsed),
    )


def test_criterion_09_order_statistics(capsys):
    """Pair statistic matches 5/11 (n=10) and 2/5 (n=3) within 1%% / 1.5%%."""
    t0 = time.monotonic()
    even = order_stats_report(10, 10**5, 3)
    odd = order_stats_report(3, 10**5, 3)
    even_ok = (
        even["pair_sum_sq"]["exact"] == pytest.approx(5.0 / 11.0)
        and even["pair_sum_sq"]["rel_err"] <= 0.01
    )
    odd_ok = (
        odd["pair_sum_sq"]["exact"] == pytest.approx(2.0 / 5.0)
        and odd["pair_sum_sq"]["rel_err"] <= 0.015
    )
    elapsed = time.monotonic() - t0
    ok = even_ok and odd_ok
    _report(
        capsys, 9, "uniform order-statistic moments", ok,
        "n=10 rel err %.4f (tol 0.01), n=3 rel err %.4f (tol 0.015), %.1fs"
        % (even["pair_sum_sq"]["rel_err"], odd["pair_sum_sq"]["rel_err"], elapsed),
    )


def test_criterion_10_noise_floor(capsys):
    """Shuffled errors stay >= 0.1 while known-permutation OLS keeps improving."""
    t0 = time.monotonic()
    snr = 2.0
    sigma = 1.0 / math.sqrt(snr)
    errs = []
    for trial in range(50):
        wr = _gen([100, trial])
        w_bar = random_unit_vector(2, wr)
        inst, _ = gen_uniform_noisy(w_bar, 6, sigma, [101, trial])
        sol = brute_force(inst)
        errs.append(float(np.linalg.norm(sol.w - w_bar)))
    shuffled_mean = float(np.mean(errs))

    def baseline(n, tag):
        vals = []
        for trial in range(500):
            wr = _gen([102, tag, trial])
            w_bar = random_unit_vector(2, wr)
            inst, truth = gen_uniform_noisy(w_bar, n, sigma, [103, tag, trial])
            sol = ols_given_perm(inst.x, inst.y, truth.pi_bar)
            vals.append(float(np.linalg.norm(sol.w - w_bar)))
        return float(np.mean(vals))

    base6 = baseline(6, 0)
    base24 = baseline(24, 1)
    elapsed = time.monotonic() - t0
    ok = shuffled_mean >= 0.1 and base24 <= 0.5 * base6
    _report(
        capsys, 10, "estimation noise floor without correspondence", ok,
        "shuffled mean err %.3f (>= 0.1), known-perm OLS %.3f @ n=6 vs %.3f @ n=24, %.1fs"
        % (shuffled_mean, base6, base24, elapsed),
    )


def test_criterion_11_w2_decay(capsys):
    """Sorted-projection mean squared distance per point shrinks >= 4x; < 2 min."""
    t0 = time.monotonic()
    rows = w2_report()
    per_n = [r["mean_sq_per_n"] for r in rows]
    shrink = per_n[0] / per_n[-1]
    monotone = all(a >= b for a, b in zip(per_n, per_n[1:]))
    elapsed = time.monotonic() - t0
    ok = shrink >= 4.0 and monotone and elapsed < 120.0
    _report(
        capsys, 11, "projected distance decay with n", ok,
        "shrink factor %.1f from n=100 to n=10000 (need >= 4), %.1fs" % (shrink, elapsed),
    )
