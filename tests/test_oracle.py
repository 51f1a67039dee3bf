import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shuffle_regress import (
    CapExceededError,
    Instance,
    Permutation,
    brute_force,
    gen_gaussian_noisy,
    perm_match_brute,
    subset_sum_brute,
)
from shuffle_regress.oracle import ols_given_perm


class TestOlsGivenPerm:
    def test_normal_equations(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        perm = Permutation((3, 1, 4, 0, 5, 2))
        sol = ols_given_perm(x, y, perm)
        xp = x[list(perm.map)]
        grad = xp.T @ (xp @ sol.w - y)
        scale = np.linalg.norm(xp.T @ y) + 1.0
        assert np.linalg.norm(grad) <= 1e-8 * scale
        assert sol.cost == pytest.approx(((xp @ sol.w - y) ** 2).sum())

    def test_consistent_system_zero_cost(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([0.5])
        perm = Permutation((2, 0, 1))
        y = (x @ w)[list(perm.map)]
        sol = ols_given_perm(x, y, perm)
        assert sol.cost <= 1e-18
        assert np.allclose(sol.w, w)


def exhaustive_min(inst):
    best = None
    for p in itertools.permutations(range(inst.n)):
        sol = ols_given_perm(inst.x, inst.y, Permutation(p))
        if best is None or sol.cost < best.cost:
            best = sol
    return best


class TestBruteForce:
    def test_matches_exhaustive(self):
        for seed in range(8):
            inst, _ = gen_gaussian_noisy(np.array([1.0, -0.5]), 5, 0.4, seed)
            got = brute_force(inst)
            want = exhaustive_min(inst)
            assert got.cost == pytest.approx(want.cost, rel=1e-12, abs=1e-12)

    def test_noiseless_zero_cost(self):
        inst, truth = gen_gaussian_noisy(np.array([2.0, 1.0]), 5, 0.0, 3)
        sol = brute_force(inst)
        assert sol.cost <= 1e-18
        assert sol.perm.map == truth.pi_bar.map

    def test_lexicographic_tie_break(self):
        # two identical covariate rows tie; smallest permutation tuple wins
        inst = Instance(x=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]))
        sol = brute_force(inst)
        assert sol.perm.map == (0, 1)

    def test_cap_refusal(self):
        inst = Instance(x=np.zeros((9, 1)), y=np.zeros(9))
        with pytest.raises(CapExceededError):
            brute_force(inst)

    def test_cap_override(self):
        inst = Instance(x=np.zeros((9, 1)), y=np.zeros(9))
        sol = brute_force(inst, cap=9)
        assert sol.cost == 0.0

    def test_n_one(self):
        inst = Instance(x=np.array([[3.0]]), y=np.array([6.0]))
        sol = brute_force(inst)
        assert sol.cost <= 1e-18 and sol.w[0] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "x, y",
        [
            # ill-conditioned: the projection residual is 9.8e-64, while the
            # pinv weights miss by about 1e-2
            (((3.0, 1.0), (0.0, 1e-14)), (1.0, 1.0)),
            # subnormal singular value: pinv overflows and the cost was NaN
            (((0.0,), (2.22507386e-313,)), (0.0, 0.0)),
        ],
    )
    def test_reported_cost_is_attained(self, x, y):
        inst = Instance(x=np.array(x), y=np.array(y))
        sol = brute_force(inst)
        pred = inst.x @ sol.w
        direct = float(((pred[list(sol.perm.map)] - inst.y) ** 2).sum())
        assert math.isfinite(sol.cost)
        assert abs(sol.cost - direct) <= 1e-12 * max(1.0, float(inst.y @ inst.y))


class TestPermMatchBrute:
    def test_matches_assignment(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        res = perm_match_brute(a, b)
        want = min(
            ((a[list(p)] - b) ** 2).sum() for p in itertools.permutations(range(6))
        )
        assert res.cost == pytest.approx(want, rel=1e-13)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            perm_match_brute(np.zeros(9), np.zeros(9))


class TestSubsetSumBrute:
    def test_pinned_examples(self):
        assert subset_sum_brute((1, 2, 4), 5) == (0, 2)
        assert subset_sum_brute((1, 2, 4), 0) == ()
        assert subset_sum_brute((1, 2, 4), 8) is None

    def test_fractions_exact(self):
        vals = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
        assert subset_sum_brute(vals, Fraction(1, 2)) in ((0, 1), (2,))
        # whichever subset is returned must sum exactly
        got = subset_sum_brute(vals, Fraction(1, 2))
        assert sum(vals[i] for i in got) == Fraction(1, 2)

    def test_float_inputs_would_be_inexact(self):
        # 0.1 + 0.2 != 0.3 in binary; exact rationals avoid that trap
        vals = (Fraction(1, 10), Fraction(2, 10))
        assert subset_sum_brute(vals, Fraction(3, 10)) == (0, 1)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            subset_sum_brute(tuple(range(1, 26)), 3)

    def test_indices_ascending(self):
        got = subset_sum_brute((5, 1, 2, 4), 7)
        assert got is not None
        assert list(got) == sorted(got)
        assert sum((5, 1, 2, 4)[i] for i in got) == 7
