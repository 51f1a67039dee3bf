import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_regress import sort_match

from reference import perm_match_brute


class TestSortMatch:
    def test_pinned_zero_cost(self):
        res = sort_match([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert res.cost == 0.0
        assert res.perm.map == (2, 0, 1)

    def test_pinned_two_point(self):
        res = sort_match([0.0, 1.0], [10.0, 0.0])
        assert res.cost == pytest.approx(81.0)
        # response 10 pairs with covariate 1, response 0 with covariate 0
        assert res.perm.map == (1, 0)

    def test_perm_direction(self):
        # perm maps response index -> matched a-index
        a = [5.0, -1.0, 2.0]
        b = [1.9, 5.2, -0.8]
        res = sort_match(a, b)
        paired = [a[res.perm(i)] for i in range(3)]
        assert paired == [2.0, 5.0, -1.0]

    def test_matches_brute_small(self):
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            for _ in range(20):
                a = rng.normal(size=n)
                b = rng.normal(size=n)
                res = sort_match(a, b)
                direct = float(((a[list(res.perm.map)] - b) ** 2).sum())
                assert res.cost == pytest.approx(direct, abs=1e-12)
                assert res.cost <= perm_match_brute(a, b).cost * (1 + 1e-12) + 1e-12

    def test_invariant_under_permuting_inputs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        base = sort_match(a, b).cost
        for _ in range(10):
            pa = rng.permutation(6)
            pb = rng.permutation(6)
            assert sort_match(a[pa], b[pb]).cost == pytest.approx(base, rel=1e-15)

    def test_monotone_alignment_distinct(self):
        # with distinct entries the optimum pairs order statistics
        rng = np.random.default_rng(2)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        res = sort_match(a, b)
        ra = np.argsort(np.argsort(a))
        rb = np.argsort(np.argsort(b))
        assert all(ra[res.perm(i)] == rb[i] for i in range(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_match([1.0], [1.0, 2.0])

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            sort_match([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="non-finite entries"):
            sort_match([1.0, bad], [0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite entries"):
            sort_match([0.0, 1.0], [bad, 1.0])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(-10, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_costs_n_t_squared(self, vals, t):
        # matching a sequence against its own shift costs n * t^2
        a = np.array(vals)
        res = sort_match(a, a + t)
        assert res.cost == pytest.approx(len(vals) * t * t, rel=1e-9, abs=1e-9)


class TestWasserstein:
    def test_reflection_identity(self):
        # sum of (x_(i) + x_(n+1-i))^2 equals the matching cost of x vs -x
        rng = np.random.default_rng(4)
        x = rng.normal(size=9)
        s = np.sort(x)
        manual = float(((s + s[::-1]) ** 2).sum())
        assert sort_match(x, -x).cost == pytest.approx(manual, rel=1e-12)
