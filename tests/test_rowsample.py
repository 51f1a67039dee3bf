import math

import numpy as np
import pytest

from shuffle_regress import SamplingMatrix, row_sample
from shuffle_regress.rowsample import _DENOM_GUARD

from reference import apply, dense, solve_weighted_ls

# The barrier potentials one row at a time: the reference that
# TestRowSampleVersusPerRowScan holds the vectorised row_sample to.


class BarrierError(ArithmeticError):
    """A barrier evaluation hit a singular shift or a vanishing denominator."""


def _lower_from_eig(z2: np.ndarray, lam: np.ndarray, delta_l: float, ell: float) -> float:
    shift = ell + delta_l
    if np.any(lam == shift) or np.any(lam == ell):
        raise BarrierError("eigenvalue coincides with barrier shift")
    denom = float(np.sum(1.0 / (lam - shift)) - np.sum(1.0 / (lam - ell)))
    if abs(denom) < _DENOM_GUARD:
        raise BarrierError("lower potential difference below %g" % _DENOM_GUARD)
    val = float(np.sum(z2 / (lam - shift) ** 2) / denom - np.sum(z2 / (lam - shift)))
    if not math.isfinite(val):
        raise BarrierError("lower barrier overflow")
    return val


def lower_barrier(x, delta_l: float, a, ell: float) -> float:
    """Lower-barrier potential of direction ``x`` against matrix ``a``.

    With ``l' = ell + delta_l`` and ``phi(l, a) = sum_i 1 / (lambda_i(a) - l)``::

        L = x^T (a - l' I)^{-2} x / (phi(l', a) - phi(l, a)) - x^T (a - l' I)^{-1} x

    ``l'`` is not required to sit below the spectrum; the value may be
    negative.  Raises :class:`BarrierError` on a singular shift or
    when the potential difference falls below ``1e-14``.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    lam, q = np.linalg.eigh(a)
    z = q.T @ x
    return _lower_from_eig(z * z, lam, float(delta_l), float(ell))


def upper_barrier(x, delta: float, b_diag, u: float) -> float:
    """Upper-barrier potential of ``x`` against the diagonal matrix ``b_diag``.

    With ``u' = u + delta`` and ``phi'(u, b) = sum_{i=1}^{n} 1 / (u - b_ii)``
    (the sum runs over all ``n`` diagonal entries)::

        U = x^T (b - u' I)^{-2} x / (phi'(u, b) - phi'(u', b)) - x^T (b - u' I)^{-1} x

    Requires ``u'`` to exceed every diagonal entry; positive for ``x != 0``.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(b_diag, dtype=float)
    upr = u + delta
    if not upr > lam.max():
        raise BarrierError("u + delta does not clear the diagonal")
    if np.any(lam == u):
        raise BarrierError("eigenvalue coincides with barrier shift")
    denom = float(np.sum(1.0 / (u - lam)) - np.sum(1.0 / (upr - lam)))
    if abs(denom) < _DENOM_GUARD:
        raise BarrierError("upper potential difference below %g" % _DENOM_GUARD)
    x2 = x * x
    val = float(np.sum(x2 / (lam - upr) ** 2) / denom - np.sum(x2 / (lam - upr)))
    if not math.isfinite(val):
        raise BarrierError("upper barrier overflow")
    return val


def orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q


def approx_c(n, k):
    return 1.0 + 4.0 * (1.0 + math.sqrt(n / (4.0 * k))) ** 2


class TestBarriers:
    def test_lower_pinned(self):
        # A = (2), l = 0, l' = 1: 1/(0.5) * 1 - 1 = 1
        assert lower_barrier([1.0], 1.0, [[2.0]], 0.0) == pytest.approx(1.0)

    def test_upper_pinned(self):
        # B = diag(0), u = 1, u' = 2: (1/4)/(1/2) + 1/2 = 1
        assert upper_barrier([1.0], 1.0, [0.0], 1.0) == pytest.approx(1.0)

    def test_zero_x_zero_potential(self):
        assert lower_barrier([0.0, 0.0], 1.0, [[2.0, 0.0], [0.0, 3.0]], 0.0) == 0.0
        assert upper_barrier([0.0, 0.0], 1.0, [0.0, 0.5], 1.0) == 0.0

    def test_quadratic_scaling(self):
        a = [[2.0, 0.1], [0.1, 3.0]]
        x = np.array([0.4, -0.7])
        assert lower_barrier(2 * x, 1.0, a, 0.0) == pytest.approx(
            4 * lower_barrier(x, 1.0, a, 0.0)
        )
        bd = [0.2, 0.6]
        assert upper_barrier(2 * x, 1.0, bd, 1.0) == pytest.approx(
            4 * upper_barrier(x, 1.0, bd, 1.0)
        )

    def test_lower_diag_extra(self):
        # A = diag(2, 3), l = 0, l' = 1, x = e1:
        # denom = (1 + 1/2) - (1/2 + 1/3) = 2/3; val = 1/(2/3) - 1 = 0.5
        assert lower_barrier([1.0, 0.0], 1.0, [[2.0, 0.0], [0.0, 3.0]], 0.0) == pytest.approx(0.5)

    def test_upper_diag_extra(self):
        # B = diag(0, 0), u = 2, u' = 3: denom = 1 - 2/3 = 1/3
        # val = (1/9)/(1/3) + 1/3 = 2/3
        assert upper_barrier([1.0, 0.0], 1.0, [0.0, 0.0], 2.0) == pytest.approx(2.0 / 3.0)

    def test_upper_requires_clearance(self):
        with pytest.raises(BarrierError):
            upper_barrier([1.0], 0.5, [2.0], 1.0)

    def test_lower_singular_shift(self):
        with pytest.raises(BarrierError):
            lower_barrier([1.0], 1.0, [[1.0]], 0.0)


class TestSamplingMatrix:
    def test_dense_and_apply(self):
        s = SamplingMatrix(n=3, rows=((1, 2.0), (0, -1.0)))
        d = dense(s)
        assert d.shape == (2, 3)
        v = np.array([5.0, 7.0, 9.0])
        assert np.array_equal(apply(s, v), d @ v)
        assert list(apply(s, v)) == [14.0, -5.0]

    def test_column_bounds(self):
        with pytest.raises(ValueError):
            SamplingMatrix(n=2, rows=((2, 1.0),))


class TestRowSample:
    def test_minimal_case_shape(self):
        s = row_sample(np.array([[1.0]]))
        assert len(s.rows) == 4 and s.n == 1
        assert all(col == 0 for col, _ in s.rows)

    def test_row_budget_and_sparsity(self):
        for seed, (n, k) in enumerate([(8, 1), (12, 2), (16, 3), (20, 4)]):
            u = orthonormal(n, k, seed)
            s = row_sample(u)
            assert len(s.rows) == 4 * k
            d = dense(s)
            assert (np.count_nonzero(d, axis=1) <= 1).all()
            assert np.linalg.matrix_rank(d @ u) == k

    def test_repetition_allows_r_above_n(self):
        # more sampled rows than source rows is fine: rows repeat
        u = orthonormal(2, 2, 1)
        s = row_sample(u)
        assert len(s.rows) == 8
        cols = [col for col, _ in s.rows]
        assert len(set(cols)) <= 2

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            row_sample(np.array([[1.0], [1.0]]))

    def test_not_a_matrix_refused(self):
        with pytest.raises(ValueError, match="u_mat must be 2-d"):
            row_sample(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("u", [np.eye(3)[:2], np.zeros((2, 0))], ids=["n<k", "k=0"])
    def test_n_below_k_refused(self, u):
        with pytest.raises(ValueError, match="need n >= k >= 1"):
            row_sample(u)

    def test_deterministic(self):
        u = orthonormal(10, 2, 4)
        s1 = row_sample(u)
        s2 = row_sample(u)
        assert s1 == s2

    def test_c_approximation(self):
        # sampled LS beats c times the true optimum on random targets
        rng = np.random.default_rng(9)
        for n, k in [(8, 1), (16, 2), (32, 3), (64, 4)]:
            u = orthonormal(n, k, n + k)
            s = row_sample(u)
            c = approx_c(n, k)
            for _ in range(5):
                b = rng.normal(size=n)
                w_hat = solve_weighted_ls(s, u, b)
                opt = float(((u @ (u.T @ b) - b) ** 2).sum())
                got = float(((u @ w_hat - b) ** 2).sum())
                assert got <= c * opt + 1e-9


class TestSolveWeightedLs:
    def test_consistent_recovers(self):
        u = orthonormal(8, 2, 5)
        s = row_sample(u)
        w0 = np.array([1.5, -0.25])
        w = solve_weighted_ls(s, u, u @ w0)
        assert np.allclose(w, w0, atol=1e-10)

    def test_shape_validation(self):
        s = SamplingMatrix(n=2, rows=((0, 1.0),))
        with pytest.raises(ValueError):
            solve_weighted_ls(s, np.ones((3, 1)), np.ones(3))


def _row_sample_per_row(u, r):
    """The row-by-row admissibility scan, kept as the reference for row_sample."""
    n, k = u.shape
    delta = (1.0 + n / r) / (1.0 - math.sqrt(k / r))
    a = np.zeros((k, k))
    b_diag = np.zeros(n)
    weight_num = math.sqrt((1.0 - math.sqrt(k / r)) / r)
    rows = []
    for tau in range(r):
        ell = tau - math.sqrt(r * k)
        ub = delta * (tau + math.sqrt(n * r))
        lam, q = np.linalg.eigh(a)
        z2_all = (q.T @ u.T) ** 2
        for i in range(n):
            e_i = np.zeros(n)
            e_i[i] = 1.0
            try:
                upper = upper_barrier(e_i, delta, b_diag, ub)
                lower = _lower_from_eig(z2_all[:, i], lam, 1.0, ell)
            except BarrierError:
                continue
            if math.isfinite(upper) and math.isfinite(lower) and upper <= lower:
                break
        else:
            raise AssertionError("no admissible row at step %d" % tau)
        t = 2.0 / (upper + lower)
        a = a + t * np.outer(u[i], u[i])
        b_diag[i] += t
        rows.append((i, weight_num / math.sqrt(t)))
    return rows


class TestRowSampleVersusPerRowScan:
    @pytest.mark.parametrize(
        "n,k,r", [(1, 1, 4), (3, 1, 4), (6, 2, 8), (9, 2, 8), (8, 3, 12), (40, 3, 12), (25, 4, 16)]
    )
    def test_same_rows_and_weights(self, n, k, r):
        # row_sample picks r = 4k rows
        for seed in range(5):
            u = orthonormal(n, k, 100 * n + seed)
            got = row_sample(u).rows
            want = _row_sample_per_row(u, r)
            assert [e[0] for e in got] == [e[0] for e in want]
            for (_, wg), (_, ww) in zip(got, want):
                assert wg == pytest.approx(ww, rel=1e-12, abs=0.0)
