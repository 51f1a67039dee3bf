"""Deterministic row sampling with two barrier potentials.

Given ``u`` (n x k, orthonormal columns), pick ``r >= 4k`` weighted rows so
that solving least squares on the sampled, reweighted rows yields a
``c``-approximation to the full problem with ``c = 1 + 4 (1 + sqrt(n/(4k)))^2``,
while ``rank(S u) = k``.  Each selection step keeps a lower barrier under the
spectrum of ``a = sum t x x^T`` and an upper barrier above the diagonal of
``b = sum t e e^T``; a row is admissible when its upper potential does not
exceed its lower potential, and the reciprocal weight is the midpoint of the
two.  Everything is deterministic: candidates are scanned in index order and
the first admissible one wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInvariantError

__all__ = ["SamplingMatrix", "row_sample", "solve_weighted_ls"]

_DENOM_GUARD = 1e-14


@dataclass(frozen=True)
class SamplingMatrix:
    """Sparse ``r x n`` selection-and-reweighting matrix.

    ``rows[tau]`` is ``(column, weight)`` for a row whose single nonzero entry
    is ``weight`` at ``column``, or ``None`` for an all-zero row.
    """

    n: int
    rows: tuple[Optional[tuple[int, float]], ...]

    def __post_init__(self):
        for e in self.rows:
            if e is not None and not (0 <= e[0] < self.n):
                raise ValueError("row column index out of range")

    @property
    def r(self) -> int:
        return len(self.rows)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.r, self.n))
        for tau, e in enumerate(self.rows):
            if e is not None:
                out[tau, e[0]] = e[1]
        return out

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array([e[1] * v[e[0]] if e is not None else 0.0 for e in self.rows])


def _first_admissible(z2_all, lam, ell, delta_l, b_diag, ub, delta):
    """First row ``i`` whose potentials are finite with upper <= lower.

    Evaluates the upper potential of ``e_i`` against ``b_diag`` and the lower
    potential of row ``i`` against the spectrum ``lam`` for every row ``i`` at
    once through their closed forms, and returns ``(i, upper, lower)``, or
    ``None`` when no row is admissible.  A row at which either potential is
    singular or overflows is inadmissible.  The caller has checked
    ``b_diag < ub`` and ``lam > ell``; the remaining singular cases, unlike
    overflow, are shared by all rows.  ``tests/test_rowsample.py`` keeps the
    per-row potentials as the reference.
    """
    upr = ub + delta
    shift = ell + delta_l
    if np.any(lam == shift):
        return None
    den_u = float(np.sum(1.0 / (ub - b_diag)) - np.sum(1.0 / (upr - b_diag)))
    den_l = float(np.sum(1.0 / (lam - shift)) - np.sum(1.0 / (lam - ell)))
    if abs(den_u) < _DENOM_GUARD or abs(den_l) < _DENOM_GUARD:
        return None
    gap_u = b_diag - upr
    gap_l = (lam - shift)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        upper = 1.0 / gap_u**2 / den_u - 1.0 / gap_u
        lower = np.sum(z2_all / gap_l**2, axis=0) / den_l - np.sum(z2_all / gap_l, axis=0)
    ok = np.flatnonzero(np.isfinite(upper) & np.isfinite(lower) & (upper <= lower))
    if ok.size == 0:
        return None
    i = int(ok[0])
    return i, float(upper[i]), float(lower[i])


def row_sample(u_mat, r: Optional[int] = None) -> SamplingMatrix:
    """Select ``r`` weighted rows of an orthonormal-column matrix.

    Parameters
    ----------
    u_mat : array, n x k
        Columns must be orthonormal to within ``1e-8`` (max entry of
        ``u^T u - I``).
    r : int, optional
        Number of sampled rows, default and minimum ``4 k``.

    Raises :class:`InternalInvariantError` if a barrier soundness condition
    fails or no candidate row is admissible at some step; both indicate a bug
    rather than bad input.
    """
    u = np.asarray(u_mat, dtype=float)
    if u.ndim != 2:
        raise ValueError("u_mat must be 2-d")
    n, k = u.shape
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    if r is None:
        r = 4 * k
    if r < 4 * k:
        raise ValueError("r must be >= 4k")
    gram_err = float(np.max(np.abs(u.T @ u - np.eye(k))))
    if gram_err > 1e-8:
        raise ValueError("columns not orthonormal (deviation %g)" % gram_err)

    delta = (1.0 + n / r) / (1.0 - math.sqrt(k / r))
    delta_l = 1.0
    a = np.zeros((k, k))
    b_diag = np.zeros(n)
    weight_num = math.sqrt((1.0 - math.sqrt(k / r)) / r)
    rows = []
    for tau in range(r):
        ell = tau - math.sqrt(r * k)
        ub = delta * (tau + math.sqrt(n * r))
        lam, q = np.linalg.eigh(a)
        if not lam[0] > ell:
            raise InternalInvariantError(
                "lower barrier unsound at step %d: lambda_min=%g <= ell=%g" % (tau, lam[0], ell)
            )
        if not b_diag.max() < ub:
            raise InternalInvariantError(
                "upper barrier unsound at step %d: max diag=%g >= u=%g" % (tau, b_diag.max(), ub)
            )
        z2_all = (q.T @ u.T) ** 2  # k x n: squared eigen-coordinates of every row
        chosen = _first_admissible(z2_all, lam, ell, delta_l, b_diag, ub, delta)
        if chosen is None:
            raise InternalInvariantError("no admissible row at step %d" % tau)
        i, upper, lower = chosen
        t = 2.0 / (upper + lower)
        a = a + t * np.outer(u[i], u[i])
        b_diag[i] += t
        rows.append((i, weight_num / math.sqrt(t)))
    return SamplingMatrix(n=n, rows=tuple(rows))


def solve_weighted_ls(s: SamplingMatrix, x, b) -> np.ndarray:
    """Minimum-norm minimizer of ``||s (x w - b)||_2``.

    Zero rows of ``s`` contribute nothing; if every row is zero the minimum-norm
    answer is the zero vector.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.ndim != 2 or b.ndim != 1 or x.shape[0] != b.shape[0]:
        raise ValueError("x must be n x k and b length n")
    if x.shape[0] != s.n:
        raise ValueError("sampling matrix is for n=%d, got %d rows" % (s.n, x.shape[0]))
    entries = [e for e in s.rows if e is not None]
    if not entries:
        return np.zeros(x.shape[1])
    cols = np.array([e[0] for e in entries])
    wts = np.array([e[1] for e in entries])
    m = wts[:, None] * x[cols]
    v = wts * b[cols]
    sol, *_ = np.linalg.lstsq(m, v, rcond=None)
    return sol
