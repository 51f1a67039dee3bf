"""Deterministic row sampling with two barrier potentials.

Given ``u`` (n x k, orthonormal columns), pick exactly ``r = 4k`` weighted
rows with ``rank(S u) = k`` so that least squares on the sampled, reweighted
rows approximates the full problem.  The barrier construction states the
factor ``c = 1 + 4 (1 + sqrt(n/(4k)))^2``, which some samples drawn here
exceed (by up to 22 % at ``k = 1``), so ``fptas_solve`` reads the constant of
the sample in hand.  Each selection step keeps a lower barrier under the
spectrum of ``a = sum t x x^T`` and an upper barrier above the diagonal of
``b = sum t e e^T``; a row is admissible when its upper potential does not
exceed its lower potential, and the reciprocal weight is the midpoint of the
two.  Everything is deterministic: candidates are scanned in index order and
the first admissible one wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError

__all__ = ["SamplingMatrix", "row_sample"]

_DENOM_GUARD = 1e-14


@dataclass(frozen=True)
class SamplingMatrix:
    """Sparse ``r x n`` selection-and-reweighting matrix.

    ``rows[tau]`` is ``(column, weight)`` for a row whose single nonzero entry
    is ``weight`` at ``column``.
    """

    n: int
    rows: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for col, _ in self.rows:
            if not (0 <= col < self.n):
                raise ValueError("row column index out of range")


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


def row_sample(u_mat) -> SamplingMatrix:
    """Select ``r = 4 k`` weighted rows of an orthonormal-column matrix.

    Parameters
    ----------
    u_mat : array, n x k
        Columns must be orthonormal to within ``1e-8`` (max entry of
        ``u^T u - I``).

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
    r = 4 * k
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

