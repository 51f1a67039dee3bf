"""Least squares with the correspondence fixed, and exhaustively over all of them.

``ols_given_perm`` fits the weights for one given permutation; the sweep
harness reads it as the known-permutation baseline.  ``brute_force`` is the
``solve --solver brute`` path and the exact ground truth the fast solvers are
measured against; it refuses ``n > BRUTE_CAP`` instead of silently grinding.
"""
from __future__ import annotations

import itertools

import numpy as np

from .approx import Solution, orthonormalize
from .errors import CapExceededError
from .model import Instance, Permutation

__all__ = ["ols_given_perm", "brute_force"]

BRUTE_CAP = 8  # largest n brute_force (and so solve --solver brute) accepts


def ols_given_perm(x, y, perm: Permutation) -> Solution:
    """Least squares with the correspondence fixed to ``perm``.

    Minimizes ``sum_i (dot(w, x[perm(i)]) - y_i)^2`` over ``w`` alone
    (minimum-norm solution if the covariates are rank deficient).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(perm) != x.shape[0] or y.shape[0] != x.shape[0]:
        raise ValueError("permutation and data sizes disagree")
    xp = x[np.asarray(perm.map, dtype=np.intp)]
    w, *_ = np.linalg.lstsq(xp, y, rcond=None)
    resid = xp @ w - y
    return Solution(w=w, perm=perm, cost=float(resid @ resid))


def brute_force(inst: Instance) -> Solution:
    """Exact minimizer over all ``n!`` permutations, each with its own OLS fit.

    Ties break toward the lexicographically smallest permutation map.  The
    fits go through :func:`~shuffle_regress.approx.orthonormalize` (singular
    values at or below ``1e-15 * max`` count as zero), and the reported cost
    is that of the returned ``w`` and permutation, recomputed.  Refuses
    ``n > BRUTE_CAP`` (8) with :class:`CapExceededError`, and raises
    ``ValueError`` when the optimal weights overflow float64.
    """
    if inst.n > BRUTE_CAP:
        raise CapExceededError("brute_force capped at n <= %d, got n = %d" % (BRUTE_CAP, inst.n))
    x, y = inst.x, np.asarray(inst.y, dtype=float)
    n = inst.n
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    red = orthonormalize(x)
    resid_map = red.u @ red.u.T - np.eye(n)
    # row p of rhs is the permuted response vector for perms[p]
    rhs = y[np.argsort(perms, axis=1)]
    resid = rhs @ resid_map.T
    costs = np.einsum("ij,ij->i", resid, resid)
    best = int(costs.argmin())  # first minimum = lexicographically smallest map
    w = red.to_original(red.u.T @ rhs[best])
    miss = x @ w - rhs[best]
    return Solution(w=w, perm=Permutation(tuple(int(v) for v in perms[best])), cost=float(miss @ miss))

