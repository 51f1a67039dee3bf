"""Exhaustive ground-truth solvers, capped at desk scale.

These exist so the fast solvers have something exact to be measured against.
Each refuses instances beyond its hard cap instead of silently grinding.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .approx import Solution, orthonormalize
from .errors import CapExceededError
from .model import Instance, Permutation
from .perm1d import MatchResult

__all__ = ["ols_given_perm", "brute_force", "perm_match_brute", "subset_sum_brute"]

BRUTE_CAP = 8  # largest n the permutation enumerators accept
SUBSET_SUM_CAP = 24  # most values subset_sum_brute accepts


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


def _perm_rows(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


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
    perms = _perm_rows(n)
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


def perm_match_brute(a, b) -> MatchResult:
    """Exact minimizer of ``sum_i (a[pi(i)] - b_i)^2`` by full enumeration.

    Same tie rule and cap as :func:`brute_force`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be 1-d vectors of equal length")
    n = a.shape[0]
    if n > BRUTE_CAP:
        raise CapExceededError("perm_match_brute capped at n <= %d, got n = %d" % (BRUTE_CAP, n))
    perms = _perm_rows(n)
    diff = a[perms] - b
    costs = np.einsum("ij,ij->i", diff, diff)
    best = int(costs.argmin())
    return MatchResult(perm=Permutation(tuple(int(v) for v in perms[best])), cost=float(costs[best]))


def subset_sum_brute(
    values: Sequence[Union[int, Fraction]],
    target: Union[int, Fraction],
) -> Optional[tuple[int, ...]]:
    """First subset of ``values`` (by ascending bitmask) summing exactly to ``target``.

    Arithmetic is exact rational; the empty subset is admissible iff the target
    is zero.  Returns index tuples sorted ascending, or ``None``.  Refuses more
    than ``SUBSET_SUM_CAP`` (24) values.
    """
    vals = [Fraction(v) for v in values]
    target = Fraction(target)
    m = len(vals)
    if m > SUBSET_SUM_CAP:
        raise CapExceededError("subset_sum_brute capped at %d values, got %d" % (SUBSET_SUM_CAP, m))
    total = 1 << m
    acc = Fraction(0)
    mask = 0
    while True:
        if acc == target:
            return tuple(i for i in range(m) if mask >> i & 1)
        nxt = mask + 1
        if nxt == total:
            return None
        # incremental update: clear trailing ones, set the carry bit
        changed = mask ^ nxt
        carry = nxt & ~mask
        bit = 0
        while changed:
            if changed & 1:
                if (carry >> bit) & 1:
                    acc += vals[bit]
                else:
                    acc -= vals[bit]
            changed >>= 1
            bit += 1
        mask = nxt
