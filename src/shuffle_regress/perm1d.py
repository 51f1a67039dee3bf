"""Exact one-dimensional correspondence: sort both sides and match ranks.

For fixed vectors ``a, b`` the best permutation in
``min_pi sum_i (a[pi(i)] - b[i])^2`` pairs order statistics, so the optimum is
found by two sorts.  The squared cost divided by ``n`` is the squared 2-
Wasserstein distance between the empirical measures of ``a`` and ``b``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Permutation

__all__ = ["MatchResult", "sort_match"]


@dataclass(frozen=True)
class MatchResult:
    perm: Permutation
    cost: float


def sort_match(a, b) -> MatchResult:
    """Minimize ``sum_i (a[pi(i)] - b[i])^2`` over permutations ``pi``.

    Ties are broken stably by original index on both sides, so the result is a
    deterministic function of the inputs; equal inputs yield the identity.  The
    returned permutation pairs the i-th smallest entry of ``a`` with the i-th
    smallest entry of ``b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be 1-d vectors of equal length")
    if a.size == 0:
        raise ValueError("empty vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    sa = np.argsort(a, kind="stable")
    sb = np.argsort(b, kind="stable")
    diff = a[sa] - b[sb]
    pi = np.empty(a.size, dtype=np.intp)
    pi[sb] = sa
    return MatchResult(perm=Permutation(tuple(int(v) for v in pi)), cost=float(diff @ diff))

