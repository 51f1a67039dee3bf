"""Hardness scaffolding: 3-partition embedded into permuted linear systems.

The reduction maps a 3-partition instance (3k positive integers, each strictly
between a quarter and half of the per-triple target C = sum / k) to the
question of whether some row shuffle of the response vector makes an integer
linear system exactly solvable.  Feasibility transfers in both directions,
which is what the exhaustive checkers below are for.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _ratlin
from .errors import CapExceededError

__all__ = [
    "ThreePartitionInstance",
    "PlsInstance",
    "reduce_3partition",
    "check_3partition_brute",
    "pls_feasible_brute",
]

THREE_PARTITION_CAP = 4  # largest k check_3partition_brute accepts
PLS_CAP = 8  # largest n pls_feasible_brute accepts


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Multiset ``z`` of ``3k`` integers; ``k`` and the target ``c = sum(z) / k`` follow."""

    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))
        if not self.z or len(self.z) % 3:
            raise ValueError("z must hold a positive multiple of 3 values, got %d" % len(self.z))
        if sum(self.z) % self.k:
            raise ValueError("sum(z) = %d is not divisible by k = %d" % (sum(self.z), self.k))
        c = self.c
        for v in self.z:
            if not (4 * v > c and 2 * v < c):
                raise ValueError("value %d violates c/4 < z_i < c/2 for c = %d" % (v, c))

    @property
    def k(self) -> int:
        return len(self.z) // 3

    @property
    def c(self) -> int:
        return sum(self.z) // self.k


@dataclass(frozen=True)
class PlsInstance:
    """Integer matrix ``a`` (n x d) and vector ``b`` (length n); feasible iff
    some permutation of ``b`` lies in the column span of ``a``."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(int(v) for v in row) for row in self.a))
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        if not self.a or not self.a[0]:
            raise ValueError("empty system")
        d = len(self.a[0])
        if any(len(row) != d for row in self.a):
            raise ValueError("ragged matrix")
        if len(self.b) != len(self.a):
            raise ValueError("b length must match row count")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def d(self) -> int:
        return len(self.a[0])


def reduce_3partition(tp: ThreePartitionInstance) -> PlsInstance:
    """Feasibility-preserving embedding with ``n = 4k`` rows and ``d = 3k`` columns.

    The top ``3k`` rows are the identity (pinning each value slot) and each of
    the bottom ``k`` rows sums one candidate triple of slots ``(3j, 3j+1,
    3j+2)``; the right-hand side is ``z`` followed by ``k`` copies of ``c``.
    """
    k = tp.k
    d = 3 * k
    rows = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for j in range(k):
        rows.append(tuple(int(3 * j <= i < 3 * j + 3) for i in range(d)))
    return PlsInstance(a=tuple(rows), b=tuple(tp.z) + (tp.c,) * k)


def check_3partition_brute(tp: ThreePartitionInstance) -> bool:
    """Exhaustively decide 3-partition.  Refuses ``k > THREE_PARTITION_CAP`` (4)."""
    if tp.k > THREE_PARTITION_CAP:
        raise CapExceededError("check_3partition_brute capped at k <= %d, got k = %d" % (THREE_PARTITION_CAP, tp.k))

    c = tp.c

    def split(avail: tuple[int, ...]) -> bool:
        if not avail:
            return True
        first = avail[0]
        rest = avail[1:]
        for i, j in itertools.combinations(range(len(rest)), 2):
            if tp.z[first] + tp.z[rest[i]] + tp.z[rest[j]] == c:
                left = tuple(v for idx, v in enumerate(rest) if idx not in (i, j))
                if split(left):
                    return True
        return False

    return split(tuple(range(3 * tp.k)))


def pls_feasible_brute(pls: PlsInstance) -> bool:
    """Exhaustively decide permuted-system feasibility, exactly.

    True iff some permutation ``pi`` makes ``a x = (b[pi(0)], ..., b[pi(n-1)])``
    consistent; equivalently the exact rational least-squares residual is zero.
    Decided via an integer basis of the left null space of ``a``, so no
    tolerance enters.  Refuses ``n > PLS_CAP`` (8).
    """
    n = pls.n
    if n > PLS_CAP:
        raise CapExceededError("pls_feasible_brute capped at n <= %d, got n = %d" % (PLS_CAP, n))
    null_rows = _ratlin.left_nullspace_int([list(r) for r in pls.a])
    if not null_rows:
        return True
    for perm in itertools.permutations(range(n)):
        if all(sum(nr[i] * pls.b[perm[i]] for i in range(n)) == 0 for nr in null_rows):
            return True
    return False

