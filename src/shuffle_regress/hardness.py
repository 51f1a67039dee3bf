"""Hardness scaffolding: 3-partition embedded into permuted linear systems.

The reduction maps a 3-partition instance (3k positive integers, each strictly
between a quarter and half of the per-triple target C = sum / k) to the
question of whether some row shuffle of the response vector makes an integer
linear system exactly solvable.  Feasibility transfers in both directions;
``reduce`` writes the system as an instance file, whose brute-force cost is
zero exactly when the 3-partition instance is a yes-instance.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ThreePartitionInstance", "PlsInstance", "reduce_3partition"]


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

