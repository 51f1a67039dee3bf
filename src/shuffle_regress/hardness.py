"""Hardness scaffolding: 3-partition embedded into permuted linear systems.

The reduction maps a 3-partition instance (3k positive integers, each strictly
between a quarter and half of the per-triple target C = sum / k) to the
question of whether some row shuffle of the response vector makes an integer
linear system exactly solvable.  Feasibility transfers in both directions;
``reduce_3partition`` returns the system as an :class:`Instance`, whose
brute-force cost is zero exactly when the 3-partition instance is a
yes-instance, and ``reduce`` writes it as an instance file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance

__all__ = ["ThreePartitionInstance", "reduce_3partition"]


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


def reduce_3partition(tp: ThreePartitionInstance) -> Instance:
    """Feasibility-preserving embedding with ``n = 4k`` rows and ``d = 3k`` columns.

    The top ``3k`` rows are the identity (pinning each value slot) and each of
    the bottom ``k`` rows sums one candidate triple of slots ``(3j, 3j+1,
    3j+2)``; the responses are ``z`` followed by ``k`` copies of ``c``.  The
    instance holds doubles, so a value that no double holds exactly raises
    ``ValueError`` rather than be rounded into a different instance.
    """
    k = tp.k
    d = 3 * k
    y = tp.z + (tp.c,) * k
    for v in y:
        try:
            exact = float(v) == v
        except OverflowError:
            exact = False
        if not exact:
            raise ValueError("value %d has no exact double, so no instance file holds it" % v)
    rows = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for j in range(k):
        rows.append(tuple(int(3 * j <= i < 3 * j + 3) for i in range(d)))
    return Instance(x=np.array(rows, dtype=float), y=np.array(y, dtype=float))
