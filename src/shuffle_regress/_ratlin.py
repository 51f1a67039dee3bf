"""Exact linear algebra over Fraction for the exact recovery path.

It holds what ``lattice`` calls.  ``solve`` serves ``lattice.build_sources``
(the Gram system of a guess's other ``n`` covariates, read off the
instance's power sums), ``lattice.find_permutation`` (the least value of its
quadratic form) and ``lattice.recover`` (its one verification of a guess: all
``n + 1`` equations, solved for ``w`` or refused as inconsistent);
``find_permutation`` also reads ``_echelon`` for the two linear power-sum
rows, and ``recover`` reads the pivot count of ``_echelon`` on the ``d x d``
Gram matrix of its covariates as their rank.  ``dot`` serves
``lll_reduce``, ``build_sources`` and ``find_permutation``, and ``matvec``
the last of them.
Matrices are lists of row lists.  ``solve`` reads the echelon form
``_echelon``; it serves full-column-rank systems only and refuses dependent
columns rather than pick one of many solutions.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import RankDeficiencyError

Matrix = list


def mat(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def matvec(a: Matrix, v: Sequence) -> list:
    return [dot(row, v) for row in a]


def _echelon(a: Matrix) -> tuple[Matrix, list[int]]:
    """Row echelon form (in place on a copy) and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve(a: Matrix, b: Sequence) -> Optional[list]:
    """The solution of ``a x = b`` for ``a`` with independent columns.

    Raises :class:`RankDeficiencyError` when the columns of ``a`` are
    dependent, whatever ``b`` is.  Returns ``None`` when ``a`` has full column
    rank but the system is inconsistent (possible only for more rows than
    columns).
    """
    aug = [row[:] + [Fraction(v)] for row, v in zip(mat(a), b)]
    red, pivots = _echelon(aug)
    ncols = len(a[0])
    # the rank test comes first: a dependent column followed by a pivot in
    # the augmented column is rank deficiency, not inconsistency
    if pivots[:ncols] != list(range(ncols)):
        raise RankDeficiencyError("matrix columns are linearly dependent")
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    return [red[c][-1] for c in range(ncols)]

