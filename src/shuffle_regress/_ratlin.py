"""Exact linear algebra in integers for the exact recovery path.

It holds what ``lattice`` calls.  Every system it solves is already integer:
``lattice`` works on the instance cleared of its denominators, and the
elimination ``_echelon`` is fraction-free (Bareiss, 1968), so no gcd is
taken while it runs and no ``Fraction`` is formed anywhere.

``solve_int`` serves ``lattice.find_permutation`` (the least value of its
quadratic form), ``lattice.build_sources`` (the Gram system of a guess's
other ``n`` covariates) and ``lattice.recover`` (its one verification of a
guess: all ``n + 1`` equations, solved for ``w`` or refused as
inconsistent); ``find_permutation`` also reads ``_echelon`` for the two
linear power-sum rows, and ``recover`` reads the pivot count of ``_echelon``
on the ``d x d`` Gram matrix of its covariates as their rank.  ``dot``
serves ``lll_reduce``, ``build_sources`` and ``find_permutation``, and
``matvec`` the last of them.
Matrices are lists of row lists.  ``solve_int`` serves full-column-rank
systems only and refuses dependent columns rather than pick one of many
solutions.
"""
from __future__ import annotations

import operator
from typing import Optional, Sequence

from .errors import RankDeficiencyError

Matrix = list


def dot(u: Sequence, v: Sequence):
    return sum(map(operator.mul, u, v))


def matvec(a: Matrix, v: Sequence) -> list:
    return [dot(row, v) for row in a]


def _echelon(a: Matrix) -> tuple[Matrix, list[int]]:
    """Fraction-free reduced row echelon form of the integer matrix ``a`` (on
    a copy) and the list of its pivot columns.

    Gauss-Jordan elimination in which each step multiplies every other row by
    the new pivot, subtracts the multiple of the pivot row that clears the
    pivot column, and divides by the previous pivot.  Every entry is then a
    minor of ``a``, so each division is exact (Bareiss, 1968).  At the end
    every pivot row holds the same value, the last pivot, at its own pivot
    column and 0 at the others; dividing the rows by it gives the reduced row
    echelon form over the rationals.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * v - f * t) // prev for v, t in zip(m[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve_int(a: Matrix, b: Sequence) -> Optional[tuple[list, int]]:
    """Integers ``(u, den)``, ``den > 0``, with ``a u = den b``: the solution
    ``u / den`` of ``a x = b`` for integer ``a`` with independent columns and
    integer ``b``.

    Raises :class:`RankDeficiencyError` when the columns of ``a`` are
    dependent, whatever ``b`` is.  Returns ``None`` when ``a`` has full column
    rank but the system is inconsistent (possible only for more rows than
    columns).
    """
    red, pivots = _echelon([[*row, v] for row, v in zip(a, b)])
    ncols = len(a[0])
    # the rank test comes first: a dependent column followed by a pivot in
    # the augmented column is rank deficiency, not inconsistency
    if pivots[:ncols] != list(range(ncols)):
        raise RankDeficiencyError("matrix columns are linearly dependent")
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    den = red[0][0]  # every pivot row holds the last pivot
    u = [red[c][-1] for c in range(ncols)]
    return (u, den) if den > 0 else ([-v for v in u], -den)
