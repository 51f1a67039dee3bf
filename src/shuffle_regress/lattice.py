"""Exact recovery of weights and correspondence from noiseless quantized data.

Each anchor guess ``a`` (the covariate the held-out response ``y0`` belongs
to) is tested by ``find_permutation(inst, a)`` with one quadratic form, and
an admitted guess yields the map of all ``n + 1`` measurements.

Noiseless responses are the values ``<w, x_j>`` in some order, so whatever
the permutation, over all ``n + 1`` pairs, ``sum_i y_i = <w, sum_j x_j>``
and ``sum_i y_i^2 = w^T (sum_j x_j x_j^T) w`` (the power-sum identity of
Tsakiris et al., "An algebraic-geometric approach for linear regression
without correspondences", 2020).  These sums do not depend on the guess, so
the instance computes them once (:attr:`AnchoredInstance.power_sums`) and
every guess reads them in ``O(d^2)``.  They are sums of the instance cleared
of its denominators (:attr:`AnchoredInstance.cleared`): the covariates times
their least common denominator and the responses times theirs, which leaves
the permutation unchanged and scales ``w``.  With the anchor equation
``<w, x_a> = y0`` they are two linear rows and one quadratic in ``w``.  One
fraction-free echelon of the rows writes ``w``, over one cleared
denominator, as a particular solution plus a free coordinate per free
column, and the quadratic becomes one form ``z^T A z + 2 b.z + c`` in those
coordinates; a guess whose least value of the form exceeds 0 is refused.
Where the rows leave at most one free direction (``d <= 2``, or ``d = 3``
with ``x_a`` and ``sum_j x_j`` independent), the form is solved exactly:
``w`` is pinned, or is one of the at most two rational roots of the
quadratic on a line, and the permutation pairs equal values ``<w, x_j>``
and ``y_i``, one ``O(n)`` match per candidate.  All of it is integers over
one cleared denominator.  No lattice is built there; this departs from the
paper's algorithm, which takes every guess to subset sum.

Where two or more directions stay free (``d >= 4``, or dependent rows), a
guess that the least value admits takes the paper's route.  The
correspondence becomes a subset-sum problem: with the guessed anchor pair
``(x_a, y0)`` and exact arithmetic, ``y0 = sum over matched pairs (i, j) of
y_i p_j``, where ``p_j = <x_j, (G - x_a x_a^T)^{-1} x_a>`` projects each of
the other ``n`` covariates and ``G - x_a x_a^T``, their Gram matrix, comes
off the same power sums.  The ``n^2`` sources are thus the rank-one product
of the responses and the projections, and the correct correspondence is a
subset of them summing exactly to ``y0``.  Low-density subset sums of this
kind are solved by lattice basis reduction: embed the instance in an integer
lattice whose target row is scaled by ``beta`` and look for a reduced vector
of the pattern ``z * (1, indicator, 0)``.  The route reads the same cleared
integers: the projections come from one fraction-free solve as integers
over a denominator ``den``, so the target and every source are integers
over ``lam = dy den``.  Every subset sum is then a multiple of ``1 / D``,
with ``D`` the least common denominator of the target and the sources, so a
wrong subset misses the target by at least ``1 / D``; ``beta`` is derived
from that exact margin.

The wanted subset is a permutation support, so its indicator has every row sum
and every column sum equal to 1.  :func:`subset_sum_basis` therefore builds,
in one step from the sources, only the sublattice of that embedding in which
those ``2n - 1`` independent sums equal coordinate 0: rank ``(n - 1)^2 + 1``
instead of ``n^2 + 1``, in the same ``n^2 + 2`` coordinates, so the pattern
and the margin carry over unchanged.

An anchor guess either yields a permutation or is refused (``None``), also
on the lattice route when its other ``n`` covariates lack rank ``d``.
:func:`recover` refuses a whole instance (all responses zero, or ``n + 1``
covariates of rank below ``d``) once, before it tries any guess, and no guess
of an instance it admits raises.

All arithmetic on both routes is exact: the power-sum route, the sources
and basis of the lattice route and the check of every answer run on
integers over one cleared denominator, and the reduction works on
arbitrary-size integers.  No ``Fraction`` is formed for a guess.  Floating
point would void the recovered certificate, which one exact solve of all
``n + 1`` equations in :func:`recover` checks before anything is returned;
only the returned ``w`` is made ``Fraction`` again.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _ratlin
from .errors import DegenerateInstanceError, RankDeficiencyError
from .model import AnchoredInstance, Permutation

__all__ = [
    "LatticeBasis",
    "RecoveryResult",
    "lll_reduce",
    "subset_sum_basis",
    "build_sources",
    "epsilon_bound",
    "find_permutation",
    "recover",
]


@dataclass(frozen=True)
class LatticeBasis:
    """Lattice basis given as integer columns, all of one ambient dimension.

    Builders hand it integers (:func:`subset_sum_basis` divides its bottom
    row exactly, by a divisor of the sources' common denominator), so the
    reduction only ever sees integers.  An entry that is not an integer
    (``operator.index`` refuses it) raises ``ValueError``.
    """

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("empty basis")
        dim = len(self.columns[0])
        if any(len(c) != dim for c in self.columns):
            raise ValueError("ragged columns")
        if len(self.columns) > dim:
            raise ValueError("more columns than ambient dimension")
        try:
            columns = tuple(tuple(operator.index(v) for v in c) for c in self.columns)
        except TypeError:
            raise ValueError("basis entries must be integers") from None
        object.__setattr__(self, "columns", columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])


def _round_div(a: int, b: int) -> int:
    # nearest integer to a / b for b > 0 (half rounds toward +inf)
    return (2 * a + b) // (2 * b)


# Lovasz parameter delta = 3/4, as numerator and denominator: the first
# reduced column of a rank-k basis is then at most 2**((k-1)/2) times the
# shortest nonzero lattice vector.
_DELTA_NUM, _DELTA_DEN = 3, 4


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Lenstra-Lenstra-Lovasz reduction in exact integer arithmetic.

    Uses the classic integral bookkeeping (Gram determinants ``d_i`` and scaled
    Gram-Schmidt coefficients ``lambda_{i,j} = d_j mu_{i,j}``) so no rounding
    ever occurs; floating point here would void the defect bound.  With
    ``delta = 3/4`` the first output column satisfies
    ``||b_1|| <= 2**((k-1)/2) * lambda_1`` for a rank-``k`` input.  The output
    spans the same lattice (the change of basis is unimodular).

    Raises ``ValueError`` on dependent columns.  One code path serves every
    basis size: a single column skips the main loop and comes back unchanged
    (or is refused if zero).
    """
    cols = [list(c) for c in basis.columns]
    m = len(cols)

    dvec = [0] * (m + 1)
    dvec[0] = 1
    dvec[1] = _ratlin.dot(cols[0], cols[0])
    if dvec[1] == 0:
        raise ValueError("columns not linearly independent")
    lam = [[0] * (m + 1) for _ in range(m + 1)]  # lam[i][j], 1-based, j < i

    def red(k: int, l: int):
        if 2 * abs(lam[k][l]) > dvec[l]:
            r = _round_div(lam[k][l], dvec[l])
            bk, bl = cols[k - 1], cols[l - 1]
            cols[k - 1] = [a - r * b for a, b in zip(bk, bl)]
            lam[k][l] -= r * dvec[l]
            for i in range(1, l):
                lam[k][i] -= r * lam[l][i]

    k = 2
    kmax = 1
    while k <= m:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = _ratlin.dot(cols[k - 1], cols[j - 1])
                for i in range(1, j):
                    u = (dvec[i] * u - lam[k][i] * lam[j][i]) // dvec[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    dvec[k] = u
                    if u == 0:
                        raise ValueError("columns not linearly independent")
        red(k, k - 1)
        if _DELTA_DEN * (dvec[k] * dvec[k - 2] + lam[k][k - 1] ** 2) < _DELTA_NUM * dvec[k - 1] ** 2:
            # Lovasz condition fails: swap columns k-1, k and fix bookkeeping
            cols[k - 1], cols[k - 2] = cols[k - 2], cols[k - 1]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lbar = lam[k][k - 1]
            bnew = (dvec[k - 2] * dvec[k] + lbar * lbar) // dvec[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dvec[k] * lam[i][k - 1] - lbar * t) // dvec[k - 1]
                lam[i][k - 1] = (bnew * t + lbar * lam[i][k]) // dvec[k]
            dvec[k - 1] = bnew
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1

    return LatticeBasis(columns=tuple(tuple(c) for c in cols))


def subset_sum_basis(y, p, target, lam) -> LatticeBasis:
    """The permutation sublattice of the Lagarias-Odlyzko embedding of the
    ``n^2`` sources ``c_ij = y_i p_j / lam`` with target ``target / lam``,
    for the ``n`` cleared responses ``y`` and the ``n`` integer projections
    ``p`` of :func:`build_sources`; ``target`` and ``lam > 0`` are integers
    too, so every value is an integer over the one denominator ``lam``.

    The coordinates are those of the embedding: coordinate 0 is the target
    multiplier ``z``, coordinate ``1 + i n + j`` the indicator of the pair
    ``(i, j)`` (row-major), and the last coordinate ``beta`` times the
    target less the chosen sources.  Entries ``(i, j)`` with ``i, j >= 1``
    are free; row 0 and column 0 of the indicator block are fixed by asking
    every row sum and every column sum to equal ``z``.  With ``y_0`` and
    ``p_0`` the first entries of ``y`` and ``p``, and ``t = target``, the
    columns are

    - the target column (``z = 1``, every free entry 0): entry ``2 - n`` at
      ``(0, 0)``, 1 at ``(i, 0)`` and ``(0, j)`` for ``i, j >= 1``, and last
      entry ``beta * (t - sum_{i>=1} c_i0 - sum_{j>=1} c_0j - (2 - n)
      c_00)``, that is ``beta * (t - p_0 sum_i y_i - y_0 sum_j p_j + n y_0
      p_0) / lam``, and
    - for each free ``(i, j)``: 1 at ``(i, j)`` and ``(0, 0)``, -1 at
      ``(i, 0)`` and ``(0, j)``, and last entry ``-beta * (c_ij - c_i0 -
      c_0j + c_00) = -beta * (y_i - y_0) (p_j - p_0) / lam``,

    stably sorted by the magnitude of their last entry.  The rank is
    ``(n - 1)^2 + 1`` in ambient dimension ``n^2 + 2``.  A permutation
    support summing to the target is the target column plus the free columns
    of its pairs outside row 0 and column 0, the vector ``(1, indicator, 0)``
    of squared length ``n + 1``.

    ``beta = 2**(n^2) * D``, with ``1 / D`` the exact margin of
    :func:`epsilon_bound`, so every last entry is ``2**(n^2)`` times an
    integer numerator over ``lam / D``, which that numerator is a multiple
    of: an exact integer division.  LLL's first reduced vector is at most
    ``2**((n - 1)^2 / 2) * sqrt(n + 1)`` long; a vector whose subset misses
    the target misses it by at least ``1 / D``, so its last entry is at
    least ``2**(n^2)``, longer than that bound for every ``n >= 1``.
    """
    n = len(y)
    scale = 2 ** (n * n)
    g = lam // epsilon_bound(y, p, target, lam)  # g = lam / D, so beta / lam = scale / g
    col0 = [1, 2 - n] + [0] * (n * n)
    for k in range(1, n):
        col0[1 + k * n] = col0[1 + k] = 1  # (k, 0) and (0, k)
    col0[-1] = scale * ((target - p[0] * sum(y) - y[0] * sum(p) + n * y[0] * p[0]) // g)
    columns = [tuple(col0)]
    for i in range(1, n):
        for j in range(1, n):
            col = [0] * (n * n + 2)
            col[1 + i * n + j] = col[1] = 1
            col[1 + i * n] = col[1 + j] = -1
            col[-1] = -scale * ((y[i] - y[0]) * (p[j] - p[0]) // g)
            columns.append(tuple(col))
    return LatticeBasis(columns=tuple(sorted(columns, key=lambda col: abs(col[-1]))))


def build_sources(inst: AnchoredInstance, a: int, slots) -> Optional[tuple[list, int]]:
    """The projections ``p_j = <x_j, (G - x_a x_a^T)^{-1} x_a>`` of the
    covariates ``x_j``, ``j`` in ``slots``, in that order, for the guess that
    pairs ``y0`` with covariate ``a``, as integers ``(P, den)``, ``den > 0``,
    with ``p_j = P_j / den``; ``None`` when ``G - x_a x_a^T`` is singular.

    ``G`` is the Gram matrix of :attr:`AnchoredInstance.power_sums`, so
    ``G - x_a x_a^T`` is the Gram matrix of the other ``n`` covariates, and
    it is singular exactly when they lack rank ``d``.  Those sums are of the
    cleared covariates ``dx x_j``, which leaves each ``p_j`` as it is: the
    Gram matrix scales by ``dx^2`` and ``x_a`` and ``x_j`` by ``dx``.  The
    system is integer, so one fraction-free solve gives ``(G - x_a x_a^T) u
    = den x_a`` and ``P_j = <x_j, u>``.  For exact data ``y_i = <w,
    x_{pi(i)}>`` the sources ``c_ij = y_i p_j`` summed over the matched pairs
    ``(i, pi(i))`` give ``w^T (G - x_a x_a^T) (G - x_a x_a^T)^{-1} x_a =
    <w, x_a> = y0``.
    """
    xs = inst.cleared[2]  # the p_j do not change when x is scaled
    x_a = xs[a]
    _, _, g, _ = inst.power_sums
    gram = [[gk - xi * v for gk, v in zip(row, x_a)] for row, xi in zip(g, x_a)]
    try:  # the Gram system of the other n covariates
        u, den = _ratlin.solve_int(gram, x_a)
    except RankDeficiencyError:
        return None
    return [_ratlin.dot(xs[j], u) for j in slots], den


def epsilon_bound(y, p, target, lam) -> int:
    """The denominator ``D`` of the exact separation margin ``1 / D`` for
    wrong-subset sums of the sources ``c_ij = y_i p_j / lam`` against the
    target ``target / lam``, for integers ``y``, ``p``, ``target`` and ``lam >
    0``.

    ``D`` is the least common denominator of the target and every source, so
    every subset sum lies on the ``1 / D`` grid and one that misses the target
    misses it by at least ``1 / D`` (Lagarias and Odlyzko, 1985).  Every value
    is an integer over ``lam``, so ``D = lam / gcd(lam, target, every y_i
    p_j)``, and the gcd of the products is ``gcd(y) gcd(p)``: ``O(n)`` gcds,
    and no product of two values is formed.
    """
    return lam // math.gcd(lam, target, math.gcd(*y) * math.gcd(*p))


def _match(values: dict, y) -> Optional[list]:
    """The covariates paired with the responses ``y`` by equal value, or
    ``None`` when the multisets differ.

    ``values`` maps each covariate to its value, in slot order.  Ties go in
    that order: each response, in turn, takes the first covariate not yet
    taken that has its value.
    """
    free = {}
    for j, v in reversed(values.items()):
        free.setdefault(v, []).append(j)  # the first slot pops first
    pairs = []
    for v in y:
        js = free.get(v)
        if not js:
            return None
        pairs.append(js.pop())
    return pairs


def find_permutation(inst: AnchoredInstance, a: int) -> Optional[Permutation]:
    """Correspondence of all ``n + 1`` measurements of the exact instance
    ``inst``, assuming ``y0`` pairs with covariate ``a`` (covariate 0 is
    ``x0``, covariate ``j >= 1`` is ``x_j``).

    Everything, the lattice route included, is integers over one cleared
    denominator: it reads the :attr:`AnchoredInstance.cleared` covariates
    ``x_j`` and responses ``y_i``, and the :attr:`AnchoredInstance.power_sums`
    ``s``, ``y1``, ``g`` and ``y2`` over all ``n + 1`` of them, the same for
    every guess.  They pair as the instance's own values do, with ``w``
    scaled (see :attr:`AnchoredInstance.cleared`).

    Noiseless responses are the values ``<w, x_j>`` in some order, so every
    ``w`` that verifies meets the anchor equation ``<w, x_a> = y0``, the first
    power sum ``<w, s> = y1`` and the second, ``w^T g w = y2``.  One
    fraction-free echelon (see ``_ratlin._echelon``) of the two linear rows
    ``[x_a | y0]`` and ``[s | y1]`` comes first; a pivot in their right-hand
    column refuses the guess (``None``).  Otherwise every pivot row holds the
    same pivot ``den``, and the rows hold exactly at ``den w = w_p + sum_f z_f
    v_f``: ``w_p`` is the right-hand side at the pivot columns and 0
    elsewhere, and free column ``f`` has ``v_f[f] = den`` and ``v_f[pc] =
    -row[f]`` at each row's pivot column ``pc``.  The second power sum is
    then one quadratic form in the free coordinates, ``z^T A z + 2 b.z + c =
    0`` with ``A_fh = v_f^T g v_h``, ``b_f = w_p^T g v_f`` and ``c = w_p^T g
    w_p - y2 den^2``, all integers.  Since ``<x_a, v_f> = 0`` and ``<x_a,
    w_p> = y0 den``, these are also the sums over the other ``n`` pairs
    alone.

    With no free column the form is the constant ``c``, and the guess is
    refused unless ``c = 0``, that is ``w_p^T g w_p = y2 den^2``; ``w =
    w_p / den``.  Otherwise the least value of the form, ``c - b.A^-1 b``,
    must not exceed 0, or the guess is refused; it is decided in integers
    from one fraction-free solve ``A u = a_den b``, as ``b.u - c a_den >=
    0``.  With one free column that number is ``b^2 - A c``, and the
    candidates are the rational roots ``z = (-b -+ r) / A`` of the quadratic
    (at most two, in ascending order), which exist exactly when ``math.isqrt``
    finds ``r^2 = b^2 - A c``; the candidate ``A w_p + (-b -+ r) v`` is
    ``w`` over the denominator ``A den``.  Either way no lattice is built:
    the first candidate whose values ``<w, x_j>`` over the other ``n``
    covariates equal the unanchored responses as multisets (compared as
    ``<A w_p + ..., x_j>`` against ``y_i`` times the denominator) gives the
    map, else ``None``.  Those covariates sit in slot order, ``1, ..., n``
    with covariate 0 in slot ``a``, and ties go in that order (see
    :func:`_match`).  A verified ``w`` is rational, so this refuses only
    guesses :func:`recover` would reject anyway.

    With two or more free columns, a guess that the least value admits
    takes the projections ``p_j`` of its other ``n`` covariates, in slot
    order, from the Gram matrix ``g - x_a x_a^T`` (see :func:`build_sources`),
    as integers ``P_j`` over a denominator ``p_den``.  With the cleared
    responses ``Y_i`` over ``dy``, the sources ``y_i p_j`` are ``Y_i P_j``
    and the target ``y0`` is ``Y_0 p_den``, all over ``dy p_den``.  It
    builds the permutation sublattice of the embedding of those ``n^2``
    sources (see :func:`subset_sum_basis`, which derives ``beta`` from the
    sources' exact margin), of rank ``(n - 1)^2 + 1``,
    reduces it, and reads the map off the first reduced column of the
    pattern ``z * (1, indicator, 0)``: ``z != 0``, last coordinate 0, every
    indicator entry 0 or ``z``; coordinate ``1 + t`` pairs response ``t //
    n`` with the covariate in slot ``t % n``.
    Nothing there needs a re-check: the last coordinate is ``z * beta *
    (target - subset sum)`` in exact integers, and every row and column of
    the indicator block sums to ``z``, so each holds exactly one ``z``.  It
    returns ``None`` when no column has the pattern, when the other ``n``
    covariates lack rank ``d`` (their Gram matrix is singular), or for a
    zero target with all-zero sources (``y0 = 0`` and every ``y_i`` or
    every ``p_j`` zero), where no subset singles out a permutation.

    The map sends response index to covariate index over all ``n + 1``
    measurements, so ``perm(0) == a``; :func:`recover` verifies it against all
    ``n + 1`` equations.  When the ``n + 1`` covariates have rank ``d``, as
    :func:`recover` requires before any guess, ``g`` is positive definite and
    so is ``A``, and nothing here raises.  On covariates of lower rank the
    solve of the form raises :class:`RankDeficiencyError` when ``A`` is
    singular.
    """
    d = inst.d
    _, dy, xs, ys = inst.cleared
    s, y1, g, y2 = inst.power_sums
    red, pivots = _ratlin._echelon([[*xs[a], ys[0]], [*s, y1]])
    if d in pivots:  # the anchor equation and the first power sum contradict
        return None
    rows = red[: len(pivots)]
    den = rows[0][pivots[0]] if pivots else 1  # every pivot row holds it
    # den w = w_p + sum_f z_f v_f
    w_p = [0] * d
    for row, pc in zip(rows, pivots):
        w_p[pc] = row[d]
    vs = []
    for f in (c for c in range(d) if c not in pivots):
        v = [0] * d
        v[f] = den
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        vs.append(v)
    # (w_p + sum_f z_f v_f)^T g (w_p + sum_f z_f v_f) = y2 den^2, that is z^T a_mat z + 2 b.z + c = 0
    gv = [_ratlin.matvec(g, v) for v in vs]
    a_mat = [[_ratlin.dot(v, gh) for gh in gv] for v in vs]
    b = [_ratlin.dot(w_p, gh) for gh in gv]
    c = _ratlin.dot(w_p, _ratlin.matvec(g, w_p)) - y2 * den * den
    if vs:  # a_mat u = a_den b; the least value is c - b.u / a_den
        u, a_den = _ratlin.solve_int(a_mat, b)
        slack = _ratlin.dot(b, u) - c * a_den  # a_den times minus the least value
    else:  # with no free column the form is the constant c
        slack = -c
    if slack < 0 or not vs and slack:
        return None
    ws = [w_p]
    if len(vs) == 1:
        # a_den = a1 and slack = b1^2 - a1 c, so z = (-b1 -+ root) / a1
        root = math.isqrt(slack)
        if root * root != slack:
            return None
        a1, b1 = a_den, b[0]
        ws = [[a1 * p + t * q for p, q in zip(w_p, vs[0])] for t in sorted({-b1 - root, -b1 + root})]
        den *= a1
    # only now, with the guess admitted, is anything of size n built
    n = inst.n
    slots = [0 if j == a else j for j in range(1, n + 1)]  # covariate 0 takes slot a
    if len(vs) > 1:
        sources = build_sources(inst, a, slots)
        if sources is None or ys[0] == 0 and (not any(ys[1:]) or not any(sources[0])):
            return None
        p, p_den = sources  # y_i p_j = Y_i P_j / (dy p_den) and y0 = Y_0 p_den / (dy p_den)
        for col in lll_reduce(subset_sum_basis(ys[1:], p, ys[0] * p_den, dy * p_den)).columns:
            z = col[0]
            if z != 0 and col[-1] == 0 and all(v in (0, z) for v in col[1:-1]):
                return Permutation((a, *(slots[t % n] for t, v in enumerate(col[1:-1]) if v)))
        return None
    targets = [v * den for v in ys[1:]]  # <w, x_j> = y_i as <den w, x_j> = den y_i
    for w in ws:
        pairs = _match({j: _ratlin.dot(w, xs[j]) for j in slots}, targets)
        if pairs is not None:
            return Permutation((a, *pairs))
    return None


@dataclass(frozen=True)
class RecoveryResult:
    """Exact reconstruction: global correspondence and rational weights."""

    perm: Permutation
    w: tuple[Fraction, ...]

    @property
    def anchor(self) -> int:
        """The anchor guess that verified: the covariate paired with ``y0``."""
        return self.perm(0)

    def as_jsonable(self) -> dict:
        return {
            "anchor": self.anchor,
            "perm": list(self.perm.map),
            "w": ["%d/%d" % (v.numerator, v.denominator) for v in self.w],
        }


def recover(inst: AnchoredInstance) -> Optional[RecoveryResult]:
    """Exact weights and correspondence from ``n + 1`` noiseless measurements,
    read as the exact rationals ``inst`` holds and worked on as integers over
    one cleared denominator.

    Tries every anchor guess ``a`` in ascending order: :func:`find_permutation`
    proposes the whole correspondence with ``y0`` on covariate ``a``, from
    the power sums or the lattice.  Every guess reads the same
    :attr:`AnchoredInstance.power_sums`, computed once, so no guess rebuilds
    the instance.  The guess is verified by one exact solve of all ``n + 1``
    equations it induces, the anchor's included, by fraction-free elimination
    of the :attr:`AnchoredInstance.cleared` integers: the ``n + 1``
    covariates have rank ``d`` (decided before any guess), so the solve
    returns ``None`` exactly when some equation fails.  The first guess that
    verifies wins; its ``w`` is turned back into ``Fraction`` values of the
    instance's own scale, and satisfies ``y_i = <w, x_{perm(i)}>`` exactly
    for every measurement including the anchor.

    A guess on the lattice route embeds its subset sum with the ``beta``
    that its own exact margin needs (see :func:`subset_sum_basis`), so any
    ``d >= 1`` works.

    Returns ``None`` if no anchor verifies.  The refusals of the whole
    instance are decided once, before any guess, from the same sums:
    ``ValueError`` when ``n < d``, :class:`DegenerateInstanceError` when all
    ``n + 1`` responses are zero (``y2 = 0``), and
    :class:`RankDeficiencyError` when the ``n + 1`` covariates lack rank
    ``d`` (their ``d x d`` Gram matrix ``g`` has fewer than ``d`` pivots).
    Otherwise no guess raises: a guess on the lattice route whose remaining
    covariates lack rank ``d`` is a failed guess (``None``) like any other.
    """
    if inst.n < inst.d:
        raise ValueError("need n >= d")
    _, _, g, y2 = inst.power_sums
    if y2 == 0:
        raise DegenerateInstanceError("all responses zero")
    if len(_ratlin._echelon(g)[1]) < inst.d:  # rank < d: some v != 0 has X v = 0
        raise RankDeficiencyError("covariates do not have full column rank")
    dx, dy, xs, ys = inst.cleared
    for a in range(inst.n + 1):
        perm = find_permutation(inst, a)
        if perm is None:
            continue
        sol = _ratlin.solve_int([xs[j] for j in perm.map], ys)  # all n + 1 equations
        if sol is not None:  # <u / den, X_j> = Y_i, so w = u dx / (den dy)
            u, den = sol
            return RecoveryResult(perm=perm, w=tuple(Fraction(v * dx, den * dy) for v in u))
    return None
