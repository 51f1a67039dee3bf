"""Reference code that only the tests call.

Each piece is an independent implementation or a utility that a test holds
the package to; nothing in ``shuffle_regress`` imports it.

* ``lagarias_odlyzko`` is the general subset-sum search of Lagarias and
  Odlyzko (1985) over the full embedding, the reference for the lattice
  stage that ``find_permutation`` runs on the permutation sublattice;
  ``full_embedding`` builds that ``N``-source embedding of a
  ``SubsetSumInstance`` (any hashable keys) at any scale ``beta`` (the
  package builds only the sublattice), and ``_scan`` is its pattern scan
  with an exact re-sum of each subset found.
* ``build_sources`` is the reference of the lattice route's sources: the
  ``n^2`` values ``y_i <x_j, (x^T x)^{-1} x0>`` from the Gram matrix of the
  ``n`` covariates themselves, where the package reads that matrix off the
  instance's power sums and keeps the sources as the rank-one product
  ``y_i p_j``.  ``transpose`` serves it and the exact determinant checks.
* ``epsilon_bound`` is the reference of the lattice route's margin: the least
  common multiple of the reduced denominators of the rational target and
  sources, where the package takes gcds of integer numerators over one
  denominator.  ``guess_embedding`` gives the integers that
  ``find_permutation`` hands ``subset_sum_basis`` for one guess.
* ``solve`` is an exact rational solve, the fraction-free integer solve of
  the package run on each row of a rational system cleared of its
  denominators (``_cleared``); ``mat`` reads a matrix as ``Fraction``s.
* ``solve_weighted_ls``, ``dense`` and ``apply`` read a ``SamplingMatrix``
  as the ``r x n`` matrix it encodes, and ``approx_factor`` is the
  approximation factor the barrier construction states for it.
* ``gen_yes_instance`` plants 3-partition yes-instances.
* ``det`` is an exact determinant over Fraction.
* ``exact_fit`` lists every pairing of a small anchored instance that some
  weight vector fits exactly, the reference for what ``recover`` may
  decline.
* ``exact_opt`` is the least cost of an instance of rank at most 3, the
  reference that grades ``fptas_solve`` where ``brute_force`` cannot run.
* ``cell_family_flags`` is the earlier builder of the cell family at rank
  ``k <= 3``, the reference that ``approx._cell_family`` must match byte for
  byte.  It reads the same flags under the same tie rule, but compares every
  flag with all ``m n`` (sampled row, row) pairs, crosses the normals with
  ``np.cross`` and sorts the rank tuples with a ``lexsort`` over their
  columns.
* ``perm_match_brute`` and ``subset_sum_brute`` are exhaustive searches, the
  references for ``sort_match`` and the lattice's subset-sum stage.
* ``check_3partition_brute`` and ``pls_feasible_brute`` decide both ends of
  ``reduce_3partition`` exhaustively, so the tests can confirm that the
  reduction preserves answers; ``left_nullspace_int``, an integer basis of a
  left null space, is how ``pls_feasible_brute`` decides without a
  tolerance.

The exhaustive searches refuse inputs beyond a hard cap with
``CapExceededError`` instead of silently grinding.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from shuffle_regress import _ratlin
from shuffle_regress.approx import orthonormalize
from shuffle_regress.errors import CapExceededError
from shuffle_regress.hardness import ThreePartitionInstance
from shuffle_regress.lattice import LatticeBasis, build_sources as _build_sources, lll_reduce
from shuffle_regress.model import AnchoredInstance, Instance, Permutation
from shuffle_regress.perm1d import MatchResult
from shuffle_regress.rowsample import SamplingMatrix


def transpose(a) -> list:
    """The transpose of a matrix given as row lists."""
    return [list(col) for col in zip(*a)]


def mat(rows) -> list:
    """The matrix ``rows`` with every entry as a ``Fraction``."""
    return [[Fraction(v) for v in row] for row in rows]


def _cleared(row) -> list:
    """The rationals ``row`` times the least common multiple of their
    denominators: integers in the same ratios."""
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def solve(a, b) -> Optional[list]:
    """The rational solution of ``a x = b`` for rational ``a`` with
    independent columns: ``_ratlin.solve_int`` of the rows of ``[a | b]``,
    each cleared of its denominators.  Raises ``RankDeficiencyError`` on
    dependent columns and returns ``None`` on an inconsistent system, as
    ``solve_int`` does."""
    rows = [_cleared(row) for row in mat([*row, v] for row, v in zip(a, b))]
    res = _ratlin.solve_int([row[:-1] for row in rows], [row[-1] for row in rows])
    if res is None:
        return None
    u, den = res
    return [Fraction(v, den) for v in u]


@dataclass(frozen=True)
class SubsetSumInstance:
    """Exact subset-sum data: ``sources`` indexed by hashable keys, and a
    ``target``."""

    sources: dict
    target: Fraction

    def __post_init__(self):
        if not self.sources:
            raise ValueError("no sources")
        object.__setattr__(
            self, "sources", {k: Fraction(v) for k, v in self.sources.items()}
        )
        object.__setattr__(self, "target", Fraction(self.target))


def build_sources(x0, x, y, y0) -> SubsetSumInstance:
    """Subset-sum sources whose correct-match subset sums to the anchor response.

    For exact data ``y_i = <w, x_{pi(i)}>`` with full-column-rank ``x``, the
    value ``c[(i, j)] = y_i * x_j^T (x^T x)^{-1} x0`` summed over the matched
    pairs ``(i, pi(i))`` equals ``y0 = <w, x0>``.  One exact ``d x d`` solve
    of the Gram system of ``x`` itself gives ``z = (x^T x)^{-1} x0``; the
    sources are then ``y_i * <x_j, z>``.  Keys are 0-based ``(response,
    covariate)`` pairs.

    Raises :class:`RankDeficiencyError` when ``x`` lacks full column rank.
    """
    xm = mat(x)
    n = len(xm)
    d = len(xm[0])
    if n < d:
        raise ValueError("need at least d measurements")
    x0 = [Fraction(v) for v in x0]
    y = [Fraction(v) for v in y]
    if len(x0) != d or len(y) != n:
        raise ValueError("shape mismatch")
    xt = transpose(xm)
    z = solve([_ratlin.matvec(xt, col) for col in xt], x0)  # x^T x z = x0
    proj = _ratlin.matvec(xm, z)
    sources = {(i, j): y[i] * proj[j] for i in range(n) for j in range(n)}
    return SubsetSumInstance(sources=sources, target=Fraction(y0))


def epsilon_bound(y, p, y0) -> Fraction:
    """Exact separation margin ``1 / D`` for wrong-subset sums of the
    rational sources ``c_ij = y_i p_j`` against the rational target ``y0``:
    ``D`` is the least common multiple of the reduced denominators of the
    target and of every source."""
    return Fraction(1, math.lcm(y0.denominator, *((u * v).denominator for u in y for v in p)))


def guess_embedding(q: AnchoredInstance, a: int, slots) -> Optional[tuple]:
    """``(y, p, target, lam)``, the integers ``find_permutation`` hands
    ``subset_sum_basis`` for guess ``a`` of ``q`` with its other covariates
    in ``slots``: the cleared responses ``Y_i``, the projections ``P_j`` of
    ``build_sources``, the target ``Y_0 den`` and the common denominator
    ``dy den``; ``None`` where ``build_sources`` refuses the guess."""
    sources = _build_sources(q, a, slots)
    if sources is None:
        return None
    p, den = sources
    _, dy, _, ys = q.cleared
    return ys[1:], p, ys[0] * den, dy * den


@dataclass(frozen=True)
class SubsetSearchResult:
    """Outcome of the lattice search: a verified key subset or ``None``."""

    subset: Optional[tuple]


def _indicator_subset(col: Sequence[int], keys: list) -> Optional[tuple]:
    if col[-1] != 0:
        return None
    z = col[0]
    if z == 0:
        return None
    picked = []
    for key, v in zip(keys, col[1:-1]):
        if v == z:
            picked.append(key)
        elif v != 0:
            return None
    return tuple(picked)


def _scan(columns, keys: list, ssi: SubsetSumInstance) -> Optional[tuple]:
    """First reduced column of the pattern ``z * (1, indicator, 0)`` whose
    subset re-sums exactly to the target, in column order; ``None`` if none."""
    for col in columns:
        subset = _indicator_subset(col, keys)
        if subset is not None:
            if sum((ssi.sources[k] for k in subset), Fraction(0)) == ssi.target:
                return subset
    return None


def full_embedding(ssi: SubsetSumInstance, beta) -> tuple[LatticeBasis, list]:
    """Embedding lattice for a subset-sum instance, plus the source key order.

    With ``N`` sources ``c_1..c_N`` (keys sorted), target ``t`` and a positive
    scale ``beta``, the basis has ``N + 1`` columns in dimension ``N + 2``:
    column 0 is ``e_0`` on top of ``beta * t``, column ``j >= 1`` is ``e_j`` on
    top of ``-beta * c_j``; the bottom row is scaled by the common denominator
    so every entry is an integer.  A subset ``S`` summing to ``t`` corresponds
    to the lattice vector ``(1, indicator(S), 0)`` of squared length
    ``|S| + 1``.
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    keys = sorted(ssi.sources)
    bt = beta * ssi.target
    bcs = [beta * ssi.sources[k] for k in keys]
    scale = math.lcm(bt.denominator, *(v.denominator for v in bcs))
    n1 = len(keys) + 1
    columns = []
    for j in range(n1):
        col = [0] * (n1 + 1)
        col[j] = 1
        col[-1] = int(bt * scale) if j == 0 else -int(bcs[j - 1] * scale)
        columns.append(tuple(col))
    return LatticeBasis(columns=tuple(columns)), keys


def lagarias_odlyzko(ssi: SubsetSumInstance, beta) -> SubsetSearchResult:
    """Lattice search for a subset of the sources summing exactly to the target.

    Reduces the embedding basis of scale ``beta`` and looks for a column of
    the pattern ``z * (1, indicator, 0)`` with ``z != 0`` and an exactly zero
    last coordinate, scanning the reduced vectors in order.  Every candidate
    subset is re-verified by exact summation before being returned.
    Heuristic: succeeds with high probability when the sources have many more
    bits than ``n^2`` (low density).  ``beta`` scales every source by the same
    factor, so it cannot change the density; only the data can.
    """
    basis, keys = full_embedding(ssi, beta)
    return SubsetSearchResult(subset=_scan(lll_reduce(basis).columns, keys, ssi))


def dense(s: SamplingMatrix) -> np.ndarray:
    """The ``r x n`` matrix ``s`` encodes."""
    out = np.zeros((len(s.rows), s.n))
    for tau, (col, wt) in enumerate(s.rows):
        out[tau, col] = wt
    return out


def apply(s: SamplingMatrix, v) -> np.ndarray:
    """``dense(s) @ v``, one sampled entry per row."""
    v = np.asarray(v, dtype=float)
    return np.array([wt * v[col] for col, wt in s.rows])


def solve_weighted_ls(s: SamplingMatrix, x, b) -> np.ndarray:
    """Minimum-norm minimizer of ``||s (x w - b)||_2``."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.ndim != 2 or b.ndim != 1 or x.shape[0] != b.shape[0]:
        raise ValueError("x must be n x k and b length n")
    if x.shape[0] != s.n:
        raise ValueError("sampling matrix is for n=%d, got %d rows" % (s.n, x.shape[0]))
    cols = np.array([col for col, _ in s.rows])
    wts = np.array([wt for _, wt in s.rows])
    sol, *_ = np.linalg.lstsq(wts[:, None] * x[cols], wts * b[cols], rcond=None)
    return sol


def approx_factor(n: int, k: int) -> float:
    """The factor ``c = 1 + 4 (1 + sqrt(n / (4k)))**2`` that the barrier
    construction states for a ``4k``-row sample of an ``n``-row basis: the
    oracle the row-sample tests hold ``row_sample`` to.  It does not bound
    every sample ``row_sample`` draws (ROADMAP "Known defects"), so
    ``fptas_solve`` never reads it."""
    return 1.0 + 4.0 * (1.0 + math.sqrt(n / (4.0 * k))) ** 2


def gen_yes_instance(k: int, c: int, seed: int) -> ThreePartitionInstance:
    """Plant ``k`` triples each summing to ``c``, then shuffle.

    Values are drawn uniformly from the admissible open interval
    ``(c/4, c/2)``; raises if ``c`` leaves that interval too tight to plant.
    """
    lo = c // 4 + 1
    hi = (c - 1) // 2
    if hi < lo:
        raise ValueError("no admissible values for c = %d" % c)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    vals: list[int] = []
    for _ in range(k):
        for _attempt in range(10000):
            a = int(rng.integers(lo, hi + 1))
            b = int(rng.integers(lo, hi + 1))
            rem = c - a - b
            if lo <= rem <= hi:
                vals.extend((a, b, rem))
                break
        else:
            raise ValueError("could not plant a triple for c = %d" % c)
    order = rng.permutation(3 * k)
    return ThreePartitionInstance(z=tuple(vals[i] for i in order))


def det(a) -> Fraction:
    """Exact determinant of a square matrix given as row lists."""
    m = mat(a)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det needs a square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[c])]
    return sign * out


def exact_fit(q: AnchoredInstance) -> list:
    """Every pairing of the ``n + 1`` measurements of ``q`` with its
    covariates that some ``w`` fits exactly, as ``(Permutation, w)`` pairs.

    The map sends measurement ``i`` (0 the anchor pair, ``1 + i`` the
    unanchored ones) to covariate ``map[i]`` in the same numbering.  Each of
    the ``(n + 1)!`` pairings is checked by one exact ``solve`` of
    all ``n + 1`` equations, so ``n + 1 <= 6``.  Raises
    ``RankDeficiencyError`` when the covariates lack rank ``d``.
    """
    xs = [q.x0, *q.x]
    ys = [q.y0, *q.y]
    if len(xs) > 6:
        raise ValueError("exact_fit enumerates (n + 1)! pairings: n + 1 <= 6")
    fits = []
    for pm in itertools.permutations(range(len(xs))):
        w = solve([xs[j] for j in pm], ys)
        if w is not None:
            fits.append((Permutation(pm), tuple(w)))
    return fits


# Vectors shorter than this count as zero and keys closer than this as tied;
# the rows of an orthonormal basis have norm <= 1 and the directions are unit
# vectors, so the scale is fixed.
_TIE = 1e-9


def _unit(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` longer than ``_TIE``, scaled to unit length."""
    norms = np.linalg.norm(a, axis=1)
    return a[norms > _TIE] / norms[norms > _TIE, None]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The entries of ``a`` along its first axis without repeats."""
    rows = np.round(a, 12).reshape(len(a), math.prod(a.shape[1:]))
    _, first = np.unique(rows, axis=0, return_index=True)
    return a[np.sort(first)]


def _tie_classes(keys: np.ndarray) -> np.ndarray:
    """Per row of ``keys``, the rank of each entry's class of values that are
    within ``_TIE`` of their neighbours in sorted order."""
    order = np.argsort(keys, axis=1, kind="stable")
    gaps = np.diff(np.take_along_axis(keys, order, axis=1), axis=1) > _TIE
    ranks = np.zeros(keys.shape, dtype=np.intp)
    ranks[:, 1:] = np.cumsum(gaps, axis=1)
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=1)
    return out


def exact_opt(x, y) -> float:
    """``min_{w, pi} sum_i (dot(w, x[pi(i)]) - y_i)^2`` for ``x`` of rank
    ``k <= 3``, in ``O(n^4)`` sorted matchings.

    With ``u`` an orthonormal basis of the columns of ``x``, the best weights
    for a fixed ``pi`` leave the residual of projecting ``y_pi`` on ``u``, so
    ``OPT = ||y||^2 - max_pi ||u^T y_pi||^2``.  An optimal ``pi`` sorts
    ``u w*`` against ``y``, and the sorted order is constant on each cell of
    the central arrangement of the hyperplanes ``(u_i - u_j) . w = 0``, so the
    maximum runs over one sorted matching per cell.  The rows of ``u`` are
    padded to ``R^3``.  A flag ``(v, t, s)`` of orthonormal directions reaches
    the cell of ``v + d t + d^2 s`` for small ``d > 0``, which sorts the rows
    by the key ``(u.v, u.t, u.s)``.  Every cell's closure holds a vertex ``v``:
    a line on two independent hyperplanes, or, when no two are independent,
    some ``+-e_m``.  Near ``v`` the cell is a sector of the hyperplanes
    through ``v``, bounded by a ray ``t = +-v x a`` on one of them (any ``t``
    perpendicular to ``v`` when none passes through it), and ``s = +-v x t``
    picks its side.  So the flags at every candidate vertex reach every cell.
    Keys within ``_TIE`` count as tied, so exact ties, such as those of
    integer data, are resolved by the next key.  Each cost is the projection
    residual itself, not the difference above, which would cancel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = orthonormalize(x).u
    n, k = u.shape
    if k > 3:
        raise ValueError("exact_opt enumerates an arrangement in R^k: k <= 3, got %d" % k)
    z = np.zeros((n, 3))
    z[:, :k] = u
    i, j = np.triu_indices(n, 1)
    normals = _distinct(_unit(z[i] - z[j]))
    eye = np.eye(3)
    verts = np.cross(normals[:, None], normals[None]).reshape(-1, 3)
    verts = _distinct(_unit(np.vstack([verts, -verts, eye, -eye])))
    # t: v x a for each hyperplane a through v, or v x e_m where none passes
    through = np.abs(verts @ normals.T) <= _TIE
    vi, ai = np.nonzero(through)
    lone = np.flatnonzero(~through.any(axis=1))
    vi = np.concatenate([vi, np.repeat(lone, 3)])
    ts = np.cross(verts[vi], np.vstack([normals[ai], np.tile(eye, (lone.size, 1))]))
    keep = np.linalg.norm(ts, axis=1) > _TIE
    vt = np.stack([verts[vi][keep], _unit(ts)], axis=1)
    vt = _distinct(np.concatenate([vt, vt * [[1.0], [-1.0]]]))
    s = np.cross(vt[:, 0], vt[:, 1])[:, None]
    flags = np.concatenate([np.concatenate([vt, s], axis=1), np.concatenate([vt, -s], axis=1)])
    y_sorted = np.sort(y)
    best = math.inf
    for lo in range(0, flags.shape[0], 4096):
        keys = flags[lo : lo + 4096] @ z.T  # (F, 3 keys, n rows)
        order = np.lexsort((keys[:, 2], _tie_classes(keys[:, 1]), _tie_classes(keys[:, 0])), axis=-1)
        y_pi = np.empty(order.shape)
        np.put_along_axis(y_pi, order, y_sorted[None, :], axis=1)
        resid = y_pi - (y_pi @ u) @ u.T
        best = min(best, float(np.einsum("ij,ij->i", resid, resid).min()))
    return best


# The tie rule and batch size of ``approx._cell_family``: key differences
# within ``_FLAG_TIE`` count as ties.
_FLAG_TIE = 1e-10
_FLAG_CHUNK = 8192


def _flag_distinct_rows(ranks: np.ndarray) -> np.ndarray:
    """The distinct rows of ``ranks`` in lexicographic order, by a sort and a
    neighbour compare."""
    ranks = ranks[np.lexsort(ranks.T[::-1])]
    new = np.ones(ranks.shape[0], dtype=bool)
    new[1:] = (ranks[1:] != ranks[:-1]).any(axis=1)
    return ranks[new]


def _flag_frames(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Frames ``lo..hi`` of the unit normals ``a``, as ``(count, k, k)``
    arrays of orthonormal rows: ``(a_i)`` at ``k = 1``; ``(v, a_i)`` at
    ``k = 2``, ``v`` the normal turned a quarter, one per normal; and at
    ``k = 3``, one per ordered pair ``i, j`` (frame ``i * len(a) + j``) of
    planes that meet in a line, ``(v, a_i x v, a_i)`` with ``v = a_i x a_j``
    normalized.  A cross product within ``_FLAG_TIE`` counts as parallel
    planes."""
    if a.shape[1] == 1:
        return a[lo:hi, None]
    if a.shape[1] == 2:
        a = a[lo:hi]
        return np.stack([a[:, ::-1] * [-1.0, 1.0], a], axis=1)
    i, j = np.divmod(np.arange(lo, hi), a.shape[0])
    v = np.cross(a[i], a[j])
    norm = np.hypot.reduce(v, axis=1)
    keep = norm > _FLAG_TIE
    ai, v = a[i[keep]], v[keep] / norm[keep, None]
    return np.stack([v, np.cross(ai, v), ai], axis=1)


def cell_family_flags(u: np.ndarray, cols) -> np.ndarray:
    """The rank tuples of the rows ``cols`` of ``u`` (``k <= 3`` columns), one
    per cell of the central arrangement of the hyperplanes
    ``(u_s - u_j) . w = 0``, ``s`` in ``cols``, distinct and in lexicographic
    order: the family ``approx._cell_family`` builds, read off the same flags.

    Each flag of a frame ``(f_1, ..., f_k)`` sorts the rows by the keys
    ``u_j . f_1``, then ``u_j . f_2`` and so on, and the rows left tied by
    index.  Every flag is compared with all ``m n`` pairs ``(s, j)``, by the
    differences ``(u_s - u_j) . f``, those within ``_FLAG_TIE`` counting as
    ties, so a pair of sampled rows is compared both ways.
    """
    n, k = u.shape
    below = np.arange(n) < np.asarray(cols)[:, None]
    diff = u[cols, None, :] - u  # (m, n, k): u_s - u_j
    if k == 1:
        a = np.ones((1, 1))
    else:
        sampled = np.zeros(n, dtype=bool)
        sampled[cols] = True
        a = diff[~(below & sampled)]
        norm = np.hypot.reduce(a, axis=1)
        keep = norm > _FLAG_TIE
        a = a[keep] / norm[keep, None]
    count = a.shape[0] ** max(1, k - 1)
    # Row j sorts below s when the first of its keys' signs that is not a tie
    # is positive, or, all tied, when j < s: each flag of a frame weighs key c
    # by +-2**(k - c), the sign the flag gives the frame's vector c.
    signs = np.array([[s] * (k - 1) + [t] for s in (1.0, -1.0) for t in (1.0, -1.0)])
    weigh = signs * 2.0 ** np.arange(k, 0, -1)
    step = max(1, _FLAG_CHUNK // below.size)
    family = np.empty((0, below.shape[0]), dtype=np.intp)
    parts = []
    held = 0
    for lo in range(0, count, step):
        f = _flag_frames(a, lo, min(lo + step, count))[:, :, None, None, :]
        key = sum(f[..., c] * diff[..., c] for c in range(k))  # (frames, k, m, n)
        sign = np.sign(key) * (np.abs(key) > _FLAG_TIE)
        order = weigh @ sign.reshape(-1, k, below.size)  # (frames, flags, m n)
        order += below.reshape(-1)
        parts.append((order.reshape(-1, *below.shape) > 0).sum(axis=2))
        held += parts[-1].shape[0]
        # Merge once the batches hold more tuples than the family so far, so
        # at most about twice the family is held.
        if held > family.shape[0] + _FLAG_CHUNK:
            family, parts, held = _flag_distinct_rows(np.concatenate([family, *parts])), [], 0
    return _flag_distinct_rows(np.concatenate([family, *parts]))


def perm_match_brute(a, b) -> MatchResult:
    """Exact minimizer of ``sum_i (a[pi(i)] - b_i)^2`` by full enumeration.

    Ties break toward the lexicographically smallest permutation map, as in
    ``brute_force``.  Refuses ``n > 8``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be 1-d vectors of equal length")
    n = a.shape[0]
    if n > 8:
        raise CapExceededError("perm_match_brute capped at n <= 8, got n = %d" % n)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
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
    than 24 values.
    """
    vals = [Fraction(v) for v in values]
    target = Fraction(target)
    m = len(vals)
    if m > 24:
        raise CapExceededError("subset_sum_brute capped at 24 values, got %d" % m)
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


def check_3partition_brute(tp: ThreePartitionInstance) -> bool:
    """Exhaustively decide 3-partition.  Refuses ``k > 4``."""
    if tp.k > 4:
        raise CapExceededError("check_3partition_brute capped at k <= 4, got k = %d" % tp.k)

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


def left_nullspace_int(a) -> list[list[int]]:
    """Integer basis of ``{v : v a = 0}`` (row vectors), possibly empty."""
    at = transpose(mat(a))
    red, pivots = _ratlin._echelon([_cleared(row) for row in at])
    den = red[0][pivots[0]] if pivots else 1  # every pivot row holds it
    nrows = len(a)
    free = [c for c in range(nrows) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nrows
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        scale = math.gcd(*v) * (1 if den > 0 else -1)  # primitive, entry fc > 0
        basis.append([x // scale for x in v])
    return basis


def pls_feasible_brute(inst: Instance) -> bool:
    """Exhaustively decide permuted-system feasibility, exactly, for an
    instance of integer values.

    True iff some permutation ``pi`` makes ``x w = (y[pi(0)], ..., y[pi(n-1)])``
    consistent; equivalently the exact rational least-squares residual is zero.
    The values are read back as the exact integers they hold, and the answer
    is decided via an integer basis of the left null space of ``x``, so no
    tolerance enters.  Refuses ``n > 8``.
    """
    n = inst.n
    if n > 8:
        raise CapExceededError("pls_feasible_brute capped at n <= 8, got n = %d" % n)
    b = [int(v) for v in inst.y]
    null_rows = left_nullspace_int([[int(v) for v in row] for row in inst.x])
    if not null_rows:
        return True
    for perm in itertools.permutations(range(n)):
        if all(sum(nr[i] * b[perm[i]] for i in range(n)) == 0 for nr in null_rows):
            return True
    return False
