"""(1+eps)-approximate joint least squares over weights and permutation.

``fptas_solve`` returns a pair ``(w, pi)`` whose cost
``sum_i (dot(w, x[pi(i)]) - y_i)^2`` is within a factor ``1 + eps`` of the best
achievable by any weights and any permutation.  The search works in an
orthonormalized coordinate system: a barrier-selected row sample pins down a
small family of candidate response assignments, each candidate contributes a
weighted least-squares center, and an axis-aligned grid around each center is
scanned with the exact one-dimensional matcher.

Cost model: with ``k`` the covariate rank, the candidates assign responses to
the ``m <= 4k`` distinct sampled rows, and the guarantee needs only one of
them, the certificate: the assignment that an optimal permutation induces.
That permutation pairs ``u w*`` sorted with ``y`` sorted, so the certificate
gives sampled row ``s`` the response ``y_sorted[rank of u_s . w*]``, a rank
tuple that is constant on each cell of the central arrangement of the
``N = m (n - 1)`` hyperplanes ``(u_s - u_j) . w = 0``.  At ``k <= 3`` the
family is one such sorted matching per cell, at most ``2 N`` members at
``k = 2`` (two at ``k = 1``) and ``2 (1 + (N - 1) + C(N - 1, 2))`` at
``k = 3``; at ``k >= 4`` it is the paper's, every one of the ``n!/(n-m)!``
injective assignments (the planted correspondence is a bijection, so it gives
distinct rows distinct responses).  The cell family is a subset of the paper's
that keeps the certificate.  Every grid has ``O((c sqrt(k/eps))**k)`` points,
so the overall work is ``(n/eps)**O(k)``.  The constant ``c`` is the one of
the sample in hand, ``c_post = 1 + ||pinv(S u) S (I - u u^T)||_2**2``, read
off the sample alone: the factor ``1 + 4 (1 + sqrt(n / 4k))**2`` that the
barrier construction states does not bound every sample this one draws, and on
the benchmark's d = 2 fptas-large instances ``c_post`` is 2.6-11 where that
factor is 21-24.  At ``k <= 3`` and ``n <= 4k`` the barrier sample would be no
smaller than the data, so every row is sampled at weight 1 instead: then
``c_post = 1``, every grid is its center alone and the result is the
optimum, the least-squares fit of the best cell's sorted matching.  Here the
package departs from the paper, which takes the barrier sample at every size.
Candidates are generated from their index in batches of a fixed
size (``_CHUNK``), so the first pass keeps one float per candidate (and at
``k <= 3`` the family's rank tuples) plus buffers of that size.  The second
pass does not visit every grid point: it scans boxes of grid points coarse to
fine and drops a box once the 1-Lipschitz bound on ``sqrt(cost)`` shows that
none of its points can beat the incumbent, which only evaluated grid points
become.  It returns the minimum over the grids, ties going to the smallest
(candidate index in the family's order, row-major grid index).  A budget cap
(default 50 million) on the candidates and on the unpruned grid points turns
runaway instances into a hard error instead of an open-ended computation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import Instance, Permutation, _is_int
from .perm1d import sort_match
from .rowsample import SamplingMatrix, row_sample

__all__ = [
    "Solution",
    "OrthonormalReduction",
    "orthonormalize",
    "fptas_solve",
]

DEFAULT_BUDGET = 50_000_000

# Candidates per pass-1 buffer; pass 2 evaluates `_CHUNK >> k` boxes a step,
# whose children number at most `_CHUNK`.
_CHUNK = 8192


@dataclass(frozen=True)
class Solution:
    """Weights, permutation, and the squared cost they achieve."""

    w: np.ndarray
    perm: Permutation
    cost: float


@dataclass(frozen=True)
class OrthonormalReduction:
    """Thin SVD of the covariate matrix restricted to its row space.

    ``u`` is ``n x k`` with orthonormal columns, ``sigma`` the positive singular
    values, ``v`` the ``d x k`` right factor.  A weight vector ``w_r`` in the
    reduced problem maps back to ``v @ (w_r / sigma)`` in the original one, and
    both achieve identical costs against every permutation.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def k(self) -> int:
        return self.sigma.shape[0]

    def to_original(self, w_r) -> np.ndarray:
        """``v @ (w_r / sigma)``.  Raises ``ValueError`` when a tiny singular
        value puts the weights beyond the largest double."""
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.v @ (np.asarray(w_r, dtype=float) / self.sigma)
        if not np.isfinite(w).all():
            raise ValueError("the optimal weights overflow float64")
        return w


def orthonormalize(x) -> OrthonormalReduction:
    """Reduce covariates to an orthonormal basis of their column space.

    Singular values at or below ``1e-15 * max`` are treated as zero, the
    cutoff ``numpy.linalg.pinv`` (and so ``oracle.brute_force``) applies, so
    ``k`` is the numerical rank; duplicated or dependent columns collapse.  A
    larger cutoff would drop small but exact directions, such as a column
    scaled by ``1e-9``, that the optimum needs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-d")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        k = 0
    else:
        k = int(np.sum(s > 1e-15 * s[0]))
    return OrthonormalReduction(u=u[:, :k], sigma=s[:k].copy(), v=vt[:k].T.copy())


def sampled_columns(s: SamplingMatrix) -> list:
    """Distinct coordinate indices hit by the sample, ascending."""
    return sorted({col for col, _ in s.rows})


def _assignments(ranks, n: int, m: int) -> np.ndarray:
    """Injective maps ``range(m) -> range(n)`` at the given lexicographic ranks.

    Row ``t`` lists the images of positions ``0..m-1`` of the map of rank
    ``ranks[t]`` among all ``n!/(n-m)!`` injective maps in lexicographic order.
    """
    rest = np.asarray(ranks, dtype=np.int64)
    out = np.empty((rest.shape[0], m), dtype=np.intp)
    for j in range(m):
        out[:, j], rest = np.divmod(rest, math.perm(n - j - 1, m - j - 1))
    # Digit j indexes the values left unused by positions < j; lift the
    # digits to values right to left (Lehmer-code decoding).
    for j in range(m - 2, -1, -1):
        tail = out[:, j + 1 :]
        tail += tail >= out[:, j : j + 1]
    return out


# Key differences within this count as ties when a flag orders the rows.  The
# rows of ``u`` have norm <= 1 and the flag directions are unit vectors; a tie
# of the covariates reaches ``u`` off by about 1e-16 times the condition
# number of ``x``.
_TIE = 1e-10


def _distinct_rows(ranks: np.ndarray, n: int) -> np.ndarray:
    """The distinct rows of ``ranks`` (``intp`` entries in ``range(n)``), in
    lexicographic order.

    Each entry takes ``b = bit_length(n - 1)`` bits, and each run of
    ``64 // b`` entries of a row is packed into one unsigned 64-bit key, the
    first entry in the highest bits, so a row's keys compare as its entries
    do; one key holds a row of up to ``64 // b`` entries.  The rows are
    sorted by their keys as ``lexsort`` does, by the least significant key
    first and then by each more significant one in a stable sort, but the
    first sort, which has no earlier order to keep, is not a stable one.  A
    row is kept where its keys differ from those of the row before it
    (``np.unique`` would import ``numpy.ma``, about 1 MB more resident)."""
    bits = max(1, (n - 1).bit_length())
    per = 64 // bits
    m = ranks.shape[1]
    weight = np.zeros((m, -(-m // per)), dtype=np.uint64)
    for c in range(m):
        weight[c, c // per] = 1 << (bits * (per - 1 - c % per))
    keys = ranks.view(np.uint64) @ weight
    order = np.argsort(keys[:, -1])
    for g in range(keys.shape[1] - 2, -1, -1):
        order = order[np.argsort(keys[order, g], kind="stable")]
    keys = keys[order]
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return ranks[order[new]]


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.hypot.reduce(v, axis=1)``, one ``hypot`` per column (the reduce
    takes about three times as long)."""
    return functools.reduce(np.hypot, v.T)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of the rows of the ``(count, 3)`` arrays ``a`` and ``b``:
    the same products, subtracted in the same order, without its axis
    moves."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _frames(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Frames ``lo..hi`` of the unit normals ``a``, as a ``(k, count, k)``
    array whose ``[c, f]`` is vector ``c`` of frame ``f``; each frame's
    vectors are orthonormal: ``(a_i)`` at ``k = 1``; ``(v, a_i)`` at
    ``k = 2``, ``v`` the normal turned a quarter, one per normal; and at
    ``k = 3``, one per ordered pair ``i, j`` (frame ``i * len(a) + j``) of
    planes that meet in a line, ``(v, a_i x v, a_i)`` with ``v = a_i x a_j``
    normalized.  A cross product within ``_TIE`` counts as parallel
    planes."""
    if a.shape[1] == 1:
        return a[None, lo:hi]
    if a.shape[1] == 2:
        a = a[lo:hi]
        f = np.empty((2, *a.shape))
        f[0, :, 0], f[0, :, 1], f[1] = -a[:, 1], a[:, 0], a
        return f
    # take: fancy indexing costs about three times as much at these sizes
    i, j = np.divmod(np.arange(lo, hi), a.shape[0])
    v = _cross(a.take(i, axis=0), a.take(j, axis=0))
    norm = _norms(v)
    keep = np.flatnonzero(norm > _TIE)
    ai, v = a.take(i.take(keep), axis=0), v.take(keep, axis=0) / norm.take(keep)[:, None]
    return np.stack([v, _cross(ai, v), ai])


def _cell_family(u: np.ndarray, cols) -> np.ndarray:
    """The rank tuples of the rows ``cols`` of ``u`` (``k <= 3`` columns), one
    per cell of the central arrangement of the hyperplanes
    ``(u_s - u_j) . w = 0``, ``s`` in ``cols``: row ``t`` gives the rank of each
    ``u_s . w`` among all ``n`` keys on cell ``t``.  Rows are distinct and in
    lexicographic order.

    The order is constant on a cell, and each cell is read off a flag: an
    orthonormal frame ``(f_1, ..., f_k)`` that sorts the rows by the keys
    ``u_j . f_1``, then ``u_j . f_2`` and so on, and the rows left tied, which
    coincide, by index.  It is the order at
    ``f_1 + delta f_2 + ... + delta**(k-1) f_k`` for small ``delta > 0``.
    The last vector of a frame is the unit normal ``a`` of a hyperplane,
    taken with either sign to pick a side, and the others flip together:

    - ``k = 1``: the flags are ``w = +-1``.
    - ``k = 2``: every cell is a sector with an event direction ``v`` on its
      boundary, so the flags ``(+-v, +-a)``, ``v`` on the hyperplane of
      ``a``, reach all of them, at most ``2 m (n - 1)`` cells.
    - ``k = 3``: every cell has a facet on some plane ``H`` of normal ``a``,
      and that facet is a sector of the lines where the other planes cut
      ``H``.  The sector starts at a ray ``v`` on ``H`` and another plane and
      is entered along ``t = a x v``, so the flags ``(v, t, +-a)``, with ``v``
      either way along each such line, reach every cell.  ``N = m (n - 1)``
      planes make at most ``2 (1 + (N - 1) + C(N - 1, 2))`` cells
      (Zaslavsky, 1975).

    A hyperplane ``u_s - u_j`` with both rows sampled is taken once, as the
    flags of ``a`` reach every cell that those of ``-a`` reach.  Rows are
    compared by the differences ``(u_s - u_j) . f``, those within ``_TIE``
    counting as ties: the pair that defines ``v`` ties however it rounds,
    rows on one line or plane are read off one flag, and a sector narrower
    than ``_TIE`` merges with a neighbour.  A tuple can repeat a rank only
    where three rows' differences straddle ``_TIE``.

    Each unordered pair of rows is compared once, as ``(s, j)`` with ``s``
    sampled and ``j`` unsampled or sampled after ``s`` in ``cols``: ``s``
    gains 1 where ``j`` sorts below it, and a sampled ``j`` takes the
    complement, 1 where it does not.  That is exact.  ``u_j - u_s`` rounds to
    exactly ``-(u_s - u_j)``, so each key of ``(j, s)`` is the negation of
    the same key of ``(s, j)``, ties included.  A flag weighs the keys' signs
    by powers of two, so their weighted sum is 0, where the index decides, or
    at least 1 in size, and then its sign decides; either way exactly one
    of the two rows sorts below the other.  A batch's keys are one matrix
    product, its signs ``int8`` and its ranks the product of the 0/1
    outcomes with the pairs' incidence on the sampled rows.  The frames go
    in batches of about ``_CHUNK`` (pair, frame) comparisons, and their
    tuples are merged into the family, repeats dropped, once they outnumber
    it, so about twice the family is held at most.
    """
    n, k = u.shape
    cols = np.asarray(cols)
    m = cols.size
    place = np.arange(m)
    # pos[j]: the place of row j in cols, m for a row not sampled
    pos = np.full(n, m)
    pos[cols] = place
    si, j = np.nonzero(pos > place[:, None])  # the pairs (cols[si], j)
    s = cols[si]
    diff = u[s] - u[j]  # (pairs, k): u_s - u_j
    below = (j < s).view(np.int8)  # the index tie-break: j sorts below s
    # The rank of the sampled row at place p is the number of its pairs
    # (s, j) where j sorts below it, plus the number of the p pairs (s', s)
    # with the sampled rows before it where it does not sort below s': p
    # plus the outcomes times inc, which adds each pair's outcome to s and
    # takes it from a sampled j (row m of eye is zero).  The product is
    # exact in float32 below 2**24 pairs, as its partial sums are integers
    # no larger than the pair count.
    eye = np.eye(m + 1, m, dtype=np.float32)
    inc = eye[si] - eye[pos[j]]
    if k == 1:
        a = np.ones((1, 1))
    else:
        norm = _norms(diff)
        keep = norm > _TIE
        a = diff[keep] / norm[keep, None]
    count = a.shape[0] ** max(1, k - 1)
    step = max(1, _CHUNK // max(1, j.size))
    diff_t = np.ascontiguousarray(diff.T)  # the product reads it about a third faster
    family = np.empty((0, m), dtype=np.intp)
    parts = []
    held = 0
    for lo in range(0, count, step):
        f = _frames(a, lo, min(lo + step, count))
        key = f @ diff_t  # (k, frames, pairs)
        sign = (key > _TIE).view(np.int8) - (key < -_TIE).view(np.int8)
        # Under the flag that gives the frame's vectors the signs (x, ...,
        # x, y), j sorts below s when x head + y sign[-1] + below > 0: head
        # weighs sign[c], c < k - 1, by 2**(k - 1 - c), so the first sign
        # that is not a tie decides, and below decides where all tie.
        head = 0
        for c in range(k - 1):
            head = 2 * (head + sign[c])
        plus, minus = head + sign[-1], head - sign[-1]
        outcome = np.empty((4, *plus.shape), dtype=np.float32)
        np.greater(plus, -below, out=outcome[0])  # x = y = 1
        np.greater(minus, -below, out=outcome[1])  # x = 1, y = -1
        np.less(minus, below, out=outcome[2])  # x = -1, y = 1
        np.less(plus, below, out=outcome[3])  # x = y = -1
        ranks = (outcome.reshape(4 * len(plus), j.size) @ inc).astype(np.intp)
        ranks += place
        parts.append(ranks)
        held += ranks.shape[0]
        # Merge once the batches hold more tuples than the family so far, so
        # at most about twice the family is held.
        if held > family.shape[0] + _CHUNK:
            family, parts, held = _distinct_rows(np.concatenate([family, *parts]), n), [], 0
    return _distinct_rows(np.concatenate([family, *parts]), n)


def _center_map(u: np.ndarray, samp: SamplingMatrix) -> np.ndarray:
    """The ``(m, k)`` map ``gmap`` from the responses a candidate gives the
    ``m`` sampled columns, in ascending order, to its center
    ``w_center(b) = P b``, ``P = pinv(S u) S``: ``w_center(b) = vals @ gmap``.

    The rows of ``gmap`` are the nonzero columns of ``P``, so ``||gmap||_2 =
    ||P||_2``.  As ``S u`` has rank ``k``, ``P u = I``, hence
    ``P P^T = I + Q Q^T`` with ``Q = P (I - u u^T)`` and ``||gmap||_2**2 =
    1 + ||Q||_2**2``: the constant ``c_post`` of this sample.  For an optimum
    ``w*`` with residual ``r*`` (orthogonal to the columns of ``u``), the
    center of the candidate that the optimal permutation induces is
    ``w* + Q r*``.  It costs at most ``c_post * ||r*||^2`` and lies within
    ``sqrt((c_post - 1) * ||r*||^2)`` of ``w*``, the coreset argument of
    Boutsidis, Drineas and Magdon-Ismail (2013).
    """
    cols = sampled_columns(samp)
    su = np.array([wt * u[col] for col, wt in samp.rows])
    pin = np.linalg.pinv(su)
    gmap = np.zeros((len(cols), u.shape[1]))
    pos = {col: idx for idx, col in enumerate(cols)}
    for row_idx, (col, wt) in enumerate(samp.rows):
        gmap[pos[col]] += wt * pin[:, row_idx]
    return gmap


def _net_steps(r: np.ndarray, reach: float, eps: float, c: float, k: int):
    """Spacing and half-width of the net around centers of cost ``r``.

    The net around a center ``w`` of cost ``r_b`` is ``w + spacing * g`` for
    the integer offsets ``g`` in ``-half..half`` per axis.  The spacing
    ``2 * sqrt(eps * r_b / c) / sqrt(k)`` leaves every point of the cube the
    net spans within ``sqrt(eps * r_b / c)`` of a grid point, and
    ``half = ceil(reach / spacing)`` makes that cube cover the ball of radius
    ``reach`` around ``w``.  A zero-cost center, or ``reach = 0``, gets the
    center alone (``half = 0``).
    """
    unit = 2.0 * math.sqrt(eps / c) / math.sqrt(k)
    spacing = unit * np.sqrt(r)
    halves = np.zeros(r.shape, dtype=np.int64)
    pos = r > 0.0
    if reach > 0.0:
        halves[pos] = np.ceil(reach / spacing[pos]).astype(np.int64)
    return spacing, halves


def _min_perm_costs(a_rows: np.ndarray, y_sorted: np.ndarray) -> np.ndarray:
    """Best-permutation cost of every row of ``a_rows`` against ``y``.

    Sorts ``a_rows`` in place along its contiguous axis and overwrites it.
    """
    a_rows.sort(axis=1)
    a_rows -= y_sorted
    return np.einsum("ij,ij->i", a_rows, a_rows)


def _rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, each row rounded the same whatever the number of rows.

    BLAS rounds a one-row product (a vector-matrix call) differently from a
    row of a larger one, so a single row goes through as two.
    """
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _scan_nets(ut, y_sorted, ranks, wt, spacing, halves, best):
    """Cheapest point of the nets ``wt[:, i] + spacing[i] * g``, ``g`` in
    ``-halves[i]..halves[i]`` per axis, by a coarse-to-fine box scan.

    ``best`` is the incumbent ``(cost, key, point)``, ``key`` being ``(rank,
    row-major index)``; the updated incumbent is returned.  A box is a product
    of per-axis offset ranges ``lo..hi`` of one net, and its middle
    ``g = (lo + hi) // 2`` is evaluated.  ``sqrt(cost)`` is 1-Lipschitz in the
    point (the columns of ``u`` are orthonormal and sorting is a contraction),
    so no point of the box costs less than
    ``(sqrt(cost(g)) - spacing * ||hi - g||)**2``.  When that exceeds the
    incumbent, with a relative slack of 1e-12 for rounding, the box is
    dropped; otherwise every axis with more than one offset is split into
    ``lo..g`` and ``g+1..hi``.  A net's root box is centered on the candidate
    center, whose cost ``r_b`` pass 1 knows, and is wider than the reach, so
    the scan starts from its halves.  Only evaluated grid points become the
    incumbent, and ties keep the smallest key, so the result is the net
    minimum whatever the order of the scan or ``_CHUNK``.

    Boxes wait on one stack of ``(net, lo, hi)`` columns, and each step pops
    ``_CHUNK >> k`` of them from the top.  Nets enter in their given order,
    that many at a time whenever the stack runs empty.  Children go on top in
    their parents' order, so depth never falls going up the stack and each
    depth holds at most one step's children, at most ``_CHUNK``.  The stack
    starts with room for two steps' children and doubles when full, so it
    never holds more than ``1 + halves.max().bit_length()`` steps' worth.
    """
    best_cost, best_key, best_w = best
    todo = np.flatnonzero(halves)
    if todo.size == 0:
        return best
    k = ut.shape[0]
    fan = 1 << k
    group = max(1, _CHUNK >> k)
    axis = np.arange(k, dtype=np.int32)[:, None]
    pattern = np.tile(np.arange(fan, dtype=np.int32), group)
    idx = np.int32 if 2 * int(halves.max()) < 2**31 else np.int64
    stack = np.empty((1 + 2 * k, 2 * group * fan), dtype=idx)
    # Masks go into fixed buffers: numpy caches freed arrays under 1 KiB, a
    # few per byte size, and fresh masks of every length would fill that
    # cache (about 0.5 MB more resident over a thousand small solves).
    keep = np.empty(group, dtype=bool)
    kid_mask = np.empty(fan * group, dtype=bool)
    axis_mask = np.empty((k, fan * group), dtype=bool)
    top = fed = 0
    bound = math.sqrt(best_cost * (1.0 + 1e-12) + 1e-300)
    while top or fed < todo.size:
        if top == 0:
            # Split the root boxes of the next nets around their centers.
            net = todo[fed : fed + group].astype(idx)
            fed += net.size
            hi = np.tile(halves[net].astype(idx), (k, 1))
            lo, g = -hi, np.zeros_like(hi)
        else:
            p = min(top, group)
            top -= p
            box = stack[:, top : top + p]
            net, lo, hi = box[0], box[1 : k + 1], box[k + 1 :]
            g = lo + hi
            g >>= 1
            sp = spacing[net]
            pts = wt.take(net, axis=1)
            pts += sp * g
            pts = pts.T
            costs = _min_perm_costs(_rows_matmul(pts, ut), y_sorted)

            j = int(costs.argmin())
            if costs[j] <= best_cost:
                for t in np.flatnonzero(costs == costs[j]).tolist():
                    h = int(halves[net[t]])
                    index = np.ravel_multi_index(g[:, t] + h, (2 * h + 1,) * k)
                    key = (int(ranks[net[t]]), int(index))
                    if costs[t] < best_cost or key < best_key:
                        best_cost, best_key, best_w = float(costs[t]), key, pts[t].copy()
                bound = math.sqrt(best_cost * (1.0 + 1e-12) + 1e-300)

            # A one-point box is kept only when it ties the incumbent, and it
            # has no children.
            far = hi - g  # per axis, the offset to the farthest point of the box
            radius = np.sqrt(np.einsum("ij,ij->j", far, far, dtype=float))
            radius *= sp
            np.sqrt(costs, out=costs)
            costs -= radius
            split = np.less_equal(costs, bound, out=keep[:p])
            if not split.any():
                continue
            box, g = np.compress(split, box, axis=1), np.compress(split, g, axis=1)
            net, lo, hi = box[0], box[1 : k + 1], box[k + 1 :]

        # Child t of a box takes the upper half g+1..hi on the axes of bit t.
        # That half is empty on an axis with one offset, and the child of
        # lower halves only is {g} itself when no axis has more than two.
        q = net.size
        thin = (np.equal(hi, lo, out=axis_mask[:, :q]) << axis).sum(axis=0, dtype=np.int32)
        kid = np.equal(np.repeat(thin, fan) & pattern[: fan * q], 0, out=kid_mask[: fan * q])
        np.greater((hi - lo).max(axis=0), 1, out=kid[::fan])
        kid = np.flatnonzero(kid)
        parent = kid >> k
        upper = np.not_equal(pattern[kid] & (1 << axis), 0, out=axis_mask[:, : kid.size])
        if top + kid.size > stack.shape[1]:
            stack = np.concatenate((stack[:, :top], np.empty_like(stack)), axis=1)
        out = stack[:, top : top + kid.size]
        np.take(net, parent, out=out[0])
        np.take(lo, parent, axis=1, out=out[1 : k + 1])
        g = g.take(parent, axis=1)
        out[k + 1 :] = g
        np.copyto(out[k + 1 :], hi.take(parent, axis=1), where=upper)
        g += 1
        np.copyto(out[1 : k + 1], g, where=upper)
        top += kid.size
    return best_cost, best_key, best_w


def fptas_solve(
    inst: Instance,
    eps: float,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Solution:
    """Approximate ``min_{w, pi} sum_i (dot(w, x[pi(i)]) - y_i)^2``.

    Guarantees ``cost <= (1 + eps) * optimum``.  The weights are the
    cheapest point of the grids scanned around the candidates' centers; among
    equal-cost points the winner is the one met earliest in enumeration order
    (candidate first, in the family's order, then row-major grid position),
    whatever order the scan visits them in.

    For ``m`` distinct sampled rows the candidate family holds, at ``k <= 3``,
    one sorted matching per cell of the rows' arrangement of ``N = m (n - 1)``
    hyperplanes, in lexicographic rank-tuple order: at most ``2 N`` members
    at ``k = 2`` and ``2 (1 + (N - 1) + C(N - 1, 2))`` at ``k = 3`` (see
    :func:`_cell_family`).  At ``k >= 4`` it holds the paper's ``n!/(n-m)!``
    injective assignments in lexicographic order (see :func:`_assignments`).
    Both hold the certificate, the candidate an optimal permutation induces,
    so the cell family is a subset of the paper's that keeps the guarantee.
    The first pass keeps one float per candidate plus buffers of 8192
    candidates.  The grids' spacing, their reach and the threshold above
    which a candidate's grid is skipped all follow the approximation
    constant ``c_post`` of the drawn sample alone (see :func:`_center_map`).
    At ``k <= 3`` and ``n <= 4k`` every row is sampled at weight 1 in place
    of the barrier sample, which departs from the paper: ``c_post = 1``, no
    grid is scanned beyond its center and the result is the optimum.
    The second pass is a coarse-to-fine box scan of the grids (see
    :func:`_scan_nets`) that evaluates ``8192 >> k`` grid points at a time
    and skips the boxes that cannot hold a cheaper point.

    Raises :class:`BudgetExceededError` if the candidate family, or the grids
    before any box is skipped, hold more than ``budget`` candidate weight
    vectors.  Raises ``ValueError`` if ``eps`` lies outside ``(0, 1)``,
    ``budget`` is not an integer ``>= 1`` or the optimal weights overflow
    float64.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if not _is_int(budget) or budget < 1:
        raise ValueError("budget must be an integer >= 1 (there is no unlimited budget), got %r" % (budget,))
    x = inst.x
    y = np.asarray(inst.y, dtype=float)
    n = inst.n

    red = orthonormalize(x)
    k = red.k
    if k == 0:
        m0 = sort_match(np.zeros(n), y)
        return Solution(w=np.zeros(inst.d), perm=m0.perm, cost=m0.cost)

    u = red.u
    # With no more rows than the 4k the barrier sample draws, every row is
    # sampled at weight 1: S = I, so Q = P (I - u u^T) = 0 and c_post = 1.
    full = k <= 3 and n <= 4 * k
    samp = SamplingMatrix(n, tuple((i, 1.0) for i in range(n))) if full else row_sample(u)
    gmap = _center_map(u, samp)
    m = gmap.shape[0]
    y_sorted = np.sort(y)

    if k <= 3:
        family = _cell_family(u, sampled_columns(samp))
        n_cand = family.shape[0]

        def responses(idx) -> np.ndarray:
            return y_sorted[family[idx]]

    else:
        n_cand = math.perm(n, m)

        def responses(idx) -> np.ndarray:
            return y[_assignments(idx, n, m)]

    if n_cand > budget:
        raise BudgetExceededError(
            "candidate family has %d members, budget is %d" % (n_cand, budget)
        )

    # c is the constant of this sample, c_post = ||gmap||^2 (see _center_map).
    # The slack covers float64 rounding: the lower barrier keeps S u of full
    # rank and well conditioned, so pinv and the 2-norm's SVD are accurate to
    # about 1e-15 relative, and 1e-9, the slack keep_thr and reach allow as
    # well, covers that many times over.
    c = 1.0 if full else float(np.linalg.norm(gmap, 2)) ** 2 * (1.0 + 1e-9)

    def centers(idx) -> np.ndarray:
        return _rows_matmul(responses(idx), gmap)

    # Pass 1: center cost r_b for every candidate assignment b, by index.
    ut = u.T
    r_all = np.empty(n_cand)
    for lo in range(0, n_cand, _CHUNK):
        hi = min(lo + _CHUNK, n_cand)
        r_all[lo:hi] = _min_perm_costs(_rows_matmul(centers(np.arange(lo, hi)), ut), y_sorted)

    r_min = float(r_all.min())

    # A candidate whose center cost exceeds c * min_b r_b cannot be the
    # certificate, the candidate that the optimal permutation induces: its
    # center costs at most c_post * optimum <= c * r_min.  Skipping those
    # grids keeps the (1+eps) guarantee intact.
    # Survivors are scanned in ascending r_b (ties by index), so the first is
    # the cheapest center, the one of smallest index among equals.
    keep_thr = c * r_min * (1.0 + 1e-9) + 1e-300
    survivors = np.flatnonzero(r_all <= keep_thr)
    survivors = survivors[np.argsort(r_all[survivors], kind="stable")]
    surv_r = r_all[survivors]

    # Likewise the optimum lies within sqrt((c_post - 1) * optimum) of the
    # certificate's center, so grids only need radius sqrt((c - 1) * r_min),
    # not sqrt(c * r_b).  Where every row is sampled at weight 1, c is 1 and
    # the reach 0; where the barrier sample holds every row (n = k >= 4),
    # c_post is 1 and the reach shrinks to the rounding slack.
    reach = math.sqrt((c - 1.0) * r_min) * (1.0 + 1e-9)
    surv_sp, halves = _net_steps(surv_r, reach, eps, c, k)
    total_evals = int(((2 * halves + 1) ** k).sum())
    if total_evals > budget:
        raise BudgetExceededError(
            "net enumeration needs %d weight evaluations, budget is %d"
            % (total_evals, budget)
        )

    surv_wt = np.empty((k, survivors.size))
    for lo in range(0, survivors.size, _CHUNK):
        surv_wt[:, lo : lo + _CHUNK] = centers(survivors[lo : lo + _CHUNK]).T

    # Incumbent: center of the cheapest candidate, a grid point of its own net
    # at the middle row-major index.
    h0 = int(halves[0])
    best = (r_min, (int(survivors[0]), ((2 * h0 + 1) ** k - 1) // 2), surv_wt[:, 0].copy())
    best_cost, _, best_w = _scan_nets(ut, y_sorted, survivors, surv_wt, surv_sp, halves, best)

    w_orig = red.to_original(best_w)
    matched = sort_match(x @ w_orig, y)
    return Solution(w=w_orig, perm=matched.perm, cost=matched.cost)
