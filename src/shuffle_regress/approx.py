"""(1+eps)-approximate joint least squares over weights and permutation.

``fptas_solve`` returns a pair ``(w, pi)`` whose cost
``sum_i (dot(w, x[pi(i)]) - y_i)^2`` is within a factor ``1 + eps`` of the best
achievable by any weights and any permutation.  The search works in an
orthonormalized coordinate system: a barrier-selected row sample pins down a
small family of candidate response assignments, each candidate contributes a
weighted least-squares center, and an axis-aligned grid around each center is
scanned with the exact one-dimensional matcher.

Cost model: with ``k`` the covariate rank, the candidate family holds the
``n!/(n-m)!`` injective assignments of responses to the ``m <= 4k`` distinct
sampled rows (the planted correspondence is a bijection, so it gives distinct
rows distinct responses) and every grid has ``O((sqrt(k)/eps)**k)`` points, so
the overall work is ``(n/eps)**O(k)``.  Candidates are generated from their
rank in batches of a fixed size (``_CHUNK``), so the first pass keeps one
float per candidate plus buffers of that size.  The second pass does not
visit every grid point: it scans boxes of grid points coarse to fine and
drops a box once the 1-Lipschitz bound on ``sqrt(cost)`` shows that none of
its points can beat the incumbent, which only evaluated grid points become.
It returns the minimum over the grids, ties going to the smallest (candidate
rank, row-major grid index).  A budget cap (default 50 million) on the
candidates and on the unpruned grid points turns runaway instances into a
hard error instead of an open-ended computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .model import Instance, Permutation
from .perm1d import sort_match
from .rowsample import SamplingMatrix, row_sample

__all__ = [
    "Solution",
    "OrthonormalReduction",
    "orthonormalize",
    "approx_factor",
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
        return self.v @ (np.asarray(w_r, dtype=float) / self.sigma)


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
    return sorted({entry[0] for entry in s.rows if entry is not None})


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


def approx_factor(n: int, k: int) -> float:
    """Approximation constant ``c = 1 + 4 (1 + sqrt(n / (4k)))**2`` of the sample."""
    return 1.0 + 4.0 * (1.0 + math.sqrt(n / (4.0 * k))) ** 2


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
    budget: Optional[int] = DEFAULT_BUDGET,
) -> Solution:
    """Approximate ``min_{w, pi} sum_i (dot(w, x[pi(i)]) - y_i)^2``.

    Guarantees ``cost <= (1 + eps) * optimum``.  The weights are the
    cheapest point of the grids scanned around the candidates' centers; among
    equal-cost points the winner is the one met earliest in enumeration order
    (candidate vector first, in the lexicographic order of
    :func:`_assignments`, then row-major grid position), whatever order the
    scan visits them in.

    The candidate family has ``n!/(n-m)!`` members for ``m`` distinct sampled
    rows.  The first pass keeps one float per candidate plus buffers of 8192
    candidates.  The second pass is a coarse-to-fine box scan of the grids
    (see :func:`_scan_nets`) that evaluates ``8192 >> k`` grid points at a
    time and skips the boxes that cannot hold a cheaper point.

    Raises :class:`BudgetExceededError` if the candidate family, or the grids
    before any box is skipped, hold more than ``budget`` candidate weight
    vectors; pass ``budget=None`` to disable.  Raises ``ValueError`` if
    ``eps`` lies outside ``(0, 1)`` or the optimal weights overflow float64.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    x = inst.x
    y = np.asarray(inst.y, dtype=float)
    n = inst.n

    red = orthonormalize(x)
    k = red.k
    if k == 0:
        m0 = sort_match(np.zeros(n), y)
        return Solution(w=np.zeros(inst.d), perm=m0.perm, cost=m0.cost)

    u = red.u
    samp = row_sample(u, 4 * k)
    c = approx_factor(n, k)
    cols = sampled_columns(samp)
    m = len(cols)
    y_sorted = np.sort(y)

    n_cand = math.perm(n, m)
    if budget is not None and n_cand > budget:
        raise BudgetExceededError(
            "candidate family has %d members, budget is %d" % (n_cand, budget)
        )

    # Center of candidate b depends linearly on the m chosen response values:
    # w_center(b) = pinv(S u) (S b) = vals @ gmap with gmap (m, k).
    entries = [e for e in samp.rows if e is not None]
    su = np.array([wt * u[col] for col, wt in entries])
    pin = np.linalg.pinv(su)
    gmap = np.zeros((m, k))
    pos = {col: idx for idx, col in enumerate(cols)}
    for row_idx, (col, wt) in enumerate(entries):
        gmap[pos[col]] += wt * pin[:, row_idx]

    def centers(ranks) -> np.ndarray:
        return _rows_matmul(y[_assignments(ranks, n, m)], gmap)

    # Pass 1: center cost r_b for every candidate assignment b, by rank.
    ut = u.T
    r_all = np.empty(n_cand)
    for lo in range(0, n_cand, _CHUNK):
        hi = min(lo + _CHUNK, n_cand)
        r_all[lo:hi] = _min_perm_costs(_rows_matmul(centers(np.arange(lo, hi)), ut), y_sorted)

    r_min = float(r_all.min())

    # A candidate whose center cost exceeds c * min_b r_b cannot be the
    # certificate: the certificate's own center cost is at most c * optimum
    # <= c * r_min.  Skipping those grids keeps the (1+eps) guarantee intact.
    # Survivors are scanned in ascending r_b (ties by rank), so the first is
    # the cheapest center, the one of smallest rank among equals.
    keep_thr = c * r_min * (1.0 + 1e-9) + 1e-300
    survivors = np.flatnonzero(r_all <= keep_thr)
    survivors = survivors[np.argsort(r_all[survivors], kind="stable")]
    surv_r = r_all[survivors]

    # Likewise the optimum lies within sqrt((c-1) * optimum) of the certificate
    # center, so grids only need radius sqrt((c-1) * r_min), not sqrt(c * r_b).
    reach = math.sqrt((c - 1.0) * r_min) * (1.0 + 1e-9)
    surv_sp, halves = _net_steps(surv_r, reach, eps, c, k)
    total_evals = int(((2 * halves + 1) ** k).sum())
    if budget is not None and total_evals > budget:
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

    # A tiny singular value can put the optimum beyond the largest double.
    with np.errstate(over="ignore", invalid="ignore"):
        w_orig = red.to_original(best_w)
    if not np.isfinite(w_orig).all():
        raise ValueError("the optimal weights overflow float64")
    matched = sort_match(x @ w_orig, y)
    return Solution(w=w_orig, perm=matched.perm, cost=matched.cost)
