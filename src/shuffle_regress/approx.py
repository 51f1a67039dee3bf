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
float per candidate plus buffers of that size.  A budget cap (default 50
million candidate evaluations) turns runaway instances into a hard error
instead of an open-ended computation.
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

# Candidates per pass-1 buffer, and about the grid points per pass-2 batch.
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


def _offsets(h: int, k: int) -> np.ndarray:
    """Integer offsets of a ``k``-dimensional grid with ``2*h + 1`` points per
    axis, as floats, rows in row-major order; row ``((2*h + 1)**k - 1) // 2``
    is the origin."""
    offs = np.arange(-h, h + 1, dtype=float)
    return np.stack(np.meshgrid(*([offs] * k), indexing="ij"), axis=-1).reshape(-1, k)


def _net_steps(r: np.ndarray, reach: float, eps: float, c: float, k: int):
    """Spacing and half-width of the net around centers of cost ``r``.

    The net around a center ``w`` of cost ``r_b`` is
    ``w + spacing * _offsets(half, k)``.  The spacing
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


def fptas_solve(
    inst: Instance,
    eps: float,
    *,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> Solution:
    """Approximate ``min_{w, pi} sum_i (dot(w, x[pi(i)]) - y_i)^2``.

    Guarantees ``cost <= (1 + eps) * optimum``.  Deterministic: among
    equal-cost candidates the winner is the one met earliest in enumeration
    order (candidate vector first, in the lexicographic order of
    :func:`_assignments`, then row-major grid position).

    The candidate family has ``n!/(n-m)!`` members for ``m`` distinct sampled
    rows.  The first pass keeps one float per candidate plus buffers of 8192
    candidates; the second pass works on batches of about 8192 grid points.

    Raises :class:`BudgetExceededError` if the candidate family or the
    enumeration would touch more than ``budget`` candidate weight vectors;
    pass ``budget=None`` to disable.  Raises ``ValueError`` if ``eps`` lies
    outside ``(0, 1)`` or the optimal weights overflow float64.
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
        return y[_assignments(ranks, n, m)] @ gmap

    # Pass 1: center cost r_b for every candidate assignment b, by rank.
    r_all = np.empty(n_cand)
    for lo in range(0, n_cand, _CHUNK):
        hi = min(lo + _CHUNK, n_cand)
        r_all[lo:hi] = _min_perm_costs(centers(np.arange(lo, hi)) @ u.T, y_sorted)

    r_min = float(r_all.min())
    b_min = int(r_all.argmin())

    # A candidate whose center cost exceeds c * min_b r_b cannot be the
    # certificate: the certificate's own center cost is at most c * optimum
    # <= c * r_min.  Skipping those grids keeps the (1+eps) guarantee intact.
    keep_thr = c * r_min * (1.0 + 1e-9) + 1e-300
    survivors = np.flatnonzero(r_all <= keep_thr)

    # Likewise the optimum lies within sqrt((c-1) * optimum) of the certificate
    # center, so grids only need radius sqrt((c-1) * r_min), not sqrt(c * r_b).
    reach = math.sqrt((c - 1.0) * r_min) * (1.0 + 1e-9)
    surv_r = r_all[survivors]
    surv_sp, halves = _net_steps(surv_r, reach, eps, c, k)
    grid_sizes = (2 * halves + 1) ** k
    total_evals = int(grid_sizes.sum())
    if budget is not None and total_evals > budget:
        raise BudgetExceededError(
            "net enumeration needs %d weight evaluations, budget is %d"
            % (total_evals, budget)
        )

    surv_w = np.empty((survivors.size, k))
    for lo in range(0, survivors.size, _CHUNK):
        surv_w[lo : lo + _CHUNK] = centers(survivors[lo : lo + _CHUNK])

    # Incumbent: center of the cheapest candidate (a grid point of its own
    # net, sitting at the middle row-major index).
    at_min = int(np.searchsorted(survivors, b_min))
    best_cost = r_min
    best_key = (b_min, (int(grid_sizes[at_min]) - 1) // 2)
    best_w = surv_w[at_min].copy()

    # Pass 2: scan surviving grids, batched by half-width so each batch shares
    # one offset pattern.  sqrt(cost) is 1-Lipschitz in v (columns of u are
    # orthonormal and sorting is a contraction), so
    # sqrt(cost(v)) >= sqrt(r_b) - ||v - center||: a point dropped because
    # that inner bound exceeds the incumbent is strictly worse than it.  The
    # predicate below also drops points where ||v - center|| - sqrt(r_b)
    # exceeds sqrt(best).  That outer half is NOT a lower bound on
    # sqrt(cost(v)), because the sorted match can pair values differently from
    # the identity; it can drop a point cheaper than the incumbent, and which
    # points it drops depends on the incumbent when a batch is scanned (see
    # ROADMAP "Known defects").
    by_half: dict[int, list[int]] = {}
    for s_pos, h in enumerate(halves.tolist()):
        by_half.setdefault(h, []).append(s_pos)

    for h in sorted(by_half):
        members = np.asarray(by_half[h], dtype=np.int64)
        base = _offsets(h, k)
        base_norm = np.linalg.norm(base, axis=1)
        npts = base.shape[0]
        group = max(1, _CHUNK // npts)
        for lo in range(0, members.size, group):
            mem = members[lo : lo + group]
            b_idx = survivors[mem]
            sp = surv_sp[mem]
            rt = np.sqrt(surv_r[mem])
            lb = np.abs(sp[:, None] * base_norm[None, :] - rt[:, None])
            keep_b, keep_p = np.nonzero(lb * lb <= best_cost * (1.0 + 1e-12) + 1e-300)
            if keep_b.size == 0:
                continue
            pts = surv_w[mem[keep_b]] + sp[keep_b, None] * base[keep_p]
            costs = _min_perm_costs(pts @ u.T, y_sorted)
            j = int(costs.argmin())  # first minimum: smallest (candidate, point)
            cand = float(costs[j])
            key = (int(b_idx[keep_b[j]]), int(keep_p[j]))
            if cand < best_cost or (cand == best_cost and key < best_key):
                best_cost = cand
                best_key = key
                best_w = pts[j].copy()

    # A tiny singular value can put the optimum beyond the largest double.
    with np.errstate(over="ignore", invalid="ignore"):
        w_orig = red.to_original(best_w)
    if not np.isfinite(w_orig).all():
        raise ValueError("the optimal weights overflow float64")
    matched = sort_match(x @ w_orig, y)
    return Solution(w=w_orig, perm=matched.perm, cost=matched.cost)
