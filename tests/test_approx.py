import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_regress import (
    BudgetExceededError,
    Instance,
    SamplingMatrix,
    brute_force,
    fptas_solve,
    gen_gaussian_noisy,
    row_sample,
    sort_match,
)
from shuffle_regress import approx, cli
from shuffle_regress.approx import (
    _assignments,
    _net_steps,
    approx_factor,
    orthonormalize,
    sampled_columns,
)
from shuffle_regress.model import read_instance_record


def candidate_targets(s, y):
    """Right-hand sides of the family fptas_solve scans, in its order: the
    sampled columns get the responses of one injective assignment, the
    others zero."""
    cols = sampled_columns(s)
    n, m = y.shape[0], len(cols)
    ranks = np.arange(math.perm(n, m))
    out = np.zeros((ranks.size, n))
    out[:, cols] = y[_assignments(ranks, n, m)]
    return out


def _offsets(h: int, k: int) -> np.ndarray:
    """Integer offsets of a ``k``-dimensional grid with ``2*h + 1`` points per
    axis, as floats, rows in row-major order; row ``((2*h + 1)**k - 1) // 2``
    is the origin."""
    offs = np.arange(-h, h + 1, dtype=float)
    return np.stack(np.meshgrid(*([offs] * k), indexing="ij"), axis=-1).reshape(-1, k)


def build_net(center, r_b, eps, c):
    """The net fptas_solve scans around a center of cost r_b, with the
    reach sqrt(c * r_b) of the ball where an optimum can hide."""
    k = center.shape[0]
    spacing, halves = _net_steps(np.array([r_b]), math.sqrt(c * r_b), eps, c, k)
    return center + spacing[0] * _offsets(int(halves[0]), k)


_ENTRY = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def hostile_instances(draw):
    """Small instances with duplicate responses, zero or duplicated columns,
    constant responses, x or y scaled by 1e+-100, or a zero-cost plant."""
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=2))
    x = np.array(draw(st.lists(_ENTRY, min_size=n * d, max_size=n * d))).reshape(n, d)
    if d == 2:
        columns = draw(st.sampled_from(["distinct", "zero", "duplicate"]))
        if columns == "zero":
            x[:, 1] = 0.0
        elif columns == "duplicate":
            x[:, 1] = x[:, 0]
    responses = draw(st.sampled_from(["free", "constant", "duplicates", "planted"]))
    if responses == "planted":
        w = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
        y = (x @ w)[draw(st.permutations(range(n)))]
    elif responses == "constant":
        y = np.full(n, draw(_ENTRY))
    elif responses == "duplicates":
        pool = draw(st.lists(_ENTRY, min_size=1, max_size=2))
        y = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    scaled = draw(st.sampled_from(["none", "x", "y"]))
    if scaled != "none":
        factor = draw(st.sampled_from([1e-100, 1e100]))
        if scaled == "x":
            x = x * factor
        else:
            y = y * factor
    return Instance(x=x, y=y)


class TestOrthonormalize:
    def test_duplicate_column_drops_rank(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(6, 2))
        x = np.column_stack([base, base[:, 0]])
        red = orthonormalize(x)
        assert red.k == 2

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        red = orthonormalize(rng.normal(size=(7, 3)))
        assert np.allclose(red.u.T @ red.u, np.eye(3), atol=1e-12)

    def test_to_original_preserves_products(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 2))
        red = orthonormalize(x)
        w_r = np.array([0.3, -1.2])
        assert np.allclose(x @ red.to_original(w_r), red.u @ w_r, atol=1e-12)

    def test_zero_matrix_rank_zero(self):
        assert orthonormalize(np.zeros((4, 2))).k == 0

    def test_small_exact_column_kept(self):
        # a column scaled by 1e-9 is still a direction the optimum needs:
        # w = (1e9, 1) fits y exactly
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1e-9, 0.0]])
        assert orthonormalize(x).k == 2
        inst = Instance(x=x, y=np.array([0.0, 0.0, 1.0, 1.0]))
        assert fptas_solve(inst, 0.25).cost <= 1e-20


class TestCandidateTargets:
    def test_single_column_count(self):
        s = SamplingMatrix(n=3, rows=((1, 1.0), (1, 2.0)))
        y = np.array([5.0, 6.0, 7.0])
        cands = list(candidate_targets(s, y))
        assert len(cands) == 3
        assert [c[1] for c in cands] == [5.0, 6.0, 7.0]
        for c in cands:
            assert c[0] == 0.0 and c[2] == 0.0

    def test_no_sampled_columns_single_zero(self):
        s = SamplingMatrix(n=2, rows=(None, None))
        cands = list(candidate_targets(s, np.array([1.0, 2.0])))
        assert len(cands) == 1
        assert np.array_equal(cands[0], np.zeros(2))

    def test_count_falling_factorial(self):
        s = SamplingMatrix(n=3, rows=((0, 1.0), (2, 1.0)))
        cands = list(candidate_targets(s, np.array([1.0, 2.0, 3.0])))
        assert len(cands) == 6  # 3! / (3 - 2)!
        # lexicographic in the response indices of the sorted nonzero
        # coordinates, which never share a response index
        assert np.array_equal(cands[0], np.array([1.0, 0.0, 2.0]))
        assert np.array_equal(cands[1], np.array([1.0, 0.0, 3.0]))
        assert np.array_equal(cands[-1], np.array([3.0, 0.0, 2.0]))

    def test_order_is_lexicographic(self):
        s = SamplingMatrix(n=4, rows=((3, 1.0), (1, 1.0), (2, 1.0), (1, 0.5)))
        y = np.array([10.0, 20.0, 30.0, 40.0])
        got = [tuple(c[[1, 2, 3]]) for c in candidate_targets(s, y)]
        want = [tuple(y[list(p)]) for p in itertools.permutations(range(4), 3)]
        assert got == want

    def test_all_columns_sampled_gives_permutations(self):
        s = SamplingMatrix(n=3, rows=((2, 1.0), (0, 1.0), (1, 1.0), (0, 2.0)))
        cands = [tuple(c) for c in candidate_targets(s, np.array([1.0, 2.0, 3.0]))]
        assert cands == list(itertools.permutations([1.0, 2.0, 3.0]))

    def test_duplicate_responses_keep_index_family(self):
        # injectivity is over response indices, so equal values may repeat
        s = SamplingMatrix(n=3, rows=((0, 1.0), (1, 1.0)))
        cands = list(candidate_targets(s, np.array([1.0, 1.0, 2.0])))
        assert [tuple(c[:2]) for c in cands] == [
            (1.0, 1.0), (1.0, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 1.0)
        ]
        assert all(c[2] == 0.0 for c in cands)

    def test_planted_assignment_in_family(self):
        # the certificate gives each sampled covariate row the response the
        # planted permutation pairs it with; those indices are distinct
        for seed in range(4):
            inst, truth = gen_gaussian_noisy(np.array([0.9, -0.4]), 6, 0.2, seed)
            samp = row_sample(orthonormalize(inst.x).u)
            inv = np.empty(inst.n, dtype=int)
            inv[list(truth.pi_bar.map)] = np.arange(inst.n)
            cols = sampled_columns(samp)
            planted = np.zeros(inst.n)
            planted[cols] = inst.y[inv[cols]]
            assert any(np.array_equal(b, planted) for b in candidate_targets(samp, inst.y))

    def test_sampled_columns_sorted_distinct(self):
        s = SamplingMatrix(n=5, rows=((3, 1.0), (0, 1.0), (3, 2.0)))
        assert sampled_columns(s) == [0, 3]


class TestBuildNet:
    def test_zero_radius_single_point(self):
        net = build_net(np.array([1.0, 2.0]), 0.0, 0.5, 3.0)
        assert net.shape == (1, 2)
        assert np.array_equal(net[0], np.array([1.0, 2.0]))

    def test_pinned_five_points(self):
        # k=1, c=2, eps=1/2, r_b=1: spacing 1, radius sqrt(2), 5 points
        net = build_net(np.array([0.0]), 1.0, 0.5, 2.0)
        assert net.shape == (5, 1)
        assert np.allclose(net[:, 0], [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_center_is_grid_point(self):
        center = np.array([0.7, -0.4])
        net = build_net(center, 2.0, 0.3, 5.0)
        d = np.linalg.norm(net - center, axis=1)
        assert d.min() == 0.0

    def test_covering_audit(self):
        # every point of the Euclidean ball of radius sqrt(c r_b) sits within
        # sqrt(eps r_b / c) of the net
        rng = np.random.default_rng(7)
        center = np.array([0.2, -1.1])
        r_b, eps, c = 2.0, 0.3, 3.0
        net = build_net(center, r_b, eps, c)
        radius = math.sqrt(c * r_b)
        cover = math.sqrt(eps * r_b / c)
        dirs = rng.normal(size=(1000, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = center + dirs * (radius * rng.random(1000) ** 0.5)[:, None]
        dmin = np.min(
            np.linalg.norm(pts[:, None, :] - net[None, :, :], axis=2), axis=1
        )
        assert (dmin <= cover + 1e-12).all()


class TestApproxFactor:
    def test_value(self):
        assert approx_factor(4, 1) == pytest.approx(1.0 + 4.0 * (1.0 + 1.0) ** 2)

    def test_monotone_in_n(self):
        assert approx_factor(64, 2) > approx_factor(8, 2)


class TestFptasSolve:
    def test_noiseless_near_zero_cost(self):
        for seed in range(5):
            inst, _ = gen_gaussian_noisy(np.array([1.0, -0.7]), 5, 0.0, seed)
            sol = fptas_solve(inst, 0.5)
            assert sol.cost <= 1e-9

    def test_cost_is_consistent(self):
        inst, _ = gen_gaussian_noisy(np.array([0.8]), 5, 0.3, 1)
        sol = fptas_solve(inst, 0.5)
        pred = inst.x @ sol.w
        direct = float(((pred[list(sol.perm.map)] - inst.y) ** 2).sum())
        assert sol.cost == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0 - 1e-3])
    def test_ratio_versus_brute(self, eps):
        for seed in range(6):
            d = 1 + seed % 2
            inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), 5, 0.5, seed)
            approx = fptas_solve(inst, eps)
            exact = brute_force(inst)
            assert approx.cost <= (1.0 + eps) * exact.cost + 1e-9

    def test_invariant_to_pre_permuted_y(self):
        # shuffling y only relabels candidates; the minimum cost is identical
        inst, _ = gen_gaussian_noisy(np.array([0.6, 0.2]), 5, 0.4, 3)
        base = fptas_solve(inst, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            p = rng.permutation(inst.n)
            shuffled = Instance(x=inst.x, y=inst.y[p])
            assert fptas_solve(shuffled, 0.5).cost == base.cost

    def test_rank_zero_covariates(self):
        inst = Instance(x=np.zeros((3, 2)), y=np.array([1.0, -2.0, 0.5]))
        sol = fptas_solve(inst, 0.5)
        assert np.array_equal(sol.w, np.zeros(2))
        assert sol.cost == pytest.approx(float((inst.y**2).sum()))

    def test_eps_validation(self):
        inst, _ = gen_gaussian_noisy(np.array([1.0]), 3, 0.1, 0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                fptas_solve(inst, bad)

    @pytest.mark.parametrize("n", [6, 7])
    def test_ratio_versus_brute_d3(self, n):
        for seed in range(6):
            inst, _ = gen_gaussian_noisy(np.ones(3) / math.sqrt(3), n, 0.5, seed)
            approx = fptas_solve(inst, 0.5)
            exact = brute_force(inst)
            assert approx.cost <= 1.5 * exact.cost + 1e-9

    def test_budget_counts_injective_family(self):
        inst, _ = gen_gaussian_noisy(np.array([0.3, 0.8]), 6, 0.5, 1)
        m = len(sampled_columns(row_sample(orthonormalize(inst.x).u)))
        with pytest.raises(BudgetExceededError, match="has %d members" % math.perm(6, m)):
            fptas_solve(inst, 0.5, budget=math.perm(6, m) - 1)

    def test_budget_refusal(self):
        inst, _ = gen_gaussian_noisy(np.array([1.0, 1.0]) / math.sqrt(2), 7, 0.5, 2)
        with pytest.raises(BudgetExceededError):
            fptas_solve(inst, 0.25, budget=100)

    def test_chunk_independence(self, monkeypatch):
        for w_bar, seed in (((0.5, -0.9), 4), ((0.6, -0.3, 0.8), 1)):
            inst, _ = gen_gaussian_noisy(np.array(w_bar), 5, 0.6, seed)
            ref = fptas_solve(inst, 0.5)
            for chunk in (1, 7, 8192):
                with monkeypatch.context() as m:
                    m.setattr(approx, "_CHUNK", chunk)
                    got = fptas_solve(inst, 0.5)
                assert got.cost == ref.cost
                assert got.perm.map == ref.perm.map
                assert np.array_equal(got.w, ref.w)

    def test_weight_overflow_refused(self):
        # the optimal weight 4 / 2.2e-308 is beyond the largest double
        inst = Instance(x=np.array([[0.0], [2.2250738585072014e-308]]), y=np.array([0.0, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="optimal weights overflow float64"):
                fptas_solve(inst, 0.5)

    @given(inst=hostile_instances(), eps=st.sampled_from([0.25, 0.5, 0.9]))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_ratio_versus_brute_hostile(self, inst, eps):
        # rounding slack relative to ||y||^2, so the check means the same at
        # every scale
        approx = fptas_solve(inst, eps)
        exact = brute_force(inst)
        assert approx.cost <= (1.0 + eps) * exact.cost + 1e-9 * float(inst.y @ inst.y)

    def test_cost_at_most_best_center(self):
        # the returned cost never exceeds any candidate center's cost, in
        # particular the orthonormal-coordinates sampled-LS ones
        inst, _ = gen_gaussian_noisy(np.array([0.4]), 4, 0.8, 5)
        red = orthonormalize(inst.x)
        samp = row_sample(red.u)
        best_center = math.inf
        for b in candidate_targets(samp, inst.y):
            w_r, *_ = np.linalg.lstsq(
                samp.dense() @ red.u, samp.apply(b), rcond=None
            )
            best_center = min(best_center, sort_match(red.u @ w_r, inst.y).cost)
        sol = fptas_solve(inst, 0.5)
        assert sol.cost <= best_center * (1 + 1e-12) + 1e-12


def _flat_scan_nets(ut, y_sorted, ranks, wt, spacing, halves, best):
    """Reference pass 2: every point of every net, in row-major order, with
    the box scan's incumbent and tie rule (smallest cost, then smallest
    (rank, row-major index))."""
    best_cost, best_key, best_w = best
    k = ut.shape[0]
    for i in range(ranks.size):
        pts = wt[:, i] + spacing[i] * _offsets(int(halves[i]), k)
        costs = approx._min_perm_costs(pts @ ut, y_sorted)
        j = int(costs.argmin())  # first minimum: smallest row-major index
        key = (int(ranks[i]), j)
        if costs[j] < best_cost or (costs[j] == best_cost and key < best_key):
            best_cost, best_key, best_w = float(costs[j]), key, pts[j].copy()
    return best_cost, best_key, best_w


def _grid_instance(n, d, seed):
    """Entries in -2..2, so rows, responses and costs tie often."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, d)).astype(float)
    return Instance(x=x, y=rng.integers(-2, 3, size=n).astype(float))


def _fptas_large(tmp_path, d, n, seed):
    """An instance of the benchmark's fptas-large family, written by ``gen``."""
    path = tmp_path / ("d%d-n%d-s%d.json" % (d, n, seed))
    argv = ["gen", "--model", "gaussian", "--snr", "4", "--n", str(n), "--d", str(d)]
    assert cli.main(argv + ["--seed", str(seed), "-o", str(path)]) == 0
    return read_instance_record(path).instance


class TestNetScan:
    """Pass 2 of fptas_solve, the coarse-to-fine box scan, against the flat
    scan of every net point."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_matches_flat_scan(self, monkeypatch, d, kind):
        for n in range(3, 8):
            for seed in range(10 if d < 3 else 4):
                if kind == "grid":
                    inst = _grid_instance(n, d, seed)
                else:
                    inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), n, 0.5, seed)
                got = fptas_solve(inst, 0.5)
                with monkeypatch.context() as m:
                    m.setattr(approx, "_scan_nets", _flat_scan_nets)
                    want = fptas_solve(inst, 0.5)
                slack = 1e-12 * max(1.0, float(inst.y @ inst.y))
                assert abs(got.cost - want.cost) <= slack, (n, seed)
                if got.cost == want.cost:  # the same tie rule picks the same point
                    assert np.array_equal(got.w, want.w), (n, seed)

    @pytest.mark.parametrize(
        "d, n, seed, want",
        # the net minima; the per-point ring prune returned 0.182533,
        # 0.0196552 and 0.130999
        [(3, 8, 0, 0.182303), (3, 8, 1, 0.0195505), (3, 9, 2, 0.130261)],
    )
    def test_fptas_large_net_minimum(self, capsys, tmp_path, d, n, seed, want):
        inst = _fptas_large(tmp_path, d, n, seed)
        capsys.readouterr()
        assert fptas_solve(inst, 0.5).cost == pytest.approx(want, rel=5e-6)

    def test_evaluates_a_fraction_of_the_nets(self, monkeypatch):
        # rows costed after the nets are sized belong to pass 2
        inst, _ = gen_gaussian_noisy(np.ones(3) / math.sqrt(3), 7, 0.5, 0)
        seen = {}

        def net_steps(*args):
            spacing, halves = _net_steps(*args)
            seen["net_points"] = int(((2 * halves + 1) ** 3).sum())
            return spacing, halves

        def min_perm_costs(a_rows, y_sorted):
            if "net_points" in seen:
                seen["evals"] += a_rows.shape[0]
            return costs(a_rows, y_sorted)

        costs = approx._min_perm_costs
        monkeypatch.setattr(approx, "_net_steps", net_steps)
        monkeypatch.setattr(approx, "_min_perm_costs", min_perm_costs)
        counts = []
        for _ in range(2):
            seen.clear()
            seen["evals"] = 0
            fptas_solve(inst, 0.5)
            counts.append((seen["evals"], seen["net_points"]))
        assert counts[0] == counts[1]
        evals, net_points = counts[0]
        assert 0 < evals <= net_points / 4

    def test_peak_memory_bounded_by_batch(self):
        # the nets hold about 4x the points at eps = 0.25; peak memory follows
        # the fixed batch size, not the net size
        inst, _ = gen_gaussian_noisy(np.array([1.0, 1.0]) / math.sqrt(2), 7, 0.5, 1)
        peaks = []
        for eps in (0.5, 0.25):
            tracemalloc.start()
            try:
                fptas_solve(inst, eps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
