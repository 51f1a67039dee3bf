import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    _cell_family,
    _center_map,
    _distinct_rows,
    _net_steps,
    orthonormalize,
    sampled_columns,
)
from shuffle_regress.model import read_instance_record

from reference import approx_factor, cell_family_flags, dense, exact_opt, solve_weighted_ls


def candidate_targets(s, y):
    """Right-hand sides of the family fptas_solve scans at rank k >= 4, in
    its order: the sampled columns get the responses of one injective
    assignment, the others zero."""
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
def hostile_instances(draw, min_n=2, max_n=6, max_d=2):
    """Small instances with duplicate responses, a zero or duplicated last
    column, constant responses, x or y scaled by 1e+-100, or a zero-cost
    plant."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    x = np.array(draw(st.lists(_ENTRY, min_size=n * d, max_size=n * d))).reshape(n, d)
    if d >= 2:
        columns = draw(st.sampled_from(["distinct", "zero", "duplicate"]))
        if columns == "zero":
            x[:, -1] = 0.0
        elif columns == "duplicate":
            x[:, -1] = x[:, 0]
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
    @pytest.mark.parametrize("x", [np.ones(3), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
    def test_refuses_non_matrix(self, x):
        with pytest.raises(ValueError, match="x must be 2-d"):
            orthonormalize(x)

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
        s = SamplingMatrix(n=2, rows=())
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


class TestSampleConstant:
    """The constant c_post = ||gmap||^2 that sizes the nets, on acceptance
    03's cases."""

    def test_bounds_the_sampled_fit(self):
        combos = [(n, k) for n in (8, 16, 32, 64) for k in (1, 2, 3, 4)]
        for idx in range(100):
            n, k = combos[idx % len(combos)]
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([30, idx])))
            u, _ = np.linalg.qr(rng.normal(size=(n, k)))
            b = rng.normal(size=n)
            s = row_sample(u)
            c_post = np.linalg.norm(_center_map(u, s), 2) ** 2
            p = np.linalg.pinv(dense(s) @ u) @ dense(s)
            q = np.linalg.norm(p @ (np.eye(n) - u @ u.T), 2) ** 2
            assert c_post == pytest.approx(1.0 + q, rel=1e-12)
            assert c_post <= approx_factor(n, k)
            got = float(((u @ solve_weighted_ls(s, u, b) - b) ** 2).sum())
            opt = float(((u @ (u.T @ b) - b) ** 2).sum())
            assert got <= c_post * opt * (1.0 + 1e-9)

    def test_square_covariates(self):
        # n = k: every row is sampled, c_post is 1 and the reach 0
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            inst = Instance(x=rng.normal(size=(k, k)), y=rng.normal(size=k))
            u = orthonormalize(inst.x).u
            assert np.linalg.norm(_center_map(u, row_sample(u)), 2) ** 2 == pytest.approx(1.0, rel=1e-12)
            assert fptas_solve(inst, 0.5).cost <= 1e-20

    def test_repeated_sampled_rows(self):
        # fewer distinct sampled rows than the 4k samples
        inst, _ = gen_gaussian_noisy(np.ones(2) / math.sqrt(2), 8, 0.5, 0)
        u = orthonormalize(inst.x).u
        s = row_sample(u)
        gmap = _center_map(u, s)
        assert gmap.shape[0] == len(sampled_columns(s)) < len(s.rows)
        assert np.linalg.norm(gmap, 2) ** 2 >= 1.0 - 1e-12
        assert fptas_solve(inst, 0.5).cost <= 1.5 * brute_force(inst).cost


def _seed_2033():
    """Covariates of seed 2033 (n = 54, d = 1), on which the sample's own
    constant c_post exceeds approx_factor(54, 1) by 22 %, and the generator
    that drew them."""
    rng = np.random.default_rng(2033)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
    return rng.random((n, d)) - 0.5, rng


class TestSampleBeyondStatedFactor:
    def test_nets_sized_by_the_sample_constant(self, monkeypatch):
        x, rng = _seed_2033()
        y = rng.normal(size=x.shape[0])
        u = orthonormalize(x).u
        c_post = np.linalg.norm(_center_map(u, row_sample(u)), 2) ** 2
        seen = []
        real = approx._net_steps

        def spy(r, reach, eps, c, k):
            seen.append(c)
            return real(r, reach, eps, c, k)

        monkeypatch.setattr(approx, "_net_steps", spy)
        eps = 0.5
        sol = fptas_solve(Instance(x=x, y=y), eps)
        assert len(seen) == 1 and seen[0] >= c_post
        # at d = 1 the best permutation pairs sorted y with x sorted one way
        # or the other, and the weight is then the OLS fit
        b = np.sort(y)
        opt = min(
            float(((b - (a @ b / (a @ a)) * a) ** 2).sum())
            for a in (np.sort(x[:, 0]), np.sort(x[:, 0])[::-1])
        )
        assert sol.cost <= (1.0 + eps) * opt

    @pytest.mark.xfail(
        strict=True, reason="row_sample exceeds the stated factor here (ROADMAP Known defects)"
    )
    def test_stated_factor_bounds_the_sample(self):
        x, _ = _seed_2033()
        assert x.shape == (54, 1)
        u = orthonormalize(x).u
        assert np.linalg.norm(_center_map(u, row_sample(u)), 2) ** 2 <= approx_factor(54, 1)


class TestExactOpt:
    """The exact grader against brute force."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_matches_brute_force(self, d, kind):
        for n in range(2, 9):
            for seed in range(4 if n < 8 else 1):
                if kind == "grid":
                    inst = _grid_instance(n, d, seed)
                else:
                    inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), n, 0.5, seed)
                want = brute_force(inst).cost
                assert abs(exact_opt(inst.x, inst.y) - want) <= 1e-9 * max(1.0, want), (n, seed)

    def test_refuses_rank_four(self):
        with pytest.raises(ValueError, match="k <= 3"):
            exact_opt(np.eye(5)[:, :4], np.zeros(5))


def _rank_two_instances():
    """Seeded small instances of rank 1 and 2: Gaussian, integer grids in
    -2..2 (tied keys and responses), three equal rows, and a zero column."""
    for n in range(2, 8):
        for d in (1, 2):
            for seed in range(4):
                rng = np.random.default_rng([n, d, seed])
                yield Instance(x=rng.normal(size=(n, d)), y=rng.normal(size=n))
                yield _grid_instance(n, d, seed)
                x = rng.normal(size=(n, d))
                x[n // 2] = x[n - 1] = x[0]
                yield Instance(x=x, y=rng.normal(size=n))
                x = np.column_stack([rng.normal(size=(n, d)), np.zeros(n)])
                yield Instance(x=x, y=rng.normal(size=n))


def _rank_three_instances():
    """Seeded small instances of rank 3: Gaussian, integer grids in -2..2,
    three equal rows, and rows on an affine plane, Gaussian or on the grid,
    whose differences span only a plane (a rank-2 arrangement)."""
    for n in range(4, 8):
        for seed in range(10):
            rng = np.random.default_rng([n, 3, seed])
            yield Instance(x=rng.normal(size=(n, 3)), y=rng.normal(size=n))
            yield _grid_instance(n, 3, seed)
            x = rng.normal(size=(n, 3))
            x[n // 2] = x[n - 1] = x[0]
            yield Instance(x=x, y=rng.normal(size=n))
            x = np.column_stack([rng.normal(size=(n, 2)), np.ones(n)])
            yield Instance(x=x, y=rng.normal(size=n))
            x = np.column_stack([rng.integers(-2, 3, size=(n, 2)), np.ones(n)]).astype(float)
            yield Instance(x=x, y=rng.integers(-2, 3, size=n).astype(float))


def _cell_bound(planes: int, k: int) -> int:
    """The most cells a central arrangement of ``planes`` hyperplanes in R^k
    can have, ``2 * sum_{i<k} C(planes - 1, i)`` (Zaslavsky, 1975)."""
    return 2 * sum(math.comb(planes - 1, i) for i in range(k))


class TestCellFamily:
    def test_holds_the_certificate(self):
        # The certificate is the candidate an optimal permutation induces:
        # the sampled rows get the responses it pairs them with.  Where rows
        # tie under the optimal weights, brute_force's tie-break is one of
        # several optimal permutations, and the guarantee needs any one.
        # The rows are the barrier sample's and, as fptas_solve takes them
        # at n <= 4k, every row.
        for inst in itertools.chain(_rank_two_instances(), _rank_three_instances()):
            u = orthonormalize(inst.x).u
            n, k = u.shape
            if k == 0:
                continue
            perms = np.array(list(itertools.permutations(range(n))))
            paired = inst.y[np.argsort(perms, axis=1)]  # row p: response of each covariate row
            resid = paired - (paired @ u) @ u.T
            costs = np.einsum("ij,ij->i", resid, resid)
            slack = 1e-9 * max(1.0, float(inst.y @ inst.y))
            optimal = paired[costs <= brute_force(inst).cost + slack]
            for cols in (sampled_columns(row_sample(u)), list(range(n))):
                family = _cell_family(u, cols)
                assert family.shape[0] <= _cell_bound(len(cols) * (n - 1), k)
                members = {tuple(b) for b in np.sort(inst.y)[family]}
                assert any(tuple(b[cols]) in members for b in optimal), (n, cols, inst.x, inst.y)

    def test_rows_on_one_line_make_two_cells(self):
        # every hyperplane is the same line, so the two orders along it are
        # the only cells; rounding in u must not split the line into slivers
        t = np.array([2.0, -1.0, 5.0, 0.0, 1.0, 3.0])
        u = orthonormalize(np.column_stack([np.ones_like(t), t])).u
        cols = sampled_columns(row_sample(u))
        up = np.argsort(np.argsort(t))[cols]
        want = sorted([tuple(up), tuple(t.size - 1 - up)])
        assert [tuple(b) for b in _cell_family(u, cols)] == want

    @staticmethod
    def _assert_matches_flags(u, cols):
        got, want = _cell_family(u, cols), cell_family_flags(u, cols)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want), (u, cols)

    def test_matches_the_flag_reference(self, capsys, tmp_path):
        # byte for byte, on the barrier sample's rows and on every row
        insts = itertools.chain(
            _rank_two_instances(),
            _rank_three_instances(),
            (_fptas_large(tmp_path, d, n, seed) for d, n, seed in _FPTAS_LARGE),
        )
        for inst in insts:
            u = orthonormalize(inst.x).u
            if u.shape[1] == 0:
                continue
            for cols in (sampled_columns(row_sample(u)), list(range(inst.n))):
                self._assert_matches_flags(u, cols)
        capsys.readouterr()

    @given(inst=hostile_instances(min_n=2, max_n=11, max_d=3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_flag_reference_hostile(self, inst):
        u = orthonormalize(inst.x).u
        assume(u.shape[1] > 0)
        for cols in (sampled_columns(row_sample(u)), list(range(inst.n))):
            self._assert_matches_flags(u, cols)

    def test_chunk_independence(self, monkeypatch):
        # _CHUNK sets the frames per batch and when tuples merge; 1 and 7
        # merge after nearly every batch
        cases = [
            ((0.7,), 6, "full"),
            ((0.5, -0.9), 11, "barrier"),
            ((0.6, -0.3, 0.8), 9, "full"),
            ((0.6, -0.3, 0.8), 13, "barrier"),
        ]
        for w_bar, n, kind in cases:
            inst, _ = gen_gaussian_noisy(np.array(w_bar), n, 0.5, 0)
            u = orthonormalize(inst.x).u
            cols = list(range(n)) if kind == "full" else sampled_columns(row_sample(u))
            assert len(cols) < n or kind == "full"
            want = _cell_family(u, cols)
            for chunk in (1, 7, 8192):
                with monkeypatch.context() as m:
                    m.setattr(approx, "_CHUNK", chunk)
                    assert np.array_equal(_cell_family(u, cols), want), (n, kind, chunk)

    @pytest.mark.parametrize(
        "u, cols, want",
        [
            # one row, no pairs
            ([[1.0]], [0], [[0]]),
            ([[-1.0]], [0], [[0]]),
            # u = I_k, every row sampled: every order of the k rows
            (np.eye(2), [0, 1], [[0, 1], [1, 0]]),
            (np.eye(3), [0, 1, 2], [list(p) for p in itertools.permutations(range(3))]),
            # repeated rows tie on every flag and go by index
            ([[2.0], [1.0], [2.0], [-1.0]], [0, 1, 2, 3], [[0, 2, 1, 3], [2, 1, 3, 0]]),
            ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 1, 2], [[0, 1, 2], [1, 2, 0]]),
            ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1], [[1], [2]]),
            (
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                [0, 1, 2, 3],
                [[0, 2, 1, 3], [0, 3, 1, 2], [1, 0, 2, 3],
                 [1, 3, 2, 0], [2, 0, 3, 1], [2, 1, 3, 0]],
            ),
            (
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                [2, 3],
                [[1, 2], [1, 3], [2, 0], [2, 3], [3, 0], [3, 1]],
            ),
        ],
    )
    def test_pinned_small_families(self, u, cols, want):
        # the flag reference's families where the pair set is empty, has
        # no unsampled row, or holds zero differences
        got = _cell_family(np.array(u), cols)
        assert got.dtype == np.intp
        assert got.tolist() == want

    def test_full_sample_rows_are_permutations(self):
        # with nothing tied, each flag orders all n rows, so every tuple of
        # the full sample is a permutation; a wrong complement repeats ranks.
        # n = 17 packs each tuple into two sort keys (5 bits a rank)
        cases = itertools.chain(
            itertools.product((1, 2, 3), range(3, 10), range(3)), ((d, 17, 0) for d in (1, 2, 3))
        )
        for d, n, seed in cases:
            inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), n, 0.5, seed)
            family = _cell_family(orthonormalize(inst.x).u, list(range(n)))
            assert family.shape[0] >= 2
            assert (np.sort(family, axis=1) == np.arange(n)).all(), (d, n, seed)


class TestDistinctRows:
    @pytest.mark.parametrize(
        "n, m, rows",
        # one packed key, then two: 64 // 20 = 3 entries a key at n = 2**20,
        # 64 // 7 = 9 at n = 100; n = 2 packs 64 entries a key
        [(9, 9, 2000), (2**20, 5, 3000), (100, 10, 3000), (2, 70, 500), (5, 3, 1), (5, 3, 0)],
    )
    def test_matches_lexsort(self, n, m, rows):
        # rows drawn from a pool, so that most repeat; the pool holds the
        # rows of all zeros and all n - 1
        rng = np.random.default_rng([n, m, rows])
        pool = rng.integers(0, n, size=(rows // 4 + 2, m))
        pool[:2] = [[0], [n - 1]]
        ranks = pool[rng.integers(0, pool.shape[0], size=rows)]
        want = ranks[np.lexsort(ranks.T[::-1])]
        new = np.ones(want.shape[0], dtype=bool)
        new[1:] = (want[1:] != want[:-1]).any(axis=1)
        want = want[new]
        got = _distinct_rows(ranks, n)
        assert got.dtype == np.intp
        assert got.shape == want.shape
        assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    @pytest.mark.parametrize("d", [4, 5])
    def test_ratio_versus_brute_rank_four_and_five(self, d, kind):
        # at rank k >= 4 the candidates are the injective assignments of the
        # sampled rows; grid entries in -2..2 make ties and exact fits
        for n, seed in itertools.product(range(d, 9), range(3)):
            if kind == "gaussian":
                inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), n, 0.5, seed)
            else:
                inst = _grid_instance(n, d, seed)
            assert orthonormalize(inst.x).k == d
            exact = brute_force(inst).cost
            for eps in (0.25, 0.5):
                sol = fptas_solve(inst, eps)
                assert sol.cost <= (1.0 + eps) * exact + 1e-9 * float(inst.y @ inst.y), (n, seed, eps)

    def test_budget_counts_injective_family(self):
        # at k >= 4 the family is every injective assignment
        inst, _ = gen_gaussian_noisy(np.array([0.3, 0.8, -0.5, 0.2]), 6, 0.5, 1)
        m = len(sampled_columns(row_sample(orthonormalize(inst.x).u)))
        with pytest.raises(BudgetExceededError, match="has %d members" % math.perm(6, m)):
            fptas_solve(inst, 0.5, budget=math.perm(6, m) - 1)

    def test_budget_counts_cell_family(self):
        # at k <= 3 the family holds one candidate per cell, within the
        # bound on the number of cells; n > 4k keeps the barrier sample
        for w_bar, n in (((0.3, 0.8), 9), ((0.3, 0.8, -0.5), 13)):
            inst, _ = gen_gaussian_noisy(np.array(w_bar), n, 0.5, 1)
            u = orthonormalize(inst.x).u
            cols = sampled_columns(row_sample(u))
            size = _cell_family(u, cols).shape[0]
            assert size <= _cell_bound(len(cols) * (n - 1), len(w_bar)) < math.perm(n, len(cols))
            with pytest.raises(BudgetExceededError, match="has %d members" % size):
                fptas_solve(inst, 0.5, budget=size - 1)

    def test_budget_refusal(self):
        # n > 4k, so the barrier sample's nets are scanned
        inst, _ = gen_gaussian_noisy(np.array([1.0, 1.0]) / math.sqrt(2), 9, 0.5, 2)
        with pytest.raises(BudgetExceededError):
            fptas_solve(inst, 0.25, budget=100)

    @pytest.mark.parametrize("budget", [None, 0, -1, True, 1.5])
    def test_budget_must_be_a_positive_int(self, budget):
        # no unlimited budget: None is refused by name, not by a TypeError
        inst, _ = gen_gaussian_noisy(np.array([0.3, 0.8]), 4, 0.5, 1)
        with pytest.raises(ValueError, match="budget must be an integer >= 1"):
            fptas_solve(inst, 0.5, budget=budget)

    def test_chunk_independence(self, monkeypatch):
        # ranks 2 and 3 scan the cell family, ranks 4 and 5 the assignments
        for w_bar, n, seed in (
            ((0.5, -0.9), 5, 4),
            ((0.6, -0.3, 0.8), 5, 1),
            ((0.5, -0.5, 0.5, -0.5), 6, 0),
            ((0.4, -0.4, 0.4, -0.4, 0.4), 6, 0),
        ):
            inst, _ = gen_gaussian_noisy(np.array(w_bar), n, 0.6, seed)
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

    def test_zero_cost_beside_a_tiny_entry(self):
        # rank 2; y = 1 fits exactly on the third row, w = (0, 1/3, 0), and on
        # the first, w = (0, -1e12, 1e12).  At n = 3 <= 4k every row is
        # sampled, and the least-squares fit of the best matching is the
        # former
        x = np.array([[0.0, 0.0, 1e-12], [0.0, 0.0, 0.0], [0.0, 3.0, 3.0]])
        inst = Instance(x=x, y=np.array([0.0, 0.0, 1.0]))
        sol = fptas_solve(inst, 0.25)
        assert sol.cost <= 1e-20
        assert abs(sol.w[1] - 1.0 / 3.0) <= 1e-3

    @pytest.mark.xfail(
        strict=True, reason="weights near 1e12 lose a zero cost to rounding (ROADMAP Known defects)"
    )
    def test_zero_cost_beside_a_tiny_entry_barrier_sample(self):
        # the same fits with six zero rows more, n = 9 > 4k: the barrier
        # sample's nets return w = (0, -1e12, 1e12), whose cost rounds to
        # 9.5e-7
        x = np.zeros((9, 3))
        x[0, 2], x[2, 1:] = 1e-12, 3.0
        inst = Instance(x=x, y=np.eye(9)[2])
        cost = fptas_solve(inst, 0.25).cost
        assert cost <= 1.25 * exact_opt(inst.x, inst.y) + 1e-9 * float(inst.y @ inst.y)

    def test_full_sample_is_exact(self):
        # at k <= 3 and n <= 4k every row is sampled, c_post = 1 and the
        # answer is the optimum
        for inst in itertools.chain(_rank_two_instances(), _rank_three_instances()):
            k = orthonormalize(inst.x).k
            if k == 0 or inst.n > 4 * k:
                continue
            opt = exact_opt(inst.x, inst.y)
            cost = fptas_solve(inst, 0.5).cost
            assert abs(cost - opt) <= 1e-9 * opt + 1e-12 * float(inst.y @ inst.y), (inst.x, inst.y)

    @given(inst=hostile_instances(), eps=st.sampled_from([0.25, 0.5, 0.9]))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_ratio_versus_brute_hostile(self, inst, eps):
        # rounding slack relative to ||y||^2, so the check means the same at
        # every scale
        approx = fptas_solve(inst, eps)
        exact = brute_force(inst)
        assert approx.cost <= (1.0 + eps) * exact.cost + 1e-9 * float(inst.y @ inst.y)

    @given(
        inst=hostile_instances(min_n=9, max_n=11, max_d=3),
        eps=st.sampled_from([0.25, 0.5, 0.9]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_ratio_versus_exact_hostile(self, inst, eps):
        # the same hostile draws above brute force's reach, graded exactly; a
        # budget of 500,000 keeps every example under a second, and the draws
        # it refuses are replaced by others
        try:
            approx = fptas_solve(inst, eps, budget=500_000)
        except BudgetExceededError:
            assume(False)
        opt = exact_opt(inst.x, inst.y)
        assert approx.cost <= (1.0 + eps) * opt + 1e-9 * float(inst.y @ inst.y)

    def test_cost_at_most_best_center(self):
        # the returned cost never exceeds the cost of any center of the
        # family it scans, the cell family at k <= 3, each center the
        # sampled least-squares fit in orthonormal coordinates
        for d, n, seed in itertools.product((1, 2, 3), (4, 5, 6), range(60)):
            inst, _ = gen_gaussian_noisy(np.ones(d) / math.sqrt(d), n, 0.8, seed)
            u = orthonormalize(inst.x).u
            samp = row_sample(u)
            cols = sampled_columns(samp)
            family = _cell_family(u, cols)
            b = np.zeros((n, family.shape[0]))
            b[cols] = np.sort(inst.y)[family].T
            w_r, *_ = np.linalg.lstsq(dense(samp) @ u, dense(samp) @ b, rcond=None)
            best_center = min(sort_match(u @ w, inst.y).cost for w in w_r.T)
            sol = fptas_solve(inst, 0.5)
            assert sol.cost <= best_center * (1 + 1e-12) + 1e-12, (d, n, seed)


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


_FPTAS_LARGE = [(d, n, s) for d, n in ((2, 12), (2, 14), (2, 16), (3, 8), (3, 9)) for s in range(3)]


def _fptas_large(tmp_path, d, n, seed):
    """An instance as the benchmark's fptas-large family draws them, written
    by ``gen``."""
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
        # at d = 2 and 3, only the sizes above n = 4k keep the barrier sample
        # and scan nets around more than the centers
        above = {1: (), 2: (9, 10, 11), 3: (13,)}[d]
        for n in (*range(3, 8), *above):
            for seed in range(10 if d < 3 else 4 if n < 8 else 2):
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
        # the optima (exact_opt): at n <= 4k every row is sampled
        [(3, 8, 0, 0.182168), (3, 8, 1, 0.0194739), (3, 9, 2, 0.130103)],
    )
    def test_fptas_large_net_minimum(self, capsys, tmp_path, d, n, seed, want):
        inst = _fptas_large(tmp_path, d, n, seed)
        capsys.readouterr()
        cost = fptas_solve(inst, 0.5).cost
        assert cost == pytest.approx(want, rel=5e-6)
        assert cost <= 1.5 * exact_opt(inst.x, inst.y)

    @pytest.mark.parametrize("d, n, seed", _FPTAS_LARGE)
    def test_fptas_large_within_guarantee(self, capsys, tmp_path, d, n, seed):
        # every op of the benchmark's fptas-large family, graded exactly
        inst = _fptas_large(tmp_path, d, n, seed)
        capsys.readouterr()
        assert fptas_solve(inst, 0.5).cost <= 1.5 * exact_opt(inst.x, inst.y)

    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d2_frontier_within_guarantee(self, capsys, tmp_path, n, seed):
        # at the default budget; the injective family would refuse 3 of these 6
        inst = _fptas_large(tmp_path, 2, n, seed)
        capsys.readouterr()
        assert fptas_solve(inst, 0.5).cost <= 1.5 * exact_opt(inst.x, inst.y)

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d3_frontier_within_guarantee(self, capsys, tmp_path, n, seed):
        # at the default budget; the injective family would refuse 3 of these 6
        inst = _fptas_large(tmp_path, 3, n, seed)
        capsys.readouterr()
        assert fptas_solve(inst, 0.5).cost <= 1.5 * exact_opt(inst.x, inst.y)

    def test_evaluates_a_fraction_of_the_nets(self, monkeypatch):
        # rows costed after the nets are sized belong to pass 2; n > 4k keeps
        # the barrier sample, whose nets are scanned
        inst, _ = gen_gaussian_noisy(np.ones(3) / math.sqrt(3), 13, 0.5, 0)
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
        assert 0 < evals < net_points
        assert (evals, net_points) == (195979, 813933)

    def test_peak_memory_bounded_by_batch(self):
        # the nets hold 1.7x the points at eps = 0.25; peak memory follows
        # the fixed batch size, not the net size (n > 4k keeps the nets)
        inst, _ = gen_gaussian_noisy(np.array([1.0, 1.0]) / math.sqrt(2), 9, 0.5, 1)
        peaks = []
        for eps in (0.5, 0.25):
            tracemalloc.start()
            try:
                fptas_solve(inst, eps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
