import hashlib
import itertools
import json
import math
import fractions
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_regress import (
    AnchoredInstance,
    DegenerateInstanceError,
    LatticeBasis,
    Permutation,
    RankDeficiencyError,
    gen_noiseless_anchored,
    lll_reduce,
    quantize_noiseless,
    recover,
)
from shuffle_regress.lattice import (
    build_sources,
    epsilon_bound,
    find_permutation,
    subset_sum_basis,
)
from shuffle_regress import _ratlin as rl
from shuffle_regress import lattice
from shuffle_regress.model import random_unit_vector

from reference import (
    SubsetSumInstance,
    _cleared,
    _indicator_subset,
    det,
    exact_fit,
    full_embedding,
    guess_embedding,
    lagarias_odlyzko,
    mat,
    solve,
    subset_sum_brute,
    transpose,
)
from reference import build_sources as reference_sources
from reference import epsilon_bound as reference_margin

F = Fraction


def norm_sq(col):
    return sum(v * v for v in col)


def shortest_nonzero_sq(columns, box):
    """Exhaustive first-minimum over integer combinations with |z_i| <= box."""
    m = len(columns)
    rng = np.arange(-box, box + 1, dtype=np.int64)
    z = np.stack(np.meshgrid(*([rng] * m), indexing="ij"), axis=-1).reshape(-1, m)
    z = z[np.any(z != 0, axis=1)]
    vecs = z @ np.array(columns, dtype=np.int64)
    return int(np.einsum("ij,ij->i", vecs, vecs).min())


def gso_fractions(columns):
    """Gram-Schmidt over exact rationals: returns (b_star list, mu matrix)."""
    cols = [[F(v) for v in c] for c in columns]
    star = []
    mu = [[F(0)] * len(cols) for _ in cols]
    for i, b in enumerate(cols):
        cur = list(b)
        for j in range(i):
            denom = sum(v * v for v in star[j])
            mu[i][j] = sum(a * b2 for a, b2 in zip(b, star[j])) / denom
            cur = [a - mu[i][j] * b2 for a, b2 in zip(cur, star[j])]
        star.append(cur)
    return star, mu


class TestLatticeBasis:
    def test_integer_like_entries_become_ints(self):
        b = LatticeBasis(columns=((np.int64(2), True), (0, -3)))
        assert b.columns == ((2, 1), (0, -3))
        assert all(type(v) is int for c in b.columns for v in c)

    @pytest.mark.parametrize("bad", [1.5, 2.0, F(1, 2), F(2), "1"])
    def test_non_integral_entry_refused(self, bad):
        with pytest.raises(ValueError, match="integers"):
            LatticeBasis(columns=((1, 0), (0, bad)))

    @pytest.mark.parametrize(
        "cols, err",
        [
            ((), "empty basis"),
            (((1, 0), (0,)), "ragged columns"),
            (((1,), (2,)), "more columns than ambient dimension"),
        ],
        ids=["empty", "ragged", "too-many-columns"],
    )
    def test_shape_refused(self, cols, err):
        with pytest.raises(ValueError, match=err):
            LatticeBasis(columns=cols)


class TestLllReduce:
    def test_identity_unchanged(self):
        b = LatticeBasis(columns=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert lll_reduce(b).columns == b.columns

    def test_two_dim_pinned(self):
        b = LatticeBasis(columns=((1, 1), (2, 0)))
        red = lll_reduce(b)
        lam1_sq = shortest_nonzero_sq(b.columns, 4)
        assert lam1_sq == 2
        assert norm_sq(red.columns[0]) <= 2 * lam1_sq  # (2**((k-1)/2))^2 = 2

    def test_defect_bound_five_dims(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            cols = tuple(
                tuple(int(v) for v in rng.integers(-10, 11, size=5)) for _ in range(5)
            )
            try:
                b = LatticeBasis(columns=cols)
                red = lll_reduce(b)
            except ValueError:
                continue  # dependent draw
            lam1_sq = shortest_nonzero_sq(cols, 8)
            assert norm_sq(red.columns[0]) <= 2 ** ((5 - 1) / 2) ** 2 * lam1_sq
            # tighter standard form: ||b1||^2 <= 2^(k-1) lam1^2
            assert norm_sq(red.columns[0]) <= 2**4 * lam1_sq

    def test_output_is_size_reduced_and_lovasz(self):
        cols = ((7, 2, -3), (4, -5, 1), (2, 9, 8))
        red = lll_reduce(LatticeBasis(columns=cols))
        star, mu = gso_fractions(red.columns)
        for i in range(3):
            for j in range(i):
                assert abs(mu[i][j]) <= F(1, 2)
        for k in range(1, 3):
            lhs = sum(v * v for v in star[k])
            rhs = (F(3, 4) - mu[k][k - 1] ** 2) * sum(v * v for v in star[k - 1])
            assert lhs >= rhs

    def test_unimodular_change_of_basis(self):
        cols = ((3, 1, 0), (1, 4, 2), (0, 5, 7))
        red = lll_reduce(LatticeBasis(columns=cols))
        orig = transpose(mat(cols))  # dim x ncols, columns as given
        t_cols = []
        for c in red.columns:
            coeffs = solve(orig, [F(v) for v in c])
            assert coeffs is not None
            assert all(v.denominator == 1 for v in coeffs)
            t_cols.append([int(v) for v in coeffs])
        assert det(mat(transpose(t_cols))) in (1, -1)

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(LatticeBasis(columns=((1, 2), (2, 4))))
        with pytest.raises(ValueError):
            lll_reduce(LatticeBasis(columns=((0, 0),)))


class TestSubsetSumBasis:
    """The reference full embedding of any N sources, which lagarias_odlyzko
    reduces; the package builds only its permutation sublattice."""

    def test_shape_and_pattern(self):
        ssi = SubsetSumInstance(sources={"a": F(3), "b": F(5)}, target=F(8))
        basis, keys = full_embedding(ssi, F(4))
        assert keys == ["a", "b"]
        assert len(basis.columns) == 3 and basis.dim == 4
        assert basis.columns[0] == (1, 0, 0, 32)  # beta * t = 32
        assert basis.columns[1] == (0, 1, 0, -12)
        assert basis.columns[2] == (0, 0, 1, -20)

    def test_rational_scale_clearing(self):
        ssi = SubsetSumInstance(sources={0: F(1, 3), 1: F(1, 2)}, target=F(5, 6))
        basis, _ = full_embedding(ssi, F(2))
        # lcm of denominators of (5/3, 2/3, 1) is 3
        assert basis.columns[0][-1] == 5
        assert basis.columns[1][-1] == -2
        assert basis.columns[2][-1] == -3

    def test_planted_vector_membership(self):
        ssi = SubsetSumInstance(sources={0: F(3), 1: F(5), 2: F(9)}, target=F(12))
        basis, keys = full_embedding(ssi, F(2) ** 10)
        # subset {0, 2} sums to 12; (1, 1, 0, 1, 0) is a lattice vector
        v = [0] * basis.dim
        for idx, col in enumerate(basis.columns):
            coeff = 1 if idx == 0 or keys[idx - 1] in (0, 2) else 0
            for i in range(basis.dim):
                v[i] += coeff * col[i]
        assert v == [1, 1, 0, 1, 0]
        assert norm_sq(v) == 2 + 1

    def test_requires_beta(self):
        ssi = SubsetSumInstance(sources={0: F(1)}, target=F(1))
        for beta in (F(0), F(-1)):
            with pytest.raises(ValueError):
                full_embedding(ssi, beta)


class TestLagariasOdlyzko:
    def test_single_source_equal_target(self):
        ssi = SubsetSumInstance(sources={"only": F(7)}, target=F(7))
        res = lagarias_odlyzko(ssi, F(2) ** 8)
        assert res.subset == ("only",)

    def test_pinned_five_numbers(self):
        vals = (3, 5, 9, 17, 33)
        ssi = SubsetSumInstance(
            sources={i: F(v) for i, v in enumerate(vals)},
            target=F(45),
        )
        res = lagarias_odlyzko(ssi, F(2) ** 16)
        assert res.subset is not None
        assert sorted(res.subset) == [0, 2, 4]

    def test_no_solution_none(self):
        ssi = SubsetSumInstance(
            sources={i: F(v) for i, v in enumerate((3, 5, 9))},
            target=F(100),
        )
        assert lagarias_odlyzko(ssi, F(2) ** 16).subset is None

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(20):
            vals = [int(v) for v in rng.integers(1, 2**30, size=8)]
            mask = rng.integers(0, 2, size=8)
            if mask.sum() == 0:
                mask[0] = 1
            target = int(sum(v for v, m in zip(vals, mask) if m))
            ssi = SubsetSumInstance(
                sources={i: F(v) for i, v in enumerate(vals)},
                target=F(target),
            )
            res = lagarias_odlyzko(ssi, F(2) ** 16)
            if res.subset is None:
                continue
            hits += 1
            got = sum(vals[i] for i in res.subset)
            assert got == target
            assert subset_sum_brute(tuple(vals), target) is not None
        assert hits >= 16  # low-density instances: expect near-universal success

    def test_returned_subset_always_verifies(self):
        ssi = SubsetSumInstance(
            sources={i: F(v) for i, v in enumerate((2, 3, 7, 11))},
            target=F(13),
        )
        res = lagarias_odlyzko(ssi, F(2) ** 12)
        assert res.subset is not None
        assert sum(F(v) for v in (2, 11)) == F(13)
        assert sorted(res.subset) in ([0, 3], [1, 2, 3])


def _anchored(d, n, seed, p=16):
    """Seeded anchored instance on the ``2**-p`` grid, and its truth."""
    w = np.ones(d) / math.sqrt(d)
    inst, truth = gen_noiseless_anchored(w, n, seed)
    return quantize_noiseless(inst, truth, p)[0], truth


def projections(q, a, slots):
    """The projections of :func:`build_sources` as the rationals ``P_j /
    den``, or ``None`` where it refuses the guess."""
    sources = build_sources(q, a, slots)
    return None if sources is None else [F(v, sources[1]) for v in sources[0]]


def rank_one(q, p):
    """The sources ``y_i p_j``, keyed ``(i, j)`` as the reference keys them."""
    return {(i, j): yi * pj for i, yi in enumerate(q.y) for j, pj in enumerate(p)}


class TestBuildSources:
    # build_sources returns the projections p_j of guess 0's covariates in
    # slots 1..n, as integers over one denominator; the sources are their
    # rank-one product with the responses, held to the reference, which
    # solves the covariates' own Gram system

    def test_scalar_formula(self):
        q = AnchoredInstance(x0=(F(3),), y0=F(15), x=((F(2),),), y=(F(10),))
        p = projections(q, 0, [1])
        assert p == [F(3, 2)]  # <x_1, (13 - 9)^-1 x0> = 2 * 3 / 4
        assert rank_one(q, p) == reference_sources(q.x0, q.x, q.y, q.y0).sources == {(0, 0): F(15)}

    def test_correct_subset_sums_to_anchor(self):
        inst, truth = gen_noiseless_anchored(np.array([0.75, -0.5]), 3, 13)
        q, _ = quantize_noiseless(inst, truth, 10)
        p = projections(q, 0, [1, 2, 3])
        # pi_bar fixes the anchor, so unanchored truth is i -> pi_bar(i+1)-1
        assert sum(q.y[i] * p[truth.pi_bar(i + 1) - 1] for i in range(3)) == q.y0

    RANK_DEFICIENT = dict(x=((F(1), F(2)), (F(2), F(4)), (F(3), F(6))), y=(F(1), F(2), F(3)), y0=F(1))

    def test_rank_deficient_raises(self):
        # the reference raises on covariates without full column rank; the
        # package's Gram of them is singular, and the guess builds nothing
        x0 = (F(1), F(1))
        with pytest.raises(RankDeficiencyError):
            reference_sources(x0, **self.RANK_DEFICIENT)
        assert build_sources(AnchoredInstance(x0=x0, **self.RANK_DEFICIENT), 0, [1, 2, 3]) is None

    def test_rank_deficient_x0_in_span_raises(self):
        # x0 = (1, 2) lies in the span of x^T x, so the Gram system is
        # consistent; the dependent columns alone must refuse it
        x0 = (F(1), F(2))
        with pytest.raises(RankDeficiencyError):
            reference_sources(x0, **self.RANK_DEFICIENT)
        assert build_sources(AnchoredInstance(x0=x0, **self.RANK_DEFICIENT), 0, [1, 2, 3]) is None

    @pytest.mark.parametrize("d, n, seed", [(2, 3, 0), (2, 5, 1), (3, 4, 2), (3, 6, 3)])
    def test_projection_property(self, d, n, seed):
        # p = x (x^T x)^{-1} x0, so x^T p = x0 and p lies in the column space
        inst, truth = gen_noiseless_anchored(np.linspace(1, 2, d), n, seed)
        q, _ = quantize_noiseless(inst, truth, 10)
        p = projections(q, 0, range(1, n + 1))
        assert rl.matvec(transpose(q.x), p) == list(q.x0)
        assert solve(q.x, p) is not None

    def test_count_is_n_squared(self):
        q = AnchoredInstance(
            x0=(F(1), F(0)), y0=F(4), x=((F(1), F(0)), (F(0), F(1)), (F(1), F(1))), y=(F(1), F(2), F(3))
        )
        p = projections(q, 0, [1, 2, 3])
        assert len(p) == 3
        assert rank_one(q, p) == reference_sources(q.x0, q.x, q.y, q.y0).sources
        assert len(rank_one(q, p)) == 9

    def test_rank_one_product_is_the_reference(self):
        # every guess of seeded instances, d <= 4, d <= n <= 4, p in {2, 16},
        # anchored and unanchored: y_i p_j over the slot order is the
        # reference's source (i, j) for the guess's own instance
        checked = 0
        for d in (1, 2, 3, 4):
            for n in range(d, 5):
                for p in (2, 16):
                    for anchored in (True, False):
                        for seed in range(2):
                            w = np.ones(d) / math.sqrt(d)
                            inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
                            q, _ = quantize_noiseless(inst, truth, p)
                            for a, sub in anchor_guesses(q):
                                ref = reference_sources(sub.x0, sub.x, sub.y, sub.y0)
                                assert rank_one(q, projections(q, a, _slots(n, a))) == ref.sources
                                checked += 1
        assert checked == 320


class TestEpsilonBound:
    @pytest.mark.parametrize("target, want", [(F(1, 6), F(1, 6)), (F(1, 4), F(1, 12))])
    def test_hand_value(self, target, want):
        # y = (1, 1) and p = (6, 4) over 12 give the sources 1/2, 1/3, 1/2,
        # 1/3, whose subset sums miss 1/6 by 1/6 at best and 1/4 by 1/12 at
        # best: the margin is attained, and the target's numerator over 12
        # counts
        assert F(1, epsilon_bound((1, 1), (6, 4), int(target * 12), 12)) == want

    def test_wrong_sums_miss_by_at_least_the_margin(self):
        # brute force over every subset of small grid instances: a subset sum
        # that is not the target is at least the margin away from it
        checked = 0
        for d in (1, 2, 3):
            for n in range(d, 4):
                for p in (4, 8, 16):
                    for seed in range(3):
                        q, _ = _anchored(d, n, seed, p)
                        proj = projections(q, 0, range(1, n + 1))
                        if proj is None:
                            continue
                        vals = list(rank_one(q, proj).values())
                        if not any(vals):
                            continue
                        eps = F(1, epsilon_bound(*guess_embedding(q, 0, range(1, n + 1))))
                        misses = [
                            abs(sum(v for v, bit in zip(vals, bits) if bit) - q.y0)
                            for bits in itertools.product((0, 1), repeat=len(vals))
                        ]
                        assert all((m / eps).denominator == 1 for m in misses)
                        assert min(m for m in misses if m != 0) >= eps
                        checked += 1
        assert checked >= 50


def embedded(d, n, seed):
    """Seeded anchored p = 16 instance's truth, guess 0's rank-one sources
    and target, the row-major keys and the permutation sublattice
    find_permutation reduces."""
    q, truth = _anchored(d, n, seed)
    slots = range(1, n + 1)
    keys = [(i, j) for i in range(n) for j in range(n)]
    ssi = SubsetSumInstance(rank_one(q, projections(q, 0, slots)), q.y0)
    return truth, ssi, keys, subset_sum_basis(*guess_embedding(q, 0, slots))


class TestPermutationSublattice:
    CASES = [(1, 1, 0), (2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 4, 4), (2, 5, 5)]

    @pytest.mark.parametrize("d, n, seed", CASES)
    def test_rank_and_dimension(self, d, n, seed):
        *_, sub = embedded(d, n, seed)
        assert sub.dim == n * n + 2
        assert len(sub.columns) == (n - 1) ** 2 + 1
        gram = [[sum(a * b for a, b in zip(u, v)) for v in sub.columns] for u in sub.columns]
        assert det(gram) != 0  # independent columns: full rank (n - 1)^2 + 1

    @pytest.mark.parametrize("d, n, seed", CASES)
    def test_row_and_column_sums_equal_coordinate_zero(self, d, n, seed):
        # the sums hold on the basis and on its LLL reduction, which
        # find_permutation reads a map off without re-checking it: a reduced
        # column of the pattern z * (1, indicator, 0) has one z in each row
        # and column, and its subset sums exactly to the target
        _, ssi, keys, sub = embedded(d, n, seed)
        at = {key: 1 + idx for idx, key in enumerate(keys)}
        reduced = lll_reduce(sub).columns
        for col in sub.columns + reduced:
            z = col[0]
            for a in range(n):
                assert sum(col[at[a, j]] for j in range(n)) == z
                assert sum(col[at[i, a]] for i in range(n)) == z
        subsets = [s for s in (_indicator_subset(col, keys) for col in reduced) if s is not None]
        assert subsets
        for subset in subsets:
            assert sum(ssi.sources[k] for k in subset) == ssi.target

    @pytest.mark.parametrize("d, n, seed", CASES)
    def test_sorted_by_last_entry(self, d, n, seed):
        *_, sub = embedded(d, n, seed)
        last = [abs(col[-1]) for col in sub.columns]
        assert last == sorted(last)

    @pytest.mark.parametrize("d, n, seed", CASES)
    def test_planted_vector_from_target_and_free_columns(self, d, n, seed):
        truth, _, keys, sub = embedded(d, n, seed)
        at = {key: 1 + idx for idx, key in enumerate(keys)}
        (target,) = [col for col in sub.columns if col[0] != 0]
        assert target[0] == 1
        free = {}
        for col in sub.columns:
            if col[0] == 0:
                (hot,) = [
                    (i, j) for i in range(1, n) for j in range(1, n) if col[at[i, j]] != 0
                ]
                assert col[at[hot]] == 1
                free[hot] = col
        assert len(free) == (n - 1) ** 2
        pi = [truth.pi_bar(i + 1) - 1 for i in range(n)]  # anchored: unanchored block
        v = list(target)
        for i in range(1, n):
            if pi[i] != 0:
                v = [a + b for a, b in zip(v, free[i, pi[i]])]
        want = [0] * sub.dim
        want[0] = 1
        for i in range(n):
            want[at[i, pi[i]]] = 1
        assert v == want
        assert v[-1] == 0 and norm_sq(v) == n + 1

    def test_single_measurement_is_one_column(self):
        *_, sub = embedded(1, 1, 0)
        assert sub.columns == ((1, 1, 0),)


class TestFindPermutation:
    def make_quantized(self, d, n, seed, p=16):
        w = np.ones(d) / math.sqrt(d)
        inst, truth = gen_noiseless_anchored(w, n, seed)
        q, w_q = quantize_noiseless(inst, truth, p)
        return q, truth, w_q

    def test_recovers_planted_map(self):
        q, truth, _ = self.make_quantized(2, 3, 5)
        pi = find_permutation(q, 0)
        assert pi is not None
        assert pi.map == truth.pi_bar.map

    def test_all_zero_responses_degenerate(self):
        # a refused guess, not an error: with y0 != 0 the power-sum test
        # refuses all-zero unanchored responses
        q = AnchoredInstance(
            x0=(F(1),), y0=F(1), x=((F(1),), (F(2),)), y=(F(0), F(0))
        )
        assert find_permutation(q, 0) is None

    def test_zero_target_and_sources_refused(self, monkeypatch):
        # at d = 3, x0 = 0 and y0 = 0 leave the first power sum as the one
        # linear row, so two directions stay free and the guess takes the
        # lattice path; the second power sum admits it (14 >= 6^2 / 3), the
        # projections are built, and every one, <x_j, G^-1 x0>, is zero, so
        # the guess is refused before any lattice is built
        sources = []
        real = lattice.build_sources

        def spy(*args):
            res = real(*args)
            sources.append(res[0])  # the integer projections
            return res

        def built(y, p, target, lam):
            raise AssertionError("lattice built")

        monkeypatch.setattr(lattice, "build_sources", spy)
        monkeypatch.setattr(lattice, "subset_sum_basis", built)
        x = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
        q = AnchoredInstance(x0=(F(0),) * 3, y0=F(0), x=x, y=(F(1), F(2), F(3)))
        assert find_permutation(q, 0) is None
        assert sources == [[0, 0, 0]]

    def test_beta_derived_from_margin(self, monkeypatch):
        # beta = 2**(n^2) * D comes from the exact margin 1 / D of the
        # instance it embeds, whose values are integers over lam.  Every
        # entry of the last row is then a multiple of at least 2**(n^2), so
        # a vector that misses the target is longer than the LLL bound
        # 2**((n - 1)^2 / 2) * sqrt(n + 1) on the first reduced vector of the
        # rank-((n - 1)^2 + 1) sublattice.
        # d = 4: the anchor equation and the first power sum leave two free
        # directions, so the guess reaches the lattice
        n = 4
        q, _, _ = self.make_quantized(4, n, 5)
        seen = []
        real = lattice.subset_sum_basis

        def spy(*args):
            seen.append((args, real(*args)))
            return seen[-1][1]

        monkeypatch.setattr(lattice, "subset_sum_basis", spy)
        find_permutation(q, 0)
        assert len(seen) == 1
        (y, p, target, lam), basis = seen[0]
        beta = F(2 ** (n * n) * epsilon_bound(y, p, target, lam), lam)  # acts on numerators
        assert math.gcd(*(col[-1] for col in basis.columns)) >= 2 ** (n * n)
        # beta * D is an integer, so the bottom row is beta times the data,
        # divided exactly, with nothing left to clear; coordinate 1 + i n + j
        # is the pair (i, j)
        free = 0
        for col in basis.columns:
            if col[0] == 0:
                (t,) = [t for t in range(n * n) if t // n and t % n and col[1 + t]]
                i, j = divmod(t, n)
                assert col[-1] == -beta * (y[i] - y[0]) * (p[j] - p[0])
                free += 1
        assert free == (n - 1) ** 2


class TestRecover:
    def run_case(self, d, n, seed, anchored=True):
        w = np.ones(d) / math.sqrt(d)
        inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
        q, w_q = quantize_noiseless(inst, truth, 16)
        return q, truth, w_q

    def test_exact_recovery_small(self):
        q, truth, w_q = self.run_case(2, 3, 7)
        res = recover(q)
        assert res is not None
        assert res.perm.map == truth.pi_bar.map
        assert res.w == w_q

    def test_exact_recovery_unanchored(self):
        q, truth, w_q = self.run_case(2, 3, 9, anchored=False)
        res = recover(q)
        assert res is not None
        assert res.perm.map == truth.pi_bar.map
        assert res.w == w_q
        assert res.anchor == truth.pi_bar(0)

    def test_result_satisfies_every_equation(self):
        q, _, _ = self.run_case(3, 4, 3)
        res = recover(q)
        assert res is not None
        xs = [q.x0, *q.x]
        ys = [q.y0, *q.y]
        for i in range(5):
            assert ys[i] == sum(
                wv * xv for wv, xv in zip(res.w, xs[res.perm(i)])
            )

    @pytest.mark.parametrize("d, n", [(2, 60), (3, 30), (2, 1000), (3, 500), (3, 5000)])
    def test_power_sums_recover_far_above_the_lattice(self, d, n):
        # unanchored p = 16, seeds 0-2: the power sums solve every guess at
        # d <= 3, so n is not walled off where LLL stops (n = 9).  Every
        # guess reads the integer sums the instance computes once, so n = 1000
        # takes well under a second and d = 3, n = 5000 about a second with
        # the instances drawn.  Ties on the grid can allow several maps, so
        # only the equations and w count
        for seed in range(3):
            self.assert_recovered(*self.run_case(d, n, seed, anchored=False))

    def assert_recovered(self, q, _, w_q):
        # the planted w, and a map that fits all n + 1 equations
        res = recover(q)
        assert res is not None and res.w == w_q
        xs, ys = [q.x0, *q.x], [q.y0, *q.y]
        for i in range(q.n + 1):
            assert ys[i] == sum(wv * xv for wv, xv in zip(res.w, xs[res.perm(i)]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_at_most_two_matches_per_recovery(self, monkeypatch, d):
        # unanchored p = 16, n = 200, seeds 0-2: the power sums refuse a
        # wrong guess before any O(n) pairing of values with responses, so
        # only the candidates of the guess that verifies are matched (at
        # most two roots), not one per guess that passes the linear rows
        calls = []
        real = lattice._match

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(lattice, "_match", counted)
        for seed in range(3):
            calls.clear()
            self.assert_recovered(*self.run_case(d, 200, seed, anchored=False))
            assert 1 <= len(calls) <= 2

    def test_noisy_returns_none(self):
        # perturb one response off the exact lattice: no anchor can verify
        q, _, _ = self.run_case(2, 3, 7)
        bad = AnchoredInstance(
            x0=q.x0, y0=q.y0, x=q.x, y=(q.y[0] + F(1, 3), q.y[1], q.y[2])
        )
        assert recover(bad) is None

    def test_all_zero_degenerate(self):
        q = AnchoredInstance(
            x0=(F(1), F(0)),
            y0=F(0),
            x=((F(0), F(1)), (F(1), F(1))),
            y=(F(0), F(0)),
        )
        with pytest.raises(DegenerateInstanceError):
            recover(q)

    def test_rank_deficiency_propagates(self):
        q = AnchoredInstance(
            x0=(F(1), F(2)),
            y0=F(1),
            x=((F(1), F(2)), (F(2), F(4)), (F(3), F(6))),
            y=(F(1), F(2), F(3)),
        )
        with pytest.raises(RankDeficiencyError):
            recover(q)

    @pytest.mark.parametrize(
        "x0, x, y",
        [
            ((1, 2), ((1, 2), (2, 4), (3, 6)), (1, 2, 3)),
            # every unanchored response 0: each guess would be refused by the
            # power-sum test, but the instance is refused for its rank first
            ((1, 2), ((2, 4), (3, 6)), (0, 0)),
        ],
        ids=["collinear", "collinear-zero-responses"],
    )
    def test_rank_deficiency_decided_before_any_guess(self, monkeypatch, x0, x, y):
        calls = []
        monkeypatch.setattr(lattice, "find_permutation", lambda *args: calls.append(args))
        q = AnchoredInstance(
            x0=tuple(map(F, x0)),
            y0=F(1),
            x=tuple(tuple(map(F, row)) for row in x),
            y=tuple(map(F, y)),
        )
        with pytest.raises(RankDeficiencyError, match="covariates do not have full column rank"):
            recover(q)
        assert calls == []

    # guess 0 (y0 paired with x0) leaves the collinear rows (1, 0), (2, 0);
    # with either guess, w = (1, 1) fits all three equations
    ZERO_SOURCE = AnchoredInstance(
        x0=(F(0), F(1)),
        y0=F(1),
        x=((F(1), F(0)), (F(2), F(0))),
        y=(F(1), F(2)),
    )

    # d = 3: guess 0 leaves the rows e1, -e1, e2, -e2, of rank 2 and sum 0,
    # so only the anchor equation w_3 = 3 binds and two directions stay free
    RANK_DEFICIENT_GUESS = AnchoredInstance(
        x0=(F(0), F(0), F(1)),
        y0=F(3),
        x=((F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(-1), F(0))),
        y=(F(3), F(1), F(-1), F(-3)),
    )

    def test_rank_deficient_guess_is_a_failed_guess(self):
        # ZERO_SOURCE's guess 0 lacks rank 2 (the reference sources raise),
        # yet the anchor equation and the first power sum pin w = (1, 1),
        # whose values match the responses: the guess verifies
        q = self.ZERO_SOURCE
        with pytest.raises(RankDeficiencyError):
            reference_sources(q.x0, q.x, q.y, q.y0)
        assert recover(q) == lattice.RecoveryResult(
            perm=Permutation((0, 1, 2)), w=(F(1), F(1))
        )
        # guess 0 takes the lattice path, where the Gram matrix of its other
        # covariates is singular: a failed guess; guess 1 (y0 on e1) pins
        # w_1 = w_3 = 3, and its quadratic 2 w_2^2 + 18 = 20 gives w_2 = -1
        # first, so recover goes on to it and answers there
        q = self.RANK_DEFICIENT_GUESS
        assert build_sources(q, 0, [1, 2, 3, 4]) is None
        assert find_permutation(q, 0) is None
        assert recover(q) == lattice.RecoveryResult(
            perm=Permutation((1, 0, 4, 3, 2)), w=(F(3), F(-1), F(3))
        )

    def test_zero_source_column_guess_recovers(self):
        # guess 1 (y0 on (1, 0)) has zero-valued sources, and the shorter
        # non-permutation subset {(1, 1)} also sums to the target; it is not a
        # vector of the permutation sublattice, so the lattice stage returns
        # the identity, the one permutation whose subset hits the target
        sub = _guess_instance(self.ZERO_SOURCE, 1)
        ssi = reference_sources(sub.x0, sub.x, sub.y, sub.y0)
        assert ssi.sources[0, 0] == ssi.sources[1, 0] == 0
        assert ssi.sources[1, 1] == ssi.target
        assert _lattice_find_permutation(sub) == Permutation((0, 1))

    @pytest.mark.parametrize(
        "x, y0, y, maps, want",
        [
            # d = 1, covariates (1, 2, 3): on guess 0 the slot order fits the
            # n unanchored equations (w = 1) but not the anchor's (1 != 5);
            # on guess 1 the unanchored ones are inconsistent (2 = w, 3 = 3w),
            # and on guess 2 all are (5 = 3w, 2 = 2w)
            ((2, 3), 5, (2, 3), {}, None),
            # d = 1, covariates (1, 2, 4), w = 2 with y0 on covariate 2: the
            # slot order fails guess 0 at the anchor equation and guess 1 in
            # the rest; on guess 2 the map (2, 0, 1) pairs the responses
            # with covariates 0 and 1
            ((2, 4), 8, (2, 4), {2: (2, 0, 1)},
             lattice.RecoveryResult(perm=Permutation((2, 0, 1)), w=(F(2),))),
        ],
        ids=["no-guess-fits", "later-guess-fits"],
    )
    def test_proposal_must_fit_every_equation(self, monkeypatch, x, y0, y, maps, want):
        # find_permutation proposes maps[a] on guess a (y0 on covariate a
        # and the rest in slot order where maps has none); only recover's
        # exact solve decides
        guesses = []

        def proposed(inst, a):
            guesses.append(a)
            return Permutation(maps.get(a, (a, *_slots(inst.n, a))))

        monkeypatch.setattr(lattice, "find_permutation", proposed)
        q = AnchoredInstance(
            x0=(F(1),), y0=F(y0), x=tuple((F(v),) for v in x), y=tuple(map(F, y))
        )
        assert recover(q) == want
        assert guesses == [0, 1, 2]
        monkeypatch.undo()
        assert recover(q) == want  # the lattice search agrees

    def test_n_below_d_refused(self):
        q = AnchoredInstance(
            x0=(F(1), F(0)), y0=F(1), x=((F(0), F(1)),), y=(F(1),)
        )
        with pytest.raises(ValueError):
            recover(q)

    def test_as_jsonable(self):
        q, _, _ = self.run_case(2, 3, 7)
        res = recover(q)
        doc = res.as_jsonable()
        assert doc["anchor"] == res.anchor
        assert doc["perm"] == list(res.perm.map)
        assert all("/" in s for s in doc["w"])
        got = [F(s) for s in doc["w"]]
        assert tuple(got) == res.w

    def test_scalar_chain(self):
        inst, truth = gen_noiseless_anchored(np.array([0.75]), 1, 2)
        q, w_q = quantize_noiseless(inst, truth, 8)
        res = recover(q)
        assert res is not None
        assert res.w == w_q

    @staticmethod
    def scaled(q, sx, sy, kind=F):
        """``q`` with every covariate times ``sx`` and every response times
        ``sy``, each value passed as ``kind``."""
        return AnchoredInstance(
            x0=tuple(kind(v * sx) for v in q.x0),
            y0=kind(q.y0 * sy),
            x=tuple(tuple(kind(v * sx) for v in row) for row in q.x),
            y=tuple(kind(v * sy) for v in q.y),
        )

    def quantized_cases(self):
        # denominators 2^16 for the covariates and 2^32 for the responses
        for d in (1, 2, 3):
            for seed in range(2):
                yield self.run_case(d, 12, seed, anchored=False)[0]

    def scaling_cases(self):
        # the quantized draws, and a hand instance with non-dyadic, mixed
        # denominators and a non-dyadic w
        yield from self.quantized_cases()
        rng = random.Random(5)
        xs = [tuple(F(rng.randint(-9, 9), rng.choice((1, 3, 5, 11, 2**20))) for _ in range(3)) for _ in range(9)]
        w = (F(2, 3), F(-5, 7), F(1, 2**40))
        pi = rng.sample(range(9), 9)
        ys = [sum(a * b for a, b in zip(w, xs[pi[i]])) for i in range(9)]
        yield AnchoredInstance(x0=xs[0], y0=ys[0], x=tuple(xs[1:]), y=tuple(ys[1:]))

    @pytest.mark.parametrize(
        "sx, sy",
        [(2**600, 1), (F(1, 2**600), 2**600), (1, F(1, 2**600)), (F(1, 3), F(1, 7)), (F(5, 3), F(7, 11))],
    )
    def test_scaling_moves_w_not_the_map(self, sx, sy):
        # recover clears the covariates' and the responses' denominators once
        # per instance, each set by its own least common multiple: with x
        # scaled by sx and y by sy, the map is the same and w is w sy / sx
        for q in self.scaling_cases():
            res = recover(q)
            got = recover(self.scaled(q, sx, sy))
            assert res is not None and got is not None
            assert got.perm == res.perm
            assert got.w == tuple(v * sy / sx for v in res.w)

    def test_subnormal_doubles(self):
        # every value a subnormal double, k * 2^-1074: the instance reads them
        # as the rationals they denote, with denominators up to 2^1074
        for q in self.quantized_cases():
            sub = self.scaled(q, F(1, 2**1058), F(1, 2**1042), float)
            assert sub.cleared[0] == 2**1074
            values = [*sub.x0, sub.y0, *itertools.chain(*sub.x), *sub.y]
            assert all(abs(v) < 2.0**-1022 for v in values)
            res, got = recover(q), recover(sub)
            assert got.perm == res.perm and got.w == tuple(v * 2**16 for v in res.w)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_guess_loop_forms_no_fraction(self, d):
        # the guesses read the instance over integers: once its cleared view
        # and power sums exist, no code of the fractions module runs, so no
        # Fraction is built or operated on, in any of the n + 1 guesses.  At
        # d = 4 every guess has two free directions, and the lattice route,
        # LLL included, runs on the same integers
        q, truth, _ = self.run_case(d, 200 if d <= 3 else 5, 0, anchored=False)
        q.cleared, q.power_sums
        ran = []
        reduced = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                ran.append(frame.f_code.co_name)
            elif event == "call" and frame.f_code is lll_reduce.__code__:
                reduced.append(True)

        sys.setprofile(profile)
        try:
            found = [find_permutation(q, a) for a in range(q.n + 1)]
        finally:
            sys.setprofile(None)
        assert ran == []
        assert bool(reduced) == (d == 4)
        assert found[truth.pi_bar(0)] is not None


_POOLS = ((0, 1), (-1, 0, 1), (-2, -1, 0, 1, 2), (F(1, 2), 1, 3))


@st.composite
def hostile_exact_instances(draw, min_d=1, max_d=3, min_n=1):
    """Exact instances with a planted fit: ``min_d <= d <= max_d``, ``min_n
    <= n <= 5`` (by default d <= 3, and n < d included), covariate entries
    from one small pool, one covariate row duplicated 30 % of the time,
    weights in {-2..3}/{1, 2} and a uniform pairing."""
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    n = draw(st.integers(min_value=min_n, max_value=5))
    pool = draw(st.sampled_from(_POOLS))
    entry = st.sampled_from(pool).map(F)
    xs = [tuple(draw(entry) for _ in range(d)) for _ in range(n + 1)]
    if draw(st.integers(min_value=0, max_value=9)) < 3:
        src, dst = draw(st.integers(0, n)), draw(st.integers(0, n))
        xs[dst] = xs[src]
    w = [F(draw(st.integers(-2, 3)), draw(st.sampled_from((1, 2)))) for _ in range(d)]
    pi = draw(st.permutations(range(n + 1)))
    ys = [sum(wv * xv for wv, xv in zip(w, xs[pi[i]])) for i in range(n + 1)]
    return AnchoredInstance(x0=xs[0], y0=ys[0], x=tuple(xs[1:]), y=tuple(ys[1:]))


def _has_rank(rows, d) -> bool:
    """Whether ``rows`` span ``d`` dimensions: some d x d minor is nonzero."""
    return any(det(list(sub)) != 0 for sub in itertools.combinations(rows, d))


class TestRecoverHostile:
    @given(inst=hostile_exact_instances())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_refusals_in_order_and_answers_exact(self, inst):
        # recover's documented refusals, in its order; every instance has a
        # fit by construction, so a None is a decline (README "Errors"):
        # every pairing that fits then has an anchor guess whose anchor
        # equation and first power sum leave two or more free directions,
        # where only the lattice searches.  Anything returned satisfies all
        # n + 1 equations exactly.
        self.check(inst)

    @given(inst=hostile_exact_instances(min_d=4, max_d=4, min_n=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_refusals_in_order_and_answers_exact_at_d4(self, inst):
        # the same refusals and exact answers at d = 4 and n in {4, 5} (n < d
        # is covered above), where every guess leaves two or more free
        # directions and so every admitted guess takes the lattice route; the
        # pools with 1/2 and 3 give sources and targets with common factors,
        # which the margin's gcd must handle.  A decline there is always
        # allowed, so completeness is not checked
        self.check(inst)

    @staticmethod
    def check(inst):
        xs, ys = [inst.x0, *inst.x], [inst.y0, *inst.y]
        if inst.n < inst.d:
            want = ValueError
        elif all(v == 0 for v in ys):
            want = DegenerateInstanceError
        elif not _has_rank(xs, inst.d):
            want = RankDeficiencyError
        else:
            want = None
        try:
            res = recover(inst)
        except ValueError as e:
            assert type(e) is want
            return
        assert want is None
        if res is None:
            if inst.d <= 3:
                guesses = dict(anchor_guesses(inst))
                for pi, _ in exact_fit(inst):
                    assert _free_directions(guesses[pi(0)]) >= 2
            return
        assert res.perm(0) == res.anchor
        for i in range(inst.n + 1):
            assert ys[i] == sum(wv * xv for wv, xv in zip(res.w, xs[res.perm(i)]))


def _as_permutation(subset, n):
    """The map of a subset of the full n^2 embedding, if the subset is exactly
    a permutation support (on the permutation sublattice it always is)."""
    if subset is None or [i for i, _ in subset] != list(range(n)):
        return None
    try:
        return Permutation(tuple(j for _, j in subset))
    except ValueError:
        return None


def _slots(n, a):
    """The covariate in each unanchored slot of guess ``a``, in the order
    ``find_permutation`` reads them: ``1, ..., n`` with covariate 0 in slot
    ``a``."""
    return [0 if j == a else j for j in range(1, n + 1)]


def _guess_instance(q, a):
    """The instance of anchor guess ``a``: ``y0`` on covariate ``a``, the
    other covariates in slot order, as the lattice route of
    ``find_permutation`` embeds them."""
    xs = [tuple(q.x0), *(tuple(row) for row in q.x)]
    return AnchoredInstance(
        x0=xs[a], y0=F(q.y0), x=tuple(xs[j] for j in _slots(q.n, a)), y=tuple(q.y)
    )


def anchor_guesses(q):
    """``(a, sub)`` for every anchor guess ``a``, ``sub`` its instance."""
    return [(a, _guess_instance(q, a)) for a in range(q.n + 1)]


def _on_guess(find):
    """A stand-in for ``find_permutation(q, a)`` from a search over the
    instance of guess ``a``: its map over the slots, made global."""

    def stand_in(q, a):
        pi = find(_guess_instance(q, a))
        slots = _slots(q.n, a)
        return None if pi is None else Permutation((a, *(slots[j] for j in pi.map)))

    return stand_in


@_on_guess
def _full_rank_find_permutation(inst):
    """The full-rank search find_permutation ran before the permutation
    sublattice, kept as the reference: the same sources and beta over the n^2
    embedding (full_embedding, lll_reduce and the reference _scan, inside
    lagarias_odlyzko), then the permutation check that embedding needs.
    Called as ``(q, a)``, it returns the global map."""
    n = inst.n
    if all(v == 0 for v in inst.y):
        return None
    ssi = reference_sources(inst.x0, inst.x, inst.y, inst.y0)
    if ssi.target == 0 and all(v == 0 for v in ssi.sources.values()):
        return None
    margin_den = math.lcm(ssi.target.denominator, *(v.denominator for v in ssi.sources.values()))
    subset = lagarias_odlyzko(ssi, 2 ** (n * n) * margin_den).subset
    return _as_permutation(subset, n)


class TestFullRankReference:
    def test_recovers_wherever_the_full_rank_search_does(self, monkeypatch):
        # 288 seeded instances, d <= 3, n <= 5, p in {2, 4, 8, 16}, anchored
        # and unanchored: recover returns the planted truth on every one
        # where the full-rank search does.  Coarse grids repeat covariate
        # rows, and a response may go to any copy of its planted row
        ref_hits = 0
        lost = []
        for d in (1, 2, 3):
            for n in range(d, 6):
                for p in (2, 4, 8, 16):
                    for anchored in (True, False):
                        for seed in range(3):
                            w = np.ones(d) / math.sqrt(d)
                            inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
                            q, w_q = quantize_noiseless(inst, truth, p)
                            xs = [q.x0, *q.x]

                            def planted(res):
                                return (
                                    res is not None
                                    and all(
                                        xs[res.perm(i)] == xs[truth.pi_bar(i)]
                                        for i in range(n + 1)
                                    )
                                    and res.w == w_q
                                )

                            with monkeypatch.context() as m:
                                m.setattr(lattice, "find_permutation", _full_rank_find_permutation)
                                ref = recover(q)
                            if planted(ref):
                                ref_hits += 1
                                if not planted(recover(q)):
                                    lost.append((d, n, p, anchored, seed))
        assert lost == []
        assert ref_hits >= 200


def _lattice_find_permutation(inst):
    """find_permutation's lattice stage on its own, with no power sums, for
    the guess that pairs y0 with x0: the projections, the sublattice of the
    embedding of their sources, LLL, and the first reduced column that is a
    permutation support."""
    n = inst.n
    args = guess_embedding(inst, 0, range(1, n + 1))
    if args is None:
        return None
    y, p, target, _ = args
    if target == 0 and (not any(y) or not any(p)):
        return None
    keys = [(i, j) for i in range(n) for j in range(n)]
    for col in lll_reduce(subset_sum_basis(*args)).columns:
        pi = _as_permutation(_indicator_subset(col, keys), n)
        if pi is not None:
            return pi
    return None


def _free_directions(inst):
    """How many directions of w the anchor equation and the first power sum
    leave free: d less the rank of the rows x0 and sum_j x_j."""
    rows = [inst.x0, [sum(col) for col in zip(*inst.x)]]
    _, pivots = rl._echelon([_cleared(row) for row in rows])
    return inst.d - len(pivots)


class TestPermutationSumPrune:
    def test_prune_is_sound(self, monkeypatch):
        # seeded instances, d <= 4, n <= 7, p in {2, 16}, anchored and
        # unanchored: find_permutation never refuses the true anchor guess,
        # and on every guess that takes the lattice path (two or more free
        # directions) and is refused before its lattice is built, the lattice
        # stage alone finds no permutation either.  A guess that reaches the
        # lattice stops there: only the refused ones matter.
        class Built(Exception):
            pass

        def built(y, p, target, lam):
            raise Built

        instances = true_kept = pruned = 0
        for d in (1, 2, 3, 4):
            for n in range(d, 8):
                for p in (2, 16):
                    for anchored in (True, False):
                        for seed in range(2):
                            w = np.ones(d) / math.sqrt(d)
                            inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
                            q, _ = quantize_noiseless(inst, truth, p)
                            if not any(q.y):
                                continue  # every guess is degenerate
                            instances += 1
                            for a, sub in anchor_guesses(q):
                                try:
                                    with monkeypatch.context() as m:
                                        m.setattr(lattice, "subset_sum_basis", built)
                                        pi = find_permutation(q, a)
                                except Built:
                                    true_kept += a == truth.pi_bar(0)
                                    continue
                                if pi is not None:  # solved by the power sums
                                    true_kept += a == truth.pi_bar(0)
                                    continue
                                assert a != truth.pi_bar(0)
                                if _free_directions(sub) >= 2:
                                    assert _lattice_find_permutation(sub) is None
                                    pruned += 1
        assert instances >= 170
        assert true_kept == instances
        assert pruned >= 30

    def test_lll_call_count(self, monkeypatch):
        # unanchored p = 16 recoveries.  At d = 4, n in {4, 5, 6}: 35 anchor
        # guesses, each with two free directions, of which 9 are refused by
        # the second power sum before any lattice is built, so 26 are reduced
        # (6, 8 and 12 per n).  At d <= 3, n in {4, 5}: 38 guesses, every one
        # solved or refused by the power sums, and no LLL call.  The counts
        # repeat exactly.
        def counted(m, name):
            real = getattr(lattice, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            m.setattr(lattice, name, wrapper)

        cells = {
            "d = 4": ((4, 4), (4, 5), (4, 6)),
            "d <= 3": ((1, 4), (2, 4), (2, 5), (3, 5)),
        }
        runs = []
        for _ in range(2):
            counts = {}
            for label, dns in cells.items():
                calls = {"find_permutation": 0, "lll_reduce": 0}
                with monkeypatch.context() as m:
                    counted(m, "find_permutation")
                    counted(m, "lll_reduce")
                    for d, n in dns:
                        for seed in range(3):
                            w = np.ones(d) / math.sqrt(d)
                            inst, truth = gen_noiseless_anchored(w, n, seed, anchored=False)
                            q, w_q = quantize_noiseless(inst, truth, 16)
                            res = recover(q)
                            assert res.perm.map == truth.pi_bar.map and res.w == w_q
                counts[label] = calls
            runs.append(counts)
        assert runs[0] == runs[1] == {
            "d = 4": {"find_permutation": 35, "lll_reduce": 26},
            "d <= 3": {"find_permutation": 38, "lll_reduce": 0},
        }


def _admitted(monkeypatch, x0, x, y, y0) -> bool:
    """Whether find_permutation admits the guess past its power sums: it
    returns a map, which must then fit the anchor and every response
    exactly, or it takes the lattice path and builds the sources.  A refused
    guess returns ``None`` before any source is built."""
    built = []
    real = lattice.build_sources

    def spy(*args):
        built.append(True)
        return real(*args)

    inst = AnchoredInstance(x0=x0, y0=y0, x=x, y=y)
    with monkeypatch.context() as m:
        m.setattr(lattice, "build_sources", spy)
        pi = find_permutation(inst, 0)
    if pi is not None:
        xs = [inst.x0, *inst.x]
        assert solve([xs[j] for j in pi.map], [inst.y0, *inst.y]) is not None
    return pi is not None or bool(built)


class TestPowerSums:
    # find_permutation's first step: one echelon of the anchor equation and
    # the first power sum, then the second power sum, solved exactly where
    # the rows leave at most one free direction and an inequality where more
    # stay free

    @pytest.mark.parametrize(
        "y, want",
        [
            ((1, 2), True),  # w = 1
            ((1, 3), False),  # sum y = 4, but w = y0 = 1 gives 1 + 2
            ((3, 0), False),  # sum y = 3 as for w = 1, but sum y^2 = 9, not 5
        ],
    )
    def test_one_dimension_first_moment(self, monkeypatch, y, want):
        assert _admitted(monkeypatch, (1,), ((1,), (2,)), y, 1) is want

    @pytest.mark.parametrize(
        "y, want",
        [
            ((1, 1), True),  # w = (1, 1)
            ((2, 0), False),  # the one w = (1, 1) has w^T G w = 2, not 4
            ((F(3, 2), F(1, 2)), False),  # 5/2, not 2
        ],
    )
    def test_pinned_point_must_meet_second_moment(self, monkeypatch, y, want):
        # x0 and s = (1, 1) are independent in d = 2, so they fix w
        assert _admitted(monkeypatch, (1, 0), ((1, 0), (0, 1)), y, 1) is want

    @pytest.mark.parametrize(
        "y, want",
        [
            ((1, 2, 3), True),  # w = (1, 3, 2) and (1, 2, 3): sum y^2 = 14
            # 36 is above the least value 1 + 25/2, but the roots
            # w_2, w_3 = (5 -+ sqrt 45) / 2 are irrational: no w is rational
            ((0, 0, 6), False),
            ((1, F(5, 2), F(5, 2)), True),  # 13.5 is the least value: one root
            ((2, 2, 2), False),  # 12 is below it: no real root
        ],
    )
    def test_free_direction_makes_an_inequality(self, monkeypatch, y, want):
        # d = 3 with two rows: w_1 = 1 and w_1 + w_2 + w_3 = 6 leave a line,
        # on which |w|^2 takes every value from 1 + 25/2 up, each value above
        # the least at two points
        x = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert _admitted(monkeypatch, (1, 0, 0), x, y, 1) is want

    @pytest.mark.parametrize(
        "x0, x, y, y0, want",
        [
            ((1, 1), ((1, 0), (0, 1)), (1, 1), 2, True),  # least y0^2 / 2 = 2
            ((1, 1), ((1, 0), (0, 1)), (3, -1), 2, True),  # 10 is above it
            ((1, 1), ((1, 0), (0, 1)), (2, 1), 2, False),  # sum y must be y0
            ((2, 2), ((1, 0), (0, 1)), (1, 1), 4, True),  # s = x0 / 2
            ((2, 2), ((1, 0), (0, 1)), (1, 1), 2, False),  # sum y must be y0 / 2
            ((1, 1), ((1, 0), (0, 1), (0, 0)), (1, 1, 1), 3, False),  # 3 < 9 / 2
            ((1, 1), ((1, 0), (0, 1), (0, 0)), (1, 2, 0), 3, True),  # 5 >= 9 / 2
        ],
    )
    def test_anchor_parallel_to_column_sum(self, monkeypatch, x0, x, y, y0, want):
        # one independent row in d = 2 leaves a line, on which the second
        # moment has a root only at or above its least value
        assert _admitted(monkeypatch, x0, x, y, y0) is want

    @pytest.mark.parametrize(
        "x, y, y0, want",
        [
            (((1, 0), (0, 1)), (1, 2), 1, False),  # <w, 0> cannot be 1
            (((1, 0), (0, 1)), (1, 2), 0, True),
            (((1,), (-1,)), (2, -2), 0, True),  # x0 = s = 0: w^2 = 4
            (((1,), (-1,)), (2, -2), 1, False),
            (((1,), (-1,)), (2, -1), 0, False),  # sum y must be <w, s> = 0
        ],
    )
    def test_zero_anchor(self, monkeypatch, x, y, y0, want):
        assert _admitted(monkeypatch, (0,) * len(x[0]), x, y, y0) is want

    @pytest.mark.parametrize(
        "y, want",
        [
            ((1, 1, 2, 0), True),  # 6 is above the least value 4^2 / 3
            ((2, 1, 1, 0), True),
            ((1, 1, 1, 1), False),  # 4 is below it
            ((F(4, 3), F(4, 3), F(4, 3), 0), True),  # 16/3 is the least value
        ],
    )
    def test_two_free_directions_make_an_inequality(self, monkeypatch, y, want):
        # d = 3, x0 = 0 and y0 = 0: the first power sum w_1 + w_2 + w_3 = 4
        # is the one linear row and leaves a plane, on which |w|^2 takes
        # every value from 16/3 up; an admitted guess goes on to the lattice
        x = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
        assert _admitted(monkeypatch, (0, 0, 0), x, y, 0) is want

    @pytest.mark.parametrize(
        "y, want",
        [
            ((1, 1, 2, 2), True),  # 10 is the least value: w = (1, 1, 2, 2)
            ((0, 2, 1, 3), True),  # 14 is above it
            ((F(3, 2),) * 4, False),  # 9 is below it
        ],
    )
    def test_two_rows_two_free_directions(self, monkeypatch, y, want):
        # d = 4, x0 = (1, 1, 0, 0), y0 = 2 and s = (1, 1, 1, 1): the two
        # independent rows w_1 + w_2 = 2 and w_3 + w_4 = sum y - 2 = 4 leave a
        # plane, on which |w|^2 = (w_1^2 + w_2^2) + (w_3^2 + w_4^2) takes
        # every value from 2^2 / 2 + 4^2 / 2 = 10 up
        x = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert _admitted(monkeypatch, (1, 1, 0, 0), x, y, 2) is want

    def test_recover_unchanged_without_the_test(self, monkeypatch):
        # seeded cells at d = 4, where every guess leaves two or more free
        # directions, n in {4, 5}, p in {2, 16}, anchored and unanchored:
        # recover gives the same result when every guess goes straight to
        # the lattice stage, since a guess that verifies has a w meeting
        # both power sums
        results = []
        for n in (4, 5):
            for p in (2, 16):
                for anchored in (True, False):
                    for seed in range(2):
                        inst, truth = gen_noiseless_anchored(np.ones(4) / 2, n, seed, anchored=anchored)
                        q, _ = quantize_noiseless(inst, truth, p)
                        if not any(q.y):
                            continue
                        with monkeypatch.context() as m:
                            m.setattr(lattice, "find_permutation", _on_guess(_lattice_find_permutation))
                            without = recover(q)
                        results.append(recover(q))
                        assert results[-1] == without
        assert len(results) == 16
        assert all(r is not None for r in results)


def _golden_cells():
    """The 144 seeded cells (d <= 4, d <= n <= 6, p in {2, 16}, anchored and
    unanchored, seeds 0-1), then 400 hostile draws as
    :func:`hostile_exact_instances` makes them but with d <= 4, seeded."""
    for d in range(1, 5):
        for n in range(d, 7):
            for p in (2, 16):
                for anchored in (True, False):
                    for seed in range(2):
                        w = random_unit_vector(d, np.random.default_rng([seed, 99]))
                        inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
                        yield quantize_noiseless(inst, truth, p)[0]
    draw = random.Random(2034)
    for _ in range(400):
        d, n = draw.randint(1, 4), draw.randint(1, 5)
        pool = draw.choice(_POOLS)
        xs = [tuple(F(draw.choice(pool)) for _ in range(d)) for _ in range(n + 1)]
        if draw.random() < 0.3:
            xs[draw.randint(0, n)] = xs[draw.randint(0, n)]
        w = [F(draw.randint(-2, 3), draw.choice((1, 2))) for _ in range(d)]
        pi = draw.sample(range(n + 1), n + 1)
        ys = [sum(a * b for a, b in zip(w, xs[pi[i]])) for i in range(n + 1)]
        yield AnchoredInstance(x0=xs[0], y0=ys[0], x=tuple(xs[1:]), y=tuple(ys[1:]))


def _golden_answer(q):
    try:
        res = recover(q)
    except (ValueError, DegenerateInstanceError, RankDeficiencyError) as e:
        return type(e).__name__
    return None if res is None else res.as_jsonable()


def test_recover_answers_pinned():
    # recover's answers, refusals and declines on fixed cells, pinned by
    # digest; they are exact rationals, so the digest is the same on every
    # host.  A change that moves any answer shows here.
    answers = [_golden_answer(q) for q in _golden_cells()]
    assert len(answers) == 544
    assert sum(a is None for a in answers) == 12  # declines, all hostile
    assert sum(isinstance(a, str) for a in answers) == 155
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == "5abf8e4640b4e3cddd2463d061344aadd9460d490174163f7e5e91f625d4bd46"


def test_every_lattice_basis_pinned(monkeypatch):
    # every basis find_permutation hands to LLL on every anchor guess of
    # fixed cells at d in {4, 5, 6}, where the power sums always leave two or
    # more free directions: d <= n <= 7, p in {2, 16}, anchored and
    # unanchored, seeds 0-1.  LLL is stubbed out, so none runs; the bases are
    # integers, so the digest is the same on every host.  A change to the
    # sources, beta or the column order shows here.
    class Reduced(Exception):
        pass

    def stub(basis):
        raise Reduced(basis.columns)

    monkeypatch.setattr(lattice, "lll_reduce", stub)
    bases = []
    for d in (4, 5, 6):
        for n in range(d, 8):
            for p in (2, 16):
                for anchored in (True, False):
                    for seed in range(2):
                        w = random_unit_vector(d, np.random.default_rng([seed, 99]))
                        inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
                        q, _ = quantize_noiseless(inst, truth, p)
                        for a in range(n + 1):
                            try:
                                assert find_permutation(q, a) is None
                            except Reduced as e:
                                bases.append(e.args[0])
    assert len(bases) == 426
    digest = hashlib.sha256(json.dumps(bases).encode()).hexdigest()
    assert digest == "616c594559fd6f9ed175371704a91aebdc489c77dd44ea15dbeb1a03a3ee1080"


def test_margin_is_the_reference_on_every_lattice_guess(monkeypatch):
    # the margin 1 / D that epsilon_bound takes from gcds of the integers
    # over lam is the reference's least common multiple of the reduced
    # denominators of the rational target and sources, on every guess that
    # reaches the lattice on the cells of test_every_lattice_basis_pinned,
    # and on d = 4, n = 8, p = 2, anchored, seed 0, guess 8: there the target
    # and the sources share the factor 6 but lam only 2 of it, so a gcd taken
    # without lam would triple beta and change the basis.  LLL is stubbed out
    class Reduced(Exception):
        pass

    def stub(basis):
        raise Reduced

    seen = []
    real = lattice.epsilon_bound

    def spy(*args):
        seen.append((*args, real(*args)))
        return seen[-1][-1]

    monkeypatch.setattr(lattice, "lll_reduce", stub)
    monkeypatch.setattr(lattice, "epsilon_bound", spy)
    cells = [
        (d, n, p, anchored, seed, range(n + 1))
        for d in (4, 5, 6)
        for n in range(d, 8)
        for p in (2, 16)
        for anchored in (True, False)
        for seed in range(2)
    ]
    cells.append((4, 8, 2, True, 0, [8]))
    checked = 0
    for d, n, p, anchored, seed, guesses in cells:
        w = random_unit_vector(d, np.random.default_rng([seed, 99]))
        inst, truth = gen_noiseless_anchored(w, n, seed, anchored=anchored)
        q, _ = quantize_noiseless(inst, truth, p)
        for a in guesses:
            seen.clear()
            try:
                find_permutation(q, a)
            except Reduced:
                pass
            for y, proj, target, lam, got in seen:
                assert F(1, got) == reference_margin(q.y, projections(q, a, _slots(n, a)), q.y0)
                checked += 1
    assert checked == 426 + 1
    y, proj, target, lam, got = seen[-1]
    assert math.gcd(target, math.gcd(*y) * math.gcd(*proj)) == 6 and lam // got == 2
