import numpy as np
import pytest

from shuffle_regress import (
    CapExceededError,
    Instance,
    ThreePartitionInstance,
    reduce_3partition,
)

from reference import check_3partition_brute, gen_yes_instance, pls_feasible_brute


def system(x, y):
    """The permuted linear system ``x w = shuffled y`` of integer values."""
    return Instance(x=np.array(x, dtype=float), y=np.array(y, dtype=float))


class TestThreePartitionInstance:
    def test_valid(self):
        tp = ThreePartitionInstance(z=(4, 5, 6))
        assert tp.z == (4, 5, 6)
        assert tp.k == 1 and tp.c == 15

    def test_sum_mismatch(self):
        # k = 2 does not divide the sum 31, so no per-triple target exists
        with pytest.raises(ValueError, match="not divisible by k = 2"):
            ThreePartitionInstance(z=(4, 4, 7, 7, 4, 5))

    def test_length_mismatch(self):
        for z in [(4, 5, 6, 7), (), (4, 5)]:
            with pytest.raises(ValueError, match="positive multiple of 3"):
                ThreePartitionInstance(z=z)

    def test_bounds_named_in_error(self):
        # 3 is not > 15/4 is fine; but 3 <= 15/4 violates the lower bound
        with pytest.raises(ValueError, match="c/4 < z_i < c/2"):
            ThreePartitionInstance(z=(3, 5, 7))
        with pytest.raises(ValueError, match="c/4 < z_i < c/2"):
            ThreePartitionInstance(z=(4, 3, 8))

    def test_strict_bounds(self):
        # z_i = c/4 and z_i = c/2 are both excluded
        with pytest.raises(ValueError):
            ThreePartitionInstance(z=(4, 6, 6))
        with pytest.raises(ValueError):
            ThreePartitionInstance(z=(8, 5, 3))
        # strictly interior values are fine
        ThreePartitionInstance(z=(5, 5, 6))


class TestReduce3Partition:
    def test_k1_pinned_shape(self):
        tp = ThreePartitionInstance(z=(4, 5, 6))
        inst = reduce_3partition(tp)
        assert inst.x.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert inst.y.tolist() == [4, 5, 6, 15]
        assert inst.n == 4 and inst.d == 3

    def test_k2_shape(self):
        tp = ThreePartitionInstance(z=(4, 4, 7, 7, 4, 4))
        inst = reduce_3partition(tp)
        assert inst.n == 8 and inst.d == 6
        # first 6 rows are the identity block
        for i in range(6):
            assert inst.x[i].tolist() == [1 if j == i else 0 for j in range(6)]
        # last k rows are triple indicators
        assert inst.x[6].tolist() == [1, 1, 1, 0, 0, 0]
        assert inst.x[7].tolist() == [0, 0, 0, 1, 1, 1]
        assert inst.y.tolist() == [4, 4, 7, 7, 4, 4, 15, 15]


class TestBruteForceCheckers:
    def test_yes_instance(self):
        tp = ThreePartitionInstance(z=(4, 4, 7, 7, 4, 4))
        assert check_3partition_brute(tp) is True

    def test_no_instance_pinned(self):
        tp = ThreePartitionInstance(z=(4, 4, 4, 6, 6, 6))
        assert check_3partition_brute(tp) is False

    def test_k1_always_yes(self):
        assert check_3partition_brute(ThreePartitionInstance(z=(4, 5, 6)))

    def test_cap(self):
        z = (4, 5, 6) * 5
        tp = ThreePartitionInstance(z=z)
        with pytest.raises(CapExceededError):
            check_3partition_brute(tp)

    def test_pls_trivial_feasible(self):
        # square full-rank system: empty left nullspace, any ordering solvable
        assert pls_feasible_brute(system(((1, 0), (0, 1)), (1, 2))) is True

    def test_pls_infeasible(self):
        # rows sum constraint: nullspace row (1, 1, -1) forces b_pi0+b_pi1=b_pi2
        assert pls_feasible_brute(system(((1, 0), (0, 1), (1, 1)), (1, 1, 3))) is False

    def test_pls_feasible_after_permutation(self):
        assert pls_feasible_brute(system(((1, 0), (0, 1), (1, 1)), (3, 1, 2))) is True

    def test_pls_cap(self):
        a = tuple((1,) for _ in range(9))
        with pytest.raises(CapExceededError):
            pls_feasible_brute(system(a, tuple(range(9))))


class TestEquivalence:
    def test_reduction_preserves_answer(self):
        cases = [
            ThreePartitionInstance(z=(4, 5, 6)),
            ThreePartitionInstance(z=(4, 4, 7)),
            ThreePartitionInstance(z=(4, 4, 7, 7, 4, 4)),
            ThreePartitionInstance(z=(4, 4, 4, 6, 6, 6)),
            ThreePartitionInstance(z=(5, 4, 6, 4, 7, 4)),
        ]
        for tp in cases:
            want = check_3partition_brute(tp)
            got = pls_feasible_brute(reduce_3partition(tp))
            assert got == want, tp


class TestGenYesInstance:
    def test_valid_and_yes(self):
        for seed in range(5):
            tp = gen_yes_instance(2, 15, seed)
            assert tp.k == 2 and tp.c == 15
            assert check_3partition_brute(tp) is True

    def test_deterministic(self):
        assert gen_yes_instance(2, 20, 3) == gen_yes_instance(2, 20, 3)

    def test_shuffles(self):
        draws = {gen_yes_instance(2, 30, s).z for s in range(8)}
        assert len(draws) > 1

    def test_infeasible_c_rejected(self):
        # no integers strictly between c/4 and c/2 sum to c=4 in triples
        with pytest.raises(ValueError):
            gen_yes_instance(1, 4, 0)
