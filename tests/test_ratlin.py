from fractions import Fraction

import pytest

from shuffle_regress import RankDeficiencyError
from shuffle_regress import _ratlin as rl

from reference import det, left_nullspace_int, mat, solve, transpose

F = Fraction


class TestBasics:
    def test_matvec(self):
        a = [[F(1), F(2)], [F(0), F(3)]]
        assert rl.matvec(a, [F(1), F(1, 2)]) == [F(2), F(3, 2)]

    def test_transpose(self):
        a = [[F(1), F(2), F(3)]]
        assert transpose(a) == [[F(1)], [F(2)], [F(3)]]


class TestRankDet:
    # the rank is the pivot count of the echelon form that solve builds on
    # and that recover's rank test reads
    def test_rank_full(self):
        assert len(rl._echelon(mat([[F(1), F(0)], [F(0), F(1)]]))[1]) == 2

    def test_rank_deficient(self):
        assert len(rl._echelon(mat([[F(1), F(2)], [F(2), F(4)]]))[1]) == 1

    def test_det(self):
        assert det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
        assert det([[F(2)]]) == F(2)

    def test_det_exact_fractions(self):
        a = [[F(1, 3), F(1, 7)], [F(1, 11), F(1, 13)]]
        assert det(a) == F(1, 3) * F(1, 13) - F(1, 7) * F(1, 11)


class TestSolve:
    def test_unique(self):
        a = [[F(2), F(1)], [F(1), F(3)]]
        b = [F(5), F(10)]
        x = solve(a, b)
        assert rl.matvec(a, x) == b

    def test_inconsistent_none(self):
        # a singular matrix raises before consistency is looked at; the
        # None return is left to full-rank systems (see the overdetermined
        # inconsistent case below)
        a = [[F(1), F(1)], [F(1), F(1)]]
        with pytest.raises(RankDeficiencyError):
            solve(a, [F(1), F(2)])

    def test_dependent_columns_raise_when_consistent(self):
        a = [[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]]
        with pytest.raises(RankDeficiencyError):
            solve(a, [F(1), F(2), F(3)])

    def test_wide_matrix_raises(self):
        with pytest.raises(RankDeficiencyError):
            solve([[F(1), F(0), F(1)], [F(0), F(1), F(1)]], [F(1), F(1)])

    def test_overdetermined_consistent(self):
        a = [[F(1)], [F(2)], [F(3)]]
        b = [F(2), F(4), F(6)]
        assert solve(a, b) == [F(2)]

    def test_overdetermined_inconsistent(self):
        a = [[F(1)], [F(2)]]
        assert solve(a, [F(1), F(3)]) is None


class TestLeftNullspace:
    def test_integer_rows_annihilate(self):
        a = [[1, 0], [0, 1], [1, 1]]
        ns = left_nullspace_int(a)
        assert len(ns) == 1
        row = ns[0]
        assert all(isinstance(v, int) for v in row)
        for j in range(2):
            assert sum(row[i] * a[i][j] for i in range(3)) == 0
        assert any(v != 0 for v in row)

    def test_full_row_rank_empty(self):
        assert left_nullspace_int([[1, 0], [0, 1]]) == []

    def test_dimension_count(self):
        # 4 rows of a rank-2 matrix leave a 2-dim left nullspace
        a = [[1, 0], [0, 1], [1, 1], [2, 3]]
        ns = left_nullspace_int(a)
        assert len(ns) == 2
        for row in ns:
            for j in range(2):
                assert sum(row[i] * a[i][j] for i in range(4)) == 0
