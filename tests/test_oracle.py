"""Self-checks for the brute-force oracle itself."""

import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from cycstat import oracle
from cycstat.cli import class_moment
from cycstat.errors import InternalConsistencyError, ResourceLimitError
from cycstat.oracle import class_size, class_table, conjugacy_class, partitions
from cycstat.reference import (
    bivincular_count,
    compatible_function_count,
    cycle_type,
    descent_count,
    excedance_count,
    fixed_point_count,
    injection_count,
    inversion_count,
    major_index,
    representative,
    two_cycle_count,
)
from cycstat.dsl import parse_statistic
from cycstat.partial import CyclePathType, PartialPermutation


class TestPartitions:
    def test_counts(self):
        # p(n) for n = 0..8
        assert [len(list(partitions(n))) for n in range(9)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22,
        ]

    def test_weakly_decreasing(self):
        for lam in partitions(7):
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert sum(lam) == 7


class TestClasses:
    def test_cycle_type(self):
        assert cycle_type((2, 1, 4, 3)) == (2, 2)
        assert cycle_type((2, 3, 1)) == (3,)

    def test_class_sizes_sum_to_factorial(self):
        for n in range(1, 7):
            assert sum(class_size(lam) for lam in partitions(n)) == factorial(n)

    def test_class_table_consistent(self):
        table = class_table(5)
        for lam, members in table.items():
            assert len(members) == class_size(lam)
            assert all(cycle_type(w) == lam for w in members)

    @pytest.mark.parametrize("n", range(9))
    def test_class_table_is_s_n_by_cycle_type(self, n):
        # the reference buckets every permutation by its cycle type; the
        # table grows S_n from S_(n-1) and must hold the same members once each
        reference = {lam: [] for lam in partitions(n)}
        for w in permutations(range(1, n + 1)):
            reference[cycle_type(w)].append(w)
        table = class_table(n)
        assert list(table) == list(reference)
        for lam, members in table.items():
            assert len(set(members)) == len(members), lam
            assert Counter(members) == Counter(reference[lam]), lam

    def test_class_size_mismatch_raises(self, monkeypatch):
        # the self-check must survive python -O, so it cannot be an assert
        monkeypatch.setattr(oracle, "class_size", lambda lam: class_size(lam) + 1)
        class_table.cache_clear()
        with pytest.raises(InternalConsistencyError):
            class_table(3)

    def test_representative_has_right_type(self):
        for lam in partitions(6):
            assert cycle_type(representative(lam)) == lam

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            conjugacy_class((9,))


class TestClassMoment:
    def test_excedance_three_cycles(self):
        # the two 3-cycles have excedance counts 2 and 1
        assert class_moment(excedance_count, (3,), 1) == Fraction(3, 2)
        assert class_moment(excedance_count, (3,), 2) == Fraction(5, 2)

    def test_identity_class(self):
        assert class_moment(descent_count, (1, 1, 1, 1), 1) == 0
        assert class_moment(fixed_point_count, (1, 1, 1), 1) == 3

    @pytest.mark.parametrize("evaluator", [
        excedance_count,
        parse_statistic("1/3*exc + 1/2").evaluate,
        parse_statistic("-2*des").evaluate,
    ], ids=["exc", "1/3*exc + 1/2", "-2*des"])
    def test_equals_the_average_of_fraction_powers(self, evaluator):
        # int-valued, Fraction-valued and negative evaluators alike
        for n in (5, 6):
            for lam in partitions(n):
                values = [evaluator(w) for w in conjugacy_class(lam)]
                for d in (1, 2, 3):
                    reference = sum(Fraction(v) ** d for v in values) / len(values)
                    moment = class_moment(evaluator, lam, d)
                    assert type(moment) is Fraction and moment == reference, (lam, d)


class TestCounts:
    def test_fixed_point_indicator(self):
        p = PartialPermutation((1,), (1,))
        assert injection_count(p, (2, 1)) == 1

    def test_length_two_walks_in_three_cycle(self):
        p = PartialPermutation((1, 2), (2, 3))
        assert injection_count(p, (3,)) == 3

    def test_two_cycle_both_traversals(self):
        p = PartialPermutation((1, 2), (2, 1))
        assert injection_count(p, (2, 1)) == 2

    def test_injection_count_representative_independent(self):
        p = PartialPermutation((1, 2, 3), (2, 3, 1))
        for lam in partitions(5):
            counts = {
                injection_count(p, lam, pi=w) for w in conjugacy_class(lam)
            }
            assert len(counts) == 1

    def test_injection_count_of_many_fixed_points(self):
        # ten fixed points into the identity of S_10: 10! injections, counted
        # over the 2^10 sets of used points rather than one by one, so that
        # checking a cache entry of such a type as it loads stays cheap
        p = CyclePathType((1,) * 10, ()).representative()
        started = time.monotonic()
        assert injection_count(p, (1,) * 10) == factorial(10)
        assert time.monotonic() - started < 2.0

    def test_compatible_function_counts(self):
        assert compatible_function_count(
            PartialPermutation((1,), (1,)), (3, 2, 1, 1)
        ) == 2
        assert compatible_function_count(
            PartialPermutation((1, 2), (2, 3)), (2, 2)
        ) == 0
        assert compatible_function_count(
            PartialPermutation((1, 2), (2, 1)), (2, 2)
        ) == 4

    def test_counts_stop_at_count_cap(self):
        # one representative, not all of S_n: both counts take n up to
        # COUNT_CAP = 12, above the enumeration's N_CAP = 8
        fixed = PartialPermutation((1,), (1,))
        assert compatible_function_count(fixed, (1,) * 12) == 12
        assert injection_count(fixed, (12,)) == 0
        for count in (compatible_function_count, injection_count):
            with pytest.raises(ResourceLimitError, match="n <= 12, got 13"):
                count(fixed, (1,) * 13)


class TestEvaluators:
    def test_pointwise_definitions(self):
        w = (3, 5, 1, 2, 4)  # single descent at position 2; 5 inversions
        assert descent_count(w) == 1
        assert major_index(w) == 2
        assert inversion_count(w) == 5
        assert excedance_count(w) == 2
        assert fixed_point_count(w) == 0
        assert two_cycle_count(cycle_type_to_word((2, 2, 1))) == 2

    def test_bivincular_count_is_descents(self):
        from itertools import permutations

        for w in permutations(range(1, 5)):
            assert bivincular_count((2, 1), (1,), (), w) == descent_count(w)


def cycle_type_to_word(lam):
    return representative(lam)
