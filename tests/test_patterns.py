"""Bivincular pattern compilation and the named statistics."""

from itertools import permutations

import pytest

from cycstat.errors import MalformedInputError
from cycstat.oracle import (
    bivincular_count,
    class_moment,
    descent_count,
    excedance_count,
    fixed_point_count,
    inversion_count,
    major_index,
    partitions,
    two_cycle_count,
)
from cycstat.patterns import (
    BivincularPattern,
    builtin,
    compile_bivincular,
    cyc2,
    des,
    exc,
    fix,
    inv,
    maj,
    pattern_count,
)
from cycstat.poly import ONE, ZERO, xvar


class TestValidation:
    def test_bad_word_rejected(self):
        with pytest.raises(MalformedInputError):
            BivincularPattern((1, 3), frozenset(), frozenset(), ONE, ONE)

    def test_bad_adjacency_rejected(self):
        with pytest.raises(MalformedInputError):
            BivincularPattern((2, 1), frozenset({2}), frozenset(), ONE, ONE)

    def test_parameters(self):
        b = BivincularPattern((2, 1), frozenset({1}), frozenset(), xvar(1), ONE)
        assert (b.size, b.shift, b.power) == (2, 1, 2)


class TestCompilation:
    def test_single_letter_pattern_counts_positions(self):
        s = pattern_count((1,))
        for n in range(5):
            for w in permutations(range(1, n + 1)):
                assert s.evaluate(w) == n

    def test_descents_pointwise(self):
        s = pattern_count((2, 1), A=(1,))
        for w in permutations(range(1, 6)):
            assert s.evaluate(w) == descent_count(w)

    def test_major_index_has_eight_translates(self):
        assert len(maj().translates) == 8

    def test_major_index_pointwise(self):
        s = maj()
        for w in permutations(range(1, 6)):
            assert s.evaluate(w) == major_index(w)

    def test_inversions_pointwise(self):
        s = inv()
        for w in permutations(range(1, 6)):
            assert s.evaluate(w) == inversion_count(w)

    def test_value_adjacency(self):
        # 21 with B={1}: descents by value, pi(i) = pi(j) + 1 with i < j
        s = compile_bivincular(
            BivincularPattern((2, 1), frozenset(), frozenset({1}), ONE, ONE)
        )
        for w in permutations(range(1, 6)):
            assert s.evaluate(w) == bivincular_count((2, 1), (), (1,), w)

    def test_three_letter_bivincular(self):
        s = compile_bivincular(
            BivincularPattern((1, 3, 2), frozenset({2}), frozenset(), ONE, ONE)
        )
        for w in permutations(range(1, 6)):
            assert s.evaluate(w) == bivincular_count((1, 3, 2), (2,), (), w)

    def test_weighted_compilation(self):
        s = compile_bivincular(
            BivincularPattern((2, 1), frozenset({1}), frozenset(), xvar(1), ONE)
        )
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == bivincular_count(
                (2, 1), (1,), (), w, f=xvar(1)
            )

    def test_constant_pattern(self):
        s = compile_bivincular(
            BivincularPattern((), frozenset(), frozenset(), ONE, ONE)
        )
        assert s.evaluate((3, 1, 2)) == 1

    def test_zero_weight_patterns(self):
        empty = BivincularPattern((), frozenset(), frozenset(), ZERO, ONE)
        assert compile_bivincular(empty).is_zero and empty.power == 0
        inversions = BivincularPattern((2, 1), frozenset(), frozenset(), ZERO, ONE)
        assert compile_bivincular(inversions).is_zero and inversions.power == 2


class TestBuiltins:
    CASES = [
        (exc, excedance_count),
        (des, descent_count),
        (maj, major_index),
        (inv, inversion_count),
        (fix, fixed_point_count),
        (cyc2, two_cycle_count),
    ]

    def test_pointwise_definitions(self):
        for make, evaluator in self.CASES:
            s = make()
            for w in permutations(range(1, 6)):
                assert s.evaluate(w) == evaluator(w), make.__name__

    def test_class_means_match_oracle(self):
        for make, evaluator in self.CASES:
            s = make()
            for n in range(1, 6):
                for lam in partitions(n):
                    assert s.moment_at(lam, 1) == class_moment(evaluator, lam, 1), (
                        make.__name__,
                        lam,
                    )

    def test_builtin_lookup(self):
        assert builtin("exc").translates == exc().translates
        with pytest.raises(MalformedInputError):
            builtin("nope")
