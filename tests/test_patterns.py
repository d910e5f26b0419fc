"""Bivincular pattern compilation and the named statistics."""

from itertools import combinations, permutations

import pytest

from cycstat.dsl import parse_statistic
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
from cycstat.partial import PartialPermutation, covering_injections, push_adjacencies
from cycstat.poly import ONE, ZERO, xvar
from cycstat.translates import ConstrainedTranslate, RegularStatistic


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


def built_one_by_one(pattern: BivincularPattern) -> RegularStatistic:
    """The pattern count with each placement built as a translate and the
    translates then merged by RegularStatistic: the reference that
    compile_bivincular, which builds each translate once, must equal."""
    out = []
    for U, vset in covering_injections(pattern.size, pattern.size):
        V = tuple(vset[s - 1] for s in pattern.sigma)
        CA = push_adjacencies(pattern.A, U)
        CB = push_adjacencies(pattern.B, vset)
        if CA is None or CB is None:
            continue
        weight = pattern.f.relabel([u - 1 for u in U]) * pattern.g.relabel([v - 1 for v in V])
        if not weight.is_zero:
            out.append(ConstrainedTranslate(PartialPermutation(U, V), frozenset(CA | CB), weight))
    return RegularStatistic(tuple(out))


class TestOneBuild:
    def test_each_translate_constructed_once(self, monkeypatch):
        built = []
        init = ConstrainedTranslate.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConstrainedTranslate, "__init__", counting)
        for make in (lambda: pattern_count("123"), des, maj, exc, fix, cyc2):
            built.clear()
            s = make()
            assert len(built) == len(s.translates), make

    def test_equals_the_translates_built_one_by_one(self):
        x1, x2 = xvar(1), xvar(2)
        for k in range(4):
            subsets = [frozenset(c) for r in range(k + 1) for c in combinations(range(1, k), r)]
            fs = [ONE, ZERO] + ([x1 - x2] if k >= 2 else [])
            gs = [ONE] + ([x2] if k >= 2 else [])
            for sigma in permutations(range(1, k + 1)):
                for A in subsets:
                    for B in subsets:
                        for f in fs:
                            for g in gs:
                                p = BivincularPattern(sigma, A, B, f, g)
                                assert compile_bivincular(p) == built_one_by_one(p), p
        for sigma in permutations(range(1, 5)):
            p = BivincularPattern(sigma, frozenset(), frozenset(), ONE, ONE)
            assert compile_bivincular(p) == built_one_by_one(p), p

    @pytest.mark.parametrize("make, text", [
        (exc, "T(U=(1);V=(2);C={};f=1)"),
        (fix, "T(U=(1);V=(1);C={};f=1)"),
        (cyc2, "T(U=(1,2);V=(2,1);C={};f=1)"),
    ])
    def test_named_statistics_are_their_translates(self, make, text):
        assert make() == parse_statistic(text)
