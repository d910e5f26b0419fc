"""Constrained translates and the regular-statistic algebra."""

import random
import sys
import threading
from fractions import Fraction
from itertools import permutations

import pytest

from cycstat import translates
from cycstat.errors import MalformedInputError, ResourceLimitError
from cycstat.oracle import class_moment, partitions
from cycstat.partial import PartialPermutation
from cycstat.patterns import exc, maj
from cycstat.poly import ONE, Poly, mvar, xvar
from cycstat.translates import (
    ConstrainedTranslate,
    RegularStatistic,
    translate_product,
)

FIX_T = ConstrainedTranslate(PartialPermutation((1,), (1,)), frozenset(), ONE)
EXC_T = ConstrainedTranslate(PartialPermutation((1,), (2,)), frozenset(), ONE)


class TestConstruction:
    def test_unpacked_rejected(self):
        with pytest.raises(MalformedInputError):
            ConstrainedTranslate(PartialPermutation((1,), (3,)), frozenset(), ONE)

    def test_bad_constraints_rejected(self):
        with pytest.raises(MalformedInputError):
            ConstrainedTranslate(
                PartialPermutation((1,), (2,)), frozenset({5}), ONE
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(MalformedInputError):
            ConstrainedTranslate(PartialPermutation((1,), (2,)), frozenset(), Poly())

    def test_oversized_weight_rejected(self):
        with pytest.raises(MalformedInputError):
            ConstrainedTranslate(PartialPermutation((1,), (2,)), frozenset(), xvar(3))

    def test_size_shift_power(self):
        t = ConstrainedTranslate(
            PartialPermutation((1, 2), (2, 1)), frozenset({1}), xvar(1) ** 2
        )
        assert (t.size, t.shift, t.power) == (2, 1, 3)


class TestEvaluate:
    def test_excedance_on_three_cycle(self):
        # pi = 1->2->3->1 in one-line notation (2,3,1): excedances at 1, 2
        assert EXC_T.evaluate((2, 3, 1)) == 2

    def test_empty_ground_set(self):
        assert EXC_T.evaluate(()) == 0

    def test_ground_set_smaller_than_support(self):
        t = ConstrainedTranslate(PartialPermutation((1, 2), (2, 1)), frozenset(), ONE)
        assert t.evaluate((1,)) == 0

    def test_weighted(self):
        # weighted fixed-point positions of the identity on [3]: 1+2+3
        t = ConstrainedTranslate(PartialPermutation((1,), (1,)), frozenset(), xvar(1))
        assert t.evaluate((1, 2, 3)) == 6


class TestExpectation:
    """Moments of one-translate statistics: each reads the grouped sums of a
    single cycle-path type."""

    def test_excedance_mean(self):
        assert str(RegularStatistic((EXC_T,)).moment(1)) == "(n - m1) / 2"

    def test_two_cycle_statistic_is_m2(self):
        t = ConstrainedTranslate(PartialPermutation((1, 2), (2, 1)), frozenset(), ONE)
        e = RegularStatistic((t,)).moment(1).normalized()
        assert e.num == mvar(2) and e.den == ()

    def test_expectation_at_matches_oracle(self):
        t = ConstrainedTranslate(
            PartialPermutation((1, 2), (2, 3)), frozenset({1}), xvar(2)
        )
        s = RegularStatistic((t,))
        for n in range(1, 6):
            for lam in partitions(n):
                assert s.moment_at(lam) == class_moment(t.evaluate, lam, 1)

    def test_small_ground_set_is_zero(self):
        t = ConstrainedTranslate(PartialPermutation((1, 2), (2, 3)), frozenset(), ONE)
        assert RegularStatistic((t,)).moment_at((2,)) == 0

    def test_uniform_expectation_matches_oracle(self):
        t = ConstrainedTranslate(
            PartialPermutation((1, 2), (2, 1)), frozenset({1}), xvar(1)
        )
        uniform = RegularStatistic((t,)).uniform_moment(1)
        for n in range(2, 6):
            total = Fraction(0)
            count = 0
            for w in permutations(range(1, n + 1)):
                total += t.evaluate(w)
                count += 1
            assert uniform.evaluate_at((1,) * n) == total / count


class TestRegularStatistic:
    def test_merge_by_key(self):
        s = RegularStatistic((EXC_T, EXC_T))
        assert len(s.translates) == 1
        assert s.translates[0].weight == Poly.const(2)

    def test_cancellation_drops_translate(self):
        s = RegularStatistic.from_terms([(1, EXC_T), (-1, EXC_T)])
        assert s.is_zero

    def test_linear_combination_evaluation(self):
        s = RegularStatistic.from_terms([(2, EXC_T), (Fraction(1, 2), FIX_T)])
        w = (2, 3, 1)
        assert s.evaluate(w) == 2 * EXC_T.evaluate(w) + Fraction(1, 2) * FIX_T.evaluate(w)

    def test_constant(self):
        s = RegularStatistic.constant(Fraction(3, 2))
        assert s.evaluate((2, 1)) == Fraction(3, 2)
        assert s.moment_at((2, 1), 1) == Fraction(3, 2)

    def test_round_trip_str(self):
        from cycstat.dsl import parse_statistic

        s = RegularStatistic.from_terms([(2, EXC_T), (1, FIX_T)])
        again = parse_statistic(" + ".join(str(t) for t in s.translates))
        for w in permutations((1, 2, 3)):
            assert again.evaluate(w) == s.evaluate(w)


class TestProduct:
    def test_fixed_point_square_identity(self):
        # m1(pi)^2 = 2*binom(m1,2) + m1, realized translate-wise
        sq = translate_product(FIX_T, FIX_T)
        for n in range(1, 5):
            for w in permutations(range(1, n + 1)):
                assert sq.evaluate(w) == FIX_T.evaluate(w) ** 2

    def test_diagonal_term_present(self):
        # the full-collision overlap reproduces the indicator itself
        sq = translate_product(EXC_T, EXC_T)
        keys = {t.key for t in sq.translates}
        assert ((1,), (2,), ()) in keys

    def test_identity_element(self):
        one = ConstrainedTranslate(PartialPermutation((), ()), frozenset(), ONE)
        prod = translate_product(one, EXC_T)
        assert len(prod.translates) == 1
        assert prod.translates[0].key == EXC_T.key

    def test_random_products_pointwise(self):
        rng = random.Random(7)
        pool = _small_translates()
        for _ in range(15):
            t1, t2 = rng.choice(pool), rng.choice(pool)
            prod = translate_product(t1, t2)
            for w in permutations(range(1, 5)):
                assert prod.evaluate(w) == t1.evaluate(w) * t2.evaluate(w), (t1, t2)

    def test_subadditivity(self):
        pool = _small_translates()
        for t1 in pool:
            for t2 in pool:
                prod = translate_product(t1, t2)
                assert prod.size <= t1.size + t2.size
                assert prod.shift <= t1.shift + t2.shift
                assert prod.power <= t1.power + t2.power


class TestMoments:
    def test_power_expansion_matches_pointwise(self):
        s = RegularStatistic((EXC_T,))
        sq = s**2
        for w in permutations((1, 2, 3, 4)):
            assert sq.evaluate(w) == s.evaluate(w) ** 2

    def test_class_function_square(self):
        # the m1-statistic squared has symbolic second moment exactly m1^2
        s = RegularStatistic((FIX_T,))
        second = s.moment(2).normalized()
        assert second.num == mvar(1) ** 2 and second.den == ()

    def test_moment_matches_oracle(self):
        s = RegularStatistic.from_terms([(1, EXC_T), (2, FIX_T)])

        for n in range(1, 6):
            for lam in partitions(n):
                for d in (1, 2):
                    assert s.moment_at(lam, d) == class_moment(s.evaluate, lam, d)

    def test_variance_at(self):
        s = RegularStatistic((EXC_T,))
        for lam in [(4,), (3, 1), (2, 2)]:
            mean = class_moment(s.evaluate, lam, 1)
            second = class_moment(s.evaluate, lam, 2)
            assert s.variance_at(lam) == second - mean * mean

    def test_uniform_moment_is_univariate(self):
        s = RegularStatistic((EXC_T,))
        e = s.uniform_moment(1).normalized()
        assert all(not any(x for x in exps[1:]) for exps in e.num.terms)


class TestPowers:
    def test_each_power_built_once(self, monkeypatch):
        calls = []
        original = translates.translate_product

        def counting(t1, t2):
            calls.append((t1, t2))
            return original(t1, t2)

        monkeypatch.setattr(translates, "translate_product", counting)
        s = exc()
        cube = s**3
        assert calls
        calls.clear()
        assert s**3 is cube and s**1 is s
        assert not calls
        assert s**2 * s == cube

    def test_concurrent_callers_get_one_object(self):
        s = exc()
        barrier = threading.Barrier(8, timeout=60)
        results = [None] * 8

        def cube(i):
            barrier.wait()
            results[i] = s**3

        threads = [threading.Thread(target=cube, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is results[0] for r in results)
        assert results[0] == exc() ** 3
        assert s**2 * s == results[0]

    def test_power_leaves_statistic_unchanged(self):
        s = maj()
        before = (hash(s), str(s), [str(t) for t in s.translates])
        s**2
        s.moment(1)
        assert (hash(s), str(s), [str(t) for t in s.translates]) == before
        assert s == maj() and maj() == s and hash(s) == hash(maj())
        assert {s: 1}[maj()] == 1

    def test_type_sums_grouped_once(self):
        s = maj()
        assert s.type_sums is s.type_sums
        with pytest.raises(TypeError):
            s.type_sums[next(iter(s.type_sums))] = ONE

    def test_product_over_the_placement_cap(self, monkeypatch):
        # exc^2 * exc tries 161 placements
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 161)
        assert (exc() ** 2 * exc()).translates
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 160)
        with pytest.raises(ResourceLimitError, match="161 placements"):
            exc() ** 2 * exc()

    def test_exponent_cap(self):
        two = RegularStatistic.constant(2)
        cap = translates.MAX_EXPONENT
        assert two**cap == RegularStatistic.constant(2**cap)
        with pytest.raises(ResourceLimitError):
            two ** (cap + 1)


def _small_translates():
    return [
        FIX_T,
        EXC_T,
        ConstrainedTranslate(PartialPermutation((1, 2), (2, 1)), frozenset(), ONE),
        ConstrainedTranslate(PartialPermutation((1, 2), (2, 3)), frozenset({1}), ONE),
        ConstrainedTranslate(PartialPermutation((2,), (1,)), frozenset({1}), xvar(1)),
        ConstrainedTranslate(PartialPermutation((1, 3), (3, 2)), frozenset(), xvar(2)),
    ]
