"""The leading-degree ratio, scaled mean limits and variance limits."""

from fractions import Fraction

import pytest

from cycstat.asymptotics import alpha_limit, limit_ratio, variance_limit
from cycstat.errors import DivergenceError
from cycstat.expectation import RationalExpectation
from cycstat.patterns import cyc2, des, exc, fix, pattern_count
from cycstat.poly import N, ONE, Poly, mvar
from cycstat.translates import RegularStatistic

ALPHA = Poly.variable(0)
BETA = Poly.variable(1)


class TestLimitRatio:
    def test_mean_scaling(self):
        # (n - m1) / (n)_1 with m1 = alpha*n tends to 1 - alpha
        e = RationalExpectation(N - mvar(1), (1,))
        assert limit_ratio(e, 0) == ONE - ALPHA

    def test_two_cycle_density(self):
        # m2 / (n)_1 with m2 = beta*n tends to beta
        e = RationalExpectation(mvar(2), (1,))
        assert limit_ratio(e, 0) == BETA

    def test_degree_drop_gives_zero(self):
        e = RationalExpectation(mvar(2), (2,))
        assert limit_ratio(e, 0).is_zero

    def test_divergence_detected(self):
        e = RationalExpectation(N**3, (1,))
        with pytest.raises(DivergenceError):
            limit_ratio(e, 1)

    def test_higher_m_variables_dropped(self):
        # m3 = o(n^3) along the limiting sequences, so it contributes 0
        e = RationalExpectation(mvar(3), (2,))
        assert limit_ratio(e, 1).is_zero


class TestAlphaLimit:
    def test_excedance(self):
        assert alpha_limit(exc()) == Fraction(1, 2) * (ONE - ALPHA)

    def test_constant(self):
        assert alpha_limit(RegularStatistic.constant(5)) == Poly.const(5)

    def test_two_cycle_statistic_vanishes(self):
        # m2 <= n/2 makes m2/n^2 -> 0
        assert alpha_limit(cyc2()).is_zero

    def test_descents(self):
        # des mean is (n - 1)/2 on fixed-point-free classes and ~(1-alpha^2)n/2
        # in general; value 0 at alpha = 1 (identity-like classes)
        f = alpha_limit(des())
        assert f.evaluate((Fraction(1),)) == 0
        assert f.evaluate((Fraction(0),)) == Fraction(1, 2)

    def test_degree_bound(self):
        # the leading layer has graded degree p + q, so its pure-alpha part
        # has alpha-degree at most p + q
        for stat in (exc(), des(), pattern_count((1, 2))):
            f = alpha_limit(stat)
            assert f.total_degree() <= stat.power + stat.shift

    def test_increasing_pair_pattern_normalization(self):
        # fixed-point-free limit: one occurrence per pair of positions on
        # average over uniform-like classes, scaled by n^2 -> 1/4
        f = alpha_limit(pattern_count((1, 2)))
        assert f.evaluate((Fraction(0),)) == Fraction(1, 4)


class TestVarianceLimit:
    def test_excedance(self):
        v1, v2 = variance_limit(exc())
        assert v1 == Fraction(1, 12) * (ONE - ALPHA)
        assert v2 == Poly.const(Fraction(-1, 6))

    def test_constant_statistic(self):
        v1, v2 = variance_limit(RegularStatistic.constant(5))
        assert v1.is_zero and v2.is_zero

    def test_class_function_has_zero_variance(self):
        v1, v2 = variance_limit(fix())
        assert v1.is_zero and v2.is_zero

    def test_descents_nonzero(self):
        v1, v2 = variance_limit(des())
        assert v1.evaluate((Fraction(0),)) == Fraction(1, 12)
