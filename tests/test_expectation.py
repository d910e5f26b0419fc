"""Rational expectations: falling-factorial denominators and evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycstat.errors import DegenerateEvaluationError, InternalConsistencyError
from cycstat.expectation import RationalExpectation, evaluation_point
from cycstat.poly import N, ONE, divide_exact_in_n, falling_factorial_poly, mvar


class TestEvaluationPoint:
    def test_point(self):
        assert evaluation_point((2, 1)) == [3, 1, 1, 0]


class TestArithmetic:
    def test_fixed_point_probability(self):
        e = RationalExpectation(mvar(1), (1,))
        assert e.evaluate_at((2, 1)) == Fraction(1, 3)

    def test_three_cycle_pair(self):
        # over a 3-cycle, ordered pairs a != b with pi(a) = b number 3,
        # against (3)_2 = 6
        e = RationalExpectation(N - mvar(1), (2,))
        assert e.evaluate_at((3,)) == Fraction(1, 2)

    def test_additive_cancellation(self):
        e = RationalExpectation(N - mvar(1), (2,))
        z = e + (-e)
        assert z.num.is_zero and z.den == ()

    def test_common_denominator_addition(self):
        a = RationalExpectation(ONE, (1,))       # 1/n
        b = RationalExpectation(ONE, (2,))       # 1/(n(n-1))
        total = a + b
        assert total.evaluate_at((4,)) == Fraction(1, 4) + Fraction(1, 12)

    def test_multiplication(self):
        a = RationalExpectation(mvar(1), (1,))
        b = RationalExpectation(N, (2,))
        prod = a * b
        assert prod.evaluate_at((2, 1, 1)) == (
            a.evaluate_at((2, 1, 1)) * b.evaluate_at((2, 1, 1))
        )


class TestNormalization:
    def test_exact_factor_removed(self):
        e = RationalExpectation(falling_factorial_poly(2) * mvar(1), (2, 1))
        norm = e.normalized()
        assert norm.num == mvar(1)
        assert norm.den == (1,)

    def test_normal_when_built(self):
        e = RationalExpectation(falling_factorial_poly(2) * mvar(1), (2, 1))
        assert e.num == mvar(1)
        assert e.den == (1,)
        assert e.normalized() is e

    def test_clear_falling(self):
        e = RationalExpectation(N - mvar(1), (1,))
        cleared = e.clear_falling(1)
        assert cleared == N - mvar(1)

    def test_clear_falling_failure_raises(self):
        e = RationalExpectation(ONE, (2,))
        with pytest.raises(InternalConsistencyError):
            e.clear_falling(1)


def _normal_form_by_restart(num, den):
    """The normal form by the first scan: each (n)_a of den, largest first,
    divided out when it divides, and the scan restarted after every
    division."""
    remaining = [] if num.is_zero else sorted((a for a in den if a), reverse=True)
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(remaining):
            quo = divide_exact_in_n(num, range(a))
            if quo is not None:
                num = quo
                del remaining[i]
                changed = True
                break
    return num, tuple(remaining)


@given(
    st.lists(st.integers(0, 4), max_size=3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.lists(st.integers(0, 5), max_size=4),
)
def test_one_pass_normal_form_matches_the_restarting_scan(fallings, roots, c, den):
    # (n)_a and n - r factors, so an (n)_b of den may divide only in part,
    # and c = 0 gives the zero numerator
    num = c * (N + mvar(1) + ONE)
    for a in fallings:
        num = num * falling_factorial_poly(a)
    for r in roots:
        num = num * (N - r)
    e = RationalExpectation(num, tuple(den))
    assert (e.num, e.den) == _normal_form_by_restart(num, den)


class TestDegenerate:
    def test_small_n_raises(self):
        e = RationalExpectation(ONE, (3,))
        with pytest.raises(DegenerateEvaluationError):
            e.evaluate_at((2,))


class TestRendering:
    def test_str(self):
        e = RationalExpectation(Fraction(1, 2) * (N - mvar(1)), ())
        assert str(e) == "(n - m1) / 2"

    def test_str_with_falling(self):
        e = RationalExpectation(mvar(1), (1,))
        assert str(e) == "m1 / (n)_1"


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_scalar_multiplication_commutes_with_evaluation(lam, c):
    lam = tuple(sorted(lam, reverse=True))
    e = RationalExpectation(N - mvar(1) + mvar(2), (1,))
    assert (e * c).evaluate_at(lam) == c * e.evaluate_at(lam)
