"""Sparse exact polynomials: arithmetic, grading, serialization."""

import json
import sys
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, strategies as st

from cycstat.errors import ResourceLimitError
from cycstat.poly import (
    N,
    NEG_INF,
    ONE,
    Poly,
    ZERO,
    decimal,
    divide_exact_in_n,
    falling_factorial_poly,
    integerize,
    mvar,
    to_json_dict,
    to_text,
    xvar,
)


def poly_strategy(max_vars=3, max_terms=4):
    coef = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    exps = st.lists(st.integers(0, 3), min_size=0, max_size=max_vars).map(tuple)
    return st.dictionaries(exps, coef, max_size=max_terms).map(Poly)


values_strategy = st.lists(
    st.integers(-4, 4), min_size=4, max_size=4
)


class TestArithmetic:
    def test_cancellation(self):
        assert (N - mvar(1)) + mvar(1) == N

    def test_zero_degree_sentinel(self):
        assert ZERO.total_degree() == NEG_INF
        assert ZERO.graded_degree() == NEG_INF

    def test_graded_degree_weights_m_i_by_i(self):
        assert (N * mvar(2)).graded_degree() == 3
        assert (mvar(1) ** 2 - 2 * N * mvar(2)).graded_degree() == 3

    def test_pow(self):
        assert (N + ONE) ** 3 == N**3 + 3 * N**2 + 3 * N + ONE

    @pytest.mark.parametrize("base", [
        N + ONE,
        xvar(1) + xvar(2) + xvar(3) + xvar(4),
        Fraction(1, 2) * mvar(1) ** 2 - 3 * N * mvar(2) + ONE,
        Fraction(-2, 3) * xvar(2) ** 3,
        Poly.const(Fraction(3, 2)),
        ZERO,
    ])
    def test_pow_is_the_repeated_product(self, base):
        product = ONE
        for k in range(13):
            assert base**k == product
            product = product * base

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            (N + ONE) ** (-1)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(poly_strategy(), poly_strategy(), values_strategy)
def test_evaluate_is_ring_homomorphism(a, b, vals):
    assert (a + b).evaluate(vals) == a.evaluate(vals) + b.evaluate(vals)
    assert (a * b).evaluate(vals) == a.evaluate(vals) * b.evaluate(vals)


@given(poly_strategy(), poly_strategy())
def test_graded_degree_multiplicative(a, b):
    # exact rational coefficients form an integral domain
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).graded_degree() == a.graded_degree() + b.graded_degree()


@given(
    poly_strategy(max_vars=4),
    st.lists(st.lists(st.integers(-4, 9), max_size=4).map(tuple), max_size=6),
)
def test_sum_over_is_the_sum_of_evaluations(p, points):
    # points of every length up to 4, so some are shorter than num_vars
    assert p.sum_over(points) == sum((p.evaluate(x) for x in points), Fraction(0))


def _evaluate_term_by_term(p, values):
    """Each monomial as a Fraction, a variable past the point read as 0."""
    total = Fraction(0)
    for exps, coef in p.terms.items():
        term = Fraction(coef)
        for i, e in enumerate(exps):
            term *= Fraction(values[i] if i < len(values) else 0) ** e
        total += term
    return total


@given(
    poly_strategy(max_vars=4),
    st.lists(
        st.integers(-4, 9) | st.fractions(min_value=-3, max_value=3, max_denominator=5),
        max_size=4,
    ),
)
def test_evaluate_matches_term_by_term(p, values):
    # int and Fraction points of every length up to 4, some too short
    assert p.evaluate(values) == _evaluate_term_by_term(p, values)
    assert p.evaluate(tuple(values)) == _evaluate_term_by_term(p, values)


class TestEvaluate:
    def test_zero_polynomial(self):
        assert ZERO.evaluate((3, 4)) == 0 and ZERO.evaluate(()) == 0
        assert isinstance(ZERO.evaluate((3,)), Fraction)

    def test_short_point_reads_zero(self):
        p = Poly({(1,): 2, (0, 0, 1): 5, (): Fraction(1, 3)})
        assert p.evaluate((4,)) == 8 + Fraction(1, 3)
        assert p.evaluate(()) == Fraction(1, 3)

    def test_fraction_point(self):
        p = Poly({(2, 1): Fraction(3, 2), (): -1})
        assert p.evaluate((Fraction(1, 2), Fraction(2, 3))) == Fraction(-3, 4)


class TestSumOver:
    def test_empty_list(self):
        assert xvar(1).sum_over([]) == 0 and Poly.const(3).sum_over(iter(())) == 0

    def test_constant_and_zero(self):
        assert Poly.const(Fraction(3, 2)).sum_over([(), (1,), (4, 5)]) == Fraction(9, 2)
        assert ZERO.sum_over([(1, 2), (3, 4)]) == 0

    def test_short_points_count_missing_values_as_zero(self):
        p = xvar(1) * xvar(3) + Fraction(1, 3) * xvar(1) + 2
        # (2,): x1 = 2, x3 missing; (2, 5, 7): all three present
        assert p.sum_over([(2,), (2, 5, 7)]) == (Fraction(2, 3) + 2) + (14 + Fraction(2, 3) + 2)

    def test_returns_a_fraction(self):
        assert isinstance(xvar(1).sum_over([(1,), (2,)]), Fraction)


@given(poly_strategy(), st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_relabel_is_substitution_by_variables(p, index, vals):
    # any injective map, order-preserving or not: variable i of p reads the
    # value of variable index[i]
    assert p.relabel(index).evaluate(vals) == p.evaluate([vals[j] for j in index])


class TestFallingFactorials:
    def test_poly_matches_value(self):
        for a in range(5):
            for n in range(8):
                assert falling_factorial_poly(a).evaluate((n,)) == perm(n, a)
                for start in range(1, n + 1):
                    assert falling_factorial_poly(a, start).evaluate((n,)) == perm(n - start, a)

    def test_division(self):
        num = falling_factorial_poly(3) * (N - mvar(1))
        assert divide_exact_in_n(num, range(3)) == N - mvar(1)

    def test_division_with_remainder_is_none(self):
        assert divide_exact_in_n(N + ONE, range(2)) is None


@given(poly_strategy(), st.lists(st.integers(-3, 5), min_size=1, max_size=4))
def test_division_by_linear_factors(p, roots):
    # repeated roots too; p * prod + 1 is 1 at the first root, so not divisible
    product = p
    for r in roots:
        product = product * (N - r)
    assert divide_exact_in_n(product, roots) == p
    assert divide_exact_in_n(product + ONE, roots) is None


class TestRendering:
    def test_canonical_text(self):
        p = Fraction(1, 12) * N - Fraction(1, 12) * mvar(1) - Fraction(1, 6) * mvar(2)
        assert to_text(p) == "1/12*n - 1/12*m1 - 1/6*m2"

    def test_zero(self):
        assert to_text(ZERO) == "0"

    def test_json_round_trip(self):
        # a --cache entry is this form after a json round trip
        p = N**2 * mvar(3) - Fraction(5, 7) * mvar(1)
        data = {"terms": [{"coef": "-5/7", "exps": {"m1": 1}},
                          {"coef": "1", "exps": {"n": 2, "m3": 1}}]}
        assert to_json_dict(p) == data
        assert json.loads(json.dumps(to_json_dict(p))) == data

    def test_weight_universe(self):
        assert to_text(xvar(1) * xvar(2), "weight") == "x1*x2"

    def test_decimal_is_str(self):
        for c in (0, -7, 10**40, Fraction(-3, 4), Fraction(1, 10**40)):
            assert decimal(c) == str(c)

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="this interpreter converts a 5000-digit int to text")
    @pytest.mark.parametrize("c, digits", [
        (10**4999, 5000), (-(10**5000 - 1), 5000), (Fraction(1, 3 * 10**5000), 5001),
    ], ids=["power-of-ten", "all-nines", "denominator"])
    def test_number_longer_than_int_converts(self, c, digits):
        for render in (decimal, lambda c: to_text(c * N), lambda c: to_json_dict(c * N)):
            with pytest.raises(ResourceLimitError, match=f"a number of {digits} digits"):
                render(c)

    def test_integerize(self):
        p = Fraction(1, 2) * N - Fraction(1, 3) * mvar(1)
        intp, d = integerize(p)
        assert d == 6
        assert intp == 3 * N - 2 * mvar(1)


def _keeps_the_rule(p: Poly) -> bool:
    """Every coefficient is an int exactly when its denominator is 1, and a
    Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())


@given(poly_strategy(), poly_strategy())
def test_integer_coefficients_are_ints(a, b):
    # poly_strategy hands Poly Fractions, integral ones among them
    f3 = falling_factorial_poly(3)
    quotient = divide_exact_in_n(a * f3, range(3))
    assert quotient == a
    for p in [a, a + b, a - b, a * b, a**2, quotient, integerize(a)[0]]:
        assert _keeps_the_rule(p)


def test_int_and_fraction_coefficients_agree():
    assert Poly({(): 2}) == Poly({(): Fraction(2)})
    assert hash(Poly({(): 2})) == hash(Poly({(): Fraction(2)}))


# -- the integer kernels against Fraction-only references ------------------

def _lower(c):
    return c.numerator if c.denominator == 1 else c


def _fraction_mul(a: Poly, b: Poly) -> Poly:
    """a * b added term by term in Fractions, the kernel before it ran in
    ints over one common denominator."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            width = max(len(e1), len(e2))
            key = tuple(x + y for x, y in zip(e1 + (0,) * (width - len(e1)),
                                              e2 + (0,) * (width - len(e2))))
            val = _lower(Fraction(out.get(key, 0)) + c1 * c2)
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return Poly(out)


def _fraction_divide(num: Poly, roots):
    """num / prod (n - r) by synthetic division in Fractions, or None."""
    columns = {}
    for exps, coef in num.terms.items():
        col = columns.setdefault(exps[1:], [])
        d = exps[0] if exps else 0
        col += [Fraction(0)] * (d + 1 - len(col))
        col[d] = Fraction(coef)
    out = {}
    for rest, col in columns.items():
        for r in roots:
            for d in range(len(col) - 2, -1, -1):
                col[d] += r * col[d + 1]
            if col[0]:
                return None
            del col[0]
        out.update({(d,) + rest: c for d, c in enumerate(col) if c})
    return Poly(out)


def mixed_poly_strategy(max_vars=3, max_terms=5):
    """Sparse polynomials whose coefficients are ints and Fractions, some of
    the Fractions integral."""
    coef = st.integers(-6, 6) | st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exps = st.lists(st.integers(0, 3), max_size=max_vars).map(tuple)
    return st.dictionaries(exps, coef, max_size=max_terms).map(Poly)


def _same(p: Poly, q: Poly) -> bool:
    """The same terms, each coefficient of the same type."""
    return p.terms == q.terms and all(type(c) is type(q.terms[e]) for e, c in p.terms.items())


@given(mixed_poly_strategy(), mixed_poly_strategy())
def test_product_matches_fraction_reference(a, b):
    # (a + b) * (a - b) cancels its cross terms, and a * -a cancels nothing
    for x, y in [(a, b), (a + b, a - b), (a, -a), (a, ZERO), (b, Poly.const(Fraction(3, 2)))]:
        got = x * y
        assert _same(got, _fraction_mul(x, y)), (x, y)
        assert _keeps_the_rule(got)
    assert (a + b) * (a - b) == _fraction_mul(a, a) - _fraction_mul(b, b)


@given(mixed_poly_strategy(), st.lists(st.integers(-3, 5), max_size=4),
       st.integers(-6, 6) | st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_division_matches_fraction_reference(p, roots, c):
    # a multiple of the roots' product, the same plus a constant (a
    # remainder unless c is 0 or no root is given), and p itself
    product = p
    for r in roots:
        product = _fraction_mul(product, N - r)
    for num in (product, product + c, p):
        got, want = divide_exact_in_n(num, roots), _fraction_divide(num, roots)
        assert (got is None) == (want is None), (num, roots)
        if got is not None:
            assert _same(got, want)
            assert _keeps_the_rule(got)
    assert _same(divide_exact_in_n(product, roots), p)
