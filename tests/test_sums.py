"""Constrained power sums over adjacency-constrained subsets."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cycstat import sums
from cycstat.errors import InternalConsistencyError, ResourceLimitError
from cycstat.poly import N, ONE, Poly, xvar
from cycstat.sums import constrained_subsets, constrained_sum


@cache
def binomial_poly(q: int, r: int) -> Poly:
    """binom(n - q, r) as a polynomial in n, a product of Fraction
    polynomials: the reference for the closed forms constrained_sum builds
    in integers."""
    if r == 0:
        return ONE
    return binomial_poly(q, r - 1) * ((N - Poly.const(q + r - 1)) * Fraction(1, r))

# every (k, C) with k <= 5 and C a subset of [k-1]
SHAPES = [
    (k, frozenset(C))
    for k in range(6)
    for size in range(max(k, 1))
    for C in combinations(range(1, k), size)
]


def weights(k):
    """Up to three terms with rational coefficients; each term is a product
    of at most four of x_1..x_k, so every exponent is at most 4."""
    term = st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.lists(st.integers(1, k), max_size=4) if k else st.just([]),
    )
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: sum(
            (c * Poly({tuple(xs.count(i) for i in range(1, k + 1)): 1}) for c, xs in terms),
            Poly(),
        )
    )


def direct_sum(f, n, k, C):
    return sum((f.evaluate(x) for x in constrained_subsets(n, k, C)), Fraction(0))


class TestConstrainedSubsets:
    def test_unconstrained_pairs(self):
        assert len(list(constrained_subsets(5, 2, frozenset()))) == 10

    def test_adjacent_pairs(self):
        got = list(constrained_subsets(5, 2, frozenset({1})))
        assert got == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_empty_tuple_for_k0(self):
        assert list(constrained_subsets(5, 0, frozenset())) == [()]

    def test_run_of_three(self):
        got = list(constrained_subsets(5, 3, frozenset({1, 2})))
        assert got == [(1, 2, 3), (2, 3, 4), (3, 4, 5)]


class TestConstrainedSum:
    def test_unweighted_pairs(self):
        S, fbar = constrained_sum(ONE, 2, frozenset())
        assert S == Fraction(1, 2) * (N**2 - N)
        assert fbar == ONE

    def test_adjacent_pairs(self):
        S, fbar = constrained_sum(ONE, 2, frozenset({1}))
        assert S == N - ONE
        assert fbar == ONE

    def test_linear_weight(self):
        S, fbar = constrained_sum(xvar(1), 1, frozenset())
        assert S == Fraction(1, 2) * (N**2 + N)
        assert fbar == Fraction(1, 2) * (N + ONE)

    def test_matches_direct_summation(self):
        cases = [
            (ONE, 3, frozenset({2})),
            (xvar(1) + xvar(3), 3, frozenset({1})),
            (xvar(2) ** 2, 2, frozenset({1})),
            (xvar(1) * xvar(2), 2, frozenset()),
        ]
        # the polynomial extension agrees with the combinatorial sum for
        # every n >= q = |C| (below that the vanishing binomial factor of
        # the closed form is replaced by a nonzero polynomial value)
        for f, k, C in cases:
            S, _ = constrained_sum(f, k, C)
            for n in range(len(C), k + 5):
                direct = sum(
                    (f.evaluate(combo) for combo in constrained_subsets(n, k, C)),
                    Fraction(0),
                )
                assert S.evaluate((n,)) == direct, (f, k, C, n)

    def test_binomial_certificate(self):
        # S = fbar * binom(n-q, k-q) exactly
        f = xvar(1) ** 2 + xvar(4)
        k, C = 4, frozenset({1, 3})
        S, fbar = constrained_sum(f, k, C)
        assert S == fbar * binomial_poly(len(C), k - len(C))

    def test_degree_bound(self):
        f = xvar(1) ** 3
        for C in (frozenset(), frozenset({1}), frozenset({1, 2})):
            S, fbar = constrained_sum(f, 3, C)
            assert S.total_degree() == 3 + 3 - len(C)
            assert fbar.total_degree() == 3

    def test_bad_constraints_rejected(self):
        with pytest.raises(ValueError):
            constrained_sum(ONE, 2, frozenset({5}))

    def test_zero_weight(self):
        S, fbar = constrained_sum(Poly(), 2, frozenset())
        assert S.is_zero


def test_binomial_poly_values():
    for n in range(8):
        assert binomial_poly(1, 1).evaluate((n,)) == n - 1
        assert binomial_poly(0, 2).evaluate((n,)) == n * (n - 1) // 2


def test_binomial_poly_matches_comb():
    for q in range(4):
        for r in range(13):
            for n in range(q, q + 16):
                assert binomial_poly(q, r).evaluate((n,)) == comb(n - q, r), (q, r, n)


@pytest.mark.parametrize("k, C", SHAPES, ids=[f"k{k}-C{sorted(C)}" for k, C in SHAPES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_closed_form_matches_direct_summation(k, C, data):
    # more points than determine S, starting at n = q, so n < k (an empty
    # sum) is included whenever q < k
    f = data.draw(weights(k))
    S, fbar = constrained_sum(f, k, C)
    q = len(C)
    for n in range(q, q + max(S.total_degree(), 0) + 3):
        assert S.evaluate((n,)) == direct_sum(f, n, k, C), (f, k, C, n)
    assert S == fbar * binomial_poly(q, k - q)


def reference_sum(f, k, C):
    """S as constrained_sum built it in Fractions: the coefficients over the
    basis binom(n - q, j) from the same recurrence, then each multiplied by
    binomial_poly(q, j)."""
    q = len(C)
    total = {}
    for exps, coef in f.terms.items():
        g, shift = [1], 0
        for i in range(1, k + 1):
            for _ in range(exps[i - 1] if i <= len(exps) else 0):
                g = [(j + 1 + shift) * a + j * b
                     for j, (a, b) in enumerate(zip(g + [0], [0] + g))]
            if i in C:
                shift += 1
            else:
                g = [0] + g
        for j, c in enumerate(g):
            total[j] = total.get(j, 0) + coef * c
    return sum((c * binomial_poly(q, j) for j, c in total.items() if c), Poly())


@given(data=st.data())
def test_integer_construction_matches_binomial_reference(data):
    # any k <= 6 and any C inside [k - 1]
    k = data.draw(st.integers(0, 6))
    C = frozenset(data.draw(st.sets(st.integers(1, k - 1)) if k > 1 else st.just(set())))
    f = data.draw(weights(k))
    S, _ = constrained_sum(f, k, C)
    want = reference_sum(f, k, C)
    assert S.terms == want.terms
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in S.terms.values())


def test_direct_check_is_wired(monkeypatch):
    full = sums.constrained_subsets

    def all_but_last(n, k, C):
        return list(full(n, k, C))[:-1]

    monkeypatch.setattr(sums, "constrained_subsets", all_but_last)
    constrained_sum.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="direct sum"):
            constrained_sum(xvar(1), 2, frozenset())
    finally:
        constrained_sum.cache_clear()


class TestDegreeCap:
    @pytest.fixture
    def cap(self, monkeypatch):
        # a small cap keeps the sums at it cheap; the cache is cleared so that
        # no sum computed under another cap is returned
        monkeypatch.setattr(sums, "MAX_SUM_DEGREE", 10)
        constrained_sum.cache_clear()
        yield 10
        constrained_sum.cache_clear()

    def test_at_the_cap(self, cap):
        S, _ = constrained_sum(xvar(1) ** (cap - 1), 1, frozenset())
        assert S.total_degree() == cap

    def test_one_over_the_cap(self, cap):
        with pytest.raises(ResourceLimitError):
            constrained_sum(xvar(1) ** cap, 1, frozenset())

    def test_constraints_lower_the_degree(self, cap):
        # deg f + k = cap + 2, deg S = deg f + k - q = cap
        S, _ = constrained_sum(xvar(1) ** (cap - 1), 3, frozenset({1, 2}))
        assert S.total_degree() == cap

    def test_refused_before_any_work(self):
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            constrained_sum(xvar(1) ** 99999999, 2, frozenset())
