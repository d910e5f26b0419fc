"""Constrained translates and the regular-statistic algebra."""

import random
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import perm

import pytest
from hypothesis import assume, example, given, strategies as st

from cycstat import oracle, translates
from cycstat.cli import class_moment, main
from cycstat.errors import MalformedInputError, ResourceLimitError
from cycstat.dsl import parse_statistic
from cycstat.expectation import evaluation_point
from cycstat.indicator import indicator_moment
from cycstat.oracle import partitions
from cycstat.reference import fixed_point_count
from cycstat.partial import PartialPermutation
from cycstat.patterns import exc, maj
from cycstat.poly import ONE, ZERO, Poly, mvar, xvar
from cycstat.sums import constrained_subsets, constrained_sum
from cycstat.translates import (
    ConstrainedTranslate,
    RegularStatistic,
    translate_product,
)

FIX_T = ConstrainedTranslate(PartialPermutation((1,), (1,)), frozenset(), ONE)
EXC_T = ConstrainedTranslate(PartialPermutation((1,), (2,)), frozenset(), ONE)
FIX = RegularStatistic((FIX_T,))
EXC = RegularStatistic((EXC_T,))


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


# constraints (des, N(21;A={1})), fixed-point loops (fix), two-variable
# weights (the biv), fractional coefficients, constants and squares
REFERENCE_STATISTICS = (
    "exc", "des", "maj", "inv", "fix", "cyc2", "N(123)", "N(21;A={1})",
    "biv(21;A={1};B={};f=x1^2;g=x2^2)", "biv(132;A={1};B={2};f=x1*x3;g=x2+1)",
    "exc - des", "2*exc + 1/2*fix", "3", "exc^2", "des^2", "cyc2^2", "fix^2",
)


def scanned_evaluate(t, pi):
    """A translate at pi by scanning every C-constrained m-subset of [n]."""
    total = Fraction(0)
    edges = list(zip(t.packed.positions, t.packed.values))
    for L in constrained_subsets(len(pi), t.support_size, t.constraints):
        if all(pi[L[u - 1] - 1] == L[v - 1] for u, v in edges):
            total += t.weight.evaluate(L)
    return total


@st.composite
def constrained_translates(draw):
    """A packed translate on at most five points: edges u -> target(u) of a
    random permutation on the kept points, relabelled onto their support in
    order, C a subset of [m - 1], and a weight that is an int, a non-integer
    Fraction or a polynomial (integer and fractional coefficients)."""
    k = draw(st.integers(1, 5))
    target = draw(st.permutations(range(1, k + 1)))
    kept = draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any))
    edges = [(u, target[u - 1]) for u in range(1, k + 1) if kept[u - 1]]
    rank = {p: r for r, p in enumerate(sorted({p for e in edges for p in e}), 1)}
    m = len(rank)
    C = draw(st.sets(st.integers(1, m - 1))) if m > 1 else set()
    kind = draw(st.sampled_from(["int", "fraction", "poly"]))
    if kind == "int":
        weight = Poly.const(draw(st.integers(-3, 3).filter(bool)))
    elif kind == "fraction":
        weight = Poly.const(draw(st.fractions(-3, 3, max_denominator=4).filter(
            lambda f: f.denominator != 1)))
    else:
        coefficient = st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-2, 3)])
        monomials = draw(st.lists(st.tuples(coefficient, st.integers(1, m), st.integers(1, 2)),
                                  min_size=1, max_size=3))
        weight = draw(coefficient) + sum(c * xvar(i) ** e for c, i, e in monomials)
        assume(weight.num_vars)
    packed = PartialPermutation(tuple(rank[u] for u, _ in edges), tuple(rank[v] for _, v in edges))
    return ConstrainedTranslate(packed, frozenset(C), weight)


# every step kind at once: 1 a free point with a loop, 2 free, 3 forced
# adjacent to 2, 4 the head of 2 -> 4 and 5 the tail of 5 -> 3
EVERY_STEP = (PartialPermutation((1, 2, 5), (1, 4, 3)), frozenset({2}))


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

    def test_follows_pi_from_the_free_point(self):
        # a path of four points on a 300-cycle i -> i+1: 297 runs of four
        # consecutive points, found by following pi from L_1; a scan of the
        # C(300, 4), about 330 million, subsets would not finish
        t = ConstrainedTranslate(PartialPermutation((1, 2, 3), (2, 3, 4)), frozenset(), xvar(1))
        pi = tuple(range(2, 301)) + (1,)
        assert t.evaluate(pi) == sum(range(1, 298))

    @pytest.mark.parametrize("expr", ["exc", "des", "maj", "N(123)", "2*exc + fix"])
    def test_integer_weights_evaluate_to_ints(self, expr):
        # the oracle adds these values in exact ints and divides once
        s = parse_statistic(expr)
        for pi in permutations(range(1, 6)):
            scanned = [scanned_evaluate(t, pi) for t in s.translates]
            values = [t.evaluate(pi) for t in s.translates]
            assert values == scanned and all(type(v) is int for v in values), (expr, pi)
            total = s.evaluate(pi)
            assert type(total) is int and total == sum(scanned), (expr, pi)

    def test_fractional_weights_evaluate_to_exact_fractions(self):
        # a translate's value is an int only when it is an integer; the
        # statistic's (2*exc + 3)/6 never is
        s = parse_statistic("1/3*exc + 1/2")
        for pi in permutations(range(1, 6)):
            scanned = [scanned_evaluate(t, pi) for t in s.translates]
            for t, ref in zip(s.translates, scanned):
                value = t.evaluate(pi)
                assert value == ref, (str(t), pi)
                assert type(value) is (int if ref.denominator == 1 else Fraction), (str(t), pi)
            total = s.evaluate(pi)
            assert type(total) is Fraction and total == sum(scanned), pi

    @pytest.mark.parametrize("expr,nmax", [(e, 5) for e in REFERENCE_STATISTICS] + [
        ("exc^2", 6), ("des", 6), ("biv(21;A={1};B={};f=x1^2;g=x2^2)", 6),
    ])
    def test_equals_the_subset_scan(self, expr, nmax):
        for t in parse_statistic(expr).translates:
            for n in range(nmax + 1):
                for pi in permutations(range(1, n + 1)):
                    assert t.evaluate(pi) == scanned_evaluate(t, pi), (str(t), pi)

    @given(constrained_translates())
    @example(ConstrainedTranslate(*EVERY_STEP, Poly.const(3)))
    @example(ConstrainedTranslate(*EVERY_STEP, Poly.const(Fraction(2, 3))))
    @example(ConstrainedTranslate(*EVERY_STEP, xvar(1) * xvar(3) + Fraction(1, 2)))
    @example(ConstrainedTranslate(PartialPermutation((), ()), frozenset(), Poly.const(-2)))
    def test_equals_the_subset_scan_in_value_and_type(self, t):
        for n in range(6):
            for pi in permutations(range(1, n + 1)):
                ref = scanned_evaluate(t, pi)
                value = t.evaluate(pi)
                assert value == ref, (str(t), pi)
                assert type(value) is (int if ref.denominator == 1 else Fraction), (str(t), pi)


class TestKernel:
    """The loop kernel past the interpreter's limits: nested loops, the
    indentation depth, the int-string limit, and one compile per statistic."""

    def test_more_free_points_than_nested_loops(self):
        # the translate of 21 fixed points has 21 free points; CPython nests
        # at most 20 loops in one function
        s = parse_statistic("fix^21")
        assert max(t.support_size for t in s.translates) == 21
        for n in range(6):
            for pi in permutations(range(1, n + 1)):
                assert s.evaluate(pi) == fixed_point_count(pi) ** 21, pi
        identity = tuple(range(1, 24))
        assert s.evaluate(identity) == 23**21

    def test_long_path_keeps_one_loop(self):
        # 119 forced points after one free point: the guards do not indent
        u, v = ",".join(map(str, range(1, 120))), ",".join(map(str, range(2, 121)))
        s = parse_statistic(f"T(U=({u});V=({v});C={{}};f=1)")
        cycle = tuple(range(2, 131)) + (1,)  # i -> i + 1 on [130]
        assert s.evaluate(cycle) == 11 and s.translates[0].evaluate(cycle) == 11

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 7999,
                        reason="this interpreter converts a 7999-digit int to text")
    def test_coefficient_longer_than_int_converts(self, capsys):
        # over the common denominator the coefficient of exc has 7999 digits;
        # the kernel takes it by name, and only printing the values refuses it
        ones = "1" * 4000
        assert main(["verify", f"{ones}*exc + 1/{ones}*fix", "--nmax", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "a number of 7999 digits" in err

    def test_verify_compiles_one_kernel(self, capsys, monkeypatch):
        calls = []
        compile_kernel = oracle.compile_kernel

        def counting(ts):
            calls.append(len(ts))
            return compile_kernel(ts)

        monkeypatch.setattr(oracle, "compile_kernel", counting)
        assert main(["verify", "des", "--nmax", "5", "-d", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "36/36 cells passed"
        assert calls == [len(parse_statistic("des").translates)]


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
        s = EXC - EXC
        assert s.is_zero

    @pytest.mark.parametrize("left, right", [
        ("exc", "des"), ("maj", "inv"), ("exc", "exc"), ("1/3*exc + 1/2", "2*fix"),
        ("biv(12;A={1};B={1};f=x1-x2;g=1)", "N(12)"), ("3", "0*exc"),
    ])
    def test_difference_is_sum_with_negation(self, left, right):
        a, b = parse_statistic(left), parse_statistic(right)
        assert a - b == a + (-1) * b

    def test_linear_combination_evaluation(self):
        s = 2 * EXC + Fraction(1, 2) * FIX
        w = (2, 3, 1)
        assert s.evaluate(w) == 2 * EXC_T.evaluate(w) + Fraction(1, 2) * FIX_T.evaluate(w)

    def test_constant(self):
        s = RegularStatistic.constant(Fraction(3, 2))
        assert s.evaluate((2, 1)) == Fraction(3, 2)
        assert s.moment_at((2, 1), 1) == Fraction(3, 2)

    def test_round_trip_str(self):
        from cycstat.dsl import parse_statistic

        s = 2 * EXC + FIX
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

    def test_constant_weights_multiply_as_numbers(self):
        # exc and fix side by side on [3]: 1 -> 2 and 3 -> 3
        two, three = (
            ConstrainedTranslate(t.packed, t.constraints, Poly.const(c))
            for t, c in ((EXC_T, 2), (FIX_T, 3))
        )
        half = ConstrainedTranslate(FIX_T.packed, FIX_T.constraints, Poly.const(Fraction(1, 2)))
        weighted = ConstrainedTranslate(FIX_T.packed, FIX_T.constraints, xvar(1))
        edges, C, w = translates._place(two, three, (1, 2), (3,))
        assert (edges, C, w) == ({1: 2, 3: 3}, set(), 6) and type(w) is int
        _, _, w = translates._place(three, half, (1,), (2,))
        assert w == Fraction(3, 2) and type(w) is Fraction
        _, _, w = translates._place(two, weighted, (1, 2), (3,))
        assert w == 2 * xvar(3) and type(w) is Poly
        # a statistic built from such products holds Poly weights
        prod = RegularStatistic((two, half)) * RegularStatistic((three, weighted))
        assert prod.translates and all(type(t.weight) is Poly for t in prod.translates)
        for pi in permutations(range(1, 5)):
            assert prod.evaluate(pi) == (
                (two.evaluate(pi) + half.evaluate(pi)) * (three.evaluate(pi) + weighted.evaluate(pi))
            )

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
        s = EXC + 2 * FIX

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


def fraction_class_value(sums, lam) -> Fraction:
    """E_lambda at lam by one Fraction per type, S and f each evaluated as a
    Fraction: the reference for the class values moment_at builds in ints."""
    n = sum(lam)
    point = evaluation_point(lam, max((t.size for t in sums), default=0))
    total = Fraction(0)
    for t, S in sums.items():
        m = t.support_size
        if m <= n:
            f = indicator_moment(t)
            total += S.evaluate(point) * f.evaluate(point) / perm(n, m)
    return total


CLASS_VALUES = [
    ("exc", 3), ("des", 2), ("maj", 2), ("inv", 2), ("N(12)", 2),
    ("biv(21;A={1};B={};f=x1^2;g=x2^2)", 2), ("T(U=(1,2);V=(2,1);C={};f=1/2)", 3),
]


class TestClassValue:
    @pytest.mark.parametrize("expr, dmax", CLASS_VALUES, ids=[e for e, _ in CLASS_VALUES])
    def test_ints_equal_fractions(self, expr, dmax):
        s = parse_statistic(expr)
        for d in range(1, dmax + 1):
            for n in range(1, 9):
                for lam in partitions(n):
                    value = s.moment_at(lam, d)
                    assert type(value) is Fraction
                    assert value == fraction_class_value(s.type_sums(d), lam), (d, lam)

    def test_indicator_fetched_once_per_type_and_order(self, capsys, monkeypatch):
        # exc^3 has types of up to 6 points; verify up to n = 2 fetches f
        # only for the types of at most 2 points, each once per order d
        calls = []
        original = translates.indicator_moment

        def recording(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(translates, "indicator_moment", recording)
        assert main(["verify", "exc", "--nmax", "2", "-d", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "9/9 cells passed"
        s = exc()
        fetched = [t for d in (1, 2, 3) for t in s.type_sums(d) if t.support_size <= 2]
        assert all(t.support_size <= 2 for t in calls)
        assert sorted(calls, key=str) == sorted(fetched, key=str)


class TestPowers:
    def test_each_power_built_once(self, monkeypatch):
        calls = []
        original = translates._product

        def counting(left, right):
            calls.append((left, right))
            return original(left, right)

        monkeypatch.setattr(translates, "_product", counting)
        s = exc()
        cube = s**3
        # s^2 = s * s and s^3 = s^2 * s
        assert len(calls) == 2
        calls.clear()
        assert s**3 is cube and s**1 is s
        assert not calls
        assert s**2 * s == cube

    def test_concurrent_callers_get_one_object(self):
        s = exc()
        results = _from_eight_threads(lambda: s**3)
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

    def test_type_sums_grouped_once(self, monkeypatch):
        products = []
        original = translates._product

        def counting(left, right):
            products.append(left)
            return original(left, right)

        monkeypatch.setattr(translates, "_product", counting)
        s = maj()
        for d in (1, 2):
            sums = s.type_sums(d)
            assert s.type_sums(d) is sums
            with pytest.raises(TypeError):
                sums[next(iter(sums))] = ONE
        s.moment(2)
        s.moment_at((3, 1), 2)
        # maj's own translates are grouped, and maj * maj is streamed once;
        # no power is built
        assert products == [s]

    def test_product_over_the_placement_cap(self, monkeypatch):
        # exc^2 * exc tries 161 placements
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 161)
        assert (exc() ** 2 * exc()).translates
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 160)
        with pytest.raises(ResourceLimitError, match="161 placements"):
            exc() ** 2 * exc()

    def test_streamed_product_over_the_placement_cap(self, monkeypatch):
        # exc^3 streams exc^2 * exc: the same 161 placements, the same message
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 161)
        assert exc().type_sums(3)
        monkeypatch.setattr(translates, "MAX_PLACEMENTS", 160)
        with pytest.raises(ResourceLimitError, match="161 placements"):
            exc().type_sums(3)

    def test_concurrent_callers_get_one_grouping(self):
        s = exc()
        results = _from_eight_threads(lambda: s.type_sums(3))
        assert all(r is results[0] for r in results)
        assert results[0] == _grouped(exc() ** 3)

    def test_exponent_cap(self):
        two = RegularStatistic.constant(2)
        cap = translates.MAX_EXPONENT
        assert two**cap == RegularStatistic.constant(2**cap)
        with pytest.raises(ResourceLimitError):
            two ** (cap + 1)


def _from_eight_threads(call):
    """call() from eight threads released together, switching as often as
    the interpreter allows; their results."""
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def run(i):
        barrier.wait()
        results[i] = call()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
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
    return results


def _grouped(power):
    """type_sums grouped from the built power: one constrained sum per
    translate, added up per type in the order of the translates."""
    out = {}
    for t in power.translates:
        S, _ = constrained_sum(t.weight, t.support_size, t.constraints)
        key = t.packed.cycle_path_type()
        out[key] = out.get(key, ZERO) + S
    return out


# the weights of a product are ints where both factors' weights are
# integer constants, Fractions where one is not an integer (2*exc + 1/2*fix),
# and Polys where one is a polynomial; maj - inv and exc + biv(...) mix
# constant and polynomial weights, and the constant weights of exc - des
# cancel in a type's sum
STREAMED = [("exc", d) for d in (1, 2, 3, 4)] + [
    (expr, d)
    for expr in (
        "des", "maj", "inv", "N(12)", "N(21;A={1})", "exc - des", "maj - inv",
        "N(12) - N(21)", "2*exc + 1/2*fix", "3", "0",
        "biv(1;A={};B={};f=x1^6;g=1)", "biv(21;A={1};B={};f=x1^2;g=x2^2)",
        "exc + biv(21;A={1};B={};f=x1^2;g=x2^2)",
    )
    for d in (1, 2)
] + [("cyc2 - fix", 3), ("2*exc + 1/2*fix", 3)]
# the cases with a type whose sum cancels to zero
CANCELLING = {
    ("exc - des", 2), ("maj - inv", 1), ("maj - inv", 2), ("N(12) - N(21)", 1), ("N(12) - N(21)", 2),
}


class TestTypeSums:
    @pytest.mark.parametrize("expr, d", STREAMED, ids=[f"{e} d={d}" for e, d in STREAMED])
    def test_streamed_equals_grouped_power(self, expr, d):
        s = parse_statistic(expr)
        streamed = s.type_sums(d)
        grouped = _grouped(s**d)
        # the same keys in the same order, a type whose sum cancels included
        assert list(streamed) == list(grouped)
        assert dict(streamed) == grouped
        assert any(S.is_zero for S in streamed.values()) == ((expr, d) in CANCELLING)

    def test_bad_placement_raises_as_when_built(self, monkeypatch):
        # a placement off its union [r] fails the translate checks in both paths
        place = translates._place

        def shifted(*args):
            placed = place(*args)
            if placed is None:
                return None
            edges, C, w = placed
            return {u + 1: v + 1 for u, v in edges.items()}, C, w

        monkeypatch.setattr(translates, "_place", shifted)
        for build in (lambda: exc() ** 2, lambda: exc().type_sums(2)):
            with pytest.raises(MalformedInputError, match="is not packed"):
                build()

    @pytest.mark.parametrize("corrupt, message", [
        # a constraint on the last point of [r], which has no successor
        (lambda edges, C, w, r: (edges, C | {r}, w), "not inside"),
        # a weight in a variable past [r]
        (lambda edges, C, w, r: (edges, C, w * xvar(r + 1)), "but the support is"),
    ], ids=["constraint", "weight"])
    def test_bad_key_raises_as_when_built(self, monkeypatch, corrupt, message):
        # the keys of a streamed product pass the checks a translate makes
        place = translates._place

        def corrupted(*args):
            placed = place(*args)
            if placed is None:
                return None
            edges, C, w = placed
            return corrupt(edges, C, w, len(set(edges) | set(edges.values())))

        monkeypatch.setattr(translates, "_place", corrupted)
        for build in (lambda: exc() ** 2, lambda: exc().type_sums(2)):
            with pytest.raises(MalformedInputError, match=message):
                build()

    def test_bad_order(self):
        with pytest.raises(ValueError):
            exc().type_sums(0)
        with pytest.raises(ResourceLimitError):
            RegularStatistic.constant(2).type_sums(translates.MAX_EXPONENT + 1)


def _small_translates():
    return [
        FIX_T,
        EXC_T,
        ConstrainedTranslate(PartialPermutation((1, 2), (2, 1)), frozenset(), ONE),
        ConstrainedTranslate(PartialPermutation((1, 2), (2, 3)), frozenset({1}), ONE),
        ConstrainedTranslate(PartialPermutation((2,), (1,)), frozenset({1}), xvar(1)),
        ConstrainedTranslate(PartialPermutation((1, 3), (3, 2)), frozenset(), xvar(2)),
    ]
