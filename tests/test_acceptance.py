"""End-to-end acceptance gate.

Each test certifies one headline guarantee of the engine against closed
forms, hand counts, or the brute-force oracle, with zero numerical
tolerance, and prints a single PASS line with its runtime.  Stated budgets
are wall-clock upper bounds on the shared CI hardware.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from cycstat.asymptotics import alpha_limit, variance_limit
from cycstat.cli import main as cli_main
from cycstat.expectation import evaluation_point
from cycstat.indicator import c_poly, indicator_moment
from cycstat.oracle import (
    class_moment,
    compatible_function_count,
    descent_count,
    excedance_count,
    injection_count,
    major_index,
    partitions,
)
from cycstat.partial import PartialPermutation
from cycstat.patterns import des, exc, maj, pattern_count
from cycstat.poly import ONE, Poly, mvar, N, xvar
from cycstat.translates import ConstrainedTranslate, translate_product

from conftest import all_cycle_path_types

ALPHA = Poly.variable(0)


def _report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"PASS {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget"


def test_01_excedance_closed_forms(capsys):
    """Mean (n - m1)/2 and variance (n - m1 - 2*m2)/12, exactly, and
    oracle-equal evaluations for every class with n <= 7.  Budget 10s."""
    t0 = time.monotonic()
    s = exc()
    mean = s.moment(1)
    assert mean.normalized().num == Fraction(1, 2) * (N - mvar(1))
    assert mean.normalized().den == ()
    var = s.variance().normalized()
    assert var.num == Fraction(1, 12) * (N - mvar(1) - 2 * mvar(2))
    assert var.den == ()
    for n in range(1, 8):
        for lam in partitions(n):
            assert s.moment_at(lam, 1) == class_moment(excedance_count, lam, 1)
            assert s.moment_at(lam, 2) == class_moment(excedance_count, lam, 2)
    with capsys.disabled():
        _report("excedance closed forms + oracle grid", t0, 10)


def test_02_indicator_polynomials_match_injection_counts(capsys):
    """For every cycle-path type of size k <= 4 (37 of them, enumerated
    programmatically) and every class with n <= 7, the indicator polynomial
    equals the brute-force count of compatible injections; its graded degree
    is exactly k.  Budget 120s."""
    t0 = time.monotonic()
    types = all_cycle_path_types(4)
    assert len(types) == 37
    grid = [(lam, evaluation_point(lam)) for n in range(1, 8) for lam in partitions(n)]
    for t in types:
        poly = indicator_moment(t)
        assert poly.graded_degree() == t.size, t.key
        rep = t.representative()
        for lam, pt in grid:
            assert poly.evaluate(pt) == injection_count(rep, lam), (
                t.key,
                lam,
            )
    with capsys.disabled():
        _report("indicator polynomials vs injection counts (37 types)", t0, 120)


def test_03_compatible_function_counts(capsys):
    """The closed-form product for compatible-function counts equals brute
    force on the same grid."""
    t0 = time.monotonic()
    grid = [(lam, evaluation_point(lam)) for n in range(1, 8) for lam in partitions(n)]
    for t in all_cycle_path_types(4):
        poly = c_poly(t)
        rep = t.representative()
        for lam, pt in grid:
            assert poly.evaluate(pt) == compatible_function_count(rep, lam), (
                t.key,
                lam,
            )
    with capsys.disabled():
        _report("compatible-function closed form vs brute force", t0, 120)


def test_04_major_index_consistency(capsys):
    """The eight-translate expansion of maj equals the definitional major
    index on all of S_6; class moments match the oracle for n <= 6 and
    d <= 2; the uniform mean is n(n-1)/4 for n <= 6."""
    t0 = time.monotonic()
    s = maj()
    assert len(s.translates) == 8
    for w in permutations(range(1, 7)):
        assert s.evaluate(w) == major_index(w)
    assert cli_main(["verify", "maj", "--nmax", "6", "-d", "2"]) == 0
    uniform = s.uniform_moment(1).normalized()
    assert uniform.num == Fraction(1, 4) * (N**2 - N)
    assert uniform.den == ()
    for n in range(1, 7):
        total = sum(major_index(w) for w in permutations(range(1, n + 1)))
        count = 1
        for i in range(2, n + 1):
            count *= i
        assert uniform.evaluate_at((1,) * n) == Fraction(total, count)
    with capsys.disabled():
        _report("major index: pointwise, class moments, uniform mean", t0, 120)


def test_05_product_soundness(capsys):
    """50 random pairs of translates with supports <= 3: the expanded
    product evaluates pointwise equal to the product of values on all of
    S_5, and size/shift/power are subadditive."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    pool = _translate_pool()
    s5 = list(permutations(range(1, 6)))
    for _ in range(50):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        prod = translate_product(t1, t2)
        assert prod.size <= t1.size + t2.size
        assert prod.shift <= t1.shift + t2.shift
        assert prod.power <= t1.power + t2.power
        for w in s5:
            assert prod.evaluate(w) == t1.evaluate(w) * t2.evaluate(w), (t1, t2)
    with capsys.disabled():
        _report("translate products: 50 random pairs pointwise on S_5", t0, 120)


def test_06_moment_degree_bounds(capsys):
    """Every computed class moment keeps (n)_{dq} * E[Psi^d] polynomial of
    graded degree <= d(p+q), and every uniform moment obeys the same bound
    in n; the in-operation assertions never fire across the builtin grid."""
    t0 = time.monotonic()
    stats = [exc(), des(), maj(), pattern_count((1, 2))]
    for s in stats:
        for d in (1, 2):
            cleared = s.moment(d).clear_falling(d * s.shift)
            assert cleared.graded_degree() <= d * (s.power + s.shift)
            uniform = s.uniform_moment(d).clear_falling(d * s.shift)
            assert uniform.graded_degree() <= d * (s.power + s.shift)
    with capsys.disabled():
        _report("moment degree bounds (class and uniform)", t0, 120)


def test_07_top_degree_monomial_structure(capsys):
    """Every top-degree monomial of every indicator polynomial with k <= 4
    has n- and m1-exponents a0, a1 with a1 >= m1(mu) and
    a0 + a1 <= m1(mu) + m1(nu): top-degree n/m1 factors come only from
    1-cycles and 1-paths."""
    t0 = time.monotonic()
    for t in all_cycle_path_types(4):
        poly = indicator_moment(t)
        k = t.size
        ones_mu = sum(1 for c in t.cycles if c == 1)
        ones_nu = sum(1 for p in t.paths if p == 1)
        for exps, coef in poly.terms.items():
            degree = sum(e * max(i, 1) for i, e in enumerate(exps))
            if degree != k:
                continue
            a0 = exps[0] if exps else 0
            a1 = exps[1] if len(exps) > 1 else 0
            assert a1 >= ones_mu, (t.key, exps)
            assert a0 + a1 <= ones_mu + ones_nu, (t.key, exps)
    with capsys.disabled():
        _report("top-degree monomial structure of indicators", t0, 120)


def test_08_variance_limit_structure(capsys):
    """For exc, des, N(12), N(21): the variance limit exists at scale
    n^{2p-1} (the m1^{2p} top coefficient cancels), is linear in beta, and
    for exc equals ((1-alpha)/12, -1/6) with the beta-coefficient sign fixed
    by oracle evaluation.  Budget 60s per statistic."""
    t0 = time.monotonic()
    for s in (exc(), des(), pattern_count((1, 2)), pattern_count((2, 1))):
        started = time.monotonic()
        v1, v2 = variance_limit(s)  # raises if structure fails
        assert time.monotonic() - started < 60
    v1, v2 = variance_limit(exc())
    assert v1 == Fraction(1, 12) * (ONE - ALPHA)
    assert v2 == Poly.const(Fraction(-1, 6))
    # the sign of the beta-coefficient, decided by brute force: compare the
    # exact class variance on (2,2,1) (beta = 2/5) with (1,1,1,1,1)
    s = exc()
    assert class_moment(excedance_count, (2, 2, 1), 2) - class_moment(
        excedance_count, (2, 2, 1), 1
    ) ** 2 == s.variance_at((2, 2, 1))
    assert s.variance_at((2, 2, 1)) < s.variance_at((5,))
    with capsys.disabled():
        _report("variance limits: structure for exc/des/N(12)/N(21)", t0, 240)


def test_09_long_cycle_moment_identity(capsys):
    """Moments of a size-k statistic depend only on m_1..m_{kd}, so classes
    with every cycle longer than kd agree with the single long cycle: for
    exc (kd = 2) lambda=(7) vs (4,3); for des at d=2 (kd = 4) lambda=(11)
    vs (6,5)."""
    t0 = time.monotonic()
    s = exc()
    for d in (1, 2):
        assert s.moment_at((7,), d) == s.moment_at((4, 3), d)
        assert s.moment_at((7,), d) == class_moment(excedance_count, (7,), d)
    s = des()
    assert s.moment_at((7,), 1) == s.moment_at((4, 3), 1)
    assert s.moment_at((7,), 1) == class_moment(descent_count, (7,), 1)
    assert s.moment_at((11,), 2) == s.moment_at((6, 5), 2)
    assert s.moment_at((7,), 2) == class_moment(descent_count, (7,), 2)
    with capsys.disabled():
        _report("long-cycle moment identity (exc, des)", t0, 120)


def test_10_quasirandom_normalization(capsys):
    """Scaled pattern densities on fixed-point-light classes: the limit of
    N(12)/n^2 at alpha=0 is 1/4 = 1/(2!*2!), and for every pattern sigma of
    length 3 the limit of N(sigma)/n^3 at alpha=0 is 1/36 = 1/(3!*3!)."""
    t0 = time.monotonic()
    f12 = alpha_limit(pattern_count((1, 2)))
    assert f12.evaluate((Fraction(0),)) == Fraction(1, 4)
    for sigma in permutations((1, 2, 3)):
        f = alpha_limit(pattern_count(sigma))
        assert f.evaluate((Fraction(0),)) == Fraction(1, 36), sigma
    with capsys.disabled():
        _report("quasirandom pattern-density normalization", t0, 240)


def test_11_bivincular_descents(capsys):
    """des built as the bivincular pattern 21 with adjacent positions:
    pointwise equal to the definition on S_6 and class means equal to the
    oracle for all classes with n <= 7."""
    t0 = time.monotonic()
    from cycstat.dsl import parse_statistic

    s = parse_statistic("biv(21;A={1};B={};f=1;g=1)")
    for w in permutations(range(1, 7)):
        assert s.evaluate(w) == descent_count(w)
    for n in range(1, 8):
        for lam in partitions(n):
            assert s.moment_at(lam, 1) == class_moment(descent_count, lam, 1)
    with capsys.disabled():
        _report("bivincular compilation of descents", t0, 120)


def _translate_pool():
    packs = [
        PartialPermutation((1,), (1,)),
        PartialPermutation((1,), (2,)),
        PartialPermutation((2,), (1,)),
        PartialPermutation((1, 2), (2, 1)),
        PartialPermutation((1, 2), (2, 3)),
        PartialPermutation((1, 3), (3, 2)),
        PartialPermutation((2, 3), (1, 2)),
        PartialPermutation((1, 2, 3), (2, 3, 1)),
        PartialPermutation((1, 2, 3), (3, 1, 2)),
    ]
    weights = [ONE, xvar(1), xvar(1) + xvar(2), 2 * ONE]
    out = []
    for p in packs:
        m = len(p.support)
        for C in [frozenset(), frozenset({1}), frozenset({1, 2})]:
            if not C <= set(range(1, m)):
                continue
            for w in weights:
                if w.num_vars > m:
                    continue
                out.append(ConstrainedTranslate(p, C, w))
    return out
