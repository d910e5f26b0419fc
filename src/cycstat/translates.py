"""Constrained translates, the algebra of regular statistics, and their moments.

A constrained translate T^f_{(U,V),C} sums, over all C-adjacency-constrained
m-subsets L of [n], the weight f(L) times the indicator that the permutation
agrees with the relabeled partial permutation (L(U), L(V)).  Regular
statistics are linear combinations of translates; they are closed under
products.

Every product goes through one routine, _product: it places every pair of
a translate of the left factor and one of the right and adds the
placements' weights per translate key; constant weights multiply as an int
(a Fraction when one is not an integer), and only polynomial weights as
Polys.  Psi * Psi' keeps the result as a statistic through _canonical,
which is also how a statistic merges its own translates and how pattern
compilation and the named statistics build theirs from (key, weight) pairs:
it is the one routine that makes engine data into translates.

A statistic builds each power Psi^d once and keeps it.  Every moment reads
type_sums(d): the constrained sums S(n) of the translates of Psi^d added up
per cycle-path type (mu, nu).  A translate's class expectation is
S * f_{(mu,nu)} / (n)_m, and f and the support size m depend on the type
alone; its uniform expectation is S / (n)_k for k pairs.  type_sums(d)
groups the keys of _product(Psi^(d-1), Psi), or Psi's own translates for
d = 1, by (type, C), with no translate built, and keeps only the sums,
never Psi^d; since S is linear in the weight, one constrained sum per
(type, C) gives the same sums as one per translate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import perm
from types import MappingProxyType

from .errors import InternalConsistencyError, MalformedInputError, ResourceLimitError
from .expectation import RationalExpectation, ZERO_EXPECTATION, evaluation_point
from .indicator import check_bell_cap, indicator_moment
from .partial import (CyclePathType, PartialPermutation, component_type, covering_injections,
                      placements, push_adjacencies)
from .poly import ZERO, Poly, as_poly, to_text, WEIGHT_VARS
from .sums import constrained_sum
from .value import Value

# Most placements (pairs from covering_injections, over all pairs of
# translates) one product may try.  A placement costs about 5-10 us, built
# or streamed, the most where weights are polynomials (exc^4 * exc,
# cyc2^5 * cyc2, N(12)^2 and maj^2 on a 2-vCPU host, Python 3.11), so the
# cap is about 1.5-3 s.  cyc2^5 * cyc2 tries 225,481 and exc^5 * exc
# 545,731.
MAX_PLACEMENTS = 300_000

# Highest power built.  Every power is kept, and a product of constants tries
# one placement, so without it c^d would keep d ever longer coefficients.
MAX_EXPONENT = 100


class ConstrainedTranslate(Value):
    """Packed triple ((U,V), C, f).

    size k = number of position/value pairs, shift q = |C|,
    power p = k + deg f - q.
    """

    _fields = ("packed", "constraints", "weight")

    def __init__(self, packed: PartialPermutation, constraints: frozenset[int], weight: Poly):
        """The key and weight pass _check_key, and the weight is nonzero."""
        self.__dict__.update(
            packed=packed, constraints=frozenset(int(c) for c in constraints), weight=weight
        )
        _check_key(packed.positions, packed.values, self.constraints, weight)
        if weight.is_zero:
            raise MalformedInputError("zero-weight translates are not constructed")

    @property
    def size(self) -> int:
        return self.packed.size

    @property
    def support_size(self) -> int:
        return len(self.packed.support)

    @property
    def shift(self) -> int:
        return len(self.constraints)

    @property
    def power(self) -> int:
        return self.size + int(self.weight.total_degree()) - self.shift

    @property
    def key(self):
        return (self.packed.positions, self.packed.values, tuple(sorted(self.constraints)))

    @cached_property
    def _constant(self) -> int | Fraction | None:
        """The weight if it is a constant, an int or a Fraction by the
        coefficient rule of Poly; None when it is a polynomial."""
        return None if self.weight.num_vars else self.weight.constant_value()

    @cached_property
    def _steps(self) -> tuple[tuple[bool, int | None, int | None, bool], ...]:
        """For each support point i, in increasing order: whether i - 1 is in
        C, the earlier point u with an edge u -> i, the earlier point v with
        an edge i -> v (0-based, None when there is none), and whether
        i -> i is an edge."""
        into = {v: u for u, v in zip(self.packed.positions, self.packed.values)}
        out = dict(zip(self.packed.positions, self.packed.values))
        return tuple(
            (
                i - 1 in self.constraints,
                into[i] - 1 if into.get(i, i) < i else None,
                out[i] - 1 if out.get(i, i) < i else None,
                out.get(i) == i,
            )
            for i in range(1, self.support_size + 1)
        )

    @cached_property
    def _has_tail(self) -> bool:
        """Whether a step places the tail of an edge to an earlier point."""
        return any(tail_of is not None for _, _, tail_of, _ in self._steps)

    def evaluate(self, pi) -> int | Fraction:
        """The sum of f(L) over the C-constrained m-subsets L of [n] on which
        pi (one-line notation, pi[i-1] = pi(i)) maps L_u to L_v on every
        edge u -> v, straight from the definition.

        L_1 < ... < L_m are assigned in increasing order of support point,
        following pi: a point forced adjacent to the one before it takes the
        one candidate L_{i-1} + 1, the head of an edge u -> i from an earlier
        point pi(L_u), and the tail of an edge i -> v to an earlier point
        pi^-1(L_v), pi^-1 built only for such a tail; only the other points
        range over [n].  Each point's adjacency, its edges to earlier points
        and its fixed-point loop are checked as soon as it is placed.  A
        constant weight counts the matches of the last point, building none,
        and multiplies the count once; a polynomial weight is summed once
        over the matches.  The sum is an int whenever it is an integer, as it
        is for every weight with integer coefficients."""
        n = len(pi)
        steps = self._steps
        m = len(steps)
        if self._has_tail:
            inverse = [0] * (n + 1)
            for x, y in enumerate(pi, 1):
                inverse[y] = x
        constant = self._constant
        count = 0 if m else 1  # the empty pattern has the one empty match
        matches: list[tuple[int, ...]] = [()]
        for i, (adjacent, head_of, tail_of, loop) in enumerate(steps):
            hi = n - m + i + 1  # room is left for the points after i
            counted = constant is not None and i == m - 1
            placed = []
            if adjacent or head_of is not None or tail_of is not None:
                for L in matches:  # L is never empty: the first point is free
                    x = (L[-1] + 1 if adjacent else pi[L[head_of] - 1] if head_of is not None
                         else inverse[L[tail_of]])
                    if not (L[-1] < x <= hi
                            and (head_of is None or pi[L[head_of] - 1] == x)
                            and (tail_of is None or pi[x - 1] == L[tail_of])
                            and (not loop or pi[x - 1] == x)):
                        continue
                    if counted:
                        count += 1
                    else:
                        placed.append(L + (x,))
            else:
                for L in matches:
                    xs = range(L[-1] + 1 if L else 1, hi + 1)
                    if loop:
                        xs = [x for x in xs if pi[x - 1] == x]
                    if counted:
                        count += len(xs)
                    else:
                        for x in xs:
                            placed.append(L + (x,))
            matches = placed
        total = count * constant if constant is not None else self.weight.sum_over(matches)
        return total.numerator if total.denominator == 1 else total

    def __str__(self) -> str:
        u = ",".join(map(str, self.packed.positions))
        v = ",".join(map(str, self.packed.values))
        c = ",".join(map(str, sorted(self.constraints)))
        f = to_text(self.weight, WEIGHT_VARS)
        return f"T(U=({u});V=({v});C={{{c}}};f={f})"


class RegularStatistic(Value):
    """Canonical linear combination of translates; coefficients are folded
    into the weight polynomials and duplicates by (packed, C) are merged."""

    _fields = ("translates",)

    def __init__(self, translates: tuple[ConstrainedTranslate, ...]):
        self.__dict__.update(translates=_canonical((t.key, t.weight) for t in translates))

    @classmethod
    def constant(cls, c) -> "RegularStatistic":
        return from_pairs([(((), (), ()), c)])  # the empty pattern, no constraint

    @property
    def is_zero(self) -> bool:
        return not self.translates

    @property
    def size(self) -> int:
        return max((t.size for t in self.translates), default=0)

    @property
    def shift(self) -> int:
        return max((t.shift for t in self.translates), default=0)

    @property
    def power(self) -> int:
        return max((t.power for t in self.translates), default=0)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "RegularStatistic") -> "RegularStatistic":
        return RegularStatistic(self.translates + other.translates)

    def __sub__(self, other: "RegularStatistic") -> "RegularStatistic":
        return from_pairs([(t.key, t.weight) for t in self.translates]
                          + [(t.key, -t.weight) for t in other.translates])

    def __rmul__(self, scalar) -> "RegularStatistic":
        return from_pairs((t.key, scalar * t.weight) for t in self.translates)

    def __mul__(self, other):
        if isinstance(other, RegularStatistic):
            return from_pairs(_product(self, other).items())
        return self.__rmul__(other)

    def __pow__(self, d: int) -> "RegularStatistic":
        """Psi^d, built once as Psi^(d-1) * Psi and kept; setdefault makes
        concurrent callers agree on one object."""
        _check_exponent(d)
        powers = self.__dict__.setdefault("_powers", {})
        out = self
        for k in range(2, d + 1):
            known = powers.get(k)
            out = known if known is not None else powers.setdefault(k, out * self)
        return out

    def type_sums(self, d: int) -> Mapping[CyclePathType, Poly]:
        """Psi^d grouped by cycle-path type: the sum of the constrained sums
        S(n) of its translates of each type, grouped in key order from
        Psi's own translates for d = 1 and from _product(Psi^(d-1), Psi)
        after, once and kept, while Psi^d is not; setdefault makes
        concurrent callers agree on one object."""
        _check_exponent(d)
        memo = self.__dict__.setdefault("_type_sums", {})
        known = memo.get(d)
        if known is not None:
            return known
        if d == 1:
            pairs = [(t.key, t.weight) for t in self.translates]
        else:
            pairs = sorted(_product(self ** (d - 1), self).items())
        return memo.setdefault(d, MappingProxyType(_grouped_sums(pairs)))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, pi) -> int | Fraction:
        """Psi(pi), the sum of its translates' values: an int whenever every
        weight coefficient is an integer."""
        total = 0
        for t in self.translates:
            total += t.evaluate(pi)
        return total

    # -- moments ------------------------------------------------------

    def expectation(self, d: int) -> RationalExpectation:
        """E_lambda[Psi^d], symbolically."""
        return class_expectation(self.type_sums(d))

    def cleared_moment(self, result: RationalExpectation, d: int) -> tuple[Poly, int]:
        """(n)_{dq} * E[Psi^d] and the bound d(p + q) on its graded degree, certified."""
        cleared = result.clear_falling(d * self.shift)
        bound = d * (self.power + self.shift)
        if cleared.graded_degree() > bound:
            raise InternalConsistencyError(
                f"moment degree {cleared.graded_degree()} exceeds the bound "
                f"{bound} (d={d}, p={self.power}, q={self.shift})"
            )
        return cleared, bound

    def moment(self, d: int) -> RationalExpectation:
        """E_lambda[Psi^d] symbolically, certified by cleared_moment."""
        result = self.expectation(d)
        self.cleared_moment(result, d)
        return result

    def moment_at(self, lam, d: int = 1) -> Fraction:
        """E_lambda[Psi^d] as an exact rational, valid for every n (small
        ground sets included)."""
        return class_value(self.type_sums(d), lam)

    def variance_at(self, lam) -> Fraction:
        mean = self.moment_at(lam, 1)
        return self.moment_at(lam, 2) - mean * mean

    def uniform_moment(self, d: int) -> RationalExpectation:
        """E over all of S_n of Psi^d; a rational expectation in n only."""
        out = uniform_expectation(self.type_sums(d))
        cleared, _ = self.cleared_moment(out, d)
        if any(any(e for e in exps[1:]) for exps in cleared.terms):
            raise InternalConsistencyError(
                "uniform moment is not a function of n alone"
            )
        return out

    def variance(self) -> RationalExpectation:
        mean = self.moment(1)
        return self.moment(2) - mean * mean

    def __str__(self) -> str:
        if not self.translates:
            return "0"
        return " + ".join(str(t) for t in self.translates)


def class_expectation(sums: Mapping[CyclePathType, Poly]) -> RationalExpectation:
    """E_lambda symbolically: for each support size m, sum S * f over the
    types and normalise over (n)_m once.  Every type is held to the Bell cap
    before any f is computed."""
    for t in sums:
        check_bell_cap(t)
    return _over_falling((t.support_size, S * indicator_moment(t)) for t, S in sums.items())


def uniform_expectation(sums: Mapping[CyclePathType, Poly]) -> RationalExpectation:
    """E over all of S_n: each indicator of k pairs has probability 1/(n)_k."""
    return _over_falling((t.size, S) for t, S in sums.items())


def class_value(sums: Mapping[CyclePathType, Poly], lam) -> Fraction:
    """Exact E_lambda at the cycle type lam, for every n.  A type of support
    m > n contributes 0, since [n] has no m-subsets (the symbolic ratio is
    0/0 there), so its indicator polynomial is never computed."""
    n = sum(lam)
    point = evaluation_point(lam, max((t.size for t in sums), default=0))
    total = Fraction(0)
    for t, S in sums.items():
        m = t.support_size
        if m <= n:
            f = indicator_moment(t)
            total += S.evaluate(point) * f.evaluate(point) / perm(n, m)
    return total


def _over_falling(pairs) -> RationalExpectation:
    """sum of num / (n)_a over the pairs (a, num), the nums of one a added first."""
    nums: dict[int, Poly] = {}
    for a, num in pairs:
        nums[a] = nums.get(a, ZERO) + num
    out = ZERO_EXPECTATION
    for a in sorted(nums):
        out = out + RationalExpectation(nums[a], (a,))
    return out


def translate_product(t1: ConstrainedTranslate, t2: ConstrainedTranslate) -> RegularStatistic:
    """The pointwise product of two translates: the one-pair case of
    RegularStatistic * RegularStatistic."""
    return RegularStatistic((t1,)) * RegularStatistic((t2,))


def _product(left: RegularStatistic, right: RegularStatistic) -> dict[tuple, int | Fraction | Poly]:
    """The placements of left * right, their weights added per key
    (positions, values, C); a key whose weight cancels is kept, with weight
    0.  Every pair of constrained subsets (L1, L2) has a union of some size
    r; fixing the order-preserving injections of the two supports into [r]
    splits the product of two translates into translates on [r]."""
    _check_placements(left, right)
    # covering_injections(m, l), listed once per pair of support sizes
    injections = {(m, l): tuple(covering_injections(m, l))
                  for m in {t.support_size for t in left.translates}
                  for l in {t.support_size for t in right.translates}}
    by_key: dict[tuple, int | Fraction | Poly] = {}
    for t1 in left.translates:
        for t2 in right.translates:
            for a, b in injections[t1.support_size, t2.support_size]:
                out = _place(t1, t2, a, b)
                if out is not None:
                    edges, C, w = out
                    positions = tuple(sorted(edges))
                    key = (positions, tuple(map(edges.__getitem__, positions)), tuple(sorted(C)))
                    known = by_key.get(key)
                    by_key[key] = w if known is None else known + w
    return by_key


def from_pairs(pairs) -> RegularStatistic:
    """The statistic of (key, weight) pairs, key = (positions, values, C)
    with C a sorted tuple, put in canonical form once, not again by
    __init__; a weight is an int, a Fraction or a Poly."""
    out = RegularStatistic.__new__(RegularStatistic)
    out.__dict__.update(translates=_canonical(pairs))
    return out


def _canonical(pairs) -> tuple[ConstrainedTranslate, ...]:
    """The translates of (key, weight) pairs, key = (positions, values, C):
    the weights added per key, the keys whose weight cancels dropped, and
    the rest checked as translates, in key order."""
    by_key: dict[tuple, int | Fraction | Poly] = {}
    for key, w in pairs:
        known = by_key.get(key)
        by_key[key] = w if known is None else known + w
    return tuple(
        ConstrainedTranslate(PartialPermutation(positions, values), frozenset(C), as_poly(w))
        for (positions, values, C), w in sorted(by_key.items())  # the keys are distinct
        if w != 0
    )


def _place(t1, t2, a, b):
    """t1 * t2 on the union [r] of the supports placed by a and b: (edges,
    C, weight), or None when the placement breaks an adjacency or merges
    two edges inconsistently.  The weight is an int, or a Fraction, when
    both weights are constants, and a Poly otherwise."""
    C1 = push_adjacencies(t1.constraints, a)
    C2 = push_adjacencies(t2.constraints, b)
    if C1 is None or C2 is None:
        return None

    edges = {a[u - 1]: a[v - 1] for u, v in zip(t1.packed.positions, t1.packed.values)}
    for u, v in zip(t2.packed.positions, t2.packed.values):
        uu, vv = b[u - 1], b[v - 1]
        if edges.get(uu, vv) != vv:
            return None  # one position, two values
        edges[uu] = vv
    vals = edges.values()
    if len(set(vals)) != len(vals):
        return None  # one value, two positions

    w1, w2 = t1._constant, t2._constant
    if w1 is None:
        w1 = t1.weight.relabel([x - 1 for x in a])
    if w2 is None:
        w2 = t2.weight.relabel([x - 1 for x in b])
    return edges, C1 | C2, w1 * w2


def _grouped_sums(pairs) -> dict[CyclePathType, Poly]:
    """The constrained sums S(n) of (key, weight) pairs in key order, added
    up per cycle-path type read from the key's edges; a key whose weight
    does not cancel passes the checks a translate makes.  S is linear in the
    weight, so the weights are first added per (type, C) and each such
    weight takes one constrained sum.  The types come in the order of their
    first key, and a type keeps its key even when its sum cancels."""
    by_type: dict[tuple[CyclePathType, tuple[int, ...]], int | Fraction | Poly] = {}
    for (positions, values, C), w in pairs:
        if w == 0:
            continue
        support = _check_key(positions, values, C, w)
        group = component_type(dict(zip(positions, values)), support), C
        known = by_type.get(group)
        by_type[group] = w if known is None else known + w

    sums: dict[CyclePathType, Poly] = {}
    for (t, C), w in by_type.items():
        S, _ = constrained_sum(as_poly(w), t.support_size, frozenset(C))
        sums[t] = sums.get(t, ZERO) + S
    return sums


def _check_key(positions, values, C, w) -> set[int]:
    """The support [m] of a translate's key, checked to be packed, with C
    inside [m - 1] and a polynomial weight in x1..xm only."""
    support = set(positions) | set(values)
    m = len(support)
    if support != set(range(1, m + 1)):
        pattern = PartialPermutation(positions, values)
        raise MalformedInputError(f"translate pattern {pattern} is not packed")
    if C and (min(C) < 1 or max(C) >= m):
        raise MalformedInputError(f"constraints {sorted(C)} not inside [{m - 1}]")
    if isinstance(w, Poly) and w.num_vars > m:
        raise MalformedInputError(f"weight uses x{w.num_vars} but the support is [{m}]")
    return support


def _check_placements(left: RegularStatistic, right: RegularStatistic) -> None:
    """Refuse a product that would try more than MAX_PLACEMENTS placements."""
    sizes, others = (Counter(t.support_size for t in s.translates) for s in (left, right))
    tries = sum(i * j * placements(m, l) for m, i in sizes.items() for l, j in others.items())
    if tries > MAX_PLACEMENTS:
        raise ResourceLimitError(
            f"a product of {len(left.translates)} by {len(right.translates)} "
            f"translates tries {tries} placements; the cap is {MAX_PLACEMENTS}"
        )


def _check_exponent(d: int) -> None:
    if d < 1:
        raise ValueError("powers start at 1")
    if d > MAX_EXPONENT:
        raise ResourceLimitError(f"exponent {d} exceeds the cap {MAX_EXPONENT}")
