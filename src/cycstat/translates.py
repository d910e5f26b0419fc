"""Constrained translates, the algebra of regular statistics, and their moments.

A constrained translate T^f_{(U,V),C} sums, over all C-adjacency-constrained
m-subsets L of [n], the weight f(L) times the indicator that the permutation
agrees with the relabeled partial permutation (L(U), L(V)).  Regular
statistics are linear combinations of translates; they are closed under
products.

A statistic builds each power Psi^d once and keeps it, and every moment
reads one grouping of it, type_sums: the constrained sums S(n) of its
translates added up per cycle-path type (mu, nu).  A translate's class
expectation is S * f_{(mu,nu)} / (n)_m, and f and the support size m depend
on the type alone; its uniform expectation is S / (n)_k for k pairs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .errors import InternalConsistencyError, MalformedInputError, ResourceLimitError
from .expectation import RationalExpectation, ZERO_EXPECTATION, evaluation_point
from .indicator import DEFAULT_BELL_CAP, indicator_moment
from .partial import CyclePathType, PartialPermutation, covering_injections, placements, push_adjacencies
from .poly import ZERO, Poly, falling_factorial_value, to_text, WEIGHT_VARS
from .sums import constrained_subsets, constrained_sum

# Most placements (pairs from covering_injections, over all pairs of
# translates) one product may try; at about 30 us each, about 10 s.
# cyc2^5 * cyc2 tries 225,481 and exc^5 * exc 545,731.
MAX_PLACEMENTS = 300_000

# Highest power built.  Every power is kept, and a product of constants tries
# one placement, so without it c^d would keep d ever longer coefficients.
MAX_EXPONENT = 100


@dataclass(frozen=True)
class ConstrainedTranslate:
    """Packed triple ((U,V), C, f).

    size k = number of position/value pairs, shift q = |C|,
    power p = k + deg f - q.
    """

    packed: PartialPermutation
    constraints: frozenset[int]
    weight: Poly

    def __post_init__(self):
        object.__setattr__(self, "constraints", frozenset(int(c) for c in self.constraints))
        if not self.packed.is_packed:
            raise MalformedInputError(
                f"translate pattern {self.packed} is not packed"
            )
        m = len(self.packed.support)
        if not self.constraints <= set(range(1, m)):
            raise MalformedInputError(
                f"constraints {sorted(self.constraints)} not inside [{m - 1}]"
            )
        if self.weight.is_zero:
            raise MalformedInputError("zero-weight translates are not constructed")
        if self.weight.num_vars > m:
            raise MalformedInputError(
                f"weight uses x{self.weight.num_vars} but the support is [{m}]"
            )

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

    def evaluate(self, pi) -> Fraction:
        """Direct summation over constrained subsets of [n] for an explicit
        permutation pi (one-line notation, pi[i-1] = pi(i))."""
        n = len(pi)
        total = Fraction(0)
        edges = list(zip(self.packed.positions, self.packed.values))
        for L in constrained_subsets(n, self.support_size, self.constraints):
            if all(pi[L[u - 1] - 1] == L[v - 1] for u, v in edges):
                total += self.weight.evaluate(L)
        return total

    def __str__(self) -> str:
        u = ",".join(map(str, self.packed.positions))
        v = ",".join(map(str, self.packed.values))
        c = ",".join(map(str, sorted(self.constraints)))
        f = to_text(self.weight, WEIGHT_VARS)
        return f"T(U=({u});V=({v});C={{{c}}};f={f})"


@dataclass(frozen=True)
class RegularStatistic:
    """Canonical linear combination of translates; coefficients are folded
    into the weight polynomials and duplicates by (packed, C) are merged."""

    translates: tuple[ConstrainedTranslate, ...]

    def __post_init__(self):
        merged: dict[tuple, tuple[PartialPermutation, frozenset[int], Poly]] = {}
        for t in self.translates:
            key = t.key
            if key in merged:
                p, c, w = merged[key]
                merged[key] = (p, c, w + t.weight)
            else:
                merged[key] = (t.packed, t.constraints, t.weight)
        out = [
            ConstrainedTranslate(p, c, w)
            for p, c, w in merged.values()
            if not w.is_zero
        ]
        out.sort(key=lambda t: t.key)
        object.__setattr__(self, "translates", tuple(out))

    @classmethod
    def from_terms(cls, terms) -> "RegularStatistic":
        """Build from (coefficient, translate) pairs."""
        out = []
        for coef, t in terms:
            coef = Fraction(coef)
            if coef:
                out.append(ConstrainedTranslate(t.packed, t.constraints, coef * t.weight))
        return cls(tuple(out))

    @classmethod
    def constant(cls, c) -> "RegularStatistic":
        c = Fraction(c)
        if not c:
            return cls(())
        empty = PartialPermutation((), ())
        return cls((ConstrainedTranslate(empty, frozenset(), Poly.const(c)),))

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
        return self + (-1) * other

    def __rmul__(self, scalar) -> "RegularStatistic":
        scalar = Fraction(scalar)
        if not scalar:
            return RegularStatistic(())
        return RegularStatistic(
            tuple(
                ConstrainedTranslate(t.packed, t.constraints, scalar * t.weight)
                for t in self.translates
            )
        )

    def __mul__(self, other):
        if isinstance(other, RegularStatistic):
            sizes, others = (Counter(t.support_size for t in s.translates) for s in (self, other))
            tries = sum(i * j * placements(m, l) for m, i in sizes.items() for l, j in others.items())
            if tries > MAX_PLACEMENTS:
                raise ResourceLimitError(
                    f"a product of {len(self.translates)} by {len(other.translates)} "
                    f"translates tries {tries} placements; the cap is {MAX_PLACEMENTS}"
                )
            parts: list[ConstrainedTranslate] = []
            for t1 in self.translates:
                for t2 in other.translates:
                    parts.extend(translate_product(t1, t2).translates)
            return RegularStatistic(tuple(parts))
        return self.__rmul__(other)

    def __pow__(self, d: int) -> "RegularStatistic":
        """Psi^d, built once as Psi^(d-1) * Psi and kept; setdefault makes
        concurrent callers agree on one object."""
        if d < 1:
            raise ValueError("powers start at 1")
        if d > MAX_EXPONENT:
            raise ResourceLimitError(f"exponent {d} exceeds the cap {MAX_EXPONENT}")
        powers = self.__dict__.setdefault("_powers", {})
        out = self
        for k in range(2, d + 1):
            known = powers.get(k)
            out = known if known is not None else powers.setdefault(k, out * self)
        return out

    @cached_property
    def type_sums(self) -> Mapping[CyclePathType, Poly]:
        """This statistic grouped by cycle-path type: the sum of the
        constrained sums S(n) of its translates of each type."""
        sums: dict[CyclePathType, Poly] = {}
        for t in self.translates:
            S, _ = constrained_sum(t.weight, t.support_size, t.constraints)
            key = t.packed.cycle_path_type()
            sums[key] = sums.get(key, ZERO) + S
        return MappingProxyType(sums)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, pi) -> Fraction:
        return sum((t.evaluate(pi) for t in self.translates), Fraction(0))

    # -- moments ------------------------------------------------------

    def expectation(self, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        """E_lambda of this statistic, symbolically."""
        return class_expectation(self.type_sums, bell_cap)

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

    def moment(self, d: int, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        """E_lambda[Psi^d] symbolically, certified by cleared_moment."""
        result = (self**d).expectation(bell_cap)
        self.cleared_moment(result, d)
        return result

    def moment_at(self, lam, d: int = 1, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
        """E_lambda[Psi^d] as an exact rational, valid for every n (small
        ground sets included)."""
        return class_value((self**d).type_sums, lam, bell_cap)

    def variance_at(self, lam, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
        mean = self.moment_at(lam, 1, bell_cap)
        return self.moment_at(lam, 2, bell_cap) - mean * mean

    def uniform_moment(self, d: int) -> RationalExpectation:
        """E over all of S_n of Psi^d; a rational expectation in n only."""
        out = uniform_expectation((self**d).type_sums)
        cleared, _ = self.cleared_moment(out, d)
        if any(any(e for e in exps[1:]) for exps in cleared.terms):
            raise InternalConsistencyError(
                "uniform moment is not a function of n alone"
            )
        return out

    def variance(self, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        mean = self.moment(1, bell_cap)
        return self.moment(2, bell_cap) - mean * mean

    def __str__(self) -> str:
        if not self.translates:
            return "0"
        return " + ".join(str(t) for t in self.translates)


def class_expectation(sums: Mapping[CyclePathType, Poly], bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
    """E_lambda symbolically: for each support size m, sum S * f over the
    types and normalise over (n)_m once."""
    by_support: dict[int, Poly] = {}
    for t, S in sums.items():
        m = t.support_size
        by_support[m] = by_support.get(m, ZERO) + S * indicator_moment(t, bell_cap)
    return _over_falling(by_support)


def uniform_expectation(sums: Mapping[CyclePathType, Poly]) -> RationalExpectation:
    """E over all of S_n: each indicator of k pairs has probability 1/(n)_k."""
    by_size: dict[int, Poly] = {}
    for t, S in sums.items():
        by_size[t.size] = by_size.get(t.size, ZERO) + S
    return _over_falling(by_size)


def class_value(sums: Mapping[CyclePathType, Poly], lam, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
    """Exact E_lambda at the cycle type lam, for every n.  A type of support
    m > n contributes 0, since [n] has no m-subsets (the symbolic ratio is
    0/0 there), so its indicator polynomial is never computed."""
    n = sum(lam)
    point = evaluation_point(lam)
    total = Fraction(0)
    for t, S in sums.items():
        m = t.support_size
        if m <= n:
            f = indicator_moment(t, bell_cap)
            total += S.evaluate(point) * f.evaluate(point) / falling_factorial_value(n, m)
    return total


def _over_falling(nums: dict[int, Poly]) -> RationalExpectation:
    """sum over a of nums[a] / (n)_a, each normalised once."""
    out = ZERO_EXPECTATION
    for a in sorted(nums):
        out = out + RationalExpectation(nums[a], (a,)).normalized()
    return out


def translate_product(t1: ConstrainedTranslate, t2: ConstrainedTranslate) -> RegularStatistic:
    """Expand the pointwise product of two translates.

    Every pair of constrained subsets (L1, L2) has a union of some size r;
    fixing the order-preserving injections of the two supports into [r]
    splits the product into translates on [r].  Overlap patterns whose merged
    edges are inconsistent, or whose adjacency constraints cannot be realized
    by increasing subsets, contribute nothing.
    """
    out: list[ConstrainedTranslate] = []
    for a, b in covering_injections(t1.support_size, t2.support_size):
        merged = _merge_overlap(t1, t2, a, b)
        if merged is not None:
            out.append(merged)
    return RegularStatistic(tuple(out))


def _merge_overlap(t1, t2, a, b):
    C1 = push_adjacencies(t1.constraints, a)
    C2 = push_adjacencies(t2.constraints, b)
    if C1 is None or C2 is None:
        return None

    edges: dict[int, int] = {}
    for u, v in zip(t1.packed.positions, t1.packed.values):
        edges[a[u - 1]] = a[v - 1]
    for u, v in zip(t2.packed.positions, t2.packed.values):
        uu, vv = b[u - 1], b[v - 1]
        if edges.get(uu, vv) != vv:
            return None  # one position, two values
        edges[uu] = vv
    vals = list(edges.values())
    if len(set(vals)) != len(vals):
        return None  # one value, two positions

    weight = t1.weight.relabel([x - 1 for x in a]) * t2.weight.relabel([x - 1 for x in b])
    packed = PartialPermutation(tuple(edges.keys()), tuple(edges.values()))
    return ConstrainedTranslate(packed, frozenset(C1 | C2), weight)
