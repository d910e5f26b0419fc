"""Constrained translates, the algebra of regular statistics, and their moments.

A constrained translate T^f_{(U,V),C} sums, over all C-adjacency-constrained
m-subsets L of [n], the weight f(L) times the indicator that the permutation
agrees with the relabeled partial permutation (L(U), L(V)).  Regular
statistics are linear combinations of translates; they are closed under
products.

Every moment reads one grouping of the expanded statistic, type_sums: the
constrained sums S(n) of its translates added up per cycle-path type
(mu, nu).  A translate's class expectation is S * f_{(mu,nu)} / (n)_m, and
f and the support size m depend on the type alone; its uniform expectation
is S / (n)_k for k pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError, MalformedInputError
from .expectation import RationalExpectation, ZERO_EXPECTATION, evaluation_point
from .indicator import DEFAULT_BELL_CAP, indicator_moment
from .partial import CyclePathType, PartialPermutation, covering_injections, push_adjacencies
from .poly import ZERO, Poly, falling_factorial_value, to_text, WEIGHT_VARS
from .sums import constrained_subsets, constrained_sum


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
            parts: list[ConstrainedTranslate] = []
            for t1 in self.translates:
                for t2 in other.translates:
                    parts.extend(translate_product(t1, t2).translates)
            return RegularStatistic(tuple(parts))
        return self.__rmul__(other)

    def __pow__(self, d: int) -> "RegularStatistic":
        if d < 1:
            raise ValueError("powers start at 1")
        out = self
        for _ in range(d - 1):
            out = out * self
        return out

    # -- evaluation ---------------------------------------------------

    def evaluate(self, pi) -> Fraction:
        return sum((t.evaluate(pi) for t in self.translates), Fraction(0))

    # -- moments ------------------------------------------------------

    def expectation(self, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        """E_lambda of this statistic, symbolically."""
        return class_expectation(type_sums(self), bell_cap)

    def moment(self, d: int, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        """E_lambda[Psi^d] symbolically; certifies that (n)_{dq} times the
        result is a polynomial of graded degree <= d(p + q)."""
        if d < 1:
            raise ValueError("moments start at d = 1")
        expansion = self**d
        result = expansion.expectation(bell_cap)
        cleared = result.clear_falling(d * self.shift)
        bound = d * (self.power + self.shift)
        if cleared.graded_degree() > bound:
            raise InternalConsistencyError(
                f"moment degree {cleared.graded_degree()} exceeds the bound "
                f"{bound} (d={d}, p={self.power}, q={self.shift})"
            )
        return result

    def moment_at(self, lam, d: int = 1, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
        """E_lambda[Psi^d] as an exact rational, valid for every n (small
        ground sets included)."""
        if d < 1:
            raise ValueError("moments start at d = 1")
        return class_value(type_sums(self**d), lam, bell_cap)

    def variance_at(self, lam, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
        mean = self.moment_at(lam, 1, bell_cap)
        return self.moment_at(lam, 2, bell_cap) - mean * mean

    def uniform_moment(self, d: int) -> RationalExpectation:
        """E over all of S_n of Psi^d; a rational expectation in n only."""
        if d < 1:
            raise ValueError("moments start at d = 1")
        out = uniform_expectation(type_sums(self**d))
        cleared = out.clear_falling(d * self.shift)
        if any(any(e for e in exps[1:]) for exps in cleared.terms):
            raise InternalConsistencyError(
                "uniform moment is not a function of n alone"
            )
        bound = d * (self.power + self.shift)
        if cleared.graded_degree() > bound:
            raise InternalConsistencyError(
                f"uniform moment degree {cleared.graded_degree()} exceeds "
                f"the bound {bound}"
            )
        return out

    def variance(self, bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
        mean = self.moment(1, bell_cap)
        return self.moment(2, bell_cap) - mean * mean

    def __str__(self) -> str:
        if not self.translates:
            return "0"
        return " + ".join(str(t) for t in self.translates)


def type_sums(stat: RegularStatistic) -> dict[CyclePathType, Poly]:
    """Group an expanded statistic by cycle-path type: the sum of the
    constrained sums S(n) of its translates of each type."""
    sums: dict[CyclePathType, Poly] = {}
    for t in stat.translates:
        S, _ = constrained_sum(t.weight, t.support_size, t.constraints)
        key = t.packed.cycle_path_type()
        sums[key] = sums.get(key, ZERO) + S
    return sums


def class_expectation(sums: dict[CyclePathType, Poly], bell_cap: int = DEFAULT_BELL_CAP) -> RationalExpectation:
    """E_lambda symbolically: for each support size m, sum S * f over the
    types and normalise over (n)_m once."""
    by_support: dict[int, Poly] = {}
    for t, S in sums.items():
        m = t.support_size
        by_support[m] = by_support.get(m, ZERO) + S * indicator_moment(t, bell_cap)
    return _over_falling(by_support)


def uniform_expectation(sums: dict[CyclePathType, Poly]) -> RationalExpectation:
    """E over all of S_n: each indicator of k pairs has probability 1/(n)_k."""
    by_size: dict[int, Poly] = {}
    for t, S in sums.items():
        by_size[t.size] = by_size.get(t.size, ZERO) + S
    return _over_falling(by_size)


def class_value(sums: dict[CyclePathType, Poly], lam, bell_cap: int = DEFAULT_BELL_CAP) -> Fraction:
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
