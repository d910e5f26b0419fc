"""Exact class expectations: a graded numerator over falling factorials.

A RationalExpectation stores E as num / prod_j (n)_{den[j]} with num an
engine polynomial in n, m_1, m_2, ...  All arithmetic is exact; the
denominator never involves the m-variables.  Every value is built in normal
form: no (n)_a of the denominator divides the numerator exactly.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import perm, prod

from .errors import DegenerateEvaluationError, InternalConsistencyError
from .poly import (
    Poly,
    decimal,
    divide_exact_in_n,
    falling_factorial_poly,
    integerize,
    to_json_dict,
    to_text,
)
from .value import Value


def evaluation_point(lam, k=None) -> list[int]:
    """Engine-variable values (n, m_1, ..., m_k) for a partition lambda; k
    defaults to n, past which every m_i is 0."""
    n = sum(lam)
    counts = Counter(lam)
    return [n] + [counts.get(i, 0) for i in range(1, (n if k is None else k) + 1)]


class RationalExpectation(Value):
    _fields = ("num", "den")

    def __init__(self, num: Poly, den: tuple[int, ...] = ()):
        """Keep the normal form: divide out every falling-factorial factor
        that divides the numerator exactly, largest first, in one pass.  A
        factor that fails is never tried again: if (n)_b does not divide N,
        it does not divide N / (n)_a either."""
        kept = []
        for a in sorted((int(a) for a in den if a), reverse=True):
            quo = divide_exact_in_n(num, range(a))
            if quo is None:
                kept.append(a)
            else:
                num = quo
        self.__dict__.update(num=num, den=tuple(kept))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RationalExpectation") -> "RationalExpectation":
        target = _common_den(self.den, other.den)
        num = self.num * _cofactor(self.den, target) + other.num * _cofactor(
            other.den, target
        )
        return RationalExpectation(num, target)

    def __neg__(self) -> "RationalExpectation":
        return RationalExpectation(-self.num, self.den)

    def __sub__(self, other: "RationalExpectation") -> "RationalExpectation":
        return self + (-other)

    def __mul__(self, other) -> "RationalExpectation":
        if isinstance(other, RationalExpectation):
            return RationalExpectation(self.num * other.num, self.den + other.den)
        return RationalExpectation(self.num * other, self.den)

    def normalized(self) -> "RationalExpectation":
        """Every RationalExpectation is built in normal form."""
        return self

    def clear_falling(self, a: int) -> Poly:
        """Return (n)_a * self as a polynomial; raises if the product is not
        polynomial (which would falsify the moment theorems)."""
        cleared = RationalExpectation(self.num * falling_factorial_poly(a), self.den)
        if cleared.den:
            raise InternalConsistencyError(
                f"(n)_{a} * expectation is not polynomial; residual "
                f"denominator {cleared.den}"
            )
        return cleared.num

    # -- evaluation ---------------------------------------------------

    def evaluate_at(self, lam) -> Fraction:
        lam = tuple(lam)
        n = sum(lam)
        den_val = prod(perm(n, a) for a in self.den)
        if den_val == 0:
            raise DegenerateEvaluationError(
                f"denominator {self.den} vanishes at n={n}; the statistic "
                "needs a larger ground set"
            )
        return self.num.evaluate(evaluation_point(lam, self.num.num_vars - 1)) / den_val

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        p, d = integerize(self.num)
        parts = [f"(n)_{a}" for a in self.den]
        if d != 1:
            parts.append(decimal(d))
        body = to_text(p)
        if not parts:
            return body
        den_text = "*".join(parts) if len(parts) == 1 else "(" + " * ".join(parts) + ")"
        if len(p.terms) > 1:
            body = f"({body})"
        return f"{body} / {den_text}"

    def to_json_dict(self) -> dict:
        return {
            "numerator": to_json_dict(self.num),
            "denominator": {"falling": list(self.den)},
            "text": str(self),
        }


ZERO_EXPECTATION = RationalExpectation(Poly(), ())


def _common_den(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    width = max(len(a), len(b))
    a = a + (0,) * (width - len(a))
    b = b + (0,) * (width - len(b))
    return tuple(max(x, y) for x, y in zip(a, b))


def _cofactor(den: tuple[int, ...], target: tuple[int, ...]) -> Poly:
    """Polynomial with den * cofactor = target, componentwise on the sorted
    falling-factorial lists."""
    out = Poly.const(1)
    den = den + (0,) * (len(target) - len(den))
    for have, want in zip(den, target):
        out = out * falling_factorial_poly(want - have, have)
    return out
