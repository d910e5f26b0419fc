"""Sparse multivariate polynomials over exact rationals.

One representation serves three variable universes:

* engine polynomials in n, m_1, m_2, ... (variable 0 is n, variable i is m_i),
  graded so that deg n = 1 and deg m_i = i;
* weight polynomials in x_1, ..., x_m (variable i is x_{i+1});
* limit polynomials in alpha, beta.

Exponent keys are tuples with trailing zeros stripped, so the variable
universe can grow lazily without rewriting existing terms.  A coefficient
is an int when it is an integer, a Fraction only when it is not.  No
floating point anywhere.

The two kernels, Poly * Poly and divide_exact_in_n, compute in Python ints:
each operand is written as int coefficients over one positive common
denominator D, the lcm of its denominators, and each output coefficient is
built once at the end, as c // D when D divides c and Fraction(c, D)
otherwise.  That is the coefficient rule above, so no value, text or hash
depends on which route built a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, log10

from .errors import ResourceLimitError

Exponents = tuple[int, ...]
Coefficient = int | Fraction  # an int whenever the value is an integer

NEG_INF = -inf  # degree of the zero polynomial


def _strip(exps) -> Exponents:
    exps = tuple(int(e) for e in exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


class Poly:
    """Immutable sparse polynomial; terms maps exponent tuples to nonzero
    coefficients, each an int when it is an integer (3 == Fraction(3) and
    their hashes agree, so the rule changes no value, text or hash)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Exponents, Coefficient] = {}
        if terms:
            for exps, coef in terms.items():
                coef = coef if type(coef) is int else _lower(Fraction(coef))
                if coef:
                    key = _strip(exps)
                    val = _lower(clean.get(key, 0) + coef)
                    if val:
                        clean[key] = val
                    else:
                        clean.pop(key, None)
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(): c})

    @classmethod
    def variable(cls, index: int) -> "Poly":
        return cls({(0,) * index + (1,): 1})

    # -- predicates and metrics ---------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Coefficient:
        return self.terms.get((), 0)

    @property
    def num_vars(self) -> int:
        return max((len(e) for e in self.terms), default=0)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def graded_degree(self):
        """Degree under deg(var 0) = 1 and deg(var i) = i for i >= 1."""
        return max((_graded(e) for e in self.terms), default=NEG_INF)

    def coefficient(self, exps) -> Coefficient:
        return self.terms.get(_strip(exps), 0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = as_poly(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            val = _lower(out.get(exps, 0) + coef)
            if val:
                out[exps] = val
            else:
                out.pop(exps, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        """In integers: each factor as int coefficients over its common
        denominator, every product coefficient built once at the end."""
        left, d1 = _scaled(self.terms)
        right, d2 = _scaled(as_poly(other).terms)
        out: dict[Exponents, int] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = _mul_exps(e1, e2)
                out[key] = out.get(key, 0) + c1 * c2
        return from_scaled(out, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        """By repeated multiplication: squaring a sparse polynomial of several
        variables costs far more than multiplying by the base k times.  The
        power of a monomial, or of zero, is read off directly."""
        if k < 0:
            raise ValueError("negative powers not supported")
        if not k:
            return Poly.const(1)
        if len(self.terms) <= 1:
            return _raw({tuple(e * k for e in exps): c**k for exps, c in self.terms.items()})
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation and relabelling -----------------------------------

    def evaluate(self, values) -> Fraction:
        """Evaluate at values[i] for variable i (missing trailing values are 0)."""
        return self.sum_over((values,))

    def sum_over(self, points) -> Fraction:
        """The sum of evaluate(x) over the points x, as a Fraction.  Each
        monomial is summed in integers over the points and multiplied by its
        coefficient once, so an int coefficient keeps the total an int until
        the one Fraction built at the end.  A point too short for a monomial
        gives it 0, as in evaluate."""
        points = list(points)
        total = 0
        for exps, coef in self.terms.items():
            # exps has no trailing zero, so a point shorter than exps misses
            # a variable of positive exponent
            width = len(exps)
            factors = [(i, e) for i, e in enumerate(exps) if e]
            s = 0
            for x in points:
                if len(x) >= width:
                    term = 1
                    for i, e in factors:
                        term *= x[i] ** e
                    s += term
            total += coef * s
        return Fraction(total)

    def relabel(self, index) -> "Poly":
        """Rename variable i to variable index[i]; index is injective, so the
        terms keep their coefficients and never collide."""
        out: dict[Exponents, Coefficient] = {}
        for exps, coef in self.terms.items():
            moved = {index[i]: e for i, e in enumerate(exps) if e}
            out[tuple(moved.get(j, 0) for j in range(max(moved, default=-1) + 1))] = coef
        return _raw(out)

    def __repr__(self):
        return f"Poly({to_text(self)})"


def _graded(exps: Exponents) -> int:
    return sum(e * max(i, 1) for i, e in enumerate(exps))


def _mul_exps(e1: Exponents, e2: Exponents) -> Exponents:
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    return tuple(a + b for a, b in zip(e1, e2)) + e1[len(e2):]


def _lower(c: Coefficient) -> Coefficient:
    """The coefficient rule: an integer is an int, so a Fraction with
    denominator 1 becomes its numerator (an int is its own numerator)."""
    return c.numerator if c.denominator == 1 else c


def _scaled(terms: dict[Exponents, Coefficient]) -> tuple[dict[Exponents, int], int]:
    """(terms * D, D) for D > 0 the lcm of the denominators: the same
    coefficients as ints over one common denominator."""
    d = lcm(*(c.denominator for c in terms.values()))
    if d == 1:  # every coefficient is an int already
        return terms, 1
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def from_scaled(terms: dict[Exponents, int], d: int) -> "Poly":
    """The polynomial terms / d, for int coefficients under stripped keys and
    d > 0: each nonzero coefficient by the coefficient rule, c // d when d
    divides c and Fraction(c, d) otherwise."""
    if d == 1:
        return _raw({e: c for e, c in terms.items() if c})
    return _raw({e: c // d if not c % d else Fraction(c, d) for e, c in terms.items() if c})


def _raw(terms: dict[Exponents, Coefficient]) -> Poly:
    p = Poly()
    object.__setattr__(p, "terms", terms)
    return p


def as_poly(x) -> Poly:
    """x as a polynomial: a Poly itself, an int or a Fraction a constant."""
    return x if isinstance(x, Poly) else Poly.const(x)


ZERO = Poly()
ONE = Poly.const(1)
N = Poly.variable(0)


def mvar(i: int) -> Poly:
    """The variable m_i of the engine ring."""
    if i < 1:
        raise ValueError("m-variables are indexed from 1")
    return Poly.variable(i)


def xvar(i: int) -> Poly:
    """The variable x_i of a weight polynomial."""
    if i < 1:
        raise ValueError("x-variables are indexed from 1")
    return Poly.variable(i - 1)


def falling_factorial_poly(a: int, start: int = 0) -> Poly:
    """(n - start)_a, the product of n - i over start <= i < start + a."""
    out = ONE
    for i in range(start, start + a):
        out = out * (N - Poly.const(i))
    return out


def divide_exact_in_n(num: Poly, roots) -> Poly | None:
    """num / prod_{r in roots} (n - r), or None if that leaves a remainder.
    Dividing by n - r never mixes the monomials in the other variables, so
    the coefficient list in n of each is divided on its own, by synthetic
    division one root at a time, in integers over num's common denominator
    D > 0: an int remainder is nonzero exactly when the rational one is."""
    terms, scale = _scaled(num.terms)
    columns: dict[Exponents, list[int]] = {}
    for exps, coef in terms.items():
        col = columns.setdefault(exps[1:], [])
        d = exps[0] if exps else 0
        col += [0] * (d + 1 - len(col))
        col[d] = coef
    out: dict[Exponents, int] = {}
    for rest, col in columns.items():
        for r in roots:
            # col[d] becomes the quotient's coefficient of n^(d-1), and col[0]
            # the remainder
            for d in range(len(col) - 2, -1, -1):
                col[d] += r * col[d + 1]
            if col[0]:
                return None
            del col[0]
        out.update({(d,) + rest if d or rest else (): c for d, c in enumerate(col)})
    return from_scaled(out, scale)


# -- rendering ---------------------------------------------------------

ENGINE_VARS = "engine"
WEIGHT_VARS = "weight"


def _var_name(index: int, universe) -> str:
    if isinstance(universe, (list, tuple)):
        return universe[index]
    if universe == ENGINE_VARS:
        return "n" if index == 0 else f"m{index}"
    return f"x{index + 1}"


def _sort_key(exps: Exponents, universe):
    if universe == ENGINE_VARS:
        deg = _graded(exps)
    else:
        deg = sum(exps)
    return (deg, tuple(-e for e in exps))


def _monomial_text(exps: Exponents, universe) -> str:
    parts = []
    for i, e in enumerate(exps):
        if not e:
            continue
        name = _var_name(i, universe)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def decimal(c: Coefficient) -> str:
    """c as text, p or p/q, as str writes it.  Where an int has more digits
    than the interpreter converts to text, a ResourceLimitError names the
    count instead."""
    try:
        return str(c)
    except ValueError:  # more digits than int converts
        k = max(abs(c.numerator), c.denominator)
        digits = max(1, int(k.bit_length() * log10(2)) - 1)  # at most the count
        while k >= 10**digits:
            digits += 1
        raise ResourceLimitError(f"a number of {digits} digits is longer "
                                 f"than int converts to text") from None


def to_text(p: Poly, universe=ENGINE_VARS) -> str:
    """Canonical text form: monomials sorted by (graded) degree then by
    exponent vector, e.g. '1/12*n - 1/12*m1 - 1/6*m2'."""
    if p.is_zero:
        return "0"
    chunks = []
    for exps in sorted(p.terms, key=lambda e: _sort_key(e, universe)):
        coef = p.terms[exps]
        mono = _monomial_text(exps, universe)
        mag = abs(coef)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{decimal(mag)}*{mono}"
        else:
            body = decimal(mag)
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(chunks)


def to_json_dict(p: Poly, universe=ENGINE_VARS) -> dict:
    terms = []
    for exps in sorted(p.terms, key=lambda e: _sort_key(e, universe)):
        coef = p.terms[exps]
        exp_map = {
            _var_name(i, universe): e for i, e in enumerate(exps) if e
        }
        terms.append({"coef": decimal(coef), "exps": exp_map})
    return {"terms": terms}


def integerize(p: Poly) -> tuple[Poly, int]:
    """Write p = P / d with P having coprime integer coefficients and d a
    positive integer; returns (P, d)."""
    scaled, q = _scaled(p.terms)
    g = gcd(q, *scaled.values())
    return _raw({e: c // g for e, c in scaled.items()}), q // g

