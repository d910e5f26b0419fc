"""Pattern statistics compiled into translate expansions.

A bivincular pattern (sigma, A, B) with weights f, g counts weighted
occurrences of sigma: positions i_1 < ... < i_k whose values are in the
relative order of sigma, with a in A forcing i_{a+1} = i_a + 1 and b in B
forcing the (b+1)-st smallest chosen value to be one more than the b-th.
Each occurrence is determined by the union of its positions and values
(a set of some size m with k <= m <= 2k) together with the packed shape it
induces, which turns the count into a sum of constrained translates.
"""

from __future__ import annotations

from .errors import MalformedInputError
from .partial import PartialPermutation, covering_injections, push_adjacencies
from .poly import ONE, Poly, xvar
from .translates import ConstrainedTranslate, RegularStatistic
from .value import Value


class BivincularPattern(Value):
    _fields = ("sigma", "A", "B", "f", "g")

    def __init__(self, sigma: tuple[int, ...], A: frozenset[int], B: frozenset[int],
                 f: Poly, g: Poly):
        sigma = tuple(int(s) for s in sigma)
        self.__dict__.update(sigma=sigma, A=frozenset(int(a) for a in A),
                             B=frozenset(int(b) for b in B), f=f, g=g)
        k = len(sigma)
        if sorted(sigma) != list(range(1, k + 1)):
            raise MalformedInputError(f"{sigma} is not a permutation of [{k}]")
        if not (self.A <= set(range(1, k)) and self.B <= set(range(1, k))):
            raise MalformedInputError(
                f"adjacency sets must lie in [{k - 1}]"
            )
        for w, name in ((self.f, "f"), (self.g, "g")):
            if w.num_vars > k:
                raise MalformedInputError(f"weight {name} uses more than {k} variables")

    @property
    def size(self) -> int:
        return len(self.sigma)

    @property
    def shift(self) -> int:
        return len(self.A) + len(self.B)

    @property
    def power(self) -> int:
        deg_f = max(int(self.f.total_degree()), 0) if not self.f.is_zero else 0
        deg_g = max(int(self.g.total_degree()), 0) if not self.g.is_zero else 0
        return self.size + deg_f + deg_g - self.shift


def compile_bivincular(pattern: BivincularPattern) -> RegularStatistic:
    """Expand the pattern count into constrained translates.

    For each support size m and each way to place the k positions (U,
    increasing) and the k values (as a set, arranged in sigma's relative
    order) so that they cover [m], the occurrence indicator becomes a packed
    partial permutation; the A/B adjacencies force consecutive support
    elements and become subset constraints.
    """
    sigma = pattern.sigma
    k = pattern.size
    if k == 0:
        return RegularStatistic.constant(
            pattern.f.constant_value() * pattern.g.constant_value()
        )
    out: list[ConstrainedTranslate] = []
    for U, vset in covering_injections(k, k):
        # vset sorted ascending; value at position a has rank sigma[a]
        V = tuple(vset[sigma[a] - 1] for a in range(k))
        # A constrains adjacent positions, B adjacent values
        CA = push_adjacencies(pattern.A, U)
        CB = push_adjacencies(pattern.B, vset)
        if CA is None or CB is None:
            continue
        weight = pattern.f.relabel([u - 1 for u in U]) * pattern.g.relabel([v - 1 for v in V])
        if weight.is_zero:
            continue
        packed = PartialPermutation(U, V)
        out.append(ConstrainedTranslate(packed, frozenset(CA | CB), weight))
    return RegularStatistic(tuple(out))


def pattern_count(word, A=(), B=()) -> RegularStatistic:
    """N_{sigma,A[,B]} with unit weights; word is e.g. (2,1) or "21"."""
    sigma = _word(word)
    return compile_bivincular(
        BivincularPattern(sigma, frozenset(A), frozenset(B), ONE, ONE)
    )


def _word(word) -> tuple[int, ...]:
    if isinstance(word, str):
        return tuple(int(ch) for ch in word)
    return tuple(int(x) for x in word)


# -- named statistics --------------------------------------------------


def exc() -> RegularStatistic:
    """Excedance count: positions i with pi(i) > i."""
    t = ConstrainedTranslate(PartialPermutation((1,), (2,)), frozenset(), ONE)
    return RegularStatistic((t,))


def fix() -> RegularStatistic:
    """Fixed-point count (the class function m_1)."""
    t = ConstrainedTranslate(PartialPermutation((1,), (1,)), frozenset(), ONE)
    return RegularStatistic((t,))


def cyc2() -> RegularStatistic:
    """Number of 2-cycles (the class function m_2)."""
    t = ConstrainedTranslate(PartialPermutation((1, 2), (2, 1)), frozenset(), ONE)
    return RegularStatistic((t,))


def des() -> RegularStatistic:
    """Descent count: vincular 21-pattern with adjacent positions."""
    return pattern_count((2, 1), A=(1,))


def inv() -> RegularStatistic:
    """Inversion count: classical 21-pattern occurrences."""
    return pattern_count((2, 1))


def maj() -> RegularStatistic:
    """Major index: sum of descent positions, as the weighted vincular
    pattern sum_{descents i} i; expands into eight translates."""
    return compile_bivincular(
        BivincularPattern((2, 1), frozenset({1}), frozenset(), xvar(1), ONE)
    )


BUILTINS = {
    "exc": exc,
    "des": des,
    "maj": maj,
    "inv": inv,
    "fix": fix,
    "cyc2": cyc2,
}


def builtin(name: str) -> RegularStatistic:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise MalformedInputError(f"unknown builtin statistic {name!r}") from None
