"""Ground truth the tests compare the engine against, by definition.

Cycle types, one representative per class, compatible functions and
injections counted by backtracking, and the named statistics and bivincular
patterns evaluated straight from their definitions.  verify runs none of
this, so it lives apart from oracle and no command loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .oracle import _check_cap
from .partial import PartialPermutation

# largest n the two counts after one representative take: they visit up to
# 2^n sets of used points, and n fixed points into the identity take 0.05 s
# at n = 12 and about 1 s at n = 16
COUNT_CAP = 12


def cycle_type(w: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation in one-line notation (w[i-1] = w(i))."""
    seen = [False] * (len(w) + 1)
    parts = []
    for x in range(1, len(w) + 1):
        length = 0  # of x's cycle, or 0 when an earlier cycle holds x
        while not seen[x]:
            seen[x] = True
            x = w[x - 1]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def representative(lam) -> tuple[int, ...]:
    """One permutation of cycle type lam: consecutive cycles."""
    w, start = [], 1
    for part in lam:
        w += [start + (off + 1) % part for off in range(part)]
        start += part
    return tuple(w)


# -- compatible functions and injections -------------------------------


def _component_images(kind, size, pi):
    """All ways to map one component of size vertices into the permutation
    pi's ground set, following pi along the edges, as tuples in the
    component's vertex order; a cycle's image must close up."""
    out = []
    for x in range(1, len(pi) + 1):
        image = [x]
        for _ in range(size - 1):
            image.append(pi[image[-1] - 1])
        if len(set(image)) == size and (kind == "path" or pi[image[-1] - 1] == x):
            out.append(tuple(image))
    return out


def _images(p: PartialPermutation, pi) -> list[list[tuple[int, ...]]]:
    """_component_images of each component of p, whose kind and vertex count
    are read from p's cycle-path type: a c-cycle has c vertices and a path of
    l edges l + 1."""
    t = p.cycle_path_type()
    return ([_component_images("cycle", c, pi) for c in t.cycles]
            + [_component_images("path", l + 1, pi) for l in t.paths])


def compatible_function_count(p: PartialPermutation, lam) -> int:
    """Functions psi from the support of p to [n] with pi(psi(i)) = psi(j)
    on every edge and psi injective on each component separately."""
    _check_cap(sum(lam), COUNT_CAP)
    pi = representative(tuple(sorted((int(x) for x in lam), reverse=True)))
    return prod(len(images) for images in _images(p, pi))


def injection_count(p: PartialPermutation, lam, pi=None) -> int:
    """Injections phi of the support of p into [n] with pi(phi(i)) = phi(j)
    on every edge; this is (n)_m * E_lambda[indicator]."""
    _check_cap(sum(lam), COUNT_CAP)
    if pi is None:
        pi = representative(tuple(sorted((int(x) for x in lam), reverse=True)))
    options = _images(p, pi)

    # the ways to place components idx.. depend on the points used so far,
    # not on how they were used, so each (idx, used) is counted once
    @lru_cache(maxsize=None)
    def rec(idx: int, used: frozenset) -> int:
        if idx == len(options):
            return 1
        return sum(rec(idx + 1, used | set(image)) for image in options[idx]
                   if used.isdisjoint(image))

    return rec(0, frozenset())


# -- definitional statistic evaluators ---------------------------------


def descent_count(w) -> int:
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def major_index(w) -> int:
    return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def excedance_count(w) -> int:
    return sum(1 for i, v in enumerate(w, start=1) if v > i)


def inversion_count(w) -> int:
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def fixed_point_count(w) -> int:
    return sum(1 for i, v in enumerate(w, start=1) if v == i)


def two_cycle_count(w) -> int:
    return sum(1 for part in cycle_type(w) if part == 2)


def bivincular_count(sigma, A, B, w, f=None, g=None) -> Fraction:
    """Weighted occurrences of the bivincular pattern straight from the
    definition: choose positions, check relative order and adjacencies."""
    from itertools import combinations

    k = len(sigma)
    n = len(w)
    total = Fraction(0)
    for pos in combinations(range(1, n + 1), k):
        vals = tuple(w[i - 1] for i in pos)
        rank = {v: r + 1 for r, v in enumerate(sorted(vals))}
        if tuple(rank[v] for v in vals) != tuple(sigma):
            continue
        if any(pos[a] != pos[a - 1] + 1 for a in A):
            continue
        svals = sorted(vals)
        if any(svals[b] != svals[b - 1] + 1 for b in B):
            continue
        term = Fraction(1)
        if f is not None:
            term *= f.evaluate(pos)
        if g is not None:
            term *= g.evaluate(vals)
        total += term
    return total
