"""Brute-force ground truth over small symmetric groups.

Everything here works by direct enumeration: conjugacy classes hold all of
S_n by cycle type, grown from the classes of S_{n-1}, statistics are
evaluated from their definitions, and compatible functions/injections are
counted by backtracking.  The engine is certified against these counts;
nothing here touches the symbolic machinery.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .errors import InternalConsistencyError, ResourceLimitError
from .partial import PartialPermutation

# largest n whose S_n is enumerated: S_8 has 40,320 permutations
N_CAP = 8

# largest n the two counts after one representative take: they visit up to
# 2^n sets of used points, and n fixed points into the identity take 0.05 s
# at n = 12 and about 1 s at n = 16
COUNT_CAP = 12


def partitions(n: int):
    """Yield the partitions of n as weakly decreasing tuples."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def cycle_type(w: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation in one-line notation (w[i-1] = w(i))."""
    n = len(w)
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = w[x - 1]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def class_size(lam) -> int:
    """n! / prod_i i^{m_i} m_i!"""
    denom = 1
    for i, mi in Counter(lam).items():
        denom *= i**mi * factorial(mi)
    return factorial(sum(lam)) // denom


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceLimitError(f"oracle enumeration capped at n <= {cap}, got {n}")


@lru_cache(maxsize=N_CAP + 1)
def class_table(n: int) -> dict[tuple[int, ...], list]:
    """All of S_n bucketed by cycle type, grown from the table of S_{n-1}:
    each w there gives w with n as a new fixed point, of type lam + (1,),
    and for each i, w with n inserted after i in i's cycle (n -> w(i), i ->
    n), whose type is lam with the length c of that cycle made c + 1.  Each
    w's cycles are walked once for its n children.  The class-size formula
    is a self-check at every n >= 1."""
    _check_cap(n, N_CAP)
    if n == 0:
        return {(): [()]}
    table: dict[tuple[int, ...], list] = {lam: [] for lam in partitions(n)}
    for lam, members in class_table(n - 1).items():
        table[lam + (1,)] += [w + (n,) for w in members]
        # lam with its first part c made c + 1 stays weakly decreasing
        grown: dict[int, list] = {}
        for j, c in enumerate(lam):
            if c not in grown:
                grown[c] = table[lam[:j] + (c + 1,) + lam[j + 1:]]
        for w in members:
            seen = [False] * n
            for start in range(1, n):
                if seen[start]:
                    continue
                cycle = []
                x = start
                while not seen[x]:
                    seen[x] = True
                    cycle.append(x)
                    x = w[x - 1]
                grown[len(cycle)] += [w[:i - 1] + (n,) + w[i:] + (w[i - 1],) for i in cycle]
    for lam, members in table.items():
        if len(members) != class_size(lam):
            raise InternalConsistencyError(
                f"class {lam} of S_{n} has {len(members)} members, "
                f"but the class-size formula gives {class_size(lam)}"
            )
    return table


def conjugacy_class(lam) -> list:
    lam = tuple(sorted((int(x) for x in lam), reverse=True))
    return class_table(sum(lam))[lam]


def class_moment(evaluator, lam, d: int = 1) -> Fraction:
    """Exact average of evaluator(w)^d over the class of cycle type lam.
    The powers are added as they come, exact ints for an int-valued
    evaluator, and the sum is divided by the class size once."""
    members = conjugacy_class(lam)
    return Fraction(sum(evaluator(w) ** d for w in members)) / len(members)


def representative(lam) -> tuple[int, ...]:
    """One permutation of cycle type lam: consecutive cycles."""
    n = sum(lam)
    w = [0] * n
    start = 1
    for part in lam:
        for off in range(part):
            w[start + off - 1] = start + (off + 1) % part
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
    memo: dict[tuple[int, frozenset], int] = {}

    def rec(idx: int, used: frozenset) -> int:
        if idx == len(options):
            return 1
        if (idx, used) not in memo:
            memo[idx, used] = sum(
                rec(idx + 1, used | set(image))
                for image in options[idx]
                if used.isdisjoint(image)
            )
        return memo[idx, used]

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
