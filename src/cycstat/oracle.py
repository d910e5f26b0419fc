"""Brute-force ground truth over small symmetric groups: what verify runs.

Conjugacy classes hold all of S_n by cycle type, grown from the classes of
S_{n-1}, and statistics are evaluated from their definitions by generated
loop kernels.  The engine is certified against these; nothing here touches
the symbolic machinery.  The counts and definitional evaluators the tests
also compare against are in reference, which verify does not load.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import InternalConsistencyError, ResourceLimitError

# largest n whose S_n is enumerated: S_8 has 40,320 permutations
N_CAP = 8


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
            for x in range(1, n):
                cycle = []  # x's cycle, or none when an earlier cycle holds x
                while not seen[x]:
                    seen[x] = True
                    cycle.append(x)
                    x = w[x - 1]
                for i in cycle:
                    child = [*w, w[i - 1]]  # n -> w(i), and one write for i -> n
                    child[i - 1] = n
                    grown[len(cycle)].append(tuple(child))
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


def compile_kernel(translates):
    """pi -> the sum of the translates' values at pi, an int whenever it is
    an integer, as generated Python: a translate's points L_1 < ... < L_m
    are placed in order, a free one by a for loop, a forced one (adjacent to
    the one before, or an edge's end at an earlier point) by a lookup in pi
    or pi^-1 and a continue guard.  Each weight monomial is summed in ints
    and multiplied once by its coefficient over the common denominator D,
    bound by name (digits could pass the int-string limit).  Each CHUNK
    translates make one function, compiled apart to bound the compiler's
    memory; the last one adds up the others and divides by D."""
    scale = lcm(*(c.denominator for t in translates for c in t.weight.terms.values()))
    names = {"Fraction": Fraction, "D": scale}
    for first in range(0, max(len(translates), 1), CHUNK):
        chunk, defs, last = translates[first:first + CHUNK], [], first + CHUNK >= len(translates)
        body = ["total = 0"] + [f"total += part{h}(pi)" for h in range(0, first, CHUNK) if last]
        for k, t in enumerate(chunk, first):
            terms = []
            for j, (exps, c) in enumerate(t.weight.terms.items()):
                names[f"c{k}_{j}"] = c.numerator * (scale // c.denominator)
                terms.append("*".join([f"a{i}**{e}" if e > 1 else f"a{i}"
                                       for i, e in enumerate(exps, 1) if e] or ["1"]))
            body += _placed(t, 1, k, terms, defs)
        inverse = ["inv = [0] * (n + 1)", "for x, y in enumerate(pi, 1):", "    inv[y] = x"]
        tails = any(v < u for t in chunk for u, v in zip(t.packed.positions, t.packed.values))
        body[:0] = ["n = len(pi)", "p = (0, *pi)"] + (inverse if tails else ["inv = None"])
        body.append("return total // D if total % D == 0 else Fraction(total, D)"
                    if last and scale > 1 else "return total")
        defs.append(f"def part{first}(pi):\n    " + "\n    ".join(body))
        exec(compile("\n\n".join(defs), "<kernel>", "exec"), names)
    return names[f"part{first}"]


# translates in one generated function, and free points (for loops) nested
# in one: a translate with more goes on in a helper, as CPython nests 20
CHUNK, NESTED_LOOPS = 32, 18


def _placed(t, first: int, k: int, terms: list[str], defs: list[str]) -> list[str]:
    """Lines that place points first.. of translate k, the points before them
    bound, and add its weighted monomials to total; helpers go to defs."""
    into = {v: u for u, v in zip(t.packed.positions, t.packed.values)}
    out = dict(zip(t.packed.positions, t.packed.values))
    m, lines, indent, depth = t.support_size, [], "", 0
    for i in range(first, m + 1):
        a, prev, u, v = f"a{i}", f"a{i - 1}" if i > 1 else "0", into.get(i, i), out.get(i, i)
        hi, end = (f"n - {c}" if c > 0 else f"n + {-c}" if c else "n" for c in (m - i, m - i - 1))
        # each way a is forced: where it is read, and the check it makes
        forced = [(x, check) for x, check, on in (
            (f"{prev} + 1", None, i - 1 in t.constraints),
            (f"p[a{u}]", f"p[a{u}] == {a}", u < i),
            (f"inv[a{v}]", f"p[{a}] == a{v}", v < i)) if on]
        checks = [check for _, check in forced[1:]] + [f"p[{a}] == {a}"] * (out.get(i) == i)
        if forced:
            lines.append(f"{indent}{a} = {forced[0][0]}")
            if i - 1 not in t.constraints:  # an adjacent a is at most hi, as prev is below it
                checks.insert(0, f"{prev} < {a} <= {hi}")
        elif depth == NESTED_LOOPS:
            helper = ["total = 0"] + _placed(t, i, k, terms, defs) + ["return total"]
            name, args = f"t{k}_{i}", ", ".join(["p", "inv", "n"] + [f"a{h}" for h in range(1, i)])
            defs.append(f"def {name}({args}):\n    " + "\n    ".join(helper))
            return lines + [f"{indent}total += {name}({args})"]
        else:
            lines.append(f"{indent}for {a} in range({prev} + 1, {end}):")
            indent, depth = indent + "    ", depth + 1
        if checks:
            lines += [f"{indent}if not ({' and '.join(checks)}):", f"{indent}    continue"]
    tags = [f"{k}_{j}" for j in range(len(terms))]  # monomial j of translate k is c{tag} * s{tag}
    lines += [f"{indent}s{tag} += {x}" for tag, x in zip(tags, terms)]
    return [f"s{tag} = 0" for tag in tags] + lines + [f"total += c{tag} * s{tag}" for tag in tags]
