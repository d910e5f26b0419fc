"""Partial permutations and their cycle-path types.

A partial permutation is an injection recorded as aligned position/value
tuples (I, J) with i_t mapping to j_t.  Its functional digraph on I union J
decomposes into directed cycles and directed paths; the sorted multisets of
cycle lengths and path edge-lengths form the cycle-path type, which is the
invariant under simultaneous relabeling.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import InternalConsistencyError, MalformedInputError
from .value import Value


class PartialPermutation(Value):
    """Aligned tuples (positions, values); canonical form has positions increasing."""

    _fields = ("positions", "values")

    def __init__(self, positions: tuple[int, ...], values: tuple[int, ...]):
        pos = tuple(int(v) for v in positions)
        val = tuple(int(v) for v in values)
        if len(pos) != len(val):
            raise MalformedInputError("positions and values must have equal length")
        if len(set(pos)) != len(pos):
            raise MalformedInputError(f"duplicate positions in {pos}")
        if len(set(val)) != len(val):
            raise MalformedInputError(f"duplicate values in {val}")
        if any(v < 1 for v in pos + val):
            raise MalformedInputError("entries must be positive integers")
        # simultaneous reordering so positions increase is the identity on the object
        order = sorted(range(len(pos)), key=lambda t: pos[t])
        self.__dict__.update(
            positions=tuple(pos[t] for t in order), values=tuple(val[t] for t in order)
        )

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.positions) | set(self.values)))

    def edges(self) -> dict[int, int]:
        return dict(zip(self.positions, self.values))

    def cycle_path_type(self) -> "CyclePathType":
        return component_type(self.edges(), self.support)

    def __str__(self) -> str:
        return f"({','.join(map(str, self.positions))})({','.join(map(str, self.values))})"


class CyclePathType(Value):
    """Pair of partitions: cycle lengths mu, path edge-lengths nu."""

    _fields = ("cycles", "paths")

    def __init__(self, cycles: tuple[int, ...], paths: tuple[int, ...]):
        self.__dict__.update(
            cycles=tuple(sorted((int(c) for c in cycles), reverse=True)),
            paths=tuple(sorted((int(p) for p in paths), reverse=True)),
        )
        if any(c < 1 for c in self.cycles) or any(p < 1 for p in self.paths):
            raise MalformedInputError("cycle and path lengths must be >= 1")

    @property
    def size(self) -> int:
        """Number of edges k = |mu| + |nu|."""
        return sum(self.cycles) + sum(self.paths)

    @property
    def support_size(self) -> int:
        """Number of vertices m; each length-l path carries l + 1 vertices."""
        return sum(self.cycles) + sum(self.paths) + len(self.paths)

    @property
    def key(self) -> str:
        mu = ",".join(map(str, self.cycles))
        nu = ",".join(map(str, self.paths))
        return f"mu=[{mu}];nu=[{nu}]"

    @classmethod
    def from_key(cls, key: str) -> "CyclePathType":
        """Inverse of key; refuses as a bad type key every string key does not
        write, e.g. "mu=[1,2];nu=[]"."""

        def parse(chunk: str) -> tuple[int, ...]:
            inner = chunk.split("[", 1)[1].rstrip("]")
            return tuple(int(x) for x in inner.split(",") if x)

        try:
            mu, nu = key.split(";")
            t = cls(parse(mu), parse(nu))
        except (ValueError, IndexError):  # MalformedInputError is a ValueError
            t = None
        if t is None or t.key != key:
            raise MalformedInputError(f"bad type key {key!r}")
        return t

    def representative(self) -> PartialPermutation:
        """Canonical packed partial permutation of this type: cycles laid out
        first over consecutive integers (decreasing length), then paths."""
        pos, val = [], []
        nxt = 1
        for c in self.cycles:
            verts = list(range(nxt, nxt + c))
            for t in range(c):
                pos.append(verts[t])
                val.append(verts[(t + 1) % c])
            nxt += c
        for p in self.paths:
            verts = list(range(nxt, nxt + p + 1))
            for t in range(p):
                pos.append(verts[t])
                val.append(verts[t + 1])
            nxt += p + 1
        return PartialPermutation(tuple(pos), tuple(val))


def component_type(edges: dict[int, int], vertices) -> CyclePathType:
    """Cycle-path type of a functional digraph with in/out degree <= 1:
    each path is walked from its source, the one vertex with no incoming
    edge, and each cycle from a vertex no path reached.  A vertex with two
    predecessors is refused: a path walked into a cycle would go round it
    forever."""
    heads = set(edges.values())
    if len(heads) != len(edges):
        raise InternalConsistencyError(f"a vertex of {edges} has two predecessors")
    seen = set()
    mu, nu = [], []
    for v in vertices:
        if v not in heads:
            seen.add(v)
            length = 0
            while v in edges:
                v = edges[v]
                seen.add(v)
                length += 1
            nu.append(length)
    for v in edges:
        if v not in seen:
            length, w = 1, edges[v]
            while w != v:
                seen.add(w)
                w = edges[w]
                length += 1
            mu.append(length)
    return CyclePathType(tuple(mu), tuple(nu))


def covering_injections(m: int, l: int):
    """Yield (a, b): increasing m- and l-tuples covering [r], for every r
    from max(m, l) to m + l; these are the order-preserving injections of two
    supports into their union [r].  b holds the r - m points a misses and
    m + l - r points of a."""
    for r in range(max(m, l), m + l + 1):
        universe = range(1, r + 1)
        for a in combinations(universe, m):
            missed = tuple(set(universe).difference(a))
            for shared in combinations(a, m + l - r):
                yield a, tuple(sorted(missed + shared))


def placements(m: int, l: int) -> int:
    """How many pairs covering_injections(m, l) yields."""
    return sum(comb(r, m) * comb(m, m + l - r) for r in range(max(m, l), m + l + 1))


def push_adjacencies(constraints, a: tuple[int, ...]) -> set[int] | None:
    """Image of adjacency constraints under the increasing tuple a: the
    constraint c, which makes support elements c and c + 1 consecutive,
    becomes a[c - 1].  None when a[c] is not a[c - 1] + 1, since nothing can
    sit strictly between two consecutive integers."""
    out = set()
    for c in constraints:
        if a[c] != a[c - 1] + 1:
            return None
        out.add(a[c - 1])
    return out
