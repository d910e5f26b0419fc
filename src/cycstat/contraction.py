"""Contraction of a packed partial permutation along blocks of its support.

A function constant on each block must identify successors of identified
vertices (the underlying permutation is deterministic) and, being a
permutation, predecessors as well.  Closing the blocks under both
propagations yields a partition whose quotient graph again has in- and
out-degree at most one, so it decomposes into cycles and paths; contract
returns its cycle-path type.

The blocks may be any sequences of support points: points in no block stay
alone and overlapping blocks merge, so contracting along rho + tau contracts
along the join of rho and tau.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .partial import CyclePathType, PartialPermutation, component_type
from .setpartitions import UnionFind


def contract(p: PartialPermutation, blocks: Iterable[Sequence[int]]) -> CyclePathType:
    """Equivalence-close the blocks under successor/predecessor propagation
    and return the cycle-path type of the quotient graph."""
    m = len(p.support)
    succ0 = p.edges()
    pred0 = {v: u for u, v in succ0.items()}

    uf = UnionFind(m + 1)
    # one representative successor/predecessor per class, keyed by root;
    # uniting two classes that both know a successor forces those
    # successors together, which keeps propagation transitive
    succ = dict(succ0)
    pred = dict(pred0)
    queue: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        root = uf.union(ra, rb)
        for neighbor in (succ, pred):
            na = neighbor.pop(ra, None)
            nb = neighbor.pop(rb, None)
            if na is not None and nb is not None:
                queue.append((na, nb))
            keep = na if na is not None else nb
            if keep is not None:
                neighbor[root] = keep

    for block in blocks:
        for x in block[1:]:
            union(block[0], x)
            while queue:
                union(*queue.pop())

    quotient_edges = {}
    for u, v in succ0.items():
        quotient_edges[uf.find(u)] = uf.find(v)
    vertices = {uf.find(v) for v in range(1, m + 1)}
    return component_type(quotient_edges, vertices)
