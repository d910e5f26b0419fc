"""Contraction of a packed partial permutation along a set partition.

A function constant on the blocks of rho must identify successors of
identified vertices (the underlying permutation is deterministic) and,
being a permutation, predecessors as well.  Closing rho under both
propagations yields a partition whose quotient graph again has in- and
out-degree at most one, so it decomposes into cycles and paths; contract
returns its cycle-path type.
"""

from __future__ import annotations

from .partial import CyclePathType, PartialPermutation, component_type
from .setpartitions import SetPartition, UnionFind


def contract(p: PartialPermutation, rho: SetPartition) -> CyclePathType:
    """Equivalence-close rho under successor/predecessor propagation and
    return the cycle-path type of the quotient graph."""
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

    for block in rho.blocks:
        for x in block[1:]:
            union(block[0], x)
            while queue:
                union(*queue.pop())

    quotient_edges = {}
    for u, v in succ0.items():
        quotient_edges[uf.find(u)] = uf.find(v)
    vertices = {uf.find(v) for v in range(1, m + 1)}
    return component_type(quotient_edges, vertices)
