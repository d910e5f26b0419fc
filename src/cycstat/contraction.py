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


def contract(p: PartialPermutation, blocks: Iterable[Sequence[int]]) -> CyclePathType:
    """Equivalence-close the blocks under successor/predecessor propagation
    and return the cycle-path type of the quotient graph."""
    m = len(p.support)
    parent = list(range(m + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            # path halving: x skips to its grandparent
            parent[x] = x = parent[parent[x]]
        return x

    # one successor and one predecessor per class, keyed by its root (an entry
    # moves when its root joins another); joining two classes that both have
    # one forces those two together, which keeps propagation transitive
    succ = p.edges()
    pred = {v: u for u, v in succ.items()}
    joins = [(block[0], x) for block in blocks for x in block[1:]]
    while joins:
        a, b = joins.pop()
        a, b = root(a), root(b)
        if a == b:
            continue
        parent[b] = a
        for neighbor in (succ, pred):
            if b in neighbor:
                if a in neighbor:
                    joins.append((neighbor[a], neighbor.pop(b)))
                else:
                    neighbor[a] = neighbor.pop(b)

    quotient_edges = {r: root(v) for r, v in succ.items()}
    return component_type(quotient_edges, {root(v) for v in range(1, m + 1)})
