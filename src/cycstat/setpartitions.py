"""Set partitions of [m] as tuples of blocks, with lower Moebius values.

A partition is a tuple of blocks: each block is an increasing tuple, and the
blocks are ordered by their least element.  Enumeration follows the
lexicographic order of the restricted-growth string (element i is labelled
with the index of its block), so it is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def set_partitions(m: int):
    """Yield every partition of [m] exactly once (Bell(m) of them), in
    lexicographic order of the restricted-growth string: each element joins
    every existing block in turn, then opens a new one."""
    blocks: list[list[int]] = []

    def place(x: int):
        if x > m:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(x)
            yield from place(x + 1)
            block.pop()
        blocks.append([x])
        yield from place(x + 1)
        blocks.pop()

    yield from place(1)


def mobius_lower(blocks) -> int:
    """mu(0_m, rho) = (-1)^(m - #blocks) * prod (|block| - 1)! for the
    partition rho of [m] with these blocks."""
    val = 1
    for block in blocks:
        val *= factorial(len(block) - 1)
        # m - #blocks is the sum of |block| - 1, odd once per even block
        if len(block) % 2 == 0:
            val = -val
    return val


@lru_cache(maxsize=None)
def bell_number(m: int) -> int:
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]
