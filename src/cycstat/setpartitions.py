"""Set partitions of [m] as tuples of blocks, and the Bell numbers.

A partition is a tuple of blocks: each block is an increasing tuple, and the
blocks are ordered by their least element.  Enumeration follows the
lexicographic order of the restricted-growth string (element i is labelled
with the index of its block), so it is deterministic.
"""

from __future__ import annotations

from functools import lru_cache


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


@lru_cache(maxsize=None)
def bell_number(m: int) -> int:
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]
