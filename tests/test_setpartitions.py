"""Set partitions: enumeration as block tuples, and the Bell numbers."""

from cycstat.setpartitions import bell_number, set_partitions


def _partitions_by_rgs(m):
    """Reference enumeration: every restricted-growth string of length m in
    lexicographic order, read as blocks (element i in block rgs[i - 1])."""
    def grow(rgs):
        if len(rgs) == m:
            yield rgs
            return
        for label in range(max(rgs, default=-1) + 2):
            yield from grow(rgs + [label])

    for rgs in grow([]):
        blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
        for i, label in enumerate(rgs, start=1):
            blocks[label].append(i)
        yield tuple(map(tuple, blocks))


class TestEnumeration:
    def test_m1(self):
        assert list(set_partitions(1)) == [((1,),)]

    def test_counts_match_bell_numbers(self):
        # Bell(3) = 5 and Bell(5) = 52 by direct enumeration
        assert len(list(set_partitions(3))) == 5
        assert len(list(set_partitions(5))) == 52

    def test_no_duplicates(self):
        # each partition covers [m] once, with increasing blocks ordered by
        # least element, in restricted-growth order
        for m in range(8):
            parts = list(set_partitions(m))
            assert len(set(parts)) == len(parts) == bell_number(m)
            for blocks in parts:
                assert sorted(x for block in blocks for x in block) == list(range(1, m + 1))
                assert all(list(block) == sorted(block) for block in blocks)
                assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
            assert parts == list(_partitions_by_rgs(m))

    def test_bell_numbers(self):
        assert [bell_number(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
        assert bell_number(12) == 4213597

