"""Partial permutations, cycle-path types, packing and relabeling."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cycstat.errors import MalformedInputError, SizeMismatchError
from cycstat.partial import (
    CyclePathType,
    PartialPermutation,
    covering_injections,
    placements,
    relabel,
)


class TestConstruction:
    def test_positions_sorted_on_construction(self):
        p = PartialPermutation((3, 1), (4, 2))
        assert p.positions == (1, 3)
        assert p.values == (2, 4)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(MalformedInputError):
            PartialPermutation((1, 1), (2, 3))

    def test_duplicate_values_rejected(self):
        with pytest.raises(MalformedInputError):
            PartialPermutation((1, 2), (3, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedInputError):
            PartialPermutation((1, 2), (3,))

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(MalformedInputError):
            PartialPermutation((0,), (1,))


class TestCanonicalize:
    def test_two_edge_path(self):
        # relabeling {3,7,9} -> {1,2,3} is forced by order preservation
        p = PartialPermutation((3, 7), (7, 9))
        packed, support = p.canonicalize()
        assert packed == PartialPermutation((1, 2), (2, 3))
        assert support == (3, 7, 9)

    def test_single_fixed_point(self):
        packed, support = PartialPermutation((5,), (5,)).canonicalize()
        assert packed == PartialPermutation((1,), (1,))
        assert support == (5,)

    def test_relabel_inverts_canonicalize(self):
        p = PartialPermutation((2, 9, 4), (9, 2, 11))
        packed, support = p.canonicalize()
        assert relabel(support, packed) == p


class TestRelabel:
    def test_singleton(self):
        assert relabel((4, 8), PartialPermutation((1,), (2,))) == PartialPermutation((4,), (8,))

    def test_identity_support(self):
        p = PartialPermutation((1, 2), (2, 3))
        assert relabel((1, 2, 3), p) == p

    def test_order_preserving_substitution(self):
        p = PartialPermutation((1, 2), (2, 3))
        assert relabel((2, 5, 9), p) == PartialPermutation((2, 5), (5, 9))

    def test_size_mismatch_raises(self):
        with pytest.raises(SizeMismatchError):
            relabel((1, 2), PartialPermutation((1, 2), (2, 3)))


class TestCyclePathType:
    def test_large_worked_instance(self):
        # 15-point instance whose graph has cycles (2,1,1) and paths (2,2,1)
        p = PartialPermutation(
            (2, 3, 5, 7, 9, 10, 11, 13, 15),
            (7, 9, 5, 14, 3, 6, 10, 1, 15),
        )
        t = p.cycle_path_type()
        assert t.cycles == (2, 1, 1)
        assert t.paths == (2, 2, 1)

    def test_fixed_point_is_one_cycle(self):
        t = PartialPermutation((1,), (1,)).cycle_path_type()
        assert (t.cycles, t.paths) == ((1,), ())

    def test_two_cycle(self):
        t = PartialPermutation((1, 2), (2, 1)).cycle_path_type()
        assert (t.cycles, t.paths) == ((2,), ())

    def test_single_edge_is_path(self):
        t = PartialPermutation((1,), (2,)).cycle_path_type()
        assert (t.cycles, t.paths) == ((), (1,))

    def test_support_size_identity(self):
        # m = |mu| + |nu| + len(nu): each length-l path has l + 1 vertices
        t = CyclePathType((2, 1, 1), (2, 2, 1))
        assert t.size == 9
        assert t.support_size == 4 + 5 + 3

    def test_representative_round_trip(self):
        for t in [
            CyclePathType((3, 2), (2, 1)),
            CyclePathType((), (1, 1, 1)),
            CyclePathType((4,), ()),
        ]:
            rep = t.representative()
            assert rep.is_packed
            assert rep.cycle_path_type() == t


@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
    st.permutations(range(6)),
)
def test_relabeling_invariance(support_extra, perm):
    """cycle_path_type is invariant under order-preserving relabelings."""
    base = PartialPermutation((1, 2, 4), (2, 3, 5))
    m = len(base.support)
    pool = sorted(set(support_extra) | set(range(100, 100 + m)))[:m]
    if len(pool) < m:
        return
    assert relabel(sorted(pool), base).cycle_path_type() == base.cycle_path_type()


def test_str_form():
    assert str(PartialPermutation((1, 2), (2, 1))) == "(1,2)(2,1)"


def _covering_pairs_by_filter(m, l):
    """The definition: every pair of increasing m- and l-tuples in [r] whose
    union is [r], for max(m, l) <= r <= m + l."""
    out = []
    for r in range(max(m, l), m + l + 1):
        universe = set(range(1, r + 1))
        for a in combinations(sorted(universe), m):
            for b in combinations(sorted(universe), l):
                if set(a) | set(b) == universe:
                    out.append((a, b))
    return out


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("l", range(6))
def test_covering_injections_match_filter_definition(m, l):
    pairs = list(covering_injections(m, l))
    assert len(pairs) == len(set(pairs)) == placements(m, l)
    assert set(pairs) == set(_covering_pairs_by_filter(m, l))
