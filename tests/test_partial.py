"""Partial permutations, cycle-path types and covering injections."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from conftest import all_cycle_path_types
from cycstat.errors import InternalConsistencyError, MalformedInputError
from cycstat.partial import (
    CyclePathType,
    PartialPermutation,
    component_type,
    covering_injections,
    placements,
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
            assert rep.support == tuple(range(1, t.support_size + 1))
            assert rep.cycle_path_type() == t

    def test_from_key_inverts_key(self):
        types = [CyclePathType((), ())] + all_cycle_path_types(6)
        assert len(types) == 139
        for t in types:
            assert CyclePathType.from_key(t.key) == t

    @pytest.mark.parametrize(
        "key", ["mu=[1,2];nu=[]", "mu=[ 2];nu=[]", "mu=[2,];nu=[]", "mu=[];nu=[+1]", "mu=[];nu=[1]]",
                "bad", "mu=[];nu=[1];x=1", "mu=[a];nu=[]", "mu=[0];nu=[]", "mu=1;nu=[]"]
    )
    def test_from_key_refuses_a_key_not_written(self, key):
        with pytest.raises(MalformedInputError, match="bad type key"):
            CyclePathType.from_key(key)


def _components_by_vertex_lists(edges, vertices):
    """Reference walk: each component as ('cycle'|'path', vertex list), paths
    from their sources first, then the cycles among the vertices left."""
    preds = {v: u for u, v in edges.items()}
    seen = set()
    out = []
    for v in sorted(vertices):
        if v in seen or v in preds:
            continue
        walk = [v]
        seen.add(v)
        while walk[-1] in edges:
            walk.append(edges[walk[-1]])
            seen.add(walk[-1])
        out.append(("path", walk))
    for v in sorted(vertices):
        if v in seen:
            continue
        walk = [v]
        seen.add(v)
        w = edges[v]
        while w != v:
            walk.append(w)
            seen.add(w)
            w = edges[w]
        out.append(("cycle", walk))
    return out


def test_component_type_matches_reference_walk():
    # every partial permutation with support in [5]: sum_k C(5,k)^2 k! = 1546
    count = 0
    for k in range(6):
        for positions in combinations(range(1, 6), k):
            for values in permutations(range(1, 6), k):
                edges = dict(zip(positions, values))
                vertices = set(positions) | set(values)
                comps = _components_by_vertex_lists(edges, vertices)
                expected = CyclePathType(
                    tuple(len(vs) for kind, vs in comps if kind == "cycle"),
                    tuple(len(vs) - 1 for kind, vs in comps if kind == "path"),
                )
                assert component_type(edges, vertices) == expected, edges
                assert PartialPermutation(positions, values).cycle_path_type() == expected
                count += 1
    assert count == 1546


@pytest.mark.parametrize("edges", [{1: 3, 3: 4, 4: 3}, {1: 2, 3: 2}],
                         ids=["path-into-cycle", "two-paths-into-one"])
def test_component_type_refuses_two_predecessors(edges):
    with pytest.raises(InternalConsistencyError, match="two predecessors"):
        component_type(edges, set(edges) | set(edges.values()))


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
    relabeled = PartialPermutation(
        tuple(pool[i - 1] for i in base.positions),
        tuple(pool[j - 1] for j in base.values),
    )
    assert relabeled.cycle_path_type() == base.cycle_path_type()


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
