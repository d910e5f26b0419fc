"""Contraction of a packed partial permutation along blocks of its support."""

from unittest import mock

from hypothesis import given, strategies as st

from cycstat import contraction
from cycstat.contraction import contract
from cycstat.partial import CyclePathType, PartialPermutation, component_type
from cycstat.setpartitions import set_partitions

# four disjoint paths on 13 vertices: lengths 4, 3, 1, 1 (in edges)
THIRTEEN = PartialPermutation(
    (1, 2, 3, 4, 6, 7, 8, 10, 12),
    (2, 3, 4, 5, 7, 8, 9, 11, 13),
)


def test_singletons_give_own_type():
    for p in [
        THIRTEEN,
        PartialPermutation((1, 2), (2, 1)),
        PartialPermutation((1, 2), (2, 3)),
    ]:
        assert contract(p, ()) == p.cycle_path_type()


def test_single_merge_glues_paths():
    # merging vertex 4 of the 4-path with vertex 7 of the 3-path propagates
    # 3~6 and 5~8, gluing the two long paths into one path of length 5
    assert contract(THIRTEEN, [(4, 7)]) == CyclePathType((), (5, 1, 1))


def test_13_point_full_closure_collapses():
    # with the additional blocks {3,11}, {4,10} and {1,12}, {6,13} the
    # bidirectional closure chains every vertex into one class containing an
    # edge, so only constant maps onto fixed points remain; verified by
    # brute-force enumeration of block-constant edge-respecting functions
    rho = [(1, 12), (3, 11), (4, 7, 10), (6, 13)]
    assert contract(THIRTEEN, rho) == CyclePathType((1,), ())


def test_path_endpoints_merge_to_cycle():
    # gluing the two ends of the path 1->2->3 forces psi(1)=psi(3): the
    # quotient is a 2-cycle
    p = PartialPermutation((1, 2), (2, 3))
    assert contract(p, [(1, 3)]) == CyclePathType((2,), ())


def test_two_cycle_collapses_to_fixed_point():
    p = PartialPermutation((1, 2), (2, 1))
    assert contract(p, [(1, 2)]) == CyclePathType((1,), ())


def test_successor_found_through_the_class_root():
    # paths 1->2, 3->4, 5->6: the class of 2 and 3 takes its successor 4
    # from 3, since 2 has none; joining 5 must then force 4~6, leaving the
    # single path 1 -> {2,3,5} -> {4,6}
    p = PartialPermutation((1, 3, 5), (2, 4, 6))
    assert contract(p, [(2, 3), (2, 5)]) == CyclePathType((), (2,))
    assert contract(p, [(2, 3)]) == CyclePathType((), (2, 1))


def test_transitive_propagation():
    # two 2-edge paths 1->2->3 and 4->5->6: merging 1~4 must also merge the
    # successors-of-successors 3~6, leaving a single 2-edge path
    p = PartialPermutation((1, 2, 4, 5), (2, 3, 5, 6))
    assert contract(p, [(1, 4)]) == CyclePathType((), (2,))


def test_backward_propagation():
    # merging the sinks 3~6 must merge predecessors 2~5 and then 1~4
    p = PartialPermutation((1, 2, 4, 5), (2, 3, 5, 6))
    assert contract(p, [(3, 6)]) == CyclePathType((), (2,))


def test_path_wraps_onto_cycle():
    # 2-cycle (1 2) plus path 3->4; gluing 3 onto 1 wraps the path around
    # the cycle: 4 lands on 2, quotient is just the 2-cycle
    p = PartialPermutation((1, 2, 3), (2, 1, 4))
    assert contract(p, [(1, 3)]) == CyclePathType((2,), ())


def test_quotient_type_always_valid():
    # every contraction yields a well-formed disjoint union of cycles and
    # paths (support accounting m' = |mu'| + |nu'| + len(nu') holds)
    p = PartialPermutation((1, 2, 3, 4), (2, 3, 1, 5))
    for rho in set_partitions(5):
        t = contract(p, rho)
        assert t.support_size == sum(t.cycles) + sum(t.paths) + len(t.paths)


def test_coarser_partitions_quotient_further():
    # contracting along a coarser partition never has more vertices
    p = PartialPermutation((1, 2, 4), (2, 3, 5))
    parts = list(set_partitions(5))
    for rho in parts:
        for tau in parts:
            assert (
                contract(p, rho + tau).support_size
                <= contract(p, rho).support_size
            )



def _join(rho, tau):
    """Smallest common coarsening: each block absorbs every class it meets."""
    classes = []
    for block in rho + tau:
        merged = set(block)
        apart = []
        for c in classes:
            if c & merged:
                merged |= c
            else:
                apart.append(c)
        classes = apart + [merged]
    return [tuple(sorted(c)) for c in classes]


def test_overlapping_blocks_contract_along_the_join():
    p = PartialPermutation((1, 2, 4), (2, 3, 5))
    parts = list(set_partitions(5))
    for rho in parts:
        for tau in parts:
            assert contract(p, rho + tau) == contract(p, _join(rho, tau))


@st.composite
def packed_with_blocks(draw):
    """A packed partial permutation on at most 7 points, with cycles and
    paths: a permutation of [7] with some edges dropped and the points left
    on an edge relabelled to 1..m; then up to four blocks of its support,
    which may overlap and repeat a point."""
    sigma = draw(st.permutations(range(1, 8)))
    kept = draw(st.lists(st.sampled_from(range(1, 8)), min_size=1, unique=True))
    support = sorted(set(kept) | {sigma[i - 1] for i in kept})
    label = {v: j for j, v in enumerate(support, 1)}
    p = PartialPermutation(
        tuple(label[i] for i in kept), tuple(label[sigma[i - 1]] for i in kept)
    )
    point = st.integers(1, len(support))
    blocks = draw(st.lists(st.lists(point, min_size=1, max_size=4), max_size=4))
    return p, blocks


def _closure_type(p, blocks):
    """Naive fixpoint: merge the blocks, then merge the successors of any
    two points of one class, and their predecessors, until nothing moves."""
    succ = p.edges()
    pred = {v: u for u, v in succ.items()}
    label = {v: v for v in p.support}

    def merge(x, y):
        a, b = label[x], label[y]
        for v in label:
            if label[v] == b:
                label[v] = a
        return a != b

    for block in blocks:
        for x in block:
            merge(block[0], x)
    changed = True
    while changed:
        changed = False
        for neighbor in (succ, pred):
            for u in neighbor:
                for w in neighbor:
                    if label[u] == label[w]:
                        changed |= merge(neighbor[u], neighbor[w])
    edges = {label[u]: label[v] for u, v in succ.items()}
    return component_type(edges, set(label.values()))


def _in_degree_checked(edges, vertices):
    # a closure that misses a join can leave a class with two predecessors,
    # and component_type would walk the path into the cycle forever
    assert len(set(edges.values())) == len(edges), edges
    return component_type(edges, vertices)


@given(packed_with_blocks())
def test_contract_matches_naive_closure(case):
    p, blocks = case
    with mock.patch.object(contraction, "component_type", _in_degree_checked):
        got = contract(p, blocks)
    assert got == _closure_type(p, blocks)
