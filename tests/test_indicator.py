"""Indicator moment polynomials f_(mu,nu) and their oracle certification.

The reference for the path factor is the Moebius inversion the engine used
before the arc count: classifying arbitrary edge-respecting functions by their
coincidence partition, the injective ones are the alternating sum, over every
set partition of the support, of the unrestricted counts of the contraction
quotients."""

import errno
import json
import os
import re
import threading
import time
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from cycstat import indicator, reference
from cycstat.errors import (
    InternalConsistencyError,
    MalformedInputError,
    ResourceLimitError,
)
from cycstat.cli import main
from cycstat.indicator import (
    c_poly,
    indicator_expectation,
    indicator_moment,
    path_count_poly,
    set_partitions,
)
from cycstat.contraction import contract
from cycstat.oracle import partitions
from cycstat.reference import injection_count, compatible_function_count
from cycstat.partial import CyclePathType, PartialPermutation
from cycstat.poly import N, ONE, Poly, mvar, to_json_dict

from conftest import all_cycle_path_types

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


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


def unrestricted_count_poly(t: CyclePathType) -> Poly:
    """Count of arbitrary edge-respecting functions (no injectivity at all):
    a path is determined by any starting point (factor n), and a c-cycle
    needs a point with pi^c(x) = x (factor sum over i dividing c of i*m_i)."""
    out = Poly.const(1)
    for c in t.cycles:
        factor = Poly()
        for i in range(1, c + 1):
            if c % i == 0:
                factor = factor + i * mvar(i)
        out = out * factor
    for _ in t.paths:
        out = out * N
    return out


def mobius_count_poly(p: PartialPermutation) -> Poly:
    """Compatible injections of the packed partial permutation p, by Moebius
    inversion over every set partition of its support; the Moebius values
    are added per quotient type, and each type's count is built once."""
    weights: Counter[CyclePathType] = Counter()
    for rho in set_partitions(len(p.support)):
        weights[contract(p, rho)] += mobius_lower(rho)
    poly = Poly()
    for t, weight in weights.items():
        poly = poly + weight * unrestricted_count_poly(t)
    return poly


def path_only_types(max_vertices: int) -> list[CyclePathType]:
    """Every path-only type with at most this many path vertices |nu| + l(nu)."""
    return [
        CyclePathType((), nu)
        for k in range(1, max_vertices)
        for nu in partitions(k)
        if k + len(nu) <= max_vertices
    ]


class TestMobius:
    def test_singletons_is_one(self):
        assert mobius_lower(((1,), (2,), (3,), (4,), (5,))) == 1

    def test_atom_is_minus_one(self):
        assert mobius_lower(((1, 2), (3,), (4,))) == -1

    def test_single_block_of_four(self):
        # (-1)^3 * 3! = -6; agrees with recursive Moebius computation on
        # the lattice of partitions of [4] (sum over the interval is 0)
        assert mobius_lower(((1, 2, 3, 4),)) == -6

    def test_alternating_sum_vanishes(self):
        # sum over rho of mu(0,rho) = 0 for m >= 2 (Moebius recursion at 1)
        for m in range(2, 6):
            assert sum(mobius_lower(p) for p in set_partitions(m)) == 0


class TestCPoly:
    def test_one_cycle(self):
        assert c_poly(CyclePathType((1,), ())) == mvar(1)

    def test_two_cycle(self):
        assert c_poly(CyclePathType((2,), ())) == 2 * mvar(2)

    def test_two_edge_path(self):
        assert c_poly(CyclePathType((), (2,))) == N - mvar(1) - 2 * mvar(2)

    def test_product_structure(self):
        t = CyclePathType((2, 1), (1,))
        assert c_poly(t) == 2 * mvar(2) * mvar(1) * (N - mvar(1))


class TestUnrestrictedCount:
    def test_path_factor_is_n(self):
        assert unrestricted_count_poly(CyclePathType((), (3,))) == N

    def test_cycle_factor_sums_divisors(self):
        # a 4-cycle closes on points of period dividing 4
        expected = mvar(1) + 2 * mvar(2) + 4 * mvar(4)
        assert unrestricted_count_poly(CyclePathType((4,), ())) == expected

    def test_matches_direct_count(self):
        # arbitrary edge-respecting functions, counted by brute force
        from cycstat.reference import representative

        t = CyclePathType((2,), (1,))
        rep = t.representative()
        edges = rep.edges()
        m = len(rep.support)
        for lam in [(3,), (2, 2), (2, 1, 1), (4, 1)]:
            n = sum(lam)
            pi = representative(lam)
            count = 0
            from itertools import product

            for psi in product(range(1, n + 1), repeat=m):
                if all(pi[psi[u - 1] - 1] == psi[v - 1] for u, v in edges.items()):
                    count += 1
            from cycstat.expectation import evaluation_point

            assert unrestricted_count_poly(t).evaluate(evaluation_point(lam)) == count


class TestIndicatorMoment:
    def test_fixed_point(self):
        assert indicator_moment(CyclePathType((1,), ())) == mvar(1)

    def test_single_edge(self):
        assert indicator_moment(CyclePathType((), (1,))) == N - mvar(1)

    def test_two_edge_path(self):
        # injective walks of length 2: total walks n minus those starting on
        # a fixed point (m1) or on a 2-cycle (2*m2, which close up)
        assert indicator_moment(CyclePathType((), (2,))) == (
            N - mvar(1) - 2 * mvar(2)
        )

    def test_two_disjoint_edges(self):
        # hand count: ordered pairs of disjoint injective 1-walks
        expected = (N - mvar(1)) * (N - mvar(1) - 3 * ONE) + 2 * mvar(2)
        assert indicator_moment(CyclePathType((), (1, 1))) == expected

    def test_graded_degree_is_k(self):
        for t in all_cycle_path_types(3):
            assert indicator_moment(t).graded_degree() == t.size

    def test_oracle_grid_small(self):
        # exact match with brute-force injection counts for k <= 2, n <= 5
        from cycstat.expectation import evaluation_point

        for t in all_cycle_path_types(2):
            poly = indicator_moment(t)
            rep = t.representative()
            for n in range(1, 6):
                for lam in partitions(n):
                    assert poly.evaluate(evaluation_point(lam)) == \
                        injection_count(rep, lam), (t.key, lam)

    def test_bell_cap(self):
        big = CyclePathType((), tuple([1] * 7))  # support size 14
        with pytest.raises(ResourceLimitError) as err:
            indicator_moment(big)
        assert str(err.value) == "type mu=[];nu=[1,1,1,1,1,1,1] has more than 12 path vertices"

    def test_cache_returns_identical_object(self):
        t = CyclePathType((2,), (1,))
        assert indicator_moment(t) is indicator_moment(t)


@pytest.fixture
def fresh_memos():
    """The process-wide block-weight and arc-count memos, empty before the
    test and emptied after it, so no value crosses a patched test."""
    memos = (indicator._block_weight, indicator._connected)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestMobiusCountPoly:
    def test_matches_sum_over_partitions(self):
        # every path-only type with at most 8 path vertices: the arc count
        # against the Moebius sum over the set partitions of its points
        types = path_only_types(8)
        assert len(types) == 21
        for t in types:
            assert path_count_poly(t) == mobius_count_poly(t.representative()), t.key

    def test_one_unrestricted_count_per_quotient_type(self, monkeypatch):
        calls = []
        original = unrestricted_count_poly

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setitem(globals(), "unrestricted_count_poly", counting)
        p = CyclePathType((), (2, 1, 1)).representative()
        mobius_count_poly(p)
        quotients = {contract(p, rho) for rho in set_partitions(len(p.support))}
        assert len(calls) == len(set(calls))
        assert set(calls) == quotients


class TestArcCount:
    """The path factor by arc placement, proved on the oracle's grid and
    guarded by its linearity certificate."""

    def test_path_types_proved_on_the_unisolvent_grid(self):
        # a polynomial of graded degree k is fixed by its values on every
        # class with n <= 2k, so agreeing there proves the type
        from cycstat.expectation import evaluation_point

        types = [t for t in path_only_types(12) if t.size <= 6]
        assert len(types) == 29
        for t in types:
            poly, rep = path_count_poly(t), t.representative()
            for n in range(2 * t.size + 1):
                for lam in partitions(n):
                    assert poly.evaluate(evaluation_point(lam)) == \
                        injection_count(rep, lam), (t.key, lam)

    def test_one_block_weight_per_point_counts(self, monkeypatch, fresh_memos):
        calls = []
        original = indicator._block_weight

        def counting(sizes):
            calls.append(sizes)
            return original(sizes)

        monkeypatch.setattr(indicator, "_block_weight", counting)
        path_count_poly(CyclePathType((), (2, 1, 1, 1)))
        # the blocks' sorted point counts: 2, 3, 2+2, 2+3, 2+2+2, 2+2+3, 2+2+2+3,
        # each computed once and read from the memo after
        assert len(set(calls)) == 7
        assert original.cache_info().misses == 7
        # the cycles shift the weights, and reuse them
        path_count_poly(CyclePathType((2, 1), (2, 1, 1, 1)))
        assert original.cache_info().misses == 7

    def test_broken_arc_count_exits_4(self, capsys, monkeypatch, fresh_memos):
        # without its factor c the count of one arc is 1 on every long
        # enough cycle, which is not linear in c
        original = indicator._arcs
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "_arcs", lambda sizes, c: original(sizes, c) // c)
        assert main(["moment", "exc"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "arc count of paths [2]" in captured.err


class TestCycleFactorisation:
    """Only the paths go through the arc count; the cycles enter as a
    closed-form factor."""

    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(indicator, "_MEMO", {})

    @pytest.fixture
    def partition_sizes(self, fresh_cache, monkeypatch):
        """The ground-set size of every set_partitions call; a call on more
        than 4 points fails at once, before its enumeration runs."""
        sizes = []
        original = indicator.set_partitions

        def counting(m):
            sizes.append(m)
            assert m <= 4, f"set_partitions({m}) called"
            return original(m)

        monkeypatch.setattr(indicator, "set_partitions", counting)
        return sizes

    def test_matches_full_support_mobius_sum(self):
        types = [
            t for t in all_cycle_path_types(5) if t.cycles and t.support_size <= 8
        ]
        assert len(types) == 54
        for t in types:
            assert indicator_moment(t) == mobius_count_poly(
                t.representative()
            ), t.key

    def test_mixed_types_match_injection_counts(self):
        from cycstat.expectation import evaluation_point

        grid = [(lam, evaluation_point(lam)) for n in range(1, 7) for lam in partitions(n)]
        for t in all_cycle_path_types(5):
            if not (t.cycles and t.paths):
                continue
            poly = indicator_moment(t)
            rep = t.representative()
            for lam, pt in grid:
                assert poly.evaluate(pt) == injection_count(rep, lam), (t.key, lam)

    def test_cycle_only_support_twelve_needs_no_partitions(self, partition_sizes):
        t = CyclePathType((2,) * 6, ())
        poly = indicator_moment(t)
        assert partition_sizes == [0]
        # six 2-cycles onto distinct 2-cycles of pi, two rotations each
        expected = ONE
        for j in range(6):
            expected = expected * (2 * (mvar(2) - j))
        assert poly == expected

    def test_mixed_type_partitions_only_path_support(self, partition_sizes):
        # one path: the set partitions of the paths, not of its 3 points
        indicator_moment(CyclePathType((3, 2, 2), (2,)))
        assert partition_sizes == [1]

    def test_wrong_cycle_factor_fails_certificate(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(indicator, "_cycle_factor", lambda cycles: Poly.const(1))
        with pytest.raises(InternalConsistencyError) as err:
            indicator_moment(CyclePathType((2,), (1,)))
        assert "mu=[2];nu=[1]" in str(err.value)


class TestDiskCache:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        """An empty memo and no configured file, put back after the test."""
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "_disk", None)

    def test_atomic_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        indicator.configure_disk_cache(str(path))
        indicator_moment(CyclePathType((1,), ()))
        indicator.write_disk_cache()
        before = path.read_bytes()
        assert json.loads(before) == {"mu=[1];nu=[]": {"terms": [{"coef": "1", "exps": {"m1": 1}}]}}

        # the write encodes with json.dumps after opening its temporary file
        def failing_dumps(obj):
            raise OSError(errno.ENOSPC, "No space left on device")

        indicator.configure_disk_cache(str(path))
        monkeypatch.setattr(json, "dumps", failing_dumps)
        assert indicator_moment(CyclePathType((), (1,))) == N - mvar(1)
        indicator.write_disk_cache()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.json"]

    def test_written_file_is_json_dumps_of_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        indicator.configure_disk_cache(str(path))
        types = [CyclePathType((1,), ()), CyclePathType((), (1,)), CyclePathType((2,), (2, 1))]
        entries = {t.key: to_json_dict(indicator_moment(t)) for t in types}
        indicator.write_disk_cache()
        assert path.read_text() == json.dumps(entries)

    def test_written_file_is_not_removed(self, tmp_path, monkeypatch):
        # the temporary file is renamed over the cache, so nothing is left
        # to remove after a write that succeeds
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        path = tmp_path / "cache.json"
        indicator.configure_disk_cache(str(path))
        indicator_moment(CyclePathType((1,), ()))
        indicator.write_disk_cache()
        assert removed == []
        assert os.listdir(tmp_path) == ["cache.json"]

    def test_one_write_then_the_path_is_forgotten(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: (replaced.append(b), real_replace(a, b)))
        path = tmp_path / "cache.json"
        indicator.configure_disk_cache(str(path))
        types = [CyclePathType((1,), ()), CyclePathType((), (1,))]
        entries = {t.key: to_json_dict(indicator_moment(t)) for t in types}
        assert replaced == [] and not path.exists()  # nothing is written through
        indicator.write_disk_cache()
        assert replaced == [str(path)] and path.read_text() == json.dumps(entries)
        indicator_moment(CyclePathType((), (2,)))
        indicator.write_disk_cache()
        assert len(replaced) == 1 and path.read_text() == json.dumps(entries)

    def test_one_thread_computes_a_type(self, monkeypatch):
        # the others wait under the lock and read its result
        computed = []
        compute = indicator._compute

        def slow(t):
            computed.append(t)
            time.sleep(0.05)
            return compute(t)

        monkeypatch.setattr(indicator, "_compute", slow)
        t = CyclePathType((2,), (1,))
        barrier = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def ask(i):
            barrier.wait()
            results[i] = indicator_moment(t)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert computed == [t]
        assert all(r is results[0] for r in results) and results[0] is not None

    def test_exit_4_keeps_the_types_computed_before_it(self, tmp_path, capsys, monkeypatch):
        # the one edge of d = 1 is computed before a wrong path factor fails
        # the certificate of a type of d = 2 (the exit 3 case is in
        # tests/test_cli.py)
        path = tmp_path / "cache.json"
        original = indicator.path_count_poly
        monkeypatch.setattr(indicator, "path_count_poly", lambda t: original(t) if t.size < 2 else ONE)
        code = main(["verify", "exc", "--nmax", "3", "-d", "2", "--cache", str(path)])
        assert code == 4 and "consistency violation" in capsys.readouterr().err
        assert list(json.loads(path.read_text())) == [CyclePathType((), (1,)).key]

    def test_types_computed_before_configuring_are_written(self, tmp_path):
        path = tmp_path / "cache.json"
        on_disk = CyclePathType((1,), ())
        path.write_text(json.dumps({on_disk.key: to_json_dict(mvar(1))}))
        in_process = CyclePathType((), (1,))
        indicator_moment(in_process)
        indicator.configure_disk_cache(str(path))
        indicator.write_disk_cache()
        assert indicator._read_disk(str(path)) == {on_disk: mvar(1), in_process: N - mvar(1)}

    def test_large_cycle_entry_loads_without_oracle(self, tmp_path, monkeypatch):
        # sixteen fixed points pass the path-vertex cap (no path vertex); the oracle
        # would visit 2^16 sets of used points to check the entry
        t = CyclePathType((1,) * 16, ())
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({t.key: to_json_dict(indicator_moment(t))}))

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran on a support-16 entry")

        monkeypatch.setattr(reference, "injection_count", no_oracle)
        monkeypatch.setattr(reference, "compatible_function_count", no_oracle)
        assert indicator._read_disk(str(path)) == {t: indicator_moment(t)}

    @pytest.mark.parametrize("name", ["warm-expansion", "verify-grid", "weighted-sums"])
    def test_benchmark_fixture_is_its_recomputation(self, name):
        # the warm workloads load these files; each entry must be what the
        # cache would write for its type
        path = FIXTURES / f"{name}.json"
        content = path.read_bytes()
        raw = json.loads(content)
        for key, data in raw.items():
            poly = indicator._compute(CyclePathType.from_key(key))
            assert json.dumps(data) == json.dumps(to_json_dict(poly)), key
        assert list(indicator._read_disk(str(path))) == [CyclePathType.from_key(k) for k in raw]
        assert path.read_bytes() == content

    @pytest.mark.parametrize("coef", [
        # the forms the number parser refused before entries were recomputed
        "1e5", "1E5", "1.5", ".5", "1_000", " 3", "3 ", "+3",
        "1/0", "1/-2", "--1", "-", "", "/2", "1/", "\u0663", "inf", "nan",
        2.0, 1e400, True, None, [1, 2],
        # forms of the right value that the cache does not write
        "03", "6/2", "3/1", "3e0", 3, 3.0,
    ])
    def test_other_coefficient_forms_refused(self, tmp_path, coef):
        # the coefficient 3 of m1 in the entry of two edges, in another form
        entry = to_json_dict(indicator_moment(CyclePathType((), (1, 1))))
        assert entry["terms"][1] == {"coef": "3", "exps": {"m1": 1}}
        entry["terms"][1]["coef"] = coef
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"mu=[];nu=[1,1]": entry}))
        with pytest.raises(MalformedInputError, match=re.escape("entry mu=[];nu=[1,1] is not")):
            indicator._read_disk(str(path))


class TestIndicatorExpectation:
    def test_fixed_point_probability(self):
        p = PartialPermutation((1,), (1,))
        assert indicator_expectation(p, (2, 1)) == Fraction(1, 3)

    def test_two_cycle_probability(self):
        # over the 3 permutations of type (2,2): 2*m2/(n)_2 = 4/12
        p = PartialPermutation((1, 2), (2, 1))
        assert indicator_expectation(p, (2, 2)) == Fraction(1, 3)

    def test_three_cycle_edge(self):
        p = PartialPermutation((1,), (2,))
        assert indicator_expectation(p, (3,)) == Fraction(1, 2)

    def test_support_exceeding_n_rejected(self):
        p = PartialPermutation((1,), (5,))
        with pytest.raises(MalformedInputError):
            indicator_expectation(p, (2, 1))


def test_compatible_function_polynomial_matches_oracle():
    from cycstat.expectation import evaluation_point

    for t in all_cycle_path_types(2):
        rep = t.representative()
        for n in range(1, 6):
            for lam in partitions(n):
                assert c_poly(t).evaluate(evaluation_point(lam)) == \
                    compatible_function_count(rep, lam), (t.key, lam)


def test_size_one_normalization():
    # summing E_lambda over the n^2 single-edge indicators gives n exactly:
    # every position maps somewhere
    from cycstat.expectation import evaluation_point

    f_fix = indicator_moment(CyclePathType((1,), ()))
    f_edge = indicator_moment(CyclePathType((), (1,)))
    for n in range(1, 7):
        for lam in partitions(n):
            pt = evaluation_point(lam)
            # n diagonal indicators (expectation f_fix/n each) plus
            # n(n-1) off-diagonal ones (expectation f_edge/(n)_2 each)
            total = n * f_fix.evaluate(pt) / Fraction(n)
            if n > 1:
                total += n * (n - 1) * f_edge.evaluate(pt) / Fraction(n * (n - 1))
            assert total == n
