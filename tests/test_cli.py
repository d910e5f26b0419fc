"""Command-line interface: output forms and the exit-code contract."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cycstat import indicator, sums, translates
from cycstat.cli import _build_parser, main
from cycstat.dsl import parse_statistic
from cycstat.expectation import RationalExpectation
from cycstat.oracle import descent_count
from cycstat.partial import placements
from cycstat.poly import to_json_dict
from cycstat.translates import RegularStatistic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv, timeout, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter, with this checkout's src on the path;
    stderr is captured, and stdout too unless given."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-m", "cycstat.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def test_import_leaves_out_dataclasses_and_inspect():
    # every command is a fresh interpreter, so each module cycstat.cli pulls
    # in is paid on every run; -S keeps site-packages' .pth hooks out
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cycstat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_cli_block_matches_parser():
    # the first text block under "## CLI": one line per subcommand, then the
    # common flags, which every subcommand takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    documented, common = {}, set()
    for line in block.splitlines():
        flags = set(re.findall(r"--[a-z][a-z-]*", line))
        if line.startswith("cycstat "):
            documented[line.split()[1]] = flags
        else:
            common |= flags
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert documented.keys() == subparsers.choices.keys()
    for name, sub in subparsers.choices.items():
        options = {
            s for a in sub._actions for s in a.option_strings if s.startswith("--")
        }
        assert documented[name] | common == options - {"--help"}, name


class TestMoment:
    def test_excedance_mean(self, capsys):
        code, out, _ = run(capsys, "moment", "exc", "-d", "1")
        assert code == 0
        assert "(n - m1) / 2" in out

    def test_excedance_variance(self, capsys):
        code, out, _ = run(capsys, "moment", "exc", "-d", "2", "--variance")
        assert code == 0
        assert "(n - m1 - 2*m2) / 12" in out

    def test_descent_mean_text(self, capsys):
        # the rendered denominator records where the sum is normalised
        code, out, _ = run(capsys, "moment", "des", "-d", "1")
        assert code == 0
        assert out == (
            "moment d=1: (6*n - 6*m1 - 17*n^2 + 11*n*m1 + 6*m1^2 - 12*m2"
            " + 17*n^3 - 6*n^2*m1 - 11*n*m1^2 + 22*n*m2 - 7*n^4 + n^3*m1"
            " + 6*n^2*m1^2 - 12*n^2*m2 + n^5 - n^3*m1^2 + 2*n^3*m2)"
            " / ((n)_4 * 2)\n"
            "graded degree 2 (bound 2)\n"
        )

    def test_lambda_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "moment", "T(U=(1);V=(1);C={};f=1)", "-d", "1", "--lambda", "2,1"
        )
        assert code == 0
        assert "value at lambda=(2,1): 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "moment", "exc", "-d", "1", "--json", "--lambda", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "moment"
        assert payload["statistic"] == "exc"
        assert (payload["power"], payload["shift"], payload["size"]) == (1, 0, 1)
        assert "numerator" in payload["result"]
        assert "denominator" in payload["result"]
        assert payload["result"]["evaluations"] == [
            {"lambda": [3], "value": "3/2"}
        ]


class TestLimit:
    def test_mean(self, capsys):
        code, out, _ = run(capsys, "limit", "exc", "--mean")
        assert code == 0
        assert "p=1" in out and "1/2 - 1/2*alpha" in out

    def test_variance(self, capsys):
        code, out, _ = run(capsys, "limit", "exc", "--variance")
        assert code == 0
        assert "V1(alpha) = 1/12 - 1/12*alpha" in out
        assert "V2(alpha) = -1/6" in out

    def test_class_function(self, capsys):
        code, out, _ = run(capsys, "limit", "fix", "--variance")
        assert code == 0
        assert "V1(alpha) = 0" in out and "V2(alpha) = 0" in out

    def test_mean_or_variance_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "exc"])
        assert exc.value.code == 2


class TestVerify:
    def test_descents_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "des", "--nmax", "4", "-d", "2")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS lambda=(4) d=2" in out

    def test_nmax_cap(self, capsys):
        code, _, err = run(capsys, "verify", "exc", "--nmax", "9")
        assert code == 3

    def test_empty_grid_rejected(self, capsys):
        for nmax in ("0", "-1"):
            code, out, err = run(capsys, "verify", "exc", "--nmax", nmax)
            assert code == 2
            assert out == "" and "--nmax" in err

    def test_support_beyond_ground_set_needs_no_indicator(self, capsys, monkeypatch):
        # exc^3 has types with up to 6 path vertices, above a cap of 3; on
        # classes with n <= 2 they contribute 0 and their indicators are
        # never built.  An empty cache, so that no type other tests cached
        # stands in for one this run builds.
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        monkeypatch.setattr(indicator, "BELL_CAP", 3)
        code, out, _ = run(capsys, "verify", "exc", "--nmax", "2", "-d", "3")
        assert code == 0
        assert out.splitlines()[-1] == "9/9 cells passed"

    def test_each_permutation_evaluated_once(self, capsys, monkeypatch):
        calls = []
        original = RegularStatistic.evaluate

        def counting(self, pi):
            calls.append(pi)
            return original(self, pi)

        monkeypatch.setattr(RegularStatistic, "evaluate", counting)
        code, out, _ = run(capsys, "verify", "exc", "--nmax", "4", "-d", "3")
        assert code == 0
        assert out.splitlines()[-1] == "33/33 cells passed"
        # the 1! + 2! + 3! + 4! permutations, once for all three orders
        assert len(calls) == 33

    def test_translates_are_not_evaluated_by_a_subset_scan(self, capsys, monkeypatch):
        # the oracle follows pi from a translate's free points; the engine's
        # direct-sum check in sums keeps its own scan
        def refuse(*args):
            raise AssertionError("a translate scanned the constrained subsets")

        monkeypatch.setattr(translates, "constrained_subsets", refuse, raising=False)
        code, out, _ = run(capsys, "verify", "exc", "--nmax", "5", "-d", "2")
        assert code == 0
        assert out.splitlines()[-1] == "36/36 cells passed"

    def test_failing_cell(self, capsys, monkeypatch):
        # the oracle evaluates des while the engine computes exc: they agree
        # on S_1 and S_2 but not on the classes (3) and (2,1) of S_3
        monkeypatch.setattr(RegularStatistic, "evaluate", lambda self, pi: descent_count(pi))
        code, out, _ = run(capsys, "verify", "exc", "--nmax", "3", "-d", "1")
        assert code == 1
        assert "FAIL lambda=(3) d=1 engine=3/2 oracle=1" in out.splitlines()
        assert "FAIL lambda=(2,1) d=1 engine=1 oracle=4/3" in out.splitlines()
        assert out.splitlines()[-1] == "4/6 cells passed"


def count_work(monkeypatch, capsys, *argv):
    """What one command does in the engine: the products of two statistics
    (`_product`), in the order they are taken, each with the pair
    placements it tries, and how many of them are built into a statistic
    (`RegularStatistic.__mul__`); the others are streamed into type sums."""
    counts = {"built": 0, "placements": []}
    product, place, multiply = translates._product, translates._place, RegularStatistic.__mul__

    def counting_product(left, right):
        counts["placements"].append(0)
        return product(left, right)

    def counting_place(*args):
        counts["placements"][-1] += 1
        return place(*args)

    def counting_multiply(left, right):
        counts["built"] += isinstance(right, RegularStatistic)
        return multiply(left, right)

    with monkeypatch.context() as patch:
        patch.setattr(translates, "_product", counting_product)
        patch.setattr(translates, "_place", counting_place)
        patch.setattr(RegularStatistic, "__mul__", counting_multiply)
        code, _, _ = run(capsys, *argv)
    assert code == 0
    return counts


class TestPowersBuiltOnce:
    def test_lambda_reuses_the_moment_expansion(self, capsys, monkeypatch):
        plain = count_work(monkeypatch, capsys, "moment", "maj", "-d", "2")
        # maj * maj is streamed, never built
        assert plain["built"] == 0
        assert len(plain["placements"]) == 1 and plain["placements"][0] > 0
        assert count_work(
            monkeypatch, capsys, "moment", "maj", "-d", "2", "--lambda", "3,1"
        ) == plain

    def test_verify_builds_each_power_once(self, capsys, monkeypatch):
        square = placements(2, 2)
        moment = count_work(monkeypatch, capsys, "moment", "exc", "-d", "3")
        # exc^2 is built from one product; exc^2 * exc is streamed, and
        # tries its 161 placements once
        assert moment == {"built": 1, "placements": [square, 161]}
        verify = count_work(monkeypatch, capsys, "verify", "exc", "--nmax", "3", "-d", "3")
        assert verify["built"] == moment["built"]
        # type_sums(1), (2) and (3), each streamed once for all classes, and
        # the product that builds exc^2
        assert verify["placements"] == [1, square, square, 161]


class TestCertificates:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_moment_certifies_once(self, capsys, monkeypatch, json_flag):
        calls = []
        clear_falling = RationalExpectation.clear_falling

        def counting(self, a):
            calls.append(a)
            return clear_falling(self, a)

        monkeypatch.setattr(RationalExpectation, "clear_falling", counting)
        code, _, _ = run(capsys, "moment", "des", "-d", "2", *json_flag)
        assert code == 0
        assert calls == [2]


class TestExpand:
    def test_major_index(self, capsys):
        code, out, _ = run(capsys, "expand", "maj")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size=2 shift=1 power=2"
        assert len(lines) == 9  # header + eight translates

    def test_round_trip(self, capsys):
        from itertools import permutations

        from cycstat.dsl import parse_statistic
        from cycstat.patterns import maj

        code, out, _ = run(capsys, "expand", "maj")
        expr = " + ".join(out.strip().splitlines()[1:])
        again = parse_statistic(expr)
        reference = maj()
        for w in permutations(range(1, 6)):
            assert again.evaluate(w) == reference.evaluate(w)

    def test_echo(self, capsys):
        code, out, _ = run(capsys, "expand", "T(U=(1);V=(2);C={};f=1)")
        assert code == 0
        assert "T(U=(1);V=(2);C={};f=1)" in out


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "moment", "bogus(", "-d", "1")
        assert code == 2
        assert "error" in err

    def test_malformed_lambda(self, capsys):
        code, _, _ = run(capsys, "moment", "exc", "--lambda", "2,x")
        assert code == 2

    def test_resource_limit(self, capsys):
        # seven 1-edge paths: 14 path vertices, above the Bell cap of 12
        code, _, err = run(
            capsys, "moment", "T(U=(1,2,3,4,5,6,7);V=(8,9,10,11,12,13,14);C={};f=1)"
        )
        assert code == 3
        assert "resource limit" in err

    def test_bell_cap_counts_path_vertices(self, capsys):
        # seven 2-cycles: support 14, but no path vertex to partition
        code, out, _ = run(
            capsys,
            "moment",
            "T(U=(1,2,3,4,5,6,7,8,9,10,11,12,13,14);"
            "V=(2,1,4,3,6,5,8,7,10,9,12,11,14,13);C={};f=1)",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "moment d=1: (720*m2 - 1764*m2^2 + 1624*m2^3 - 735*m2^4"
            " + 175*m2^5 - 21*m2^6 + m2^7) / 681080400"
        )

    def test_weight_degree_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "moment", "T(U=(1);V=(2);C={};f=x1^99999999)")
        assert code == 3
        assert time.perf_counter() - start < 5
        assert out == ""
        assert "constrained sum of degree 100000001" in err

    @pytest.mark.parametrize("expr", [
        "T(U=(1);V=(2);C={};f=(x1+1)^3000)",
        "biv(21;A={};B={};f=(x1+1)^5000;g=1)",
    ])
    def test_weight_power_fails_before_expanding(self, capsys, expr):
        # expanding the power alone would take minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "moment", expr)
        assert code == 3
        assert time.perf_counter() - start < 5
        assert out == ""
        assert f"above the cap {sums.MAX_SUM_DEGREE}" in err

    @pytest.mark.parametrize("expr", [
        "biv(1;A={};B={};f=" + "(" * 250 + "x1" + ")" * 250 + ";g=1)",
        "2*" * 1000 + "exc",
    ], ids=["nested-weight", "long-product"])
    def test_deep_nesting_is_a_resource_limit(self, expr):
        # the parser descends one Python frame or more per level
        done = run_process("moment", expr, timeout=30)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert "nested too deeply" in done.stderr

    def test_power_of_many_variables_expands_in_seconds(self):
        # 5,456 terms, by repeated multiplication rather than squaring
        done = run_process(
            "expand", "T(U=(1,2,3,4);V=(2,3,4,5);C={};f=(x1+x2+x3+x4)^30)", timeout=10
        )
        assert done.returncode == 0
        weight = done.stdout.splitlines()[1]
        assert weight.startswith("T(U=(1,2,3,4);V=(2,3,4,5);C={};f=")
        assert weight.count(" + ") == 5455  # every coefficient is positive

    def test_weight_one_degree_over_the_cap(self, capsys):
        # support 2 and no constraint: deg S = deg f + 2
        f = f"x1^{sums.MAX_SUM_DEGREE - 1}"
        code, _, err = run(capsys, "moment", f"T(U=(1);V=(2);C={{}};f={f})")
        assert code == 3
        assert f"degree {sums.MAX_SUM_DEGREE + 1}" in err

    def test_weights_summed_per_type_before_the_cap(self, capsys):
        # both translates have type nu=[1] and C={}: their weights cancel
        # before a sum is taken, so no sum of degree 252 is refused
        code, out, _ = run(
            capsys, "moment", "T(U=(1);V=(2);C={};f=x1^250) - T(U=(2);V=(1);C={};f=x1^250)"
        )
        assert code == 0
        assert out.splitlines()[0] == "moment d=1: 0"

    def test_product_over_the_cap_fails_fast(self, capsys):
        # exc^5 * exc would try 545,731 placements
        start = time.perf_counter()
        code, out, err = run(capsys, "moment", "exc^40")
        assert code == 3
        assert time.perf_counter() - start < 15
        assert out == ""
        assert "545731 placements" in err

    @pytest.mark.parametrize("cap, code, message", [
        ("0", 0, ""),
        ("12", 0, ""),
    ])
    def test_bell_cap_range(self, capsys, monkeypatch, cap, code, message):
        # fix^2 has no path vertex, so any cap admits it
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        monkeypatch.setattr(indicator, "BELL_CAP", int(cap))
        got, out, err = run(capsys, "moment", "fix", "-d", "2")
        assert got == code and message in err
        assert out.startswith("moment d=2: m1^2")

    def test_bell_cap_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moment", "fix", "-d", "2", "--bell-cap", "12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bell-cap 12" in capsys.readouterr().err

    def test_bell_cap_zero_admits_no_path(self, capsys, monkeypatch):
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        monkeypatch.setattr(indicator, "BELL_CAP", 0)
        code, out, err = run(capsys, "moment", "exc")
        assert code == 3
        assert out == "" and "Bell cap 0" in err

    def test_bad_moment_order(self, capsys):
        code, _, _ = run(capsys, "moment", "exc", "-d", "0")
        assert code == 2


class TestClosedStdout:
    """A reader that closes stdout early ends the output, not the command:
    no traceback, and the command's own exit code."""

    @pytest.mark.parametrize("argv", [
        ("moment", "exc", "-d", "2"),
        ("moment", "exc", "-d", "2", "--json"),
        ("verify", "exc", "--nmax", "3"),
    ], ids=["moment", "moment-json", "verify"])
    def test_exit_code_kept(self, argv):
        write = closed_pipe()
        try:
            done = run_process(*argv, timeout=60, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        assert done.stderr == ""

    def test_failing_verify_still_exits_1(self, monkeypatch):
        # as TestVerify.test_failing_cell: the oracle evaluates des, not exc
        monkeypatch.setattr(RegularStatistic, "evaluate", lambda self, pi: descent_count(pi))
        with open(closed_pipe(), "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["verify", "exc", "--nmax", "3", "-d", "1"]) == 1


class TestDiskCache:
    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())

    def test_cache_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        code1, out1, _ = run(capsys, "moment", "exc", "--cache", path)
        data = json.loads(open(path).read())
        assert any(key.startswith("mu=") for key in data)
        code2, out2, _ = run(capsys, "moment", "exc", "--cache", path)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_bell_cap_applies_to_cached_types(self, tmp_path, capsys, monkeypatch):
        # each run gets its own in-process cache, as separate processes would
        path = str(tmp_path / "cache.json")
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        code, _, _ = run(capsys, "moment", "exc", "-d", "3", "--cache", path)
        assert code == 0
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        monkeypatch.setattr(indicator, "BELL_CAP", 3)
        code, out, err = run(capsys, "moment", "exc", "-d", "3", "--cache", path)
        assert code == 3
        assert out == "" and "exceeds the Bell cap 3" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"not json",
            b"[1, 2]",
            b'{"mu=[1];nu=[]": {"terms": "m1"}}',
            b'{"mu=[0];nu=[]": {"terms": []}}',
            b'{"cycles": {"terms": []}}',
            b"\xff\xfe",
            # well formed, but 5*n is not the polynomial of one edge
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "5", "exps": {"n": 1}}]}}',
            # n - 3*m1 + m1^2 agrees with n - m1 at lambda = (2) and (1,1),
            # but has graded degree 2 for a type of one edge
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"n": 1}},'
            b' {"coef": "-3", "exps": {"m1": 1}}, {"coef": "1", "exps": {"m1": 2}}]}}',
        ],
    )
    def test_corrupt_cache_rejected_untouched(self, tmp_path, capsys, fresh_cache, content):
        path = tmp_path / "cache.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert code == 2
        assert out == "" and str(path) in err
        assert path.read_bytes() == content

    def test_wrong_entry_named(self, tmp_path, capsys, fresh_cache):
        # right degree and right structure, wrong values: only the oracle
        # comparison tells it from the true n - m1
        path = tmp_path / "cache.json"
        path.write_text('{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"n": 1}}]}}')
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert code == 2
        assert out == "" and "mu=[];nu=[1]" in err and str(path) in err

    def test_warm_run_leaves_file_untouched(self, tmp_path, capsys, monkeypatch, fresh_cache):
        # every type `moment exc` needs, in a layout the cache never writes
        types = parse_statistic("exc").type_sums(1)
        content = json.dumps(
            {t.key: to_json_dict(indicator.indicator_moment(t)) for t in types}, indent=2
        ).encode()
        monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
        path = tmp_path / "cache.json"
        path.write_bytes(content)
        code, out, _ = run(capsys, "moment", "exc", "--cache", str(path))
        assert code == 0
        assert "(n - m1) / 2" in out
        assert path.read_bytes() == content

    def test_empty_file_is_empty_cache(self, tmp_path, capsys, fresh_cache):
        path = tmp_path / "cache.json"
        path.write_bytes(b"")
        code, out, _ = run(capsys, "moment", "exc", "--cache", str(path))
        assert code == 0
        assert "(n - m1) / 2" in out
        assert list(json.loads(path.read_bytes())) == ["mu=[];nu=[1]"]
