"""Command-line interface: output forms and the exit-code contract."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cycstat import cmdline, indicator, sums, translates
from cycstat.cli import main
from cycstat.dsl import parse_statistic
from cycstat.expectation import RationalExpectation
from cycstat.reference import descent_count
from cycstat.partial import CyclePathType, placements
from cycstat.poly import ONE, to_json_dict
from cycstat.translates import RegularStatistic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv, timeout, stdout=subprocess.PIPE, preexec_fn=None):
    """The CLI in a fresh interpreter, with this checkout's src on the path;
    stderr is captured, and stdout too unless given.  preexec_fn runs in the
    child before it starts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-m", "cycstat.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
        preexec_fn=preexec_fn,
    )


def address_space_cap():
    """A preexec_fn for run_process that caps the child's address space at
    1 GiB, so a runaway allocation is a MemoryError instead of exhausting
    the host."""
    resource = pytest.importorskip("resource")
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


# argparse loads gettext, and gettext's catalog lookups locale: cycstat
# reads its own command line, so no command pays for the three
UNUSED = {"argparse", "dataclasses", "gettext", "inspect", "locale"}


def test_import_leaves_out_dataclasses_and_inspect():
    # every command is a fresh interpreter, so each module cycstat.cli pulls
    # in is paid on every run; -S keeps site-packages' .pth hooks out.  json
    # is loaded only for --json output and a --cache file that is not empty,
    # and cycstat.cmdline only once main reads a command line
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cycstat.cli; "
        f"print(sorted({UNUSED | {'json', 'cycstat.cmdline'}} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["moment", "exc", "-d", "2"],
    ["limit", "exc", "--variance"],
    ["verify", "exc", "--nmax", "3"],
    ["expand", "exc", "--json"],
    ["--help"],
    ["moment", "exc", "--bell-cap", "12"],
], ids=["moment", "limit", "verify", "expand", "help", "usage-error"])
def test_commands_leave_out_argparse_gettext_and_locale(argv):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from cycstat.cli import main; "
        f"main({argv!r}); print(sorted({UNUSED} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("statement, loaded", [
    ("pass", False),
    ("main(['moment', 'exc', '-d', '2'])", False),
    ("main(['moment', 'exc', '--lambda', '3,2'])", False),
    ("main(['limit', 'exc', '--variance'])", False),
    ("main(['expand', 'exc'])", False),
    ("main(['verify', 'exc', '--nmax', '3'])", True),
    ("cycstat.exc().evaluate((2, 1))", True),
    ("import cycstat.oracle", True),
], ids=["import", "moment", "moment-lambda", "limit", "expand", "verify", "evaluate",
        "import-oracle"])
def test_only_evaluation_loads_the_oracle(statement, loaded):
    # the brute-force oracle is verify's: every other command is spared
    # compiling it at start-up, and the tests' reference is loaded by none
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cycstat.cli; "
        f"from cycstat.cli import main; {statement}; "
        "print('cycstat.oracle' in sys.modules, 'cycstat.reference' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{loaded} False"


def test_readme_cli_block_matches_parser():
    # the first text block under "## CLI" is what --help prints: one line
    # per command, then the common flags, which every command takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    assert block == cmdline.USAGE
    documented, common = {}, set()
    for line in block.splitlines():
        flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line))
        if line.startswith("cycstat "):
            documented[line.split()[1]] = flags
        else:
            common |= flags
    assert documented.keys() == cmdline.OPTIONS.keys()
    for name, options in cmdline.OPTIONS.items():
        assert documented[name] | common == options.keys() - {"-h", "--help"}, name


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

    def test_lambda_point_reads_only_the_variables_used(self):
        # exc's mean reads n and m1 alone, so lambda = (10^9) needs no list
        # of 10^9 + 1 counts
        done = run_process(
            "moment", "exc", "--lambda", "1000000000", timeout=120,
            preexec_fn=address_space_cap(),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert "value at lambda=(1000000000): 500000000" in done.stdout.splitlines()

    @pytest.mark.parametrize("argv, expected", [
        (("moment", "0*exc", "-d", "2"), "moment d=2: 0\ngraded degree -inf (bound 0)\n"),
        (("moment", "biv(21;A={};B={};f=0;g=1)", "-d", "2"),
         "moment d=2: 0\ngraded degree -inf (bound 0)\n"),
        (("expand", "0*exc"), "size=0 shift=0 power=0\n"),
        (("moment", "3", "-d", "2"), "moment d=2: 9\ngraded degree 0 (bound 0)\n"),
    ], ids=["zero-multiple", "zero-weight-pattern", "expand-zero", "constant"])
    def test_zero_and_constant_statistics(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    def test_leading_minus_follows_double_dash(self, capsys):
        # an argument that begins with '-' is read as an option
        code, out, err = run(capsys, "moment", "-2*des")
        assert (code, out) == (2, "")
        assert err == cmdline.USAGE + "error: the following arguments are required: expr\n"
        assert run(capsys, "moment", "--", "-2*des") == run(capsys, "moment", "0 - 2*des")

    @pytest.mark.parametrize("argv, code, message", [
        (("-d", "0", "--variance", "--lambda", "x"), 2, "-d must be >= 1"),
        (("-d", "3", "--variance", "--lambda", "x"), 2, "--variance requires -d 2"),
        (("--lambda", "3,x", "-d", "101"), 2, "bad cycle type '3,x'"),
        (("--lambda", "2,0", "-d", "101"), 2, "cycle lengths must be positive"),
        (("-d", "101", "--lambda", "2,1"), 3, "exponent 101 exceeds the cap"),
    ], ids=["d-0", "variance-d-3", "lambda-letter", "lambda-0", "d-101"])
    def test_malformed_arguments_before_the_cap(self, tmp_path, capsys, argv, code, message):
        # the malformed first, then the exponent cap, and both before a
        # --cache file that is no cache and a statistic that does not parse
        path = tmp_path / "cache.json"
        path.write_text("not json")
        got, out, err = run(capsys, "moment", "bogus(", "--cache", str(path), *argv)
        assert (got, out) == (code, "") and message in err
        assert err.count("\n") == 1

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
        code, out, err = run(capsys, "limit", "exc")
        assert (code, out) == (2, "")
        assert err.endswith("\nerror: one of the arguments --mean --variance is required\n")


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

    def test_malformed_arguments_before_the_cap(self, capsys):
        # -d 0 and --nmax 0 are malformed whatever --nmax and -d are
        for argv, flag in [(("--nmax", "9", "-d", "0"), "-d"),
                           (("--nmax", "0", "-d", "101"), "--nmax")]:
            code, out, err = run(capsys, "verify", "exc", *argv)
            assert (code, out) == (2, "") and f"{flag} must be >= 1" in err

    def test_exponent_over_the_cap_refused_at_once(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a power was built")

        monkeypatch.setattr(translates, "_product", refuse)
        code, out, err = run(capsys, "verify", "exc", "--nmax", "3", "-d", "101")
        assert (code, out) == (3, "")
        assert f"exponent 101 exceeds the cap {translates.MAX_EXPONENT}" in err

    def test_support_beyond_ground_set_needs_no_indicator(self, capsys, monkeypatch):
        # exc^3 has types with up to 6 path vertices, above a cap of 3; on
        # classes with n <= 2 they contribute 0 and their indicators are
        # never built.  An empty cache, so that no type other tests cached
        # stands in for one this run builds.
        monkeypatch.setattr(indicator, "_MEMO", {})
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
        # type_sums(2) and (3), each streamed once for all classes, and the
        # product that builds exc^2; type_sums(1) groups exc's own translates
        assert verify["placements"] == [square, square, 161]


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

    @pytest.mark.parametrize("argv, message", [
        (("moment", "exc", "--variance"), "--variance requires -d 2"),
        (("moment", "exc", "--lambda", "0,1"), "cycle lengths must be positive"),
        (("verify", "exc", "-d", "0"), "-d must be >= 1"),
    ], ids=["variance-at-d-1", "zero-cycle-length", "verify-order-zero"])
    def test_bad_option_value(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_consistency_violation_names_the_type(self, capsys, monkeypatch):
        # without its cycle factor, mu=[2];nu=[1] has graded degree 1, not 3
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "_cycle_factor", lambda cycles: ONE)
        code, out, err = run(capsys, "moment", "T(U=(1,2,3);V=(2,1,4);C={};f=1)")
        assert (code, out) == (4, "")
        assert err.startswith("consistency violation:") and "mu=[2];nu=[1]" in err

    def test_unpacked_pattern_checked_before_zero_weight(self, capsys):
        # the pattern is checked before the weight
        code, out, err = run(capsys, "expand", "T(U=(1);V=(3);C={};f=0)")
        assert code == 2
        assert out == "" and "translate pattern (1)(3) is not packed" in err

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
        "biv(1;A={};B={};f=" + "(" * 2000 + "x1" + ")" * 2000 + ";g=1)",
        "(" * 2000 + "exc" + ")" * 2000,
    ], ids=["nested-weight", "nested-statistic"])
    def test_deep_nesting_is_a_resource_limit(self, expr):
        # the parser descends three Python frames per level of parentheses
        done = run_process("moment", expr, timeout=30)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert "nested too deeply" in done.stderr

    @pytest.mark.parametrize("expr, mean", [
        ("2*" * 1000 + "exc", f"{2**999}*n - {2**999}*m1"),
        ("1*" * 3000 + "exc", "(n - m1) / 2"),
    ], ids=["long-product", "long-unit-product"])
    def test_long_product_is_a_loop(self, expr, mean):
        # a product is read by a loop, not by one frame per factor: E[exc] is
        # (n - m1) / 2, scaled by the factors
        done = run_process("moment", expr, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"moment d=1: {mean}\ngraded degree 1 (bound 1)\n"

    @pytest.mark.parametrize("expr, code, message", [
        ("exc^\u00b2", 2, "expected a token, found '\u00b2'"),
        ("N(\u0661\u0662)", 2, "expected a token, found '\u0661'"),
        ("1" * 5000 + "*exc", 3, "integer literal at position 0 has 5000 digits"),
        ("exc^" + "1" * 5000, 3, "integer literal at position 4 has 5000 digits"),
        ("T(U=(1);V=(2);C={};f=x10000000)", 2, "a variable index at most 31"),
        ("+", 2, "expected a statistic name, 'N', 'biv', 'T', a number, '-' or '(', found '+'"),
        ("-", 2, "expected a statistic name, 'N', 'biv', 'T', a number, '-' or '('"),
        ("exc des", 2, "expected end of input, '+', '-', '*' or '^', found 'des'"),
        ("T(U=(1);V=(2);C={};f=x0)", 2, "expected a variable x1, x2, ..., found 'x0'"),
        ("biv(12;A={};B={};f=x3;g=1)", 2, "weight f uses more than 2 variables"),
    ], ids=["superscript-exponent", "arabic-indic-digits", "long-literal",
            "long-exponent", "weight-index", "leading-operator", "missing-operand",
            "juxtaposed-statistics", "weight-index-zero", "weight-past-the-pattern"])
    def test_malformed_input_fails_fast(self, expr, code, message):
        start = time.perf_counter()
        done = run_process("moment", expr, timeout=30)
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stdout) == (code, "")
        assert "Traceback" not in done.stderr
        assert message in done.stderr

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 7999,
                        reason="this interpreter converts a 7999-digit int to text")
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_coefficient_longer_than_int_converts(self, json_flag):
        # 4000 ones pass the literal check, and the second moment squares
        # them into coefficients of 7999 digits
        done = run_process("moment", "1" * 4000 + "*exc", "-d", "2", *json_flag, timeout=30)
        assert (done.returncode, done.stdout) == (3, "")
        assert "Traceback" not in done.stderr
        assert "a number of 7999 digits is longer than int converts to text" in done.stderr

    def test_weight_index_past_the_text_builds_no_variable(self):
        # x1000000000 would be a variable of a 10^9-entry exponent tuple
        done = run_process(
            "moment", "T(U=(1);V=(2);C={};f=x1000000000)", timeout=30,
            preexec_fn=address_space_cap(),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert "a variable index at most 33, found 'x1000000000'" in done.stderr

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
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "BELL_CAP", int(cap))
        got, out, err = run(capsys, "moment", "fix", "-d", "2")
        assert got == code and message in err
        assert out.startswith("moment d=2: m1^2")

    def test_bell_cap_is_no_option(self, capsys):
        code, out, err = run(capsys, "moment", "fix", "-d", "2", "--bell-cap", "12")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bell-cap 12" in err

    def test_bell_cap_zero_admits_no_path(self, capsys, monkeypatch):
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "BELL_CAP", 0)
        code, out, err = run(capsys, "moment", "exc")
        assert code == 3
        assert out == "" and "Bell cap 0" in err

    def test_bell_cap_checked_before_any_polynomial(self, capsys, monkeypatch):
        # N(123) has types of 6 path vertices, and of fewer that come first
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "BELL_CAP", 5)
        computed = []
        compute = indicator._compute
        monkeypatch.setattr(indicator, "_compute", lambda t: computed.append(t) or compute(t))
        code, out, err = run(capsys, "moment", "N(123)")
        assert (code, out) == (3, "")
        assert "path-vertex count 6 exceeds the Bell cap 5" in err
        assert computed == []

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


# the fixture's mu=[];nu=[1,1] entry and one more m2 term, a wrong polynomial
# that agrees with the true one at lambda = (2) and (1,1)
EXTRA_M2 = (
    b'{"mu=[];nu=[1,1]": {"terms": [{"coef": "-3", "exps": {"n": 1}},'
    b' {"coef": "3", "exps": {"m1": 1}}, {"coef": "1", "exps": {"n": 2}},'
    b' {"coef": "-2", "exps": {"n": 1, "m1": 1}}, {"coef": "1", "exps": {"m1": 2}},'
    b' {"coef": "2", "exps": {"m2": 1}}, {"coef": "1", "exps": {"m2": 1}}]}}'
)
# a k = 6 entry with its m2^3 coefficient 7 for 8, which m2 = 0 hides at
# lambda = (6) and (1^6)
WRONG_AT_K6 = (
    b'{"mu=[2];nu=[2,2]": {"terms": [{"coef": "-10", "exps": {"n": 1, "m2": 1}},'
    b' {"coef": "10", "exps": {"m1": 1, "m2": 1}}, {"coef": "2", "exps": {"n": 2, "m2": 1}},'
    b' {"coef": "-4", "exps": {"n": 1, "m1": 1, "m2": 1}}, {"coef": "2", "exps": {"m1": 2, "m2": 1}},'
    b' {"coef": "20", "exps": {"m2": 2}}, {"coef": "-8", "exps": {"n": 1, "m2": 2}},'
    b' {"coef": "8", "exps": {"m1": 1, "m2": 2}}, {"coef": "12", "exps": {"m2": 1, "m3": 1}},'
    b' {"coef": "7", "exps": {"m2": 3}}, {"coef": "8", "exps": {"m2": 1, "m4": 1}}]}}'
)
# keys that split or parse badly are refused as keys, not by Python's own
# message
BAD_KEYS = {
    b'{"bad": 1}': "bad type key 'bad'",
    b'{"mu=[];nu=[1];x=1": 1}': "bad type key 'mu=[];nu=[1];x=1'",
    b'{"mu=[a];nu=[]": 1}': "bad type key 'mu=[a];nu=[]'",
}
# the type or key each wrong entry's message names
NAMED_TYPE = {EXTRA_M2: "mu=[];nu=[1,1]", WRONG_AT_K6: "mu=[2];nu=[2,2]", **BAD_KEYS}


class TestDiskCache:
    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(indicator, "_MEMO", {})

    def test_cache_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        code1, out1, _ = run(capsys, "moment", "exc", "--cache", path)
        data = json.loads(Path(path).read_text())
        assert any(key.startswith("mu=") for key in data)
        code2, out2, _ = run(capsys, "moment", "exc", "--cache", path)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("moment", "cyc2", "-d", "4"), ("moment", "inv", "-d", "2"),
        ("moment", "exc", "-d", "3", "--lambda", "3,2,1"),
        ("limit", "des", "--variance"), ("verify", "exc", "--nmax", "4", "-d", "2"),
    ])
    def test_one_rewrite_per_command(self, tmp_path, capsys, monkeypatch, argv):
        # the types a run without --cache computes, in the order it computes
        # them, from an empty memo
        computed = []
        compute = indicator._compute
        with monkeypatch.context() as m:
            m.setattr(indicator, "_MEMO", {})
            m.setattr(indicator, "_compute", lambda t: computed.append(t) or compute(t))
            code, uncached, _ = run(capsys, *argv)
        assert code == 0 and computed
        path = tmp_path / "cache.json"
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: (replaced.append(b), real_replace(a, b)))
        monkeypatch.setattr(indicator, "_MEMO", {})
        code, out, _ = run(capsys, *argv, "--cache", str(path))
        assert (code, out) == (0, uncached)
        assert replaced == [str(path)]
        assert path.read_text() == json.dumps({t.key: to_json_dict(compute(t)) for t in computed})

    def test_exit_3_keeps_the_types_computed_before_it(self, tmp_path, capsys, monkeypatch):
        # verify computes each type as a class reaches it: the one edge of
        # d = 1 is written in one rewrite when a type of d = 2 exceeds the cap
        path = tmp_path / "cache.json"
        monkeypatch.setattr(indicator, "_MEMO", {})
        monkeypatch.setattr(indicator, "BELL_CAP", 2)
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: (replaced.append(b), real_replace(a, b)))
        code, _, err = run(capsys, "verify", "exc", "--nmax", "3", "-d", "2", "--cache", str(path))
        assert code == 3 and "exceeds the Bell cap 2" in err
        assert replaced == [str(path)]
        assert list(json.loads(path.read_text())) == [CyclePathType((), (1,)).key]

    def test_bell_cap_applies_to_cached_types(self, tmp_path, capsys, monkeypatch):
        # each run gets its own in-process cache, as separate processes would
        path = str(tmp_path / "cache.json")
        monkeypatch.setattr(indicator, "_MEMO", {})
        code, _, _ = run(capsys, "moment", "exc", "-d", "3", "--cache", path)
        assert code == 0
        monkeypatch.setattr(indicator, "_MEMO", {})
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
            # malformed numbers: a zero denominator, an infinity, exponents
            # that are not nonnegative ints, and m0 for n
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1/0", "exps": {"n": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}]}}',
            b'{"mu=[];nu=[1]": {"terms": [{"coef": 1e400, "exps": {"n": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}]}}',
            # graded degree 1, and m1^-1 divides by zero at lambda = (2)
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"n": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}, {"coef": "1", "exps": {"n": 2, "m1": -1}}]}}',
            # graded degree 1, and m3 is 0 at lambda = (2) and (1,1)
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"n": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}, {"coef": "1", "exps": {"m3": 1, "n": -2}}]}}',
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"n": true}},'
            b' {"coef": "-1", "exps": {"m1": 1}}]}}',
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"m0": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}]}}',
            # an exponent form, which Fraction would expand to 10^100000000
            # before any check ran
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1e100000000", "exps": {"n": 1}},'
            b' {"coef": "-1", "exps": {"m1": 1}}]}}',
            # m10000000 is above the type's size 1, and refused before an
            # exponent tuple of 10^7 entries is built
            b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"m10000000": 1}}]}}',
            # keys that parse but are not the key of their type, each with the
            # right polynomial of that type (2*m1*m2 and 2*m2)
            b'{"mu=[1,2];nu=[]": {"terms": [{"coef": "2", "exps": {"m1": 1, "m2": 1}}]}}',
            b'{"mu=[ 2];nu=[]": {"terms": [{"coef": "2", "exps": {"m2": 1}}]}}',
            *BAD_KEYS,
            pytest.param(EXTRA_M2, id="extra-m2-term"),
            pytest.param(WRONG_AT_K6, id="wrong-coefficient-at-k6"),
            # nesting deeper than json reads, of the file and of one entry
            pytest.param(b"[" * 100000 + b"]" * 100000, id="deep-nesting"),
            pytest.param(b'{"mu=[];nu=[1]": ' + b"[" * 100000 + b"]" * 100000 + b"}",
                         id="deep-nesting-in-entry"),
        ],
    )
    def test_corrupt_cache_rejected_untouched(self, tmp_path, capsys, fresh_cache, content):
        path = tmp_path / "cache.json"
        path.write_bytes(content)
        start = time.perf_counter()
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == "" and f"cache file {path} is not a cycstat cache" in err
        assert NAMED_TYPE.get(content, "") in err
        assert path.read_bytes() == content

    def test_variable_past_the_type_builds_no_exponents(self, tmp_path):
        # even with exponent 0, m1000000000 would widen the key to 10^9 entries
        path = tmp_path / "cache.json"
        content = b'{"mu=[];nu=[1]": {"terms": [{"coef": "1", "exps": {"m1000000000": 0}}]}}'
        path.write_bytes(content)
        done = run_process(
            "moment", "exc", "--cache", str(path), timeout=30, preexec_fn=address_space_cap()
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert f"cache file {path} is not a cycstat cache" in done.stderr
        assert "entry mu=[];nu=[1] is not the polynomial of its type" in done.stderr
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
        monkeypatch.setattr(indicator, "_MEMO", {})
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

    def test_directory_refused_untouched(self, tmp_path, capsys, fresh_cache):
        # was read as a missing file: exit 0, nothing cached, and a temporary
        # file made and removed beside the directory
        path = tmp_path / "cache"
        path.mkdir()
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert (code, out) == (2, "")
        assert f"cache file {path} is not a regular file" in err
        assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []

    def test_missing_directory_refused_before_computing(self, tmp_path, capsys, monkeypatch,
                                                         fresh_cache):
        # was read as a missing file and then never written: exit 0, no cache
        def no_compute(t):
            raise AssertionError("a polynomial was computed")

        monkeypatch.setattr(indicator, "_compute", no_compute)
        path = tmp_path / "missing" / "cache.json"
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert (code, out) == (2, "")
        assert f"cache file {path} is in a missing directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_fifo_refused_without_blocking(self, tmp_path):
        # opened for reading, a FIFO with no writer blocks forever, so the
        # run is made in a child with a timeout
        path = tmp_path / "cache.fifo"
        os.mkfifo(path)
        done = run_process("moment", "exc", "--cache", str(path), timeout=30)
        assert (done.returncode, done.stdout) == (2, "")
        assert f"cache file {path} is not a regular file" in done.stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_unopenable_path_refused(self, tmp_path, capsys, fresh_cache):
        # a symbolic link to itself exists but opens as nothing
        path = tmp_path / "loop.json"
        path.symlink_to(path)
        code, out, err = run(capsys, "moment", "exc", "--cache", str(path))
        assert (code, out) == (2, "")
        assert f"cache file {path} cannot be opened" in err
        assert list(tmp_path.iterdir()) == [path] and path.is_symlink()

    def test_empty_path_refused(self, tmp_path, capsys, monkeypatch, fresh_cache):
        # was skipped as no --cache at all: exit 0, and nothing cached
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "moment", "exc", "--cache", "")
        assert (code, out) == (2, "")
        assert "cache file '' cannot be opened" in err
        assert list(tmp_path.iterdir()) == []

    def test_later_command_leaves_the_file_alone(self, tmp_path, capsys, fresh_cache):
        # the path was kept past the command that named it, so a later
        # command without --cache wrote its own types into the file
        path = tmp_path / "cache.json"
        assert run(capsys, "moment", "exc", "--cache", str(path))[0] == 0
        content = path.read_bytes()
        assert run(capsys, "moment", "des")[0] == 0
        assert path.read_bytes() == content
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("length", [2000, 20000])
    def test_long_path_key_exits_3_at_once(self, tmp_path, length):
        # the cap's message printed Bell(P): Bell(2001) has more digits than
        # an int converts to a string (a traceback, exit 1), and Bell(20001)
        # ran for minutes
        path = tmp_path / "cache.json"
        content = f'{{"mu=[];nu=[{length}]": {{"terms": []}}}}'.encode()
        path.write_bytes(content)
        start = time.perf_counter()
        done = run_process("moment", "exc", "--cache", str(path), timeout=30)
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout) == (3, "")
        assert "Traceback" not in done.stderr
        p = length + 1
        assert done.stderr == (
            f"resource limit: path-vertex count {p} exceeds the Bell cap 12 "
            f"(Bell({p}) set partitions)\n"
        )
        assert path.read_bytes() == content

    def test_path_count_longer_than_int_prints_exits_3(self, tmp_path):
        # a path of 4300 nines, the longest int reads: its count of path
        # vertices has 4301 digits, more than int converts to text, and
        # printing it was a traceback with exit 1
        path = tmp_path / "cache.json"
        content = f'{{"mu=[];nu=[{"9" * 4300}]": {{"terms": []}}}}'.encode()
        path.write_bytes(content)
        done = run_process("moment", "exc", "--cache", str(path), timeout=30)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            "resource limit: path-vertex count above 10^18 exceeds the Bell cap 12 "
            "(Bell(P) set partitions)\n"
        )
        assert path.read_bytes() == content
