"""Statistic expression grammar."""

from fractions import Fraction
from itertools import permutations

import pytest

from cycstat import translates
from cycstat.dsl import parse_statistic
from cycstat.errors import ParseError, ResourceLimitError
from cycstat.reference import (descent_count, excedance_count, fixed_point_count, inversion_count,
                               major_index, two_cycle_count)
from cycstat.patterns import des, exc, maj


class TestBuiltins:
    def test_names(self):
        # every named statistic against its definition on all of S_7
        for name, evaluator in [
            ("exc", excedance_count),
            ("des", descent_count),
            ("maj", major_index),
            ("inv", inversion_count),
            ("fix", fixed_point_count),
            ("cyc2", two_cycle_count),
        ]:
            s = parse_statistic(name)
            for w in permutations(range(1, 8)):
                assert s.evaluate(w) == evaluator(w), (name, w)

    def test_patterns(self):
        s = parse_statistic("N(21;A={1})")
        t = des()
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == t.evaluate(w)

    def test_classical_pattern(self):
        s = parse_statistic("N(12)")
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == sum(
                1
                for i in range(len(w))
                for j in range(i + 1, len(w))
                if w[i] < w[j]
            )

    def test_bivincular(self):
        s = parse_statistic("biv(21;A={1};B={};f=x1;g=1)")
        t = maj()
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == t.evaluate(w)


class TestTranslates:
    def test_explicit_translate(self):
        s = parse_statistic("T(U=(1);V=(2);C={};f=1)")
        t = exc()
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == t.evaluate(w)

    def test_weight_polynomial(self):
        s = parse_statistic("T(U=(1,2);V=(2,1);C={1};f=x1^2 - 1/2*x2 + 3)")
        # pi = (2,1): single constrained subset {1,2}, weight 1 - 1 + 3
        assert s.evaluate((2, 1)) == Fraction(3)

    def test_unary_minus_in_weight(self):
        s = parse_statistic("T(U=(1);V=(1);C={};f=-x1)")
        assert s.evaluate((1, 2, 3)) == -6


class TestArithmetic:
    def test_sum_and_scalar(self):
        s = parse_statistic("2*exc + 1/2*des")
        e, d = exc(), des()
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == 2 * e.evaluate(w) + Fraction(1, 2) * d.evaluate(w)

    def test_difference(self):
        s = parse_statistic("maj - des")
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == major_index(w) - descent_count(w)

    def test_power(self):
        s = parse_statistic("exc^2")
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == excedance_count(w) ** 2

    def test_constant_statistic(self):
        assert parse_statistic("3").evaluate((2, 1)) == 3
        assert parse_statistic("1/3").evaluate((1,)) == Fraction(1, 3)

    @pytest.mark.parametrize("text, value", [
        ("exc*des", lambda w: excedance_count(w) * descent_count(w)),
        ("(exc + fix)^2", lambda w: (excedance_count(w) + fixed_point_count(w)) ** 2),
        ("exc*2 - -exc", lambda w: 3 * excedance_count(w)),
        ("(maj - exc)*exc^2", lambda w: (major_index(w) - excedance_count(w))
         * excedance_count(w) ** 2),
        ("2^2*(1 + 1/2)", lambda w: 6),
    ])
    def test_products_and_parentheses(self, text, value):
        s = parse_statistic(text)
        for w in permutations(range(1, 5)):
            assert s.evaluate(w) == value(w)

    def test_number_times_statistic_scales_its_weights(self, monkeypatch):
        # a number folds into the weights: no product of translates is built
        def refuse(*args):
            raise AssertionError("product built")

        expected = parse_statistic("6*exc")
        monkeypatch.setattr(translates, "_product", refuse)
        for text in ("2*3*exc", "exc*6", "2*exc*3", "(6)*exc", "-(-6*exc)"):
            assert parse_statistic(text) == expected
        assert parse_statistic("1/2*N(12)") == Fraction(1, 2) * parse_statistic("N(12)")

    @pytest.mark.parametrize("weight, expected", [
        ("x1^2^3", "x1^6"),
        ("-x1^2^2", "-x1^4"),
        ("-(x1^2)^2", "-x1^4"),
        ("(-x1^2)^2", "x1^4"),
    ])
    def test_powers_of_weights(self, weight, expected):
        # powers group to the left and bind tighter than unary minus
        assert parse_statistic(f"T(U=(1);V=(1);C={{}};f={weight})") == parse_statistic(
            f"T(U=(1);V=(1);C={{}};f={expected})")


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse_statistic("bogus")
        assert err.value.pos == 0

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_statistic("exc )")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_statistic("exc^0")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_statistic("1/0")

    @pytest.mark.parametrize("text, pos", [
        ("1" * 5000 + "*exc", 0),
        ("exc^" + "1" * 5000, 4),
        ("biv(1;A={};B={};f=x1^" + "1" * 5000 + ";g=1)", 21),
    ])
    def test_literal_too_long_for_int(self, text, pos):
        # 5000 digits is above the interpreter's default int-string limit
        with pytest.raises(ResourceLimitError) as err:
            parse_statistic(text)
        assert f"integer literal at position {pos} has 5000 digits" in str(err.value)

    def test_error_reports_position_and_expectation(self):
        with pytest.raises(ParseError) as err:
            parse_statistic("T(U=(1);V=(2);C={};g=1)")
        assert "f=" in str(err.value)


# (text, position, expected, found) for a malformed name=value field of each
# atom: a wrong or missing name, a missing '=', a value of the wrong shape and
# a missing separator or closing parenthesis
MALFORMED_FIELDS = [
    ("N(12;B={})", 5, "'A='", "B"),
    ("N(12;A{1})", 6, "'='", "{"),
    ("N(12;A=1)", 7, "'{'", "1"),
    ("N(12;A={1}", 10, "')'", ""),
    ("N(12;A={1};B={})", 10, "')'", ";"),
    ("biv(21;A={};C={};f=1;g=1)", 12, "'B='", "C"),
    ("biv(21;B={};A={};f=1;g=1)", 7, "'A='", "B"),
    ("biv(21;A={};B={};g=1;f=1)", 17, "'f='", "g"),
    ("biv(21;A={};B={};f=1;h=1)", 21, "'g='", "h"),
    ("biv(21;A={};B={};f=1;g=1", 24, "')'", ""),
    ("biv(21;A={}B={};f=1;g=1)", 11, "';'", "B"),
    ("biv(21;A=(1);B={};f=1;g=1)", 9, "'{'", "("),
    ("biv(21;A={};B={};f=;g=1)", 19, "a number, variable, '-' or '('", ";"),
    ("T(U=(1);V=(2);C={};g=1)", 19, "'f='", "g"),
    ("T(V=(1);U=(2);C={};f=1)", 2, "'U='", "V"),
    ("T(U=(1);W=(2);C={};f=1)", 8, "'V='", "W"),
    ("T(U=(1);V=(2);D={};f=1)", 14, "'C='", "D"),
    ("T(U={1};V=(2);C={};f=1)", 4, "'('", "{"),
    ("T(U=(1);V=(2);C=(1);f=1)", 16, "'{'", "("),
    ("T(U=(1);V=(2);C={};f=1", 22, "')'", ""),
    ("T(U=(1) V=(2);C={};f=1)", 8, "';'", "V"),
    ("T(U(1);V=(2);C={};f=1)", 3, "'='", "("),
    ("T(U=(1);V=(2);C={};f=)", 21, "a number, variable, '-' or '('", ")"),
    # tokens are ASCII: a non-ASCII digit, letter or superscript is no token
    ("exc^\u00b2", 4, "a token", "\u00b2"),
    ("N(\u0661\u0662)", 2, "a token", "\u0661"),
    ("\u00e9xc", 0, "a token", "\u00e9"),
    ("biv(21;A={};B={};f=x\u0661;g=1)", 20, "a token", "\u0661"),
    # a support point or pattern letter takes a character, so no weight
    # variable is indexed beyond the length of the text
    ("T(U=(1);V=(2);C={};f=x10000000)", 21, "a variable index at most 31", "x10000000"),
    ("T(U=(1);V=(2);C={};f=x" + "9" * 5000 + ")", 21, "a variable index at most 5023",
     "x" + "9" * 5000),
]


@pytest.mark.parametrize("text,pos,expected,found", MALFORMED_FIELDS)
def test_malformed_field_error(text, pos, expected, found):
    with pytest.raises(ParseError) as err:
        parse_statistic(text)
    assert (err.value.pos, err.value.expected, err.value.found) == (pos, expected, found)
