"""Text grammar for statistics and their weights: one arithmetic grammar,

    sum     := product (("+" | "-") product)*
    product := power ("*" power)*
    power   := "-" power | ("(" sum ")" | int ["/" int] | atom) ("^" int)*

over two sets of atoms.  A statistic's exponents are >= 1 and its atoms

    atom    := builtin | "N(" word [";A=" intset] ")"
             | "biv(" word ";A=" intset ";B=" intset ";f=" weight ";g=" weight ")"
             | "T(U=" inttuple ";V=" inttuple ";C=" intset ";f=" weight ")"
    builtin := "exc" | "des" | "maj" | "inv" | "fix" | "cyc2"

A weight's exponents are >= 0 and its atoms the variables x1, x2, ....
Errors carry the offending position and what was expected.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ResourceLimitError
from .partial import PartialPermutation
from .patterns import BivincularPattern, builtin, BUILTINS, compile_bivincular, pattern_count
from .poly import Poly
from .sums import MAX_SUM_DEGREE
from .translates import ConstrainedTranslate, RegularStatistic

# one match per token: an ASCII digit run, an ASCII name, a symbol, whitespace
# (as str.isspace has it) or, unnamed and refused, any other character
_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<SYMBOL>[-+*/^(){},;=])|(?P<SPACE>\s+)|.")
_WEIGHT_VARIABLE = re.compile(r"x0*([0-9]+)")


class _Tokens:
    """The tokens of text as (kind, text, position, value): a symbol is its
    own kind, and value is the int of an INT token, read once here."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int, int | None]] = []
        for match in _TOKEN.finditer(text):
            kind, tok, pos = match.lastgroup, match.group(), match.start()
            if kind is None:
                raise ParseError(pos, "a token", tok)
            try:
                value = int(tok) if kind == "INT" else None
            except ValueError:  # more digits than int converts
                raise ResourceLimitError(f"integer literal at position {pos} has "
                                         f"{len(tok)} digits, more than int converts") from None
            if kind != "SPACE":
                self.items.append((tok if kind == "SYMBOL" else kind, tok, pos, value))
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("EOF", "", len(self.text), None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], what or repr(kind), tok[1])
        return self.next()


def parse_statistic(text: str) -> RegularStatistic:
    toks = _Tokens(text)
    try:
        stat = _STATISTIC.parse(toks)
    except RecursionError:
        # the grammar is parsed by recursive descent, three frames per level
        raise ResourceLimitError("expression nested too deeply") from None
    tok = toks.peek()
    if tok[0] != "EOF":
        raise ParseError(tok[2], "end of input, '+', '-', '*' or '^'", tok[1])
    return stat


class _Domain:
    """What the arithmetic grammar needs of the values it builds: its atoms,
    read from the tokens; a number as one of its values; and its power rule,
    which reads the exponent after '^'.  A number stays a Fraction until a
    sum or a power meets it, so a number times a value is a scaling."""

    def __init__(self, atom, number, power):
        self.atom, self.number, self.power = atom, number, power

    def lift(self, value):
        return self.number(value) if isinstance(value, Fraction) else value

    def parse(self, toks: _Tokens):
        return self.lift(_sum(toks, self))


def _sum(toks: _Tokens, dom: _Domain):
    out = _product(toks, dom)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        out, term = dom.lift(out), dom.lift(_product(toks, dom))
        out = out + term if op == "+" else out - term
    return out


def _product(toks: _Tokens, dom: _Domain):
    out = _power(toks, dom)
    while toks.peek()[0] == "*":
        toks.next()
        out = out * _power(toks, dom)
    return out


def _power(toks: _Tokens, dom: _Domain):
    tok = toks.peek()
    if tok[0] == "-":
        toks.next()
        return -1 * _power(toks, dom)
    if tok[0] == "(":
        toks.next()
        out = _sum(toks, dom)
        toks.expect(")")
    elif tok[0] == "INT":
        toks.next()
        out = Fraction(tok[3])
        if toks.peek()[0] == "/":
            toks.next()
            den = toks.expect("INT", "a denominator")
            if den[3] == 0:
                raise ParseError(den[2], "a nonzero denominator", "0")
            out /= den[3]
    else:
        out = dom.atom(toks)
    while toks.peek()[0] == "^":
        toks.next()
        out = dom.power(toks, dom.lift(out))
    return out


def _statistic_power(toks: _Tokens, base: RegularStatistic) -> RegularStatistic:
    tok = toks.expect("INT", "a positive integer exponent")
    if tok[3] < 1:
        raise ParseError(tok[2], "an exponent >= 1", tok[1])
    return base ** tok[3]


def _parse_atom(toks: _Tokens) -> RegularStatistic:
    tok = toks.peek()
    if tok[0] != "NAME":
        raise ParseError(tok[2], "a statistic name, 'N', 'biv', 'T', a number, '-' or '('",
                         tok[1])
    name = tok[1]
    if name in BUILTINS:
        toks.next()
        return builtin(name)
    parse = _COMPOUNDS.get(name)
    if parse is None:
        raise ParseError(tok[2], "one of " + ", ".join(sorted(BUILTINS)) + ", N, biv, T", name)
    toks.next()
    toks.expect("(")
    return parse(toks)


def _parse_pattern(toks: _Tokens) -> RegularStatistic:
    word = toks.expect("INT", "a pattern word like 132")[1]
    A: tuple[int, ...] = ()
    if toks.peek()[0] == ";":
        toks.next()
        A = _field(toks, "A", _parse_intset)
    toks.expect(")")
    return pattern_count(word, A=A)


def _parse_bivincular(toks: _Tokens) -> RegularStatistic:
    word = toks.expect("INT", "a pattern word like 21")[1]
    toks.expect(";")
    A = _field(toks, "A", _parse_intset)
    toks.expect(";")
    B = _field(toks, "B", _parse_intset)
    toks.expect(";")
    f = _field(toks, "f", _WEIGHT.parse)
    toks.expect(";")
    g = _field(toks, "g", _WEIGHT.parse)
    toks.expect(")")
    return compile_bivincular(BivincularPattern(word, frozenset(A), frozenset(B), f, g))


def _parse_translate(toks: _Tokens) -> RegularStatistic:
    U = _field(toks, "U", _parse_inttuple)
    toks.expect(";")
    V = _field(toks, "V", _parse_inttuple)
    toks.expect(";")
    C = _field(toks, "C", _parse_intset)
    toks.expect(";")
    f = _field(toks, "f", _WEIGHT.parse)
    toks.expect(")")
    translate = ConstrainedTranslate(PartialPermutation(U, V), frozenset(C), f)
    return RegularStatistic((translate,))


def _field(toks: _Tokens, name: str, parse):
    """The value of a `name=value` field, read by parse."""
    tok = toks.peek()
    if tok[0] != "NAME" or tok[1] != name:
        raise ParseError(tok[2], f"'{name}='", tok[1])
    toks.next()
    toks.expect("=")
    return parse(toks)


def _parse_intlist(toks: _Tokens, close: str) -> tuple[int, ...]:
    out = []
    if toks.peek()[0] == "INT":
        out.append(toks.next()[3])
        while toks.peek()[0] == ",":
            toks.next()
            out.append(toks.expect("INT", "an integer")[3])
    toks.expect(close)
    return tuple(out)


def _parse_intset(toks: _Tokens) -> tuple[int, ...]:
    toks.expect("{")
    return _parse_intlist(toks, "}")


def _parse_inttuple(toks: _Tokens) -> tuple[int, ...]:
    toks.expect("(")
    return _parse_intlist(toks, ")")


# -- weight polynomials ------------------------------------------------


def _weight_power(toks: _Tokens, base: Poly) -> Poly:
    tok = toks.expect("INT", "a nonnegative exponent")
    e = tok[3]
    # a weight with this factor has degree at least deg * e, unless it
    # cancels to zero, and its constrained sum one more, above the cap
    # of sums; a power of several terms takes minutes to expand, a
    # monomial's no time, so only the former is refused here
    if len(base.terms) > 1 and base.total_degree() * e > MAX_SUM_DEGREE:
        raise ResourceLimitError(
            f"weight power of degree {base.total_degree() * e} makes a "
            f"constrained sum above the cap {MAX_SUM_DEGREE}"
        )
    return base**e


def _parse_variable(toks: _Tokens) -> Poly:
    tok = toks.peek()
    match = _WEIGHT_VARIABLE.fullmatch(tok[1]) if tok[0] == "NAME" else None
    if match:
        toks.next()
        digits, bound = match[1], len(toks.text)
        # a support point or pattern letter takes a character of the text, so
        # no index above len(text) names one; more digits than it has go unread
        if len(digits) > len(str(bound)) or int(digits) > bound:
            raise ParseError(tok[2], f"a variable index at most {bound}", tok[1])
        index = int(digits)
        if index < 1:
            raise ParseError(tok[2], "a variable x1, x2, ...", tok[1])
        return Poly.variable(index - 1)
    raise ParseError(tok[2], "a number, variable, '-' or '('", tok[1])


_COMPOUNDS = {"N": _parse_pattern, "biv": _parse_bivincular, "T": _parse_translate}
_STATISTIC = _Domain(_parse_atom, RegularStatistic.constant, _statistic_power)
_WEIGHT = _Domain(_parse_variable, Poly.const, _weight_power)
