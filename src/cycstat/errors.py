"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract:
2 = parse error, 3 = resource limit, 4 = internal consistency.
"""


class CycstatError(Exception):
    pass


class MalformedInputError(CycstatError, ValueError):
    """Invalid partial permutation, partition or statistic description."""


class ResourceLimitError(CycstatError):
    """A computation would exceed a configured cap (e.g. Bell-number cap)."""


class InternalConsistencyError(CycstatError):
    """An identity the engine relies on failed; indicates a real bug
    (or would falsify one of the structural theorems)."""


class DegenerateEvaluationError(CycstatError, ValueError):
    """Evaluation at an n too small for the falling-factorial denominator."""


class DivergenceError(CycstatError):
    """A scaled limit does not exist at the requested power."""


class ParseError(CycstatError, ValueError):
    """Statistic DSL parse failure; carries position and expectation."""

    def __init__(self, pos: int, expected: str, found: str = ""):
        self.pos = pos
        self.expected = expected
        self.found = found
        msg = f"parse error at position {pos}: expected {expected}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)
