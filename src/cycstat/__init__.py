"""Exact moment polynomials of regular permutation statistics by
conjugacy class, with asymptotic mean/variance limits and a brute-force
verification oracle."""

from .asymptotics import alpha_limit, limit_ratio, variance_limit
from .dsl import parse_statistic
from .errors import (
    CycstatError,
    DegenerateEvaluationError,
    DivergenceError,
    InternalConsistencyError,
    MalformedInputError,
    ParseError,
    ResourceLimitError,
)
from .expectation import RationalExpectation
from .indicator import (
    c_poly,
    configure_disk_cache,
    indicator_expectation,
    indicator_moment,
    write_disk_cache,
)
from .partial import CyclePathType, PartialPermutation
from .patterns import (
    BivincularPattern,
    builtin,
    compile_bivincular,
    cyc2,
    des,
    exc,
    fix,
    inv,
    maj,
    pattern_count,
)
from .poly import Poly
from .translates import ConstrainedTranslate, RegularStatistic, translate_product

__all__ = [
    "BivincularPattern",
    "ConstrainedTranslate",
    "CyclePathType",
    "CycstatError",
    "DegenerateEvaluationError",
    "DivergenceError",
    "InternalConsistencyError",
    "MalformedInputError",
    "ParseError",
    "PartialPermutation",
    "Poly",
    "RationalExpectation",
    "RegularStatistic",
    "ResourceLimitError",
    "alpha_limit",
    "builtin",
    "c_poly",
    "compile_bivincular",
    "configure_disk_cache",
    "cyc2",
    "des",
    "exc",
    "fix",
    "indicator_expectation",
    "indicator_moment",
    "inv",
    "limit_ratio",
    "maj",
    "parse_statistic",
    "pattern_count",
    "translate_product",
    "variance_limit",
    "write_disk_cache",
]

__version__ = "0.1.0"
