"""Fixed-point-density limits and the variance limit.

Both limits are one leading-degree ratio, limit_ratio: substitute
m_1 = alpha*n and m_2 = beta*n into an exact expectation (m_{i>=3} = o(n^i),
set to 0) and compare the top n-degree of the numerator with that of the
denominator times n^scale.  E[Psi]/n^p converges to f(alpha): a monomial's
n-degree after the substitution is at most its graded degree, with equality
only when it has no m_{i>=2}, and moment(1) certifies graded degree <= p + q
for (n)_q * E.  The variance scaled by n^{2p-1} converges to
V1(alpha) + beta*V2(alpha).
"""

from __future__ import annotations

from .errors import DivergenceError, InternalConsistencyError
from .expectation import RationalExpectation
from .poly import Poly
from .translates import RegularStatistic


def limit_ratio(E: RationalExpectation, scale_power: int) -> Poly:
    """Limit of E / n^scale_power as n -> infinity along sequences with
    m_1 = alpha*n, m_2 = beta*n and m_{i>=3} = o(n^i) (set to 0).

    Returns a polynomial in alpha (variable 0) and beta (variable 1); the
    limit is the leading-coefficient ratio, exact by degree comparison.
    Raises DivergenceError when the numerator's n-degree exceeds the
    denominator's, i.e. the scale power is too small.
    """
    den_degree = sum(E.den) + scale_power
    # substitute: each term c * n^a0 * m1^a1 * m2^a2 becomes
    # c * alpha^a1 * beta^a2 * n^(a0 + a1 + a2)
    by_ndeg: dict[int, dict] = {}
    for exps, coef in E.num.terms.items():
        a0 = exps[0] if exps else 0
        a1 = exps[1] if len(exps) > 1 else 0
        a2 = exps[2] if len(exps) > 2 else 0
        if any(exps[3:]):
            continue
        ndeg = a0 + a1 + a2
        bucket = by_ndeg.setdefault(ndeg, {})
        key = (a1, a2)
        bucket[key] = bucket.get(key, 0) + coef
    top = -1
    for ndeg, bucket in by_ndeg.items():
        if any(bucket.values()) and ndeg > top:
            top = ndeg
    if top > den_degree:
        raise DivergenceError(
            f"numerator grows like n^{top} against denominator n^{den_degree}; "
            "the scale power is too small"
        )
    if top < den_degree or top < 0:
        return Poly()
    return Poly(by_ndeg[top])


def alpha_limit(stat: RegularStatistic) -> Poly:
    """f(alpha) = lim E_lambda[Psi]/n^p along m_1/n -> alpha: the beta-free
    part of the leading-degree ratio.  Polynomial in one variable."""
    limit = limit_ratio(stat.moment(1), stat.power)
    return Poly({exps: c for exps, c in limit.terms.items() if not any(exps[1:])})


def variance_limit(stat: RegularStatistic) -> tuple[Poly, Poly]:
    """(V1, V2) with Var_lambda[Psi]/n^{2p-1} -> V1(alpha) + beta*V2(alpha).

    Certifies the structural fact making the n^{2p} term drop: the cleared
    variance has no n^{2q}*m1^{2p} monomial; and the limit is exactly linear
    in beta.
    """
    p = stat.power
    V = stat.variance()
    # top graded layer of the numerator sits at degree sum(den) + 2p; its
    # pure-m1 monomial n^sum(den) * m1^(2p) must cancel for the n^(2p-1)
    # scaling to converge
    den_degree = sum(V.den)
    if V.num.coefficient((den_degree, 2 * p)) != 0:
        raise InternalConsistencyError(
            f"variance retains the monomial n^{den_degree}*m1^{2 * p}, "
            "which would make the scaled variance diverge"
        )
    limit = limit_ratio(V, 2 * p - 1)
    v1_terms, v2_terms = {}, {}
    for exps, coef in limit.terms.items():
        beta_exp = exps[1] if len(exps) > 1 else 0
        alpha_exp = exps[0] if exps else 0
        if beta_exp == 0:
            v1_terms[(alpha_exp,)] = coef
        elif beta_exp == 1:
            v2_terms[(alpha_exp,)] = coef
        else:
            raise InternalConsistencyError(
                "variance limit is not linear in beta"
            )
    return Poly(v1_terms), Poly(v2_terms)
