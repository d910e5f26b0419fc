"""Constrained power sums over adjacency-constrained subsets of [n].

For a weight f(x_1..x_k) and C a set of forced adjacencies (i in C means
the i-th and (i+1)-st chosen elements are consecutive integers), the sum of
f over all C-constrained k-subsets of [n] is a polynomial S(n) of degree
deg f + k - q, q = |C|, and S(n) = fbar(n) * binom(n - q, k - q) exactly
with deg fbar = deg f.

We obtain S in closed form.  Contracting each run of forced adjacencies
turns a C-constrained k-subset x of [n] into an r-subset z_1 < ... < z_r of
[n - q], r = k - q, with x_i = z_j + (the number of constraints before i)
for i in run j.  A monomial of f then splits into one factor per run, and
the nested sum over the run starts is carried as coefficients g_j over the
basis binom(z - 1, j), z the start of the current run:

    (z + s) * binom(z-1, j) = (j+1) * binom(z-1, j+1) + (j+1+s) * binom(z-1, j)
    sum_{z < t} binom(z-1, j) = binom(t-1, j+1)

so S = sum_j g_j * binom(n - q, j).  S is built in integers over deg! and
the common denominator of f, deg = deg f + k - q: the g_j are ints, and
binom(n - q, j) = (deg! / j!) (n - q)_j / deg!, with the coefficients of
(n - q)_j in n carried one factor at a time.  Two checks certify the
result: S must equal the direct sum of f over the constrained subsets at
n = k + 1 and n = k + 2, and S must divide exactly by binom(n - q, k - q).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import InternalConsistencyError, ResourceLimitError
from .poly import Poly, divide_exact_in_n, from_scaled, integerize

# the largest degree deg f + k - q of one constrained sum; the work grows as
# the square of the degree, so a higher degree is refused before it starts
MAX_SUM_DEGREE = 200


def constrained_subsets(n: int, k: int, C: frozenset[int]):
    """Yield increasing k-tuples from [n] with s[i+1] = s[i] + 1 for i in C
    (1-based positions within the tuple)."""
    for combo in combinations(range(1, n + 1), k):
        if all(combo[i] == combo[i - 1] + 1 for i in C):
            yield combo


@lru_cache(maxsize=4096)
def constrained_sum(f: Poly, k: int, C: frozenset[int]) -> tuple[Poly, Poly]:
    """Return (S, fbar) with S(n) the exact constrained sum of f and
    S = fbar * binom(n-q, k-q) as polynomials in n."""
    C = frozenset(int(c) for c in C)
    if not C <= set(range(1, k)):
        raise ValueError(f"constraints {sorted(C)} not inside [{k - 1}]")
    q = len(C)
    degree = max(f.total_degree(), 0) + k - q
    if degree > MAX_SUM_DEGREE:
        raise ResourceLimitError(
            f"constrained sum of degree {degree} (deg f + k - q) exceeds "
            f"the cap {MAX_SUM_DEGREE}"
        )
    # in integers: f = F / scale with F's coefficients ints, so each total[j]
    # is an int, the coefficient of binom(n - q, j) in scale * S
    F, scale = integerize(f)
    total = [0] * (degree + 1)
    for exps, coef in F.terms.items():
        g, shift = [1], 0
        for i in range(1, k + 1):
            for _ in range(exps[i - 1] if i <= len(exps) else 0):
                # multiply by x_i = z + shift in the basis binom(z-1, j)
                g = [(j + 1 + shift) * a + j * b
                     for j, (a, b) in enumerate(zip(g + [0], [0] + g))]
            if i in C:
                shift += 1
            else:
                g = [0] + g
        for j, c in enumerate(g):
            total[j] += coef * c
    # acc / degree! is the sum of total[j] * binom(n - q, j), in n
    acc = [0] * (degree + 1)
    falling, ratio = [1], factorial(degree)
    for j, c in enumerate(total):
        if c:
            c *= ratio
            for i, a in enumerate(falling):
                acc[i] += c * a
        ratio //= j + 1
        falling = [b - (q + j) * a for a, b in zip(falling + [0], [0] + falling)]
    S = from_scaled({(i,) if i else (): a for i, a in enumerate(acc)}, scale * factorial(degree))
    for n in (k + 1, k + 2):
        if S.evaluate((n,)) != f.sum_over(constrained_subsets(n, k, C)):
            raise InternalConsistencyError(
                f"constrained sum disagrees with the direct sum at n={n}; "
                f"k={k}, C={sorted(C)}"
            )
    # binom(n-q, k-q) = (n-q)(n-q-1)...(n-k+1) / (k-q)!
    quo = divide_exact_in_n(S, range(q, k))
    if quo is None:
        raise InternalConsistencyError(
            "constrained sum is not divisible by binom(n-q, k-q); "
            f"k={k}, C={sorted(C)}"
        )
    return S, quo * factorial(k - q)
