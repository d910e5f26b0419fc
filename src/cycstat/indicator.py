"""The moment polynomial of a partial-permutation indicator.

For (I,J) of cycle-path type (mu, nu) with support size m, the number of
injections of [m] into [n] compatible with a permutation of cycle type
lambda equals a polynomial f_{(mu,nu)}(n, m_1, ..., m_k) of graded degree
exactly k = |mu| + |nu|.

The cycles factor out.  Each c-cycle of the pattern must land on a whole
c-cycle of the permutation, in one of c rotations, and the paths then map
into the remaining n - |mu| points, so with a_c the number of c-cycles in mu

    f_{(mu,nu)}(n, m) = prod_c c^{a_c} (m_c)_{a_c} * f_{(0,nu)}(n - |mu|, m_c - a_c).

The path factor f_{(0,nu)} lays each path, of s = l + 1 points, as an arc of
s consecutive points on a cycle of the permutation, disjoint from the other
arcs: a sum over the set partitions of the paths (grouped by the cycle they
share) of products of block weights, each certified linear in the cycle length.

Every polynomial is computed here, under both certificates: an entry of a
--cache file is accepted only when it is the serialized recomputation of its
type, so the file saves no work and is never trusted.
"""

from __future__ import annotations

import contextlib
import os
import stat
import threading
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import perm, prod

# not called: perfbench/tracing.py patches this name and tests/test_bindings.py checks it
from .contraction import contract
from .errors import InternalConsistencyError, MalformedInputError, ResourceLimitError
from .expectation import evaluation_point
from .partial import CyclePathType, PartialPermutation
from .poly import N, ONE, ZERO, Poly, mvar, to_json_dict
from .setpartitions import set_partitions

# most path vertices |nu| + l(nu) of one type, a limit kept from the Moebius
# loop over their Bell(P) set partitions (the arc count visits Bell(l(nu)),
# l(nu) <= 6).  Read at each call, so a test can lower it.  A --cache entry
# of a type above it exits 3 on load, as the type does when it is asked for.
BELL_CAP = 12


def c_poly(t: CyclePathType) -> Poly:
    """Closed-form count of compatible functions (injective on each
    component): each i-cycle contributes a factor i*m_i, each length-l path
    a factor n - sum_{i<=l} i*m_i."""
    out = Poly.const(1)
    for c in t.cycles:
        out = out * (c * mvar(c))
    for length in t.paths:
        factor = N
        for i in range(1, length + 1):
            factor = factor - i * mvar(i)
        out = out * factor
    return out


def check_bell_cap(t: CyclePathType) -> None:
    """A pre-flight guard on the path vertices, run before any polynomial is
    built.  Its message names Bell(P) but does not compute it."""
    p = sum(t.paths) + len(t.paths)
    if p > BELL_CAP:
        # a --cache key's path lengths may each have the 4300 digits int
        # reads, and their count more than it writes: such a P is not printed
        count, bell = (p, p) if p <= 10**18 else ("above 10^18", "P")
        raise ResourceLimitError(
            f"path-vertex count {count} exceeds the Bell cap {BELL_CAP} "
            f"(Bell({bell}) set partitions)"
        )


# the process-wide memo of f by type: under the lock one thread computes a
# type while the others wait.  _disk is the configured --cache file, its
# path and the types read from it, kept until write_disk_cache writes there.
_LOCK = threading.Lock()
_MEMO: dict[CyclePathType, Poly] = {}
_disk: tuple[str, frozenset] | None = None


def configure_disk_cache(path: str | None) -> None:
    """Read the --cache file at path into the memo, each entry recomputed,
    and keep the path for write_disk_cache; None forgets the path."""
    global _disk
    with _LOCK:
        _disk = None
        if path is not None:
            loaded = _read_disk(path)
            for t, poly in loaded.items():
                _MEMO.setdefault(t, poly)
            _disk = path, frozenset(loaded)


def write_disk_cache() -> None:
    """Write the memo to the configured --cache file, only when it holds a
    type the file lacks, and forget the path, so the file is written once."""
    global _disk
    with _LOCK:
        disk, _disk = _disk, None
        if disk is None or _MEMO.keys() <= disk[1]:
            return
        # json is imported by the two functions that read and write the
        # file, so a command without --cache or with an empty file skips it
        import json

        path = disk[0]
        payload = {t.key: to_json_dict(poly) for t, poly in _MEMO.items()}
        # written aside and renamed over the cache, so a failed write leaves
        # the previous file whole; the pid keeps processes sharing one cache
        # out of each other's temporary file
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            # the rename did not happen, so a temporary file may be left
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _read_disk(path: str) -> dict[CyclePathType, Poly]:
    """The entries of a cache file, each recomputed; a missing file in an
    existing directory or an empty file is an empty cache.  Any other path
    but a readable regular file is refused before it is read (a FIFO opens
    without blocking, and "" names no file), and so is anything but a JSON
    object whose every entry is to_json_dict of its type's polynomial,
    written as json.dumps writes it (so true or 1.0 is no exponent 1)."""
    if not path:
        raise MalformedInputError("cache file '' cannot be opened: the path is empty")
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise MalformedInputError(f"cache file {path} is in a missing directory") from None
        return {}
    except OSError as exc:
        raise MalformedInputError(f"cache file {path} cannot be opened: {exc.strerror}") from None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise MalformedInputError(f"cache file {path} is not a regular file")
    with open(fd, "rb") as fh:
        text = fh.read()
    if not text.strip():
        return {}
    import json

    refused = f"cache file {path} is not a cycstat cache"
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        written = {CyclePathType.from_key(key): json.dumps(data) for key, data in raw.items()}
    except (ValueError, RecursionError) as exc:
        # MalformedInputError is a ValueError; a RecursionError is nesting
        # deeper than json reads or writes
        raise MalformedInputError(f"{refused}: {exc}") from None
    entries = {}
    for t, data in written.items():
        check_bell_cap(t)
        entries[t] = _compute(t)
        if json.dumps(to_json_dict(entries[t])) != data:
            raise MalformedInputError(f"{refused}: entry {t.key} is not the polynomial of its type")
    return entries


def indicator_moment(t: CyclePathType) -> Poly:
    """f_{(mu,nu)}, memoised by type; f / (n)_m is the expectation."""
    check_bell_cap(t)  # a memoised type is refused like a new one
    with _LOCK:
        poly = _MEMO.get(t)
        if poly is None:
            poly = _MEMO[t] = _compute(t)
        return poly


def _compute(t: CyclePathType) -> Poly:
    poly = _cycle_factor(t.cycles) * path_count_poly(t)
    k = t.size
    if poly.graded_degree() != k:
        raise InternalConsistencyError(
            f"indicator polynomial for {t.key} has graded degree "
            f"{poly.graded_degree()}, expected {k}"
        )
    return poly


def _cycle_factor(cycles: tuple[int, ...]) -> Poly:
    """Ways to send the cycles of mu onto distinct cycles of the permutation
    of the same lengths, each in one of c rotations: prod_c c^{a_c} (m_c)_{a_c}."""
    out = Poly.const(1)
    for c, a in Counter(cycles).items():
        for j in range(a):
            out = out * (c * (mvar(c) - j))
    return out


def path_count_poly(t: CyclePathType) -> Poly:
    """f_{(0,nu)}(n - |mu|, m_c - a_c): a sum over the set partitions of the
    paths, grouped by the cycle they share, of the product of the blocks'
    weights, each shifted off the |mu| points and the a_c cycles that t's
    cycles take.  A weight W is linear with no constant term, so the shifted
    weight is W - W(|mu|, a), and W reads no m_i with i at or above the
    path points, so the point (|mu|, a_1, a_2, ...) stops below them."""
    points = [length + 1 for length in t.paths]
    taken = Counter(t.cycles)
    at = (sum(t.cycles), *(taken[i] for i in range(1, sum(points))))
    out = Poly()
    for sigma in set_partitions(len(points)):
        blocks = (tuple(sorted(points[i - 1] for i in block)) for block in sigma)
        weights = map(_block_weight, blocks)
        if t.cycles:  # with no cycles the point is 0, and W(0) = 0
            weights = (w - w.evaluate(at) for w in weights)
        out = out + prod(weights, start=ONE)
    return out


# process-wide memos, keyed by point counts and cycle lengths: both stay
# small, since no block has more than BELL_CAP points
@cache
def _block_weight(sizes: tuple[int, ...]) -> Poly:
    """W(B) = sum over the permutation's cycles of g_B(c).  For c >= S, g_B
    has degree at most |B| in c, so g_B(c) = alpha*c at c = S, ..., S + |B|
    proves it there; the cycles shorter than S are counted length by length."""
    s = sum(sizes)
    alpha = Fraction(_connected(sizes, s), s)
    if any(_connected(sizes, c) != alpha * c for c in range(s + 1, s + len(sizes) + 1)):
        raise InternalConsistencyError(
            f"arc count of paths {list(sizes)} (points each) is not linear in c >= {s}")
    shorter = ((_connected(sizes, i) - alpha * i) * mvar(i) for i in range(1, s))
    return alpha * N + sum(shorter, ZERO)


@cache
def _connected(sizes: tuple[int, ...], c: int) -> int:
    """g_B(c), from A_B = sum over the G that hold B's first arc of g_G * A_{B-G}."""
    out, first, rest = _arcs(sizes, c), sizes[:1], sizes[1:]
    for r in range(len(rest)):  # G is the first arc and r others, never all of B
        for held in combinations(range(len(rest)), r):
            left = tuple(x for j, x in enumerate(rest) if j not in held)
            out -= _connected(first + tuple(rest[j] for j in held), c) * _arcs(left, c)
    return out


def _arcs(sizes: tuple[int, ...], c: int) -> int:
    """Ways to lay arcs of these point counts, S in all, disjointly on a
    c-cycle: c (c-S+1) ... (c-S+|B|-1) when c >= S, and 0 otherwise."""
    s = sum(sizes)
    return c * perm(c - s + len(sizes) - 1, len(sizes) - 1) if c >= s else 0


def indicator_expectation(p: PartialPermutation, lam) -> Fraction:
    """P[pi(i_t) = j_t for all t] for pi uniform on the class of lambda."""
    lam = tuple(lam)
    n = sum(lam)
    if max(p.support, default=0) > n:
        raise MalformedInputError(
            f"support {p.support} exceeds the ground set [{n}]"
        )
    t = p.cycle_path_type()
    f = indicator_moment(t)
    return f.evaluate(evaluation_point(lam, t.size)) / perm(n, t.support_size)
