"""Brute-force partition enumeration and exact partition statistics.

Partitions are plain tuples of weakly decreasing positive integers.  The
statistics computed here are the ground truth that every generating-function
identity in the package is tested against:

    crank(L)         largest part if L has no ones, else nu - mu, where mu is
                     the number of ones and nu the number of parts > mu
    rank(L)          largest part minus number of parts
    distinct crank   largest part if no one occurs, else (number of parts) - 2
                     (only for partitions into distinct parts)

plus the run-length weights omega and omega_1 attached to the "initial run"
of a partition, the maximal chain of part sizes 1, 2, ..., m all present.

Enumeration streams partitions without materializing the full list; with
``distinct`` it prunes every branch whose remaining parts cannot fill the
rest (parts <= c sum to at most c(c+1)/2).  The aggregate sweeps are cached
per n, since several modules keep coming back for the same counts.  The
crank/rank parity sweep and the omega weight sweep run over one
ascending-composition generator with a reused buffer.  The parity sweep
walks the cores of each m (no part 1) once and fans them out to every
n = m + mu by adding mu ones: (-1)^nu(mu) flips at every part, so one
signed difference array per m gives the crank parity for every mu.  The
distinct sweep stays on the pruned ``enumerate_partitions`` (q(n) visits).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator


class UndefinedStatisticError(ValueError):
    """Statistic requested for the empty partition."""


class NotDistinctError(ValueError):
    """Distinct-parts statistic requested for a partition with repeats."""


@dataclass(frozen=True)
class ParityCount:
    """How many enumerated objects carry an even / odd statistic value."""

    even: int
    odd: int

    @property
    def diff(self) -> int:
        return self.even - self.odd


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_partitions(n: int, distinct: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield each partition of n exactly once, parts weakly decreasing
    (strictly decreasing with ``distinct``), in decreasing lexicographic
    order.  The order is fixed only so streams are reproducible."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")

    def gen(remaining: int, cap: int, prefix: list) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(remaining, cap), 0, -1):
            if distinct and part * (part + 1) < 2 * remaining:
                # distinct parts <= part sum to at most part(part+1)/2,
                # and every smaller part can fill even less
                break
            prefix.append(part)
            yield from gen(remaining - part, part - 1 if distinct else part,
                           prefix)
            prefix.pop()

    return gen(n, n if n else 1, [])


def _ascending_partitions(n: int, smallest: int = 1):
    """Internal sweep driver: yields (buffer, last_index) with each partition
    of n into parts >= smallest stored ascending in buffer[0..last_index].
    The buffer is reused, so callers must consume it before advancing."""
    if n < smallest:
        return
    a = [0] * (n + 1)
    a[0] = smallest - 1
    k = 1
    y = n - smallest
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ell = k + 1
        while x <= y:
            a[k] = x
            a[ell] = y
            yield a, ell
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a, k


# ---------------------------------------------------------------------------
# single-partition statistics
# ---------------------------------------------------------------------------

def _check_partition(p) -> tuple[int, ...]:
    p = tuple(p)
    if not p:
        raise UndefinedStatisticError("statistic undefined for the empty "
                                      "partition")
    for i, part in enumerate(p):
        if part < 1:
            raise ValueError(f"parts must be positive: {part}")
        if i and p[i - 1] < part:
            raise ValueError("parts must be weakly decreasing")
    return p


def crank(p) -> int:
    """Andrews-Garvan crank."""
    p = _check_partition(p)
    mu = sum(1 for part in p if part == 1)
    if mu == 0:
        return p[0]
    nu = sum(1 for part in p if part > mu)
    return nu - mu


def rank(p) -> int:
    """Dyson rank: largest part minus number of parts."""
    p = _check_partition(p)
    return p[0] - len(p)


def distinct_crank(p) -> int:
    """Crank restricted to partitions into distinct parts, where it
    collapses to: largest part if no one occurs, else #parts - 2."""
    p = _check_partition(p)
    if len(set(p)) != len(p):
        raise NotDistinctError(f"parts are not distinct: {p}")
    if p[-1] != 1:
        return p[0]
    return len(p) - 2


def initial_run_length(p) -> int:
    """Length m of the maximal chain of part sizes 1, 2, ..., m all present
    (0 when there is no 1)."""
    sizes = set(p)
    m = 0
    while m + 1 in sizes:
        m += 1
    return m


def weight_omega(p) -> int:
    """Run weight 1 + 4 * sum (-1)^j over sizes j in the initial run that
    occur an odd number of times."""
    p = _check_partition(p)
    m = initial_run_length(p)
    total = 1
    for j in range(1, m + 1):
        if sum(1 for part in p if part == j) % 2:
            total += 4 * (-1 if j % 2 else 1)
    return total


def weight_omega1(p) -> int:
    """Companion run weight (-1)^m - 2 * sum_j (-1)^j (-1)^(mult of j), the
    sum over sizes j in the initial run; provably equal to weight_omega."""
    p = _check_partition(p)
    m = initial_run_length(p)
    total = -1 if m % 2 else 1
    for j in range(1, m + 1):
        mult = sum(1 for part in p if part == j)
        sign = (-1 if j % 2 else 1) * (-1 if mult % 2 else 1)
        total -= 2 * sign
    return total


# ---------------------------------------------------------------------------
# aggregate sweeps (cached)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _core_profile(m: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(count, # even largest part, # even rank, S) over the cores of m >= 2,
    its partitions with no part 1, where S[mu - 1] = sum (-1)^nu(mu) for
    1 <= mu < m and nu(mu) = # parts > mu.

    S is a prefix sum: (-1)^(# parts) at mu = 1, and from mu = part on each
    part changes (-1)^nu by 2 (-1)^(# parts above it).  Over the cores that
    extend a prefix a[0..d] of the buffer this adds 2V at a[d]: V = 1 for a
    core (tops counts them by largest part), else minus the V of its
    one-part extensions (flips).  Cores come in lexicographic order, so
    a[0..k] is the last core extending a[0..k-1]; pending[d] sums the V of
    the finished extensions of a[0..d-1]."""
    rank_even = 0
    tops, flips, pending = ([0] * (m + 1) for _ in range(3))
    for a, k in _ascending_partitions(m, smallest=2):
        tops[a[k]] += 1
        rank_even += (a[k] ^ k) & 1  # a[k] - (k + 1) is even
        pending[k] += 1
        if k:
            v = -pending[k]
            pending[k] = 0
            flips[a[k - 1]] += v
            pending[k - 1] += v
    diffs = (2 * (f + t) for f, t in zip(flips[2:m], tops[2:m]))
    return sum(tops), sum(tops[::2]), rank_even, tuple(
        accumulate(diffs, initial=-pending[0]))  # sum (-1)^(k + 1)


@lru_cache(maxsize=None)
def _full_sweep(n: int) -> tuple[int, ParityCount, ParityCount]:
    """(count, crank parity, rank parity) over all partitions of n.

    Each partition of n is mu = n - m ones added to a core of m (see
    _core_profile); m = 0 is 1^n, with crank -n and rank 1 - n.  For
    mu >= 1, (-1)^crank = (-1)^mu (-1)^nu(mu), nu(mu) = 0 once mu >= m,
    and each one lowers the rank by one.  The empty partition of 0 counts
    as even, matching the constant term 1 of both parity series."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        return 1, ParityCount(1, 0), ParityCount(1, 0)
    count, crank_even, rank_even = 1, 1 - (n & 1), n & 1  # 1^n
    for m in range(2, n + 1):
        mu = n - m
        cores, largest_even, core_rank_even, signs = _core_profile(m)
        count += cores
        if mu == 0:
            crank_even += largest_even
        else:
            nu_sum = signs[mu - 1] if mu < m else cores
            crank_even += (cores + (-nu_sum if mu & 1 else nu_sum)) // 2
        rank_even += cores - core_rank_even if mu & 1 else core_rank_even
    return (count, ParityCount(crank_even, count - crank_even),
            ParityCount(rank_even, count - rank_even))


@lru_cache(maxsize=None)
def _distinct_sweep(n: int) -> tuple[int, ParityCount, ParityCount]:
    """(count, distinct-crank parity, rank parity) over distinct partitions."""
    if n == 0:
        return 1, ParityCount(1, 0), ParityCount(1, 0)
    count = 0
    crank_even = crank_odd = 0
    rank_even = rank_odd = 0
    for p in enumerate_partitions(n, distinct=True):
        count += 1
        crk = p[0] if p[-1] != 1 else len(p) - 2
        if crk & 1:
            crank_odd += 1
        else:
            crank_even += 1
        if (p[0] - len(p)) & 1:
            rank_odd += 1
        else:
            rank_even += 1
    return (count, ParityCount(crank_even, crank_odd),
            ParityCount(rank_even, rank_odd))


@lru_cache(maxsize=None)
def _weight_sweep(n: int) -> tuple[int, int, bool]:
    """(sum omega, sum omega_1, omega == omega_1 everywhere) over
    partitions of n.

    In ascending order the initial run 1, 2, ..., m is a prefix of the
    buffer, so one scan finds each size's multiplicity; omega and omega_1
    are then each evaluated by their own formula, as in weight_omega and
    weight_omega1, and compared on every partition."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        raise UndefinedStatisticError("statistic undefined for the empty "
                                      "partition")
    total = total1 = 0
    agree = True
    for a, k in _ascending_partitions(n):
        nparts = k + 1
        m = i = 0
        w = 1
        tail = 0   # sum over the run of (-1)^j (-1)^(mult of j)
        while i < nparts and a[i] == m + 1:
            m += 1
            end = bisect_right(a, m, i, nparts)
            mult = end - i
            if mult & 1:
                w += -4 if m & 1 else 4
            tail += -1 if (m ^ mult) & 1 else 1
            i = end
        w1 = (-1 if m & 1 else 1) - 2 * tail
        total += w
        total1 += w1
        if w != w1:
            agree = False
    return total, total1, agree


def crank_parity(n: int) -> ParityCount:
    return _full_sweep(n)[1]


def rank_parity(n: int) -> ParityCount:
    return _full_sweep(n)[2]


def distinct_crank_parity(n: int) -> ParityCount:
    return _distinct_sweep(n)[1]


def distinct_rank_parity(n: int) -> ParityCount:
    return _distinct_sweep(n)[2]


def crank_parity_oracle(n: int) -> int:
    """Combinatorial (# even crank) - (# odd crank) over partitions of n.

    Beware the n = 1 anomaly: the crank generating function assigns -3 to
    q^1 while the unique partition (1) has crank -1, so this oracle agrees
    with the series coefficient only for n >= 2.
    """
    if n < 1:
        raise UndefinedStatisticError("crank parity needs n >= 1")
    return crank_parity(n).diff


def omega_totals(n: int) -> tuple[int, int]:
    """(sum of omega, sum of omega_1) over all partitions of n."""
    t, t1, _ = _weight_sweep(n)
    return t, t1


def omega_weights_agree(n: int) -> bool:
    """Exhaustive check that omega == omega_1 on every partition of n."""
    return _weight_sweep(n)[2]
