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

``enumerate_partitions`` streams partitions as tuples without materializing
the full list; with ``distinct`` it prunes every branch whose remaining
parts cannot fill the rest (parts <= c sum to at most c(c+1)/2).  No sweep
uses it: it is the readable reference enumerator the tests check every
sweep against.  Each aggregate sweep lists partitions on a reused buffer,
ascending, in lexicographic order.  The crank/rank parity sweep walks the
cores of each m (no part 1) once, cached per m, and fans them out to
every n = m + mu by adding mu ones: (-1)^nu(mu) flips at every part, so
one signed difference array per m gives the crank parity for every mu.
That walk is _ascending_cores' loop written inline on the sweep's
own buffer, with no generator between them: a core ending in a two-part
tail x <= y is tallied from the locals x and y, and every core is still
listed and tallied on its own.  The omega weight sweep fans out the same
cores, through the generator _ascending_cores and also cached per m,
since the weights read mu only through its parity.  The
distinct sweep, cached per n since the T bootstrap reads the oracle
again, steps from each strictly increasing partition to the next and
reads both parities off its first part, last part and length.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple


class ParityCount(NamedTuple):
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
    order.  The order is fixed only so streams are reproducible.  No sweep
    calls it: it is the readable reference the tests check every sweep
    against."""
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


def _ascending_cores(m: int):
    """Internal sweep driver: yields (buffer, last_index) with each core of
    m, its partitions with no part 1, stored ascending in
    buffer[0..last_index], in lexicographic order (nothing for m < 2).  The
    buffer is reused, so callers must consume it before advancing."""
    if m < 2:
        return
    a = [0] * (m + 1)
    a[0] = 1
    k = 1
    y = m - 2
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


def _ascending_distinct(n: int):
    """Internal sweep driver: yields (buffer, last_index) with each partition
    of n into distinct parts stored strictly increasing in
    buffer[0..last_index], in lexicographic order (nothing for n = 0).  The
    buffer is reused, so callers must consume it before advancing.

    The first partition is the greedy 1, 2, 3, ... with the remainder
    last.  The next one keeps all but the last two parts, whose sum y is
    then written from x = (second to last) + 1 on in the same greedy way:
    x, x + 1, ... while what is left exceeds twice the part, then the rest
    (y alone when y <= 2x).  The single part n comes last."""
    if n < 1:
        return
    a = [0] * (n + 1)
    k, x, y = 0, 1, n
    while True:
        while y > 2 * x:
            a[k] = x
            y -= x
            x += 1
            k += 1
        a[k] = y
        yield a, k
        if not k:
            return
        k -= 1
        x = a[k] + 1
        y = a[k] + a[k + 1]


# ---------------------------------------------------------------------------
# single-partition statistics
# ---------------------------------------------------------------------------

def _check_partition(p) -> tuple[int, ...]:
    p = tuple(p)
    if not p:
        raise ValueError("statistic undefined for the empty partition")
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
        raise ValueError(f"parts are not distinct: {p}")
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
# aggregate sweeps
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
    the finished extensions of a[0..d-1].

    The walk is _ascending_cores' inline, on its own buffer: the cores
    a[0..k-1], x, y (x <= y) that end in a two-part tail are tallied from
    the locals x and y, one core at a time, and never written to a."""
    rank_even = 0
    tops, flips, pending = ([0] * (m + 1) for _ in range(3))
    a = [0] * (m + 1)
    a[0] = 1
    k = 1
    y = m - 2
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ell = k + 1
        while x <= y:  # the core a[0..k-1], x, y
            tops[y] += 1
            rank_even += (y ^ ell) & 1  # y - (ell + 1) is even
            v = -1 - pending[ell]  # minus (its own 1 + pending[ell])
            pending[ell] = 0
            flips[x] += v
            pending[k] += v
            x += 1
            y -= 1
        y += x
        a[k] = y  # the core a[0..k]
        tops[y] += 1
        rank_even += (y ^ k) & 1
        pending[k] += 1
        if k:
            v = -pending[k]
            pending[k] = 0
            flips[a[k - 1]] += v
            pending[k - 1] += v
        y -= 1
    diffs = (2 * (f + t) for f, t in zip(flips[2:m], tops[2:m]))
    return sum(tops), sum(tops[::2]), rank_even, tuple(
        accumulate(diffs, initial=-pending[0]))  # sum (-1)^(k + 1)


def _full_sweep(n: int) -> tuple[ParityCount, ParityCount]:
    """(crank parity, rank parity) over all partitions of n.

    Each partition of n is mu = n - m ones added to a core of m (see
    _core_profile); m = 0 is 1^n, with crank -n and rank 1 - n.  For
    mu >= 1, (-1)^crank = (-1)^mu (-1)^nu(mu), nu(mu) = 0 once mu >= m,
    and each one lowers the rank by one.  The empty partition of 0 counts
    as even, matching the constant term 1 of both parity series."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        return ParityCount(1, 0), ParityCount(1, 0)
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
    return (ParityCount(crank_even, count - crank_even),
            ParityCount(rank_even, count - rank_even))


@lru_cache(maxsize=None)
def _distinct_sweep(n: int) -> tuple[ParityCount, ParityCount]:
    """(distinct-crank parity, rank parity) over distinct partitions.

    With the parts ascending in a[0..k], the distinct crank is the largest
    part a[k] when a[0] != 1, else (k + 1) - 2, and the rank is
    a[k] - (k + 1).  The empty partition of 0 counts as even."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        return ParityCount(1, 0), ParityCount(1, 0)
    count = crank_even = rank_even = 0
    for a, k in _ascending_distinct(n):
        count += 1
        crank_even += k & 1 if a[0] == 1 else ~a[k] & 1  # k - 1 or a[k]
        rank_even += (a[k] ^ k) & 1  # a[k] - (k + 1) is even
    return (ParityCount(crank_even, count - crank_even),
            ParityCount(rank_even, count - rank_even))


@lru_cache(maxsize=None)
def _core_weights(m: int) -> tuple[tuple[int, int, bool],
                                   tuple[int, int, bool], int]:
    """(sum omega, sum omega_1, omega == omega_1 on each) over the
    partitions core + 1^mu, core running over the cores of m >= 2 (its
    partitions with no part 1), for mu even (index 0) and mu odd (index 1),
    mu >= 1; then the number of cores (index 2).

    Fan-out lemma: for mu >= 1 the initial run of core + 1^mu is 1 (with
    multiplicity mu) followed by the core's own run 2, 3, ..., r (r = 1
    when the core has no part 2).  The multiplicities of 2..r are the
    core's, and both weights read that of 1 only through its parity, so
    omega and omega_1 depend on mu only through mu mod 2.  (For mu = 0 the
    run is empty and omega = omega_1 = 1.)  Each core is listed once and
    both weights are evaluated by their own formula, as in weight_omega and
    weight_omega1, for either parity of mu."""
    sums = [[0, 0, True], [0, 0, True]]
    cores = 0
    for a, k in _ascending_cores(m):
        cores += 1
        i = 0
        r = 1
        run = 0    # 4 sum (-1)^j over sizes 2 <= j <= r of odd multiplicity
        tail = 0   # sum (-1)^j (-1)^(mult of j) over 2 <= j <= r
        while i <= k and a[i] == r + 1:
            r += 1
            end = i + 1
            while end <= k and a[end] == r:
                end += 1
            mult = end - i
            if mult & 1:
                run += -4 if r & 1 else 4
            tail += -1 if (r ^ mult) & 1 else 1
            i = end
        sign = -1 if r & 1 else 1
        for mu_odd, acc in enumerate(sums):
            # the size 1 adds -4 to omega when mu is odd, and
            # (-1)^1 (-1)^mu to the sum in omega_1
            w = 1 + run - 4 * mu_odd
            w1 = sign - 2 * (tail + (1 if mu_odd else -1))
            acc[0] += w
            acc[1] += w1
            if w != w1:
                acc[2] = False
    return (*map(tuple, sums), cores)


def _weight_sweep(n: int) -> tuple[int, int, bool]:
    """(sum omega, sum omega_1, omega == omega_1 everywhere) over
    partitions of n.

    Each partition of n is mu = n - m ones added to a core of m (see
    _core_weights): mu = n is 1^n, 0 < mu <= n - 2 is read off
    _core_weights(m) by the parity of mu (m = 1 has no core), and the
    mu = 0 cores of n each weigh omega = omega_1 = 1, so they need only
    their number, the last entry of _core_weights(n)."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        raise ValueError("statistic undefined for the empty partition")
    # 1^n: the run is the size 1 alone, with multiplicity n
    total = -3 if n & 1 else 1             # 1 + 4 (-1)^1 if n is odd
    total1 = -1 + 2 * (-1 if n & 1 else 1)  # (-1)^1 - 2 (-1)^1 (-1)^n
    agree = total == total1
    if n >= 2:
        cores = _core_weights(n)[2]
        total += cores
        total1 += cores
    for m in range(2, n):
        w, w1, same = _core_weights(m)[(n - m) & 1]
        total += w
        total1 += w1
        agree = agree and same
    return total, total1, agree


def crank_parity(n: int) -> ParityCount:
    return _full_sweep(n)[0]


def rank_parity(n: int) -> ParityCount:
    return _full_sweep(n)[1]


def distinct_crank_parity(n: int) -> ParityCount:
    return _distinct_sweep(n)[0]


def distinct_rank_parity(n: int) -> ParityCount:
    return _distinct_sweep(n)[1]


def crank_parity_oracle(n: int) -> int:
    """Combinatorial (# even crank) - (# odd crank) over partitions of n.

    Beware the n = 1 anomaly: the crank generating function assigns -3 to
    q^1 while the unique partition (1) has crank -1, so this oracle agrees
    with the series coefficient only for n >= 2.
    """
    if n < 1:
        raise ValueError("crank parity needs n >= 1")
    return crank_parity(n).diff


def omega_totals(n: int) -> tuple[int, int]:
    """(sum of omega, sum of omega_1) over all partitions of n."""
    t, t1, _ = _weight_sweep(n)
    return t, t1


def omega_weights_agree(n: int) -> bool:
    """Exhaustive check that omega == omega_1 on every partition of n."""
    return _weight_sweep(n)[2]
