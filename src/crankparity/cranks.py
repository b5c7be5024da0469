"""Exact q-series for the crank and rank parity generating functions.

The central object is the crank-parity series

    sum_n (M_e(n) - M_o(n)) q^n  =  (q;q)_inf / (-q;q)_inf^2
                                 =  (q;q)_inf (q;q^2)_inf^2,

where M_e / M_o count partitions with even / odd crank.  Three sides that
share no code make it:

  * G itself, as theta(-q)^2 / (q;q)_inf: Gauss's (q;q)_inf^2 /
    (q^2;q^2)_inf = theta(-q) = sum_{n in Z} (-1)^n q^(n^2) turns
    (q;q)_inf^3 / (q^2;q^2)_inf^2 into that quotient (Andrews, The Theory
    of Partitions, ch. 2).  theta(-q)^2 = sum_{a,b in Z} (-1)^(a+b)
    q^(a^2+b^2) is written from the lattice points, then one sparse
    in-place pentagonal-number pass (``series._apply_pentagonal``) divides
    by (q;q)_inf.  That unchecked core (``_gauss_quotient``) also builds
    the tower's multiplier q G(q) / G(q^25), which no check compares with
    G;
  * L, Garvan's form of the crank generating function at z = -1,
        (q;q)_inf * G  =  1 + 4 sum_{n>=1} (-1)^n q^(n(n+1)/2) / (1 + q^n),
    whose summands are geometric series written straight into a list by
    slice passes, with no series kernel;
  * the check G * (q;q)_inf == L on every coefficient, the product taken
    by one slice pass per term of Euler's pentagonal series, its exponents
    written out here rather than taken from ``series``, so a fault in the
    division's pentagonal terms cannot cancel in the check.

On top of it sit the verification sweeps:

  * the congruence family  M_e(n) - M_o(n) == 0 mod 5^(a+1)  whenever
    24n == 1 mod 5^(2a+1),
  * the closed form of the 5n+4 coefficient subsequence, the eta
    quotient E (``eta_5n4_series``), which Claim L's crank side reads,
  * the rewriting of the crank generating function at x = -1 as
    1/(q;q)_inf + 4 * sum_n (-1)^n q^(n(n+1)/2) / [...], whose summands
    mirror the initial-run weights, and its companion identity.

Each identity check returns None when the two sides agree below the
truncation, or ``(exponent, lhs, rhs)`` at the first exponent where they
differ (``IntLaurentSeries.first_mismatch``).

The rank analogue  sum_n (N_e(n) - N_o(n)) q^n  =  sum_n q^(n^2)/(-q;q)_n^2
(a third-order mock theta function) is cross-computed against Watson's
expansion 1/(q;q)_inf (1 + 4 sum_k (-1)^k q^(k(3k+1)/2) / (1+q^k)).

L and every other infinite sum here (those through ``series.q_sum``) stop
at the first summand whose lowest exponent reaches the truncation (the
exponents grow quadratically), never after a fixed summand count, so every
reported coefficient is exact.
"""

from __future__ import annotations

import operator
from math import isqrt

from .series import (
    IntLaurentSeries,
    _apply_pentagonal,
    memoised,
    pentagonal_quotient,
    q_sum,
)


@memoised("partition")
def partition_series(trunc: int) -> IntLaurentSeries:
    """1/(q;q)_inf, the partition generating function."""
    return pentagonal_quotient(((1, -1),), trunc)


def _add_lambert_summand(c: list, n: int) -> None:
    """c += 4 (-1)^n q^(n(n+1)/2) / (1 + q^n) below q^len(c), in place.

    The summand is the geometric series 4 (-1)^(n+j) q^(n(n+1)/2 + nj),
    j >= 0: one slice pass over every 2n-th exponent per sign.
    """
    e = n * (n + 1) // 2
    s = -4 if n % 2 else 4
    c[e::2 * n] = [x + s for x in c[e::2 * n]]
    c[e + n::2 * n] = [x - s for x in c[e + n::2 * n]]


def _lambert_sum(trunc: int) -> list:
    """1 + 4 sum_{n>=1} (-1)^n q^(n(n+1)/2) / (1 + q^n) below q^trunc.

    Summand n costs O(trunc/n), so the sum costs O(trunc log trunc); the
    loop stops at the first summand starting at or past q^trunc.
    """
    c = [1] + [0] * (trunc - 1)
    n = 1
    while n * (n + 1) // 2 < trunc:
        _add_lambert_summand(c, n)
        n += 1
    return c


def _theta_square(trunc: int) -> list:
    """theta(-q)^2 = sum_{a,b in Z} (-1)^(a+b) q^(a^2+b^2) below q^trunc.

    Each lattice point (a, b) with a^2 + b^2 < trunc adds one to its
    exponent; since a + b == a^2 + b^2 (mod 2), the sign is then (-1)^n at
    q^n, one slice pass over the odd exponents.
    """
    c = [0] * trunc
    r = isqrt(trunc - 1)
    squares = sorted(k * k for k in range(-r, r + 1))
    for x in squares:
        for y in squares:
            if x + y >= trunc:
                break
            c[x + y] += 1
    c[1::2] = [-x for x in c[1::2]]
    return c


def _gauss_quotient(trunc: int) -> list:
    """theta(-q)^2 / (q;q)_inf = (q;q)_inf^3 / (q^2;q^2)_inf^2 below
    q^trunc: the lattice of ``_theta_square``, then one in-place pentagonal
    division pass.  The crank series' core before its check, and the core
    of the tower's multiplier."""
    c = _theta_square(trunc)
    _apply_pentagonal(c, 1, -1)
    return c


def _times_euler(g: list) -> list:
    """g * (q;q)_inf below q^len(g), by Euler's pentagonal number theorem.

    (q;q)_inf = 1 + sum_{m>=1} (-1)^m (q^(m(3m-1)/2) + q^(m(3m+1)/2)); each
    term adds or subtracts g shifted by its exponent, one map() pass.
    """
    out = g[:]
    m = 1
    while m * (3 * m - 1) // 2 < len(g):
        op = operator.sub if m % 2 else operator.add
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            out[e:] = map(op, out[e:], g)
        m += 1
    return out


@memoised("crank")
def crank_parity_series(trunc: int) -> IntLaurentSeries:
    """(q;q)_inf (q;q^2)_inf^2, built one way and checked against another.

    Three sides, no code shared between them:

    * G = theta(-q)^2 / (q;q)_inf (``_gauss_quotient``): ``_theta_square``
      writes theta(-q)^2 from the lattice points, then one in-place
      ``_apply_pentagonal`` pass divides by (q;q)_inf; G is returned and
      memoised;
    * L = Garvan's Lambert sum, sparse geometric series written into a
      plain list (``_lambert_sum``);
    * the check G * (q;q)_inf == L over every coefficient below q^trunc,
      the product taken by ``_times_euler``, one slice pass per pentagonal
      term of (q;q)_inf, its exponents written out here.

    Any disagreement raises AssertionError naming the first exponent that
    differs and both values there.
    """
    c = _gauss_quotient(trunc)
    bad = IntLaurentSeries(0, _times_euler(c), trunc).first_mismatch(
        IntLaurentSeries(0, _lambert_sum(trunc), trunc), trunc)
    if bad is not None:
        e, mine, theirs = bad
        raise AssertionError(
            "crank-parity series routes disagree; series arithmetic is "
            f"broken: first at q^{e}: G*(q;q)_inf has {mine}, the "
            f"Lambert sum {theirs}")
    return IntLaurentSeries(0, c, trunc)


@memoised("rank")
def rank_parity_series(trunc: int) -> IntLaurentSeries:
    """sum_n q^(n^2)/(-q;q)_n^2, cross-checked against Watson's form."""
    total = q_sum(trunc, lambda n: (1, n * n, [(n, 1, -2)] if n else [], []))

    def watson_term(k):
        if k == 0:
            return 1, 0, [], []
        return 4 * (-1) ** k, k * (3 * k + 1) // 2, [], [(k, 1, -1)]

    watson = q_sum(trunc, watson_term, base=partition_series(trunc))
    bad = total.first_mismatch(watson, trunc)
    if bad is not None:
        e, mine, theirs = bad
        raise AssertionError(
            "rank-parity series disagrees with Watson's expansion: "
            f"first at q^{e}: the sum has {mine}, Watson's form {theirs}")
    return total


# ---------------------------------------------------------------------------
# congruence family
# ---------------------------------------------------------------------------

def qualifying_residue(alpha: int) -> tuple[int, int]:
    """(residue, modulus) with 24n == 1 mod 5^(2a+1) iff n == residue."""
    mod = 5 ** (2 * alpha + 1)
    return pow(24, -1, mod), mod


def verify_family_congruence(alpha: int, n_max: int) -> dict:
    """Check 5^(alpha+1) divides the crank-parity coefficient at every
    n <= n_max with 24n == 1 mod 5^(2*alpha+1).

    The report is the plain dict ``verify family`` prints as its detail:
    alpha, modulus, the count of n tested and the n that fail (expected
    none).  Raises ValueError if alpha < 0 or no n <= n_max qualifies,
    the latter naming the least n_max (``--n-max``) that has one.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    residue, step = qualifying_residue(alpha)
    if n_max < residue:
        raise ValueError(
            f"no n <= {n_max} has 24n == 1 (mod 5^{2 * alpha + 1}); raise "
            f"--n-max to at least {residue}")
    series = crank_parity_series(n_max + 1)
    modulus = 5 ** (alpha + 1)
    tested = range(residue, n_max + 1, step)
    return {"alpha": alpha, "modulus": modulus, "count": len(tested),
            "failures": [n for n in tested if series.coeff(n) % modulus]}


# ---------------------------------------------------------------------------
# the 5n+4 subsequence and the two expansion identities
# ---------------------------------------------------------------------------

@memoised("eta_5n4")
def eta_5n4_series(trunc: int) -> IntLaurentSeries:
    """E = 5 (q;q)^2 (q^5;q^5) (q^10;q^10)^2 / (q^2;q^2)^4, whose q^m
    coefficient is the crank-parity coefficient at 5m+4 by the identity
    ``subsequence_5n4_check`` compares.  Euler passes only: (2, -4) is
    applied as (2, -2), (2, -2), so E takes none of Jacobi's cube terms,
    which the tower's multiplier and hauptmodul are built from."""
    return pentagonal_quotient(
        ((1, 2), (2, -2), (2, -2), (5, 1), (10, 2)), trunc) * 5


def subsequence_5n4_check(terms: int) -> tuple[int, int, int] | None:
    """Compare the 5n+4 subsequence of the crank-parity series with
    E = 5 (q;q^2)^2 (q^5;q^5) (q^10;q^10)^2 / (q^2;q^2)^2  below q^terms.
    The crank-parity series below q^(5 terms) holds the subsequence below
    q^terms exactly."""
    return crank_parity_series(5 * terms).extract(5, 4).first_mismatch(
        eta_5n4_series(terms), terms)


def chan_expansion_check(terms: int) -> tuple[int, int, int] | None:
    """Compare the x = -1 crank expansion

        g = 1/(q;q)_inf
            + 4 sum_{n>=1} (-1)^n q^(n(n+1)/2)
              / [ (q;q)_{n-1} (1 - q^{2n}) (q^{n+1};q)_inf ]

    with the crank-parity series below q^terms.  The running product is
    1/[(q;q)_{n-1} (q^{n+1};q)_inf], from 1/(q;q)_inf at n = 0; the n-th
    summand starts at q^(n(n+1)/2), so only triangularly many contribute.
    """
    def term(n):
        if n == 0:
            return 1, 0, [], []
        front = [(n - 1, -1, -1)] if n >= 2 else []
        return (4 * (-1) ** n, n * (n + 1) // 2, [(n, -1, 1)] + front,
                [(2 * n, -1, -1)])

    total = q_sum(terms, term, base=partition_series(terms))
    return total.first_mismatch(crank_parity_series(terms), terms)


def run_weight_expansion(terms: int) -> IntLaurentSeries:
    """sum_{n>=0} (-1)^n q^(n(n+1)/2) (1 - q^(n+1))
       / [ (q;q)_n (1 + q^(n+1)) (q^(n+2);q)_inf ],
    the expansion whose summands encode the signed run weight.  The running
    product is 1/[(q;q)_n (q^(n+2);q)_inf], from 1/(q;q)_inf."""
    def term(n):
        front = [(n, -1, -1)] if n else []
        return ((-1) ** n, n * (n + 1) // 2, [(n + 1, -1, 1)] + front,
                [(n + 1, -1, 1), (n + 1, 1, -1)])

    return q_sum(terms, term, base=partition_series(terms))


def run_weight_identity_check(terms: int) -> tuple[int, int, int] | None:
    """Compare the signed run-weight expansion with the crank-parity series
    below q^terms."""
    return run_weight_expansion(terms).first_mismatch(
        crank_parity_series(terms), terms)
