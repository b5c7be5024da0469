"""Exact evaluation of the crank parity over partitions into distinct parts.

For distinct parts the crank collapses to "largest part, or #parts - 2 when
a one is present", and the parity difference (# even crank) - (# odd crank)
admits a closed form in terms of pentagonal numbers.  Writing P for the set
m(3m+1)/2 (m in Z), R(n) for the unique m with n = m(3m+1)/2, and
floor_p / ceil_p for the pentagonal floor and ceiling, the value is

     1   n in P, R(n) odd and positive
    -1   n in P, otherwise
     2   n not in P, R(floor) odd positive,  n == floor (mod 2)
    -2   n not in P, R(floor) even positive, n == floor (mod 2)
    -2 (-1)^(n - floor)   n not in P, R(floor) even negative
     0   otherwise

The set P is {(t^2 - 1)/24 : t > 0 prime to 6}, increasing in t, with
m = (t - 1)/6 for t == 1 (mod 6) and m = -(t + 1)/6 for t == 5, so the
floor and ceiling of n come from the one integer square root isqrt(24n+1).

The value splits as the sum of a floor-indexed and a ceiling-indexed term,
themselves the coefficients of

    1/(1+q) sum_{n>=1} q^(n(3n+1)/2) (1 - q^(2n+1))    and    -q (q^2;q)_inf.

The identity checks (the two-sum form, Watson-Whipple) return None when
they hold below the truncation, or ``(exponent, lhs, rhs)`` at the first
disagreement.

The same module houses the multiplicative function T on the signed-prime
factorizations 6m+1 = p1^e1 ... pr^er (each p a prime == 1 mod 6 or the
negative of a prime == 5 mod 6), which gives the rank parity over distinct
partitions as T(24n+1); its values at primes == 1 (mod 24) come from a Hecke
character and are bootstrapped from the enumeration oracle here instead.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt, prod
from typing import Mapping, NamedTuple

from .partitions import distinct_rank_parity
from .series import (
    IntLaurentSeries,
    TruncationError,
    pentagonal_product,
    q_sum,
)


# ---------------------------------------------------------------------------
# pentagonal bookkeeping
# ---------------------------------------------------------------------------

class PentagonalInfo(NamedTuple):
    """The pentagonal floor and ceiling of one n with their indices m.
    When n itself is pentagonal (is_pent), floor and ceiling are n and
    r_floor == r_ceil is its index, 0 only for n == 0."""

    is_pent: bool
    floor_p: int
    ceil_p: int
    r_floor: int
    r_ceil: int


def pent_info(n: int) -> PentagonalInfo:
    """The pentagonal floor and ceiling of n with their indices m.  With
    s = isqrt(24n+1), the floor's t is the largest t <= s prime to 6; the
    ceiling's is the same t when t^2 = 24n+1 (n is pentagonal), else the
    next t prime to 6: t + 4 for t == 1 (mod 6), t + 2 for t == 5."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    s = isqrt(24 * n + 1)
    lo = s - (1, 0, 1, 2, 3, 0)[s % 6]
    hi = lo if lo * lo == 24 * n + 1 else lo + (4 if lo % 6 == 1 else 2)
    r_floor, r_ceil = ((t - 1) // 6 if t % 6 == 1 else -(t + 1) // 6
                       for t in (lo, hi))
    return PentagonalInfo(lo == hi, (lo * lo - 1) // 24, (hi * hi - 1) // 24,
                          r_floor, r_ceil)


def floor_part(n: int) -> int:
    """Coefficient of q^n in 1/(1+q) sum_{m>=1} q^(m(3m+1)/2)(1-q^(2m+1))."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    info = pent_info(n)
    r = info.r_floor
    sign = -1 if (n - info.floor_p) % 2 else 1
    if r > 0:
        return sign if r % 2 else -sign
    if r % 2:  # odd and negative
        return 0
    return -2 * sign


def ceil_part(n: int) -> int:
    """Coefficient of q^n in -q (q^2;q)_inf."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    r = pent_info(n).r_ceil
    if r > 0:
        return 0
    return -1 if r % 2 else 1


def distinct_crank_exact(n: int) -> int:
    """The closed-form parity difference; always in {-2,-1,0,1,2}."""
    return _classified(n)[0]


def distinct_crank_case(n: int) -> str:
    """Human-readable case label for the closed form at n."""
    return _classified(n)[1]


def _classified(n: int) -> tuple[int, str]:
    if n < 1:
        raise ValueError(f"the closed form is stated for n >= 1, got {n}")
    info = pent_info(n)
    r = info.r_floor
    if info.is_pent:
        if r % 2 and r > 0:
            return 1, "pentagonal, R odd and positive"
        return -1, "pentagonal, other R"
    parity_match = (n - info.floor_p) % 2 == 0
    if r > 0 and r % 2 and parity_match:
        return 2, "R(floor) odd positive, parity match"
    if r > 0 and not r % 2 and parity_match:
        return -2, "R(floor) even positive, parity match"
    if r < 0 and not r % 2:
        return -2 if parity_match else 2, "R(floor) even negative"
    return 0, "otherwise"


# ---------------------------------------------------------------------------
# the generating function and its identities
# ---------------------------------------------------------------------------

def _first_sum(trunc: int) -> IntLaurentSeries:
    """sum_{n>=1} (-1)^(n+1) q^(n(n+3)/2) / (-q;q)_n."""
    return q_sum(trunc, lambda n: (
        (-1) ** (n + 1), n * (n + 3) // 2, [(n, 1, -1)], []), start=1)


def _second_sum(trunc: int) -> IntLaurentSeries:
    """sum_{n>=1} (-1)^n q^(n(n+1)/2) / (q;q)_(n-1)."""
    return q_sum(trunc, lambda n: (
        (-1) ** n, n * (n + 1) // 2, [(n - 1, -1, -1)] if n >= 2 else [],
        []), start=1)


def floor_part_series(trunc: int) -> IntLaurentSeries:
    """1/(1+q) sum_{n>=1} q^(n(3n+1)/2) (1 - q^(2n+1))."""
    return q_sum(trunc, lambda n: (
        1, n * (3 * n + 1) // 2, [], [(2 * n + 1, -1, 1), (1, 1, -1)]),
        start=1)


def ceil_part_series(trunc: int) -> IntLaurentSeries:
    """-q (q^2;q)_inf = -q (q;q)_inf / (1-q): dividing by 1-q is one
    prefix sum."""
    if trunc <= 1:
        raise TruncationError(
            f"ceiling series needs trunc >= 2, got {trunc}")
    return IntLaurentSeries(
        1, [-c for c in accumulate(pentagonal_product(1, trunc - 1).coeffs)],
        trunc)


def gf_identity_check(trunc: int) -> tuple[int, int, int] | None:
    """The generating-function facts, in order, exactly below q^trunc:

    (i)   first sum == floor series,
    (ii)  second sum == ceiling series,
    (iii) every coefficient of the two-sum form (first + second) equals
          the closed-form value: ``(n, coefficient, distinct_crank_exact(n))``
          on failure.

    (i) and (ii) at one truncation give two-sum form == floor series +
    ceiling series exactly below q^trunc, so that is not compared again.
    Returns the first failing fact's first mismatch, or None.
    """
    first = _first_sum(trunc)
    second = _second_sum(trunc)
    closed = IntLaurentSeries.from_terms(
        {n: distinct_crank_exact(n) for n in range(1, trunc)}, trunc)
    return (first.first_mismatch(floor_part_series(trunc), trunc)
            or second.first_mismatch(ceil_part_series(trunc), trunc)
            or (first + second).first_mismatch(closed, trunc))


def watson_whipple_check(trunc: int) -> tuple[int, int, int] | None:
    """The shifted specialization

        sum_{n>=0} (-1)^n q^(n(n+5)/2) / (-q^2;q)_n
            == sum_{n>=0} q^((3n^2+7n)/2) (1 - q^(2n+3)),

    compared as exact series below q^trunc."""
    lhs = q_sum(trunc, lambda n: (
        (-1) ** n, n * (n + 5) // 2, [(n + 1, 1, -1)] if n else [], []))
    rhs = q_sum(trunc, lambda n: (
        1, (3 * n * n + 7 * n) // 2, [], [(2 * n + 3, -1, 1)]))
    return lhs.first_mismatch(rhs, trunc)


# ---------------------------------------------------------------------------
# the multiplicative function T on 24n+1
# ---------------------------------------------------------------------------

def signed_factorization(m: int) -> list[tuple[int, int]]:
    """Factor m == 1 (mod 6) as prod p_i^e_i with each p_i a prime == 1
    (mod 6) or the negative of a prime == 5 (mod 6)."""
    if m < 1 or m % 6 != 1:
        raise ValueError(f"need m == 1 (mod 6) and positive, got {m}")
    out = []
    rest = m
    d = 5
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d if d % 6 == 1 else -d, e))
        d += 2 if d % 6 == 5 else 4  # walk 5, 7, 11, 13, ... (6k +- 1)
    if rest > 1:
        out.append((rest if rest % 6 == 1 else -rest, 1))
    check = prod(p ** e for p, e in out)
    if check != m:
        raise AssertionError(f"signed factorization of {m} came out {check}")
    return out


def t_prime_power(p: int, e: int, prime_values: Mapping[int, int] | None = None
                  ) -> int | None:
    """T(p^e) for a signed prime p == 1 (mod 6):

        0            p != 1 (mod 24), e odd
        1            p == 13 or 19 (mod 24), e even
        (-1)^(e/2)   p == 7 (mod 24), e even
        e+1          p == 1 (mod 24), T(p) = 2
        (-1)^e (e+1) p == 1 (mod 24), T(p) = -2

    The two p == 1 (mod 24) cases coincide for even e, so a prime value is
    only ever required at odd exponents; None there when ``prime_values``
    lacks T(p).
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    residue = p % 24
    if residue not in (1, 7, 13, 19):
        raise ValueError(f"signed prime {p} is not 1 mod 6")
    if residue != 1:
        if e % 2:
            return 0
        if residue in (13, 19):
            return 1
        return -1 if (e // 2) % 2 else 1
    if e % 2 == 0:
        return e + 1
    tp = (prime_values or {}).get(p)
    if tp is None:
        return None
    if tp not in (2, -2):
        raise ValueError(f"T({p}) must be +-2, got {tp}")
    return (e + 1) if tp == 2 else -(e + 1)


def _split_t(factors: list[tuple[int, int]],
             values: Mapping[int, int] | None
             ) -> tuple[int, list[tuple[int, int]]]:
    """T(m) split over the signed prime powers p^e of m's signed
    factorization ``factors``: the product of the T(p^e) that ``values``
    determines, and the (p, e) whose T(p) it lacks.

    A zero factor stops the walk: T(m) is then 0 whatever is missing,
    and the unknown list may be cut short.
    """
    known = 1
    unknown = []
    for p, e in factors:
        t = t_prime_power(p, e, values)
        if t is None:
            unknown.append((p, e))
        else:
            known *= t
        if not known:
            break
    return known, unknown


def multiplicative_t(n: int, prime_values: Mapping[int, int] | None = None
                     ) -> int:
    """T(24n+1) as the product of T over the signed prime powers.

    A zero factor short-circuits, so unknown Hecke values are only needed
    when they actually influence the result.
    """
    if n < 1:
        raise ValueError("n must be positive")
    known, unknown = _split_t(signed_factorization(24 * n + 1), prime_values)
    if known and unknown:
        raise ValueError(
            f"T({unknown[-1][0]}) is +-2 by a Hecke character not computed "
            "here; supply it via prime_values")
    return known


def bootstrap_t_values(n_max: int) -> dict[int, int]:
    """Assemble T(p) for the signed primes == 1 (mod 24) that occur with odd
    exponent in some 24n+1, n <= n_max, reading them off the distinct-parts
    rank-parity oracle.

    Each 24n+1 is factored once, before the solve loop.  Each step solves
    one equation T(24n+1) = oracle(n) with a nonzero known part, reading
    the oracle once: the first with one unknown T(p), else the first with
    several; a prime 24n+1 is the equation with known part 1.  Negatives of
    primes == 23 (mod 24) never sit at an oracle index alone, and whenever
    an equation involves several unknowns only their product is observable
    at this range: the leftover sign freedom is fixed by assigning +2 to
    all but the last unknown (the magnitude constraint is still verified,
    so an inconsistent oracle raises).
    """
    equations = [(n, signed_factorization(24 * n + 1))
                 for n in range(1, n_max + 1)]
    values: dict[int, int] = {}
    while True:
        open_eqs = [(len(unknown) > 1, n, known, unknown)
                    for n, factors in equations
                    for known, unknown in [_split_t(factors, values)]
                    if known and unknown]
        if not open_eqs:
            return values
        several, n, known, unknown = min(open_eqs)
        diff = distinct_rank_parity(n).diff
        if several:
            magnitude = prod(e + 1 for _, e in unknown)
            if abs(diff) != abs(known) * magnitude:
                raise AssertionError(
                    f"n={n}: oracle {diff} incompatible with |known| "
                    f"{abs(known)} times {magnitude}")
            # gauge choice: individual signs are unobservable here
            for p, e in unknown[:-1]:
                values[p] = 2
                known *= e + 1
        p, e = unknown[-1]
        contrib, rem = divmod(diff, known)
        if rem or contrib not in (e + 1, -(e + 1)):
            raise AssertionError(
                f"cannot solve T({p}) from n={n}: oracle {diff}, "
                f"known part {known}")
        values[p] = 2 if contrib == e + 1 else -2
