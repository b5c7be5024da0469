"""Circle-method asymptotics for the crank-parity coefficients.

The coefficient of q^n in (q;q)_inf/(-q;q)_inf^2 equals

    1/sqrt(n - 1/24) * sum_{0 < k < 5 sqrt(n)/2}
        B_k(n)/sqrt(k) * cosh( (pi/k) sqrt((n - 1/24)/6) )   +  E_n,

    B_k(n) = sum_{0 < h < 2k, gcd(h, 2k) = 1}
        e^(pi i (2 s(h,k) - 3 s(h,2k))) e^(-pi i n h / k),

with |E_n| < 194 n^(1/4) and s(h,k) the Dedekind sum.  Dedekind sums are
computed as exact rationals by reciprocity; the root-of-unity sums and the
cosh main term are evaluated in configurable-precision binary floating
point, 128 bits by default.  Since 6k s(h,k) is an integer, each term of
B_k(n) is the root of unity e^(pi i (M_h - 12 n h)/(12k)) with the integer
M_h = 12k (2 s(h,k) - 3 s(h,2k)); the angles M_h mod 24k are exact and
memoised on k.  B_k(n) is exactly real because M_(2k-h) == -M_h (mod 24k),
which pairs the h and 2k-h terms as conjugates; this is checked once per k
in integers rather than assumed.  The two terms of a pair then fold to the
same cosine, so B_k(n) is twice the sum over 0 < h < k for k >= 2 (for
k = 1 it is the one term h = 1).  That sum is added as integers in fixed
point with 16 guard bits (each cosine rounded to 2^-(bits+16) and memoised
on (k, angle, bits)).  It depends on n only through n mod 2k, so it is
memoised on (k, n mod 2k, bits).  The main term skips every k whose
fixed-point sum is exactly zero.

The cosines, B_k(n) and the main term are evaluated on mpmath's raw libmp
values, (sign, mantissa, exponent, bitcount) tuples, each operation rounded
to nearest at an explicit precision: the same operations, in the same order
and at the same precision as the mpf arithmetic they stand for, without its
per-operation wrapping and context switches.  Only the results are wrapped
as mpf, without rounding, so they keep their precision whatever the
caller's mpmath context.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_cos_pi,
    mpf_cosh,
    mpf_div,
    mpf_mul,
    mpf_nint,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
    to_int,
)

from . import cranks


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h,k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) with the sawtooth
    ((x)) = x - floor(x) - 1/2 for non-integer x, else 0.

    Exact rational output, by reciprocity along the Euclidean algorithm:
    s(h,k) depends on h mod k only, s(0,1) = 0, and for coprime h, k >= 1

        s(h,k) + s(k,h) = (h^2 + k^2 + 1) / (12hk) - 1/4,

    so s(h,k) = (h^2 + k^2 + 1 - 3hk) / (12hk) - s(k mod h, h).  The
    alternating sum of these steps is carried as one integer numerator
    over the product of the 12hk.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if gcd(h, k) != 1:
        raise ValueError(f"gcd({h},{k}) != 1")
    h %= k
    num, den, sign = 0, 1, 1
    while h:
        step = 12 * h * k
        num = num * step + sign * (h * h + k * k + 1 - 3 * h * k) * den
        den *= step
        h, k = k % h, h
        sign = -sign
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _arc_angles(k: int) -> tuple:
    """(h, M_h mod 24k) for 0 < h <= k coprime to 2k, where
    M_h = 12k (2 s(h,k) - 3 s(h,2k)): the terms h < k for k >= 2, and h = 1
    for k = 1.  Raises AssertionError unless every M_h is an integer and
    M_(2k-h) == -M_h (mod 24k) for every 0 < h < 2k, so the terms h > k
    are the conjugates of these."""
    period = 24 * k
    angles = {}
    for h in range(1, 2 * k):
        if gcd(h, 2 * k) != 1:
            continue
        m = 12 * k * (2 * dedekind_sum(h, k) - 3 * dedekind_sum(h, 2 * k))
        if m.denominator != 1:
            raise AssertionError(
                f"12k (2 s(h,k) - 3 s(h,2k)) = {m} at h = {h}, k = {k} "
                f"is not an integer")
        angles[h] = m.numerator % period
    for h, m in angles.items():
        if (m + angles[2 * k - h]) % period:
            raise AssertionError(
                f"B_{k}: the terms h = {h} and h = {2 * k - h} are not "
                f"conjugate: M = {m} and {angles[2 * k - h]} (mod {period})")
    return tuple((h, m) for h, m in angles.items() if h <= k)


@lru_cache(maxsize=None)
def _cosine(j: int, k: int, bits: int) -> int:
    """round(cos(pi j / (12k)) 2^(bits+16)), evaluated at bits + 32."""
    prec = bits + 32
    x = mpf_div(from_int(j, prec, round_nearest), from_int(12 * k), prec,
                round_nearest)
    x = mpf_shift(mpf_cos_pi(x, prec, round_nearest), bits + 16)
    return to_int(mpf_nint(x, prec, round_nearest))


def kloosterman_sum(k: int, n: int, precision_bits: int = 128) -> mpf:
    """B_k(n), exactly real: _arc_angles raises AssertionError unless the h
    and 2k-h terms pair as conjugates, M_(2k-h) == -M_h (mod 24k)."""
    if k < 1:
        raise ValueError("k must be positive")
    return _kloosterman_residue(k, n % (2 * k), precision_bits)


@lru_cache(maxsize=None)
def _kloosterman_residue(k: int, r: int, bits: int) -> mpf:
    """B_k(n) for every n == r (mod 2k): the sum of cos(pi j/(12k)) over
    j = M_h - 12 r h (mod 24k), folded into 0 <= j <= 12k, in fixed point.
    The term 2k - h has the angle -j, so it folds to the cosine of h: the
    sum runs over _arc_angles' h <= k and is doubled for k >= 2.  Rounded
    to bits + 16 bits."""
    period = 24 * k
    total = 0
    for h, m in _arc_angles(k):
        j = (m - 12 * r * h) % period
        total += _cosine(min(j, period - j), k, bits)
    if k > 1:
        total *= 2
    prec = bits + 16
    return mpmath.mp.make_mpf(
        mpf_shift(from_int(total, prec, round_nearest), -prec))


@lru_cache(maxsize=None)
def _k_constants(k: int, prec: int) -> tuple:
    """(sqrt(k), pi/k) rounded to prec bits, as libmp values, for
    main_term."""
    return (mpf_sqrt(from_int(k), prec, round_nearest),
            mpf_div(mpf_pi(prec, round_nearest), from_int(k), prec,
                    round_nearest))


def main_term(n: int, precision_bits: int = 128) -> mpf:
    """The finite k-sum of the asymptotic formula, 0 < k < 5 sqrt(n)/2,
    rounded to precision_bits + 16 bits.

    In libmp operations, each rounded to nearest at that precision, this is
    the mpf evaluation

        shifted = mpf(24n - 1) / 24;  root = sqrt(shifted / 6)
        total += B_k(n) / sqrt(k) * cosh(pi / k * root)   for each k
        total / sqrt(shifted)

    operation for operation, so every value is the mpf one bit for bit."""
    if n < 1:
        raise ValueError("n must be positive")
    prec = precision_bits + 16
    rnd = round_nearest
    shifted = mpf_div(from_int(24 * n - 1, prec, rnd), from_int(24), prec,
                      rnd)
    root = mpf_sqrt(mpf_div(shifted, from_int(6), prec, rnd), prec, rnd)
    total = fzero
    k = 1
    while 4 * k * k < 25 * n:
        bk = kloosterman_sum(k, n, precision_bits)._mpf_
        if bk != fzero:  # an exactly zero fixed-point sum adds nothing
            sqrt_k, pi_over_k = _k_constants(k, prec)
            term = mpf_mul(mpf_div(bk, sqrt_k, prec, rnd),
                           mpf_cosh(mpf_mul(pi_over_k, root, prec, rnd),
                                    prec, rnd), prec, rnd)
            total = mpf_add(total, term, prec, rnd)
        k += 1
    return mpmath.mp.make_mpf(
        mpf_div(total, mpf_sqrt(shifted, prec, rnd), prec, rnd))


class AsymptoticReport(NamedTuple):
    """Exact coefficient vs main term at one n, with the theorem's bound."""

    n: int
    exact: int
    main: mpf
    abs_error: mpf
    bound: mpf
    passed: bool

    @classmethod
    def build(cls, n: int, exact: int, main: mpf) -> "AsymptoticReport":
        err = abs(exact - main)
        bound = 194 * mpf(n) ** Fraction(1, 4)
        return cls(n=n, exact=exact, main=main, abs_error=err, bound=bound,
                   passed=bool(err < bound))

    def csv_row(self, digits: int) -> list[str]:
        return [str(self.n), str(self.exact),
                mpmath.nstr(self.main, digits),
                mpmath.nstr(self.abs_error, 8),
                mpmath.nstr(self.bound, 8),
                "true" if self.passed else "false"]


def report(n: int, exact: int, precision_bits: int = 128) -> AsymptoticReport:
    """The report at n from its exact coefficient."""
    with workprec(precision_bits + 16):
        return AsymptoticReport.build(n, exact, main_term(n, precision_bits))


def verify_error_bound(n_lo: int, n_hi: int, precision_bits: int = 128
                       ) -> list[AsymptoticReport]:
    """One report per n in [n_lo, n_hi]; all are expected to pass
    |exact - main| < 194 n^(1/4)."""
    series = cranks.crank_parity_series(n_hi + 1)
    return [report(n, series.coeff(n), precision_bits)
            for n in range(n_lo, n_hi + 1)]

