"""Circle-method asymptotics for the crank-parity coefficients.

The coefficient of q^n in (q;q)_inf/(-q;q)_inf^2 equals

    1/sqrt(n - 1/24) * sum_{0 < k < 5 sqrt(n)/2}
        B_k(n)/sqrt(k) * cosh( (pi/k) sqrt((n - 1/24)/6) )   +  E_n,

    B_k(n) = sum_{0 < h < 2k, gcd(h, 2k) = 1}
        e^(pi i (2 s(h,k) - 3 s(h,2k))) e^(-pi i n h / k),

with |E_n| < 194 n^(1/4) and s(h,k) the Dedekind sum.  Dedekind sums are
computed as exact rationals; the root-of-unity sums and the cosh main term
are evaluated in configurable-precision arithmetic (mpmath), 128 bits by
default.  B_k(n) is real because the h and 2k-h terms are conjugate, and
the imaginary residue is asserted below 2^(-bits/2) rather than discarded
silently.  B_k(n) depends on n only through n mod 2k (the factor
e^(-pi i n h/k) has period 2k in n), so it is memoised on (k, n mod 2k,
bits), as the phase tables it sums are memoised on (k, bits).

Also here: a direct numerical check of the modular transformation of the
partition generating function F(q) = 1/(q;q)_inf,

    F(exp(2 pi i h/k - 2 pi z/k^2))
        = e^(pi i s(h,k)) (z/k)^(1/2) exp(pi/(12 z) - pi z/(12 k^2))
          * F(exp(2 pi i H/k - 2 pi/z)),        h H == -1 (mod k), Re z > 0,

evaluated on both sides by truncated products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
from mpmath import mpf, workprec

from . import cranks
from .series import IntLaurentSeries


class InvalidPairError(ValueError):
    """Dedekind sum arguments must be coprime."""


class PrecisionError(ArithmeticError):
    """A quantity that should vanish to working precision did not."""


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h,k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) with the sawtooth
    ((x)) = x - floor(x) - 1/2 for non-integer x, else 0.

    Exact rational output.  For 0 < r < k and gcd(h,k) = 1 neither argument
    is an integer, so both sawtooth factors are (x mod k)/k - 1/2; expanding
    the product and summing the linear parts collapses the double sawtooth
    to a single integer sum.
    """
    if k < 1:
        raise InvalidPairError(f"k must be positive, got {k}")
    if gcd(h, k) != 1:
        raise InvalidPairError(f"gcd({h},{k}) != 1")
    h %= k
    s = sum(r * (h * r % k) for r in range(1, k))
    return Fraction(s, k * k) - Fraction(k - 1, 4)


@lru_cache(maxsize=None)
def _arc_phases(k: int, bits: int) -> tuple:
    """(h, e^(pi i (2 s(h,k) - 3 s(h,2k)))) for 0 < h < 2k coprime to 2k."""
    out = []
    with workprec(bits + 16):
        for h in range(1, 2 * k):
            if gcd(h, 2 * k) != 1:
                continue
            theta = 2 * dedekind_sum(h, k) - 3 * dedekind_sum(h, 2 * k)
            phase = mpmath.expjpi(mpf(theta.numerator) / theta.denominator)
            out.append((h, phase))
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_phases(k: int, bits: int) -> tuple:
    """e^(-pi i m / k) for m = 0 .. 2k-1 (the period of the n h exponent)."""
    with workprec(bits + 16):
        return tuple(mpmath.expjpi(mpf(-m) / k) for m in range(2 * k))


def kloosterman_sum(k: int, n: int, precision_bits: int = 128) -> mpf:
    """B_k(n); raises PrecisionError if the imaginary residue exceeds
    2^(-precision_bits/2)."""
    if k < 1:
        raise ValueError("k must be positive")
    return _kloosterman_residue(k, n % (2 * k), precision_bits)


@lru_cache(maxsize=None)
def _kloosterman_residue(k: int, r: int, bits: int) -> mpf:
    """B_k(n) for every n == r (mod 2k): the sum reads n only through
    units[(n*h) % (2k)], which is units[(r*h) % (2k)]."""
    with workprec(bits + 16):
        units = _unit_phases(k, bits)
        total = mpmath.mpc(0)
        for h, phase in _arc_phases(k, bits):
            total += phase * units[(r * h) % (2 * k)]
        if abs(total.imag) >= mpf(2) ** (-(bits // 2)):
            raise PrecisionError(
                f"B_{k}(n), n = {r} mod {2 * k}, has imaginary residue "
                f"{total.imag}")
        return +total.real


def main_term(n: int, precision_bits: int = 128) -> mpf:
    """The finite k-sum of the asymptotic formula, 0 < k < 5 sqrt(n)/2."""
    if n < 1:
        raise ValueError("n must be positive")
    with workprec(precision_bits + 16):
        shifted = mpf(24 * n - 1) / 24
        root = mpmath.sqrt(shifted / 6)
        total = mpf(0)
        k = 1
        while 4 * k * k < 25 * n:
            bk = kloosterman_sum(k, n, precision_bits)
            total += (bk / mpmath.sqrt(k)
                      * mpmath.cosh(mpmath.pi / k * root))
            k += 1
        return +(total / mpmath.sqrt(shifted))


@dataclass
class AsymptoticReport:
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
    """The report at n from its exact coefficient; a process pool maps it."""
    with workprec(precision_bits + 16):
        return AsymptoticReport.build(n, exact, main_term(n, precision_bits))


def verify_error_bound(n_lo: int, n_hi: int, precision_bits: int = 128,
                       series: IntLaurentSeries | None = None
                       ) -> list[AsymptoticReport]:
    """One report per n in [n_lo, n_hi]; all are expected to pass
    |exact - main| < 194 n^(1/4)."""
    if series is None:
        series = cranks.crank_parity_series(n_hi + 1)
    return [report(n, series.coeff(n), precision_bits)
            for n in range(n_lo, n_hi + 1)]


# ---------------------------------------------------------------------------
# eta-type transformation of the partition generating function
# ---------------------------------------------------------------------------

def partition_gf_value(q, precision_bits: int = 128):
    """1/(q;q)_inf at a point inside the unit disc, by direct product."""
    with workprec(precision_bits + 16):
        q = mpmath.mpmathify(q)
        if abs(q) >= 1:
            raise ValueError(f"product diverges for |q| >= 1, got |q| = "
                             f"{mpmath.nstr(abs(q), 8)}")
        eps = mpf(2) ** (-(precision_bits + 24))
        prod = mpmath.mpc(1)
        qn = q
        while abs(qn) > eps:
            prod *= (1 - qn)
            qn *= q
        return 1 / prod


def eta_transformation_check(h: int, k: int, z,
                             precision_bits: int = 128) -> mpf:
    """Evaluate both sides of the modular transformation of 1/(q;q)_inf at
    (h, k, z) and return |LHS - RHS|.  Requires gcd(h,k) = 1 and Re z > 0."""
    if k < 1 or gcd(h, k) != 1:
        raise InvalidPairError(f"need coprime h, k with k >= 1: ({h}, {k})")
    with workprec(precision_bits + 32):
        z = mpmath.mpmathify(z)
        if mpmath.re(z) <= 0:
            raise ValueError("the transformation needs Re z > 0")
        pi = mpmath.pi
        j = mpmath.mpc(0, 1)
        lhs_q = mpmath.exp(2 * pi * j * h / k - 2 * pi * z / k ** 2)
        lhs = partition_gf_value(lhs_q, precision_bits)

        big_h = 0 if k == 1 else (-pow(h, -1, k)) % k
        rhs_q = mpmath.exp(2 * pi * j * big_h / k - 2 * pi / z)
        s = dedekind_sum(h, k)
        rhs = (mpmath.expjpi(mpf(s.numerator) / s.denominator)
               * mpmath.sqrt(z / k)
               * mpmath.exp(pi / (12 * z) - pi * z / (12 * k ** 2))
               * partition_gf_value(rhs_q, precision_bits))
        return +abs(lhs - rhs)
