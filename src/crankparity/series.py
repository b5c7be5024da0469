"""Exact truncated Laurent series over the integers.

The one data structure underlying the whole package: a series

    sum_{i} c_i q^(offset+i)  +  O(q^trunc),        len(coeffs) == trunc - offset

with arbitrary-precision integer coefficients and a pessimistically tracked
truncation order.  Every operation propagates ``trunc`` so that no coefficient
beyond the provably exact range is ever reported; comparing two series to an
order neither supports raises ``TruncationError`` instead of silently passing.
Offsets may be negative (reciprocal eta quotients live in q^-1 and below).

Also here: Euler factors (q^a; q^b)_inf, the pentagonal-number series for
(q^d; q^d)_inf, pentagonal quotients prod (q^d; q^d)_inf^r and the integral
eta quotients  q^(sum d*r/24) prod (q^d; q^d)_inf^r  built on them,
the Atkin operator U_d acting by  sum a(n) q^n  |->  sum a(dn) q^n, and
``q_sum``, the one summation helper for the q-hypergeometric sums
sum_n coeff_n q^(e_n) R_n S_n with R_n a running product of binomials
(1 + c q^k)^r and S_n one summand's own binomials.  It stops at the first
e_n >= trunc, so the exponents must strictly increase.

Pentagonal and eta quotients never multiply dense series: (q^d; q^d)_inf has
O(sqrt(N/d)) nonzero terms below q^N (Euler's pentagonal numbers), and so
has its cube (Jacobi's triangular numbers), so each factor (q^d; q^d)^r is
applied to one coefficient list by |r| // 3 sparse in-place cube passes and
|r| % 3 pentagonal ones, O(N^1.5) additions each to multiply or to divide.
While the factors applied so far make a series in q^g, the list holds only
its ceil(N/g) coefficients, so a pass costs N^1.5 / (g sqrt(d)); the
factors go in the order that makes the sum of those costs least.
Dense operands, such as hauptmodul powers, have one kernel:
``_conv`` multiplies by Kronecker substitution (coefficients packed into one
huge integer, which CPython's own int multiplies), and reciprocals run
Newton's iteration on it.
"""

from __future__ import annotations

import functools
import io
import operator
import os
import sys
import tempfile
from collections import namedtuple
from importlib import import_module
from itertools import accumulate, permutations, repeat
from math import fsum, gcd, sqrt
from typing import Callable, Iterable, Iterator, Mapping, TextIO


class TruncationError(ValueError):
    """A coefficient or comparison was requested beyond the exact range."""


# ---------------------------------------------------------------------------
# multiplication kernels
# ---------------------------------------------------------------------------

def _pack(xs: list, width: int) -> int:
    """sum xs[i] * 256^(width*i): the packed positive part minus the packed
    negative part, one signed integer."""
    pos = bytearray(width * len(xs))
    neg = bytearray(width * len(xs))
    for i, x in enumerate(xs):
        if x > 0:
            pos[i * width:i * width + width] = x.to_bytes(width, "little")
        elif x < 0:
            neg[i * width:i * width + width] = (-x).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _conv(a: list, b: list, rlen: int) -> list:
    """First ``rlen`` coefficients of the convolution of two int lists, by
    Kronecker substitution."""
    a = a[:rlen]
    b = b[:rlen]
    if rlen <= 0:
        return []
    if not any(a) or not any(b):
        return [0] * rlen
    # One signed product A*B = sum c_i 256^(width*i).  Every |c_i| is at
    # most bound = max|a| * max|b| * min(len) < 2^(8*width-1), so adding
    # half a slot to each of the first rlen slots makes them all digits in
    # [0, 256^width), and masking drops the slots past rlen, borrows and all.
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    nbytes = rlen * width
    c = _pack(a, width) * _pack(b, width)
    c += int.from_bytes((bytes(width - 1) + b"\x80") * rlen, "little")
    buf = (c & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    return [int.from_bytes(buf[i:i + width], "little") - half
            for i in range(0, nbytes, width)]


def _recip_unit(c: list, rlen: int) -> list:
    """Newton iteration for 1/c mod q^rlen, c[0] == +-1, all integer."""
    z = [c[0]]  # 1/c[0] == c[0]
    m = 1
    while m < rlen:
        m2 = min(2 * m, rlen)
        t = _conv(c, z, m2)
        t[0] -= 1
        # t == c*z - 1 vanishes below q^m, so z - z*t is exact to q^m2
        corr = _conv(z, t, m2)
        z = z + [0] * (m2 - len(z))
        z = [zi - ci for zi, ci in zip(z, corr)]
        m = m2
    return z[:rlen]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

class IntLaurentSeries:
    """Truncated Laurent series with exact integer coefficients.

    Instances are immutable; all arithmetic returns new objects and is safe
    to share across threads.
    """

    __slots__ = ("offset", "coeffs", "trunc")

    def __init__(self, offset: int, coeffs: Iterable[int], trunc: int):
        coeffs = tuple(coeffs)
        if trunc <= offset:
            raise TruncationError(f"trunc {trunc} must exceed offset {offset}")
        if len(coeffs) != trunc - offset:
            raise ValueError(
                f"need {trunc - offset} coefficients, got {len(coeffs)}")
        # Strip leading zeros so the stored offset is the true valuation
        # whenever the series is nonzero; this tightens product truncations.
        k = 0
        n = len(coeffs)
        while k < n - 1 and coeffs[k] == 0:
            k += 1
        if k and coeffs[k] != 0:
            offset += k
            coeffs = coeffs[k:]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("IntLaurentSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "IntLaurentSeries":
        if trunc <= 0:
            return cls(trunc - 1, (0,), trunc)
        return cls(0, (0,) * trunc, trunc)

    @classmethod
    def one(cls, trunc: int) -> "IntLaurentSeries":
        return cls.monomial(0, 1, trunc)

    @classmethod
    def monomial(cls, exponent: int, coeff: int,
                 trunc: int) -> "IntLaurentSeries":
        if trunc <= exponent:
            raise TruncationError(f"trunc {trunc} must exceed {exponent}")
        return cls(exponent, (coeff,) + (0,) * (trunc - exponent - 1), trunc)

    @classmethod
    def from_terms(cls, terms: Mapping[int, int],
                   trunc: int) -> "IntLaurentSeries":
        """The series sum_e terms[e] q^e + O(q^trunc); every exponent must
        lie below trunc."""
        if not terms:
            return cls.zero(trunc)
        lo = min(terms)
        hi = max(terms)
        if hi >= trunc:
            raise TruncationError(f"term q^{hi} at or beyond trunc {trunc}")
        coeffs = [0] * (trunc - lo)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls(lo, coeffs, trunc)

    # -- inspection ----------------------------------------------------------

    def _window(self, lo: int, hi: int) -> tuple:
        """The coefficients of q^lo, ..., q^(hi - 1): exact zeros below the
        offset, and ``TruncationError`` if hi - 1 is at or past trunc.  Every
        read of coefficients by exponent goes through it."""
        if hi > self.trunc:
            raise TruncationError(
                f"coefficient of q^{hi - 1} unavailable: trunc is "
                f"{self.trunc}, need at least {hi}")
        if lo >= self.offset:
            return self.coeffs[lo - self.offset:hi - self.offset]
        return ((0,) * (min(hi, self.offset) - lo)
                + self.coeffs[:max(hi - self.offset, 0)])

    def coeff(self, exponent: int) -> int:
        """Coefficient of q^exponent; exact zeros below the offset are fine,
        anything at or beyond trunc raises."""
        return self._window(exponent, exponent + 1)[0]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if the series
        vanishes identically up to its truncation; the constructor strips
        leading zeros, so it is the offset unless every coefficient is 0."""
        return self.offset if self.coeffs[0] else None

    def terms(self) -> Iterator[tuple[int, int]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    def first_mismatch(self, other: "IntLaurentSeries",
                       order: int) -> tuple[int, int, int] | None:
        """``(exponent, mine, theirs)`` at the lowest exponent below
        ``order`` where the coefficients differ, or None if none does.

        Both operands must carry trunc >= order; insufficient truncation is
        an error, never a silent pass.
        """
        if self.trunc < order or other.trunc < order:
            raise TruncationError(
                f"equality to order {order} needs truncs >= {order}, have "
                f"{self.trunc} and {other.trunc}")
        lo = min(self.offset, other.offset)
        pairs = zip(self._window(lo, order), other._window(lo, order))
        for e, (mine, theirs) in enumerate(pairs, lo):
            if mine != theirs:
                return e, mine, theirs
        return None

    def __repr__(self) -> str:
        parts = []
        for e, c in self.terms():
            if len(parts) == 6:
                parts.append("...")
                break
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{e}")
        body = " + ".join(parts) if parts else "0"
        return f"IntLaurentSeries({body} + O(q^{self.trunc}))"

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "IntLaurentSeries", sub: bool) -> "IntLaurentSeries":
        off = min(self.offset, other.offset)
        trunc = min(self.trunc, other.trunc)
        op = operator.sub if sub else operator.add
        out = map(op, self._window(off, trunc), other._window(off, trunc))
        return IntLaurentSeries(off, out, trunc)

    def __add__(self, other):
        if not isinstance(other, IntLaurentSeries):
            return NotImplemented
        return self._aligned(other, sub=False)

    def __sub__(self, other):
        if not isinstance(other, IntLaurentSeries):
            return NotImplemented
        return self._aligned(other, sub=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntLaurentSeries(self.offset,
                                    [c * other for c in self.coeffs],
                                    self.trunc)
        if not isinstance(other, IntLaurentSeries):
            return NotImplemented
        # trunc = min(x.trunc + y.offset, y.trunc + x.offset), i.e. the
        # shorter coefficient window wins.
        rlen = min(len(self.coeffs), len(other.coeffs))
        off = self.offset + other.offset
        out = _conv(list(self.coeffs), list(other.coeffs), rlen)
        return IntLaurentSeries(off, out, off + rlen)

    __rmul__ = __mul__

    def reciprocal(self) -> "IntLaurentSeries":
        val = self.valuation()
        if val is None:
            raise ZeroDivisionError("reciprocal of a series that is zero "
                                    "to its truncation")
        lead = self.coeff(val)
        if lead not in (1, -1):
            raise ValueError(
                f"reciprocal needs leading coefficient +-1, got {lead}")
        rlen = len(self.coeffs)  # constructor stripped to the valuation
        out = _recip_unit(list(self.coeffs), rlen)
        return IntLaurentSeries(-val, out, -val + rlen)

    def __truediv__(self, other):
        if not isinstance(other, IntLaurentSeries):
            return NotImplemented
        return self * other.reciprocal()

    def __pow__(self, n: int) -> "IntLaurentSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** -n
        if n == 0:
            return IntLaurentSeries.one(len(self.coeffs))
        # binary powering through __mul__, high bit first: every product
        # keeps the window length and the offset scales with the exponent
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- reshaping -----------------------------------------------------------

    def truncate(self, order: int) -> "IntLaurentSeries":
        """Forget coefficients at and beyond ``order`` (cannot extend)."""
        if order > self.trunc:
            raise TruncationError(
                f"cannot extend trunc {self.trunc} to {order}")
        if order <= self.offset:
            return IntLaurentSeries.zero(order)
        return IntLaurentSeries(self.offset,
                                self.coeffs[:order - self.offset], order)

    def shift(self, k: int) -> "IntLaurentSeries":
        """Multiply by q^k."""
        return IntLaurentSeries(self.offset + k, self.coeffs, self.trunc + k)

    def extract(self, step: int, residue: int = 0) -> "IntLaurentSeries":
        """Arithmetic subsequence: coefficient of q^t in the result is the
        coefficient of q^(step*t + residue) here."""
        if step < 1:
            raise ValueError("step must be >= 1")
        r = residue % step
        t0 = -((r - self.offset) // step)
        t_end = -((r - self.trunc) // step)
        if t0 >= t_end:
            return IntLaurentSeries(t_end - 1, (0,), t_end)
        return IntLaurentSeries(
            t0, self._window(step * t0 + r, self.trunc)[::step], t_end)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _apply_binomial(x: list, k: int, c: int, r: int) -> None:
    """x <- x * (1 + c*q^k)^r in place, exact in the first len(x) terms.

    One O(len(x)) pass per unit of |r|: multiplying adds c times the list
    shifted by k; dividing runs y[i] = x[i] - c*y[i-k] along each residue
    class mod k.  With c = +-1 both come down to adding or subtracting
    neighbours, which map() and accumulate() do without a multiply.
    """
    if k < 1 or c not in (1, -1):
        raise ValueError(f"need k >= 1 and c = +-1, got k={k}, c={c}")
    if k >= len(x):
        return
    for _ in range(r):
        # map() is drained before the slice is replaced: old values only
        x[k:] = map(operator.add if c == 1 else operator.sub, x[k:], x)
    step = operator.add if c == -1 else (lambda y, u: u - y)
    for _ in range(-r):
        for i in range(k):
            x[i::k] = accumulate(x[i::k], step)


def euler_factor(a: int, b: int, trunc: int) -> IntLaurentSeries:
    """The truncated Euler product prod_{k >= 0, a+bk < trunc} (1 - q^(a+bk)).

    Built by repeated binomial multiplication, so it is independent of the
    pentagonal-number evaluation used by :func:`pentagonal_product` and the
    two can cross-check each other.
    """
    if trunc <= 0:
        raise TruncationError(f"truncation must be positive, got {trunc}")
    if a < 1 or b < 1:
        raise ValueError("factor parameters must be positive")
    c = [1] + [0] * (trunc - 1)
    for j in range(a, trunc, b):
        _apply_binomial(c, j, -1, 1)
    return IntLaurentSeries(0, c, trunc)


def q_sum(trunc: int, term, start: int = 0,
          base: IntLaurentSeries | None = None) -> IntLaurentSeries:
    """sum_{n >= start} coeff_n q^(e_n) R_n S_n, exact below q^trunc.

    ``term(n)`` returns ``(coeff_n, e_n, steps, extras)``; ``steps`` and
    ``extras`` are lists of factors (k, c, r), each standing for
    (1 + c*q^k)^r with k >= 1 and c = +-1.  R_n is the running product of
    ``base`` (default 1) and the steps of every index from ``start`` to n;
    S_n is the product of the extras of index n alone.  The sum stops at the
    first e_n >= trunc, so the exponents must strictly increase from 0 or
    later: anything else raises ValueError, as does any other factor.
    Each factor is one in-place pass of :func:`_apply_binomial`.
    """
    if trunc <= 0:
        raise TruncationError(f"truncation must be positive, got {trunc}")
    if base is not None and base.offset < 0:
        raise ValueError(f"base must be a power series, offset {base.offset}")
    run = [1] + [0] * (trunc - 1) if base is None else \
        list(base._window(0, trunc))
    total = [0] * trunc
    last = -1
    n = start
    while True:
        coeff, e, steps, extras = term(n)
        if e <= last:
            raise ValueError(f"exponent {e} at index {n} does not exceed "
                             f"the previous exponent {last}")
        if e >= trunc:
            return IntLaurentSeries(0, total, trunc)
        del run[trunc - e:]  # later summands start at q^e or higher
        for k, c, r in steps:
            _apply_binomial(run, k, c, r)
        summand = run[:] if extras else run
        for k, c, r in extras:
            _apply_binomial(summand, k, c, r)
        total[e:] = [t + coeff * u for t, u in zip(total[e:], summand)]
        last = e
        n += 1


def _pentagonal_terms(d: int, trunc: int) -> Iterator[tuple[int, int]]:
    """The terms s*q^e with 0 < e < trunc of (q^d; q^d)_inf, by increasing e:
    Euler's pentagonal number theorem puts s = (-1)^m at e = d*m(3m-+1)/2."""
    m = 1
    while d * m * (3 * m - 1) // 2 < trunc:
        s = -1 if m % 2 else 1
        for e in (d * m * (3 * m - 1) // 2, d * m * (3 * m + 1) // 2):
            if e < trunc:
                yield e, s
        m += 1


def pentagonal_product(d: int, trunc: int) -> IntLaurentSeries:
    """(q^d; q^d)_inf via Euler's pentagonal number theorem:
    sum_{m in Z} (-1)^m q^(d*m(3m-1)/2)."""
    if trunc <= 0:
        raise TruncationError(f"truncation must be positive, got {trunc}")
    if d < 1:
        raise ValueError("d must be positive")
    c = [1] + [0] * (trunc - 1)
    for e, s in _pentagonal_terms(d, trunc):
        c[e] = s
    return IntLaurentSeries(0, c, trunc)


def _cube_terms(d: int, trunc: int) -> Iterator[tuple[int, int]]:
    """The terms c*q^e with 0 < e < trunc of (q^d; q^d)_inf^3, by increasing
    e: Jacobi's identity puts c = (-1)^n (2n+1) at e = d*n(n+1)/2."""
    n = 1
    while d * n * (n + 1) // 2 < trunc:
        yield d * n * (n + 1) // 2, -2 * n - 1 if n % 2 else 2 * n + 1
        n += 1


def _apply_sparse(x: list, terms: list, sign: int) -> None:
    """x <- x * (1 + sum c*q^e)^sign in place over the (e, c) terms, e > 0
    increasing, exact in the first len(x) terms.

    Multiplying adds each term's c times the list as it was, shifted by e,
    one map() pass per term; dividing runs y[i] = x[i] - sum_e c_e*y[i-e]
    over the terms with e <= i.  Coefficients +-1 are plain additions or
    subtractions; only other coefficients are multiplied.
    """
    if sign == 1:
        old = x[:]
        for e, c in terms:
            if c in (1, -1):
                x[e:] = map(operator.add if c == 1 else operator.sub,
                            x[e:], old)
            else:
                x[e:] = map(operator.add, x[e:],
                            map(operator.mul, old, repeat(c)))
        return
    # scaled stays empty for Euler's terms: their division pays nothing
    plus, minus, scaled = [], [], []
    ends = [e for e, _ in terms[1:]] + [len(x)]
    # from one term's exponent to the next, the terms with e <= i are fixed
    for (e, c), end in zip(terms, ends):
        if c == 1:
            plus.append(e)
        elif c == -1:
            minus.append(e)
        else:
            scaled.append((e, c))
        for i in range(e, end):
            x[i] += (sum([x[i - f] for f in minus])
                     - sum([x[i - f] for f in plus])
                     - (sum([k * x[i - f] for f, k in scaled])
                        if scaled else 0))


def _apply_pentagonal(x: list, d: int, r: int) -> None:
    """x <- x * (q^d; q^d)_inf^r in place, exact in the first len(x) terms.

    |r| // 3 passes over Jacobi's cube terms, then |r| % 3 over Euler's
    pentagonal terms, each an in-place :func:`_apply_sparse` pass: about
    sqrt(2 len(x) / d) terms for a cube against 3 * 1.63 sqrt(len(x) / d)
    for three pentagonal passes.  Either way a pass is O(len(x)^1.5 /
    sqrt(d)) additions.
    """
    sign = 1 if r > 0 else -1
    if abs(r) >= 3:
        terms = list(_cube_terms(d, len(x)))
        for _ in range(abs(r) // 3):
            _apply_sparse(x, terms, sign)
    if abs(r) % 3:
        terms = list(_pentagonal_terms(d, len(x)))
        for _ in range(abs(r) % 3):
            _apply_sparse(x, terms, sign)


def _pass_cost(order) -> float:
    """sum passes / (g * sqrt(d)) over the factors (d, r) in this order, g
    the gcd of the levels applied so far, this one included: a pass over
    the ceil(N/g) coefficients of a series in q^g, with about sqrt(N/d)
    terms, costs in proportion to N^1.5 / (g * sqrt(d)).  fsum rounds the
    exact sum, so orders with the same terms tie exactly."""
    g = 0
    costs = []
    for d, r in order:
        g = gcd(g, d)
        costs.append((abs(r) // 3 + abs(r) % 3) / (g * sqrt(d)))
    return fsum(costs)


def _widen(c: list, g: int, step: int, trunc: int) -> list:
    """The coefficients of a series in q^g, listed by powers of q^g, as the
    ceil(trunc/step) coefficients of the same series listed by powers of
    q^step, for step dividing g."""
    wide = [0] * -(-trunc // step)
    wide[::g // step] = c
    return wide


def pentagonal_quotient(factors: Iterable[tuple[int, int]],
                        trunc: int) -> IntLaurentSeries:
    """prod (q^d; q^d)_inf^r over the (d, r) pairs, exact below q^trunc.

    Each factor is one :func:`_apply_pentagonal` call over one coefficient
    list, |r| // 3 cube passes and |r| % 3 pentagonal passes, all in place:
    no dense product and no reciprocal.  The running product is kept as a
    series in q^g, g the gcd of the levels applied so far: a list of its
    ceil(trunc/g) coefficients, on which (q^d; q^d)^r is applied as
    (q^(d/g); q^(d/g))^r, and which is widened when g drops.

    The factors are applied in the order that minimises the sum of
    passes / (g * sqrt(d)) over the factors, g taken once the factor is in
    (``_pass_cost``), found over every order of the factors (the quotients
    here have at most five); among equal orders, the first in the order
    the factors are given.
    """
    if trunc <= 0:
        raise TruncationError(f"truncation must be positive, got {trunc}")
    factors = list(factors)
    if any(d < 1 for d, _ in factors):
        raise ValueError("d must be positive")
    order = min(permutations([f for f in factors if f[1]]), key=_pass_cost)
    g = order[0][0] if order else 1
    c = [1] + [0] * (-(-trunc // g) - 1)
    for d, r in order:
        if d % g:
            c, g = _widen(c, g, gcd(g, d), trunc), gcd(g, d)
        _apply_pentagonal(c, d // g, r)
    if g > 1:
        c = _widen(c, g, 1, trunc)
    return IntLaurentSeries(0, c, trunc)


class EtaQuotientSpec(namedtuple("EtaQuotientSpec", "factors")):
    """Exponent data for prod_d eta(d*tau)^(r_d), stored as (d, r) pairs.

    Only quotients with sum d*r divisible by 24 are allowed: those have an
    integer-exponent q-expansion, and every quotient used here is of that
    kind.  Fractional prefactors are rejected rather than modelled.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[tuple[int, int]]) -> "EtaQuotientSpec":
        factors = tuple((int(d), int(r)) for d, r in factors)
        for d, _ in factors:
            if d < 1:
                raise ValueError(f"eta level multiplier must be positive: {d}")
        total = sum(d * r for d, r in factors)
        if total % 24:
            raise ValueError(
                f"sum d*r = {total} is not divisible by 24; the expansion "
                "would need fractional exponents")
        return super().__new__(cls, factors)

    @property
    def prefactor_exponent(self) -> int:
        return sum(d * r for d, r in self.factors) // 24


def _past_prefactor(shift: int, trunc: int) -> int:
    """trunc - shift, the number of coefficients of a series q^shift *
    (1 + O(q)) below q^trunc; TruncationError unless it is positive."""
    if trunc <= shift:
        raise TruncationError(
            f"truncation {trunc} does not reach past the prefactor q^{shift}")
    return trunc - shift


def eta_quotient(spec: EtaQuotientSpec, trunc: int) -> IntLaurentSeries:
    """q-expansion of the eta quotient ``spec``, exact below ``trunc``.

    The result carries offset sum(d*r)/24, which is negative for reciprocal
    quotients.
    """
    shift = spec.prefactor_exponent
    length = _past_prefactor(shift, trunc)
    return pentagonal_quotient(spec.factors, length).shift(shift)


def apply_U(d: int, x: IntLaurentSeries) -> IntLaurentSeries:
    """Atkin operator: keep exponents divisible by d and divide them by d;
    ``extract`` refuses d < 1."""
    return x.extract(d, 0)


# ---------------------------------------------------------------------------
# debug dump format: one "exponent<TAB>coefficient" line per exponent
# ---------------------------------------------------------------------------

def dump_series(x: IntLaurentSeries, fp: TextIO) -> None:
    for e, c in enumerate(x.coeffs, x.offset):
        fp.write(f"{e}\t{c}\n")


def load_series(fp: TextIO) -> IntLaurentSeries:
    """The series a dump states, or ValueError: blank lines are skipped,
    every other line, stripped, must hold one tab between two fields that
    int() reads, and the exponents must be contiguous.  The lines are
    decoded in bulk, about 64 KiB of them at a time, so only one chunk is
    held as text beside the integers read so far."""
    exps, coeffs = [], []
    while chunk := fp.readlines(1 << 16):
        lines = list(filter(None, map(str.strip, chunk)))
        if set(map(str.count, lines, repeat("\t"))) - {1}:
            raise ValueError("series dump line not exponent<TAB>coefficient")
        fields = "\t".join(lines).split("\t") if lines else []
        exps += map(int, fields[::2])
        coeffs += map(int, fields[1::2])
    if not exps or exps != list(range(exps[0], exps[0] + len(exps))):
        raise ValueError("series dump empty or its exponents not contiguous")
    return IntLaurentSeries(exps[0], coeffs, exps[-1] + 1)


_memo: dict[str, IntLaurentSeries] = {}

# name -> memoised series, one entry per ``memoised`` builder; the name is
# also its memo key, its cache file ``<name>.tsv`` and its dump-series choice
SERIES: dict[str, Callable[[int], IntLaurentSeries]] = {}


def memoised(name: str):
    """Decorator: serve ``build(trunc)`` through ``memo`` under ``name`` and
    enter the result in ``SERIES`` under that name.  The result keeps the
    builder's name and docstring."""
    def register(build):
        @functools.wraps(build)
        def served(trunc: int) -> IntLaurentSeries:
            return memo(name, trunc, build)

        SERIES[name] = served
        return served
    return register


def memo(name: str, trunc: int, build) -> IntLaurentSeries:
    """``build(trunc)``, keeping the longest series built under ``name`` to
    serve shorter requests by truncation.  A truncation below 1 raises
    ``TruncationError`` before memory or disk is read, and so does one at or
    below the served series' first exponent, as its builder would.

    With CRANK_PARITY_CACHE_DIR set, that longest series also persists there
    as ``<name>.tsv``: the dump format, then a trailer line with the sha256
    of the lines above it, written under a temporary name and renamed into
    place.  A miss in memory checks the whole file but decodes only its
    lines below q^trunc, and keeps them when they reach ``trunc``; only a
    series built here is written.  A file whose trailer does not match, or
    whose lines do not decode, is named in one line on stderr, rebuilt and
    rewritten.  A file the file system refuses to read or write (an
    ``OSError``) costs the cache, not the command: one stderr line names it
    and the error, and the series is built and returned as if no cache were
    set, with no write after a failed read.
    """
    if trunc < 1:
        raise TruncationError(f"truncation must be positive, got {trunc}")
    cur = _memo.get(name)
    if cur is None or cur.trunc < trunc:
        cache_dir = os.environ.get("CRANK_PARITY_CACHE_DIR")
        path = cache_dir and os.path.join(cache_dir, f"{name}.tsv")
        try:
            cur = path and os.path.exists(path) and _load_checked(path, trunc)
        except OSError as exc:
            _unusable(path, exc)
            cur = path = None
        if not cur or cur.trunc < trunc:
            cur = build(trunc)
            if path:
                try:
                    _store(path, cur)
                except OSError as exc:
                    _unusable(path, exc)
        _memo[name] = cur
    _past_prefactor(cur.offset, trunc)
    return cur.truncate(trunc) if cur.trunc > trunc else cur


def _unusable(path: str, exc: OSError) -> None:
    """Name a cache file the file system refused, and the error, in one
    stderr line; the command goes on as if no cache were set."""
    print(f"crank-parity: cache file {path} unusable ({exc}); not cached",
          file=sys.stderr)


def _trailer(body: bytes) -> bytes:
    import hashlib  # not at import time: it maps OpenSSL, ~4 MB of RSS
    digest = hashlib.sha256(body).hexdigest()
    return f"# sha256={digest}\n".encode("ascii")


def _store(path: str, x: IntLaurentSeries) -> None:
    buf = io.StringIO()
    dump_series(x, buf)
    body = buf.getvalue().encode("ascii")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(body + _trailer(body))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_checked(path: str, trunc: int) -> IntLaurentSeries | None:
    """The series at ``path``, cut below q^trunc, or None (and no file) if
    its trailer fails or the lines kept do not decode.  The trailer covers
    the whole file, so all of it is hashed, but only the lines kept are
    decoded."""
    with open(path, "rb") as fp:
        data = fp.read()
    cut = data.rfind(b"\n", 0, len(data) - 1) + 1
    if data[cut:] == _trailer(data[:cut]):
        # end at the line of q^trunc, if there is one
        cut = data.find(b"\n%d\t" % trunc, 0, cut) + 1 or cut
        try:
            return load_series(io.StringIO(data[:cut].decode("ascii")))
        except ValueError:  # a body the trailer vouches for, but no dump
            pass
    print(f"crank-parity: cache file {path} failed its check; rebuilding",
          file=sys.stderr)
    os.unlink(path)
    return None


# The memoised series register in SERIES when their modules run; those
# modules import this one, so loading them here, once every name above is
# bound, makes SERIES whole whichever package module is imported first.
import_module(".cranks", __package__)
import_module(".fivetower", __package__)
