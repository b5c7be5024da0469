"""The 5-adic tower: eta quotients, hauptmodul polynomials, and the ladder.

Three weight-0 eta quotients drive the congruence family modulo powers of 5:

    multiplier   eta(t)^3 eta(50t)^2 / (eta(2t)^2 eta(25t)^3)    on level 50
    hauptmodul   eta(t)^2 eta(10t)^4 / (eta(2t)^4 eta(5t)^2)     on level 10
    newton quotient  eta(t) eta(50t)^2 / (eta(2t)^2 eta(25t))    on level 50

The keystone identity is  multiplier | U_5 == 5 * hauptmodul.  Every series
in the tower reduces to a Laurent polynomial in the hauptmodul G = q + ...
(found by triangular elimination from the lowest exponent up, with the
residual required to vanish identically to the working truncation), which
turns U_5 and P |-> (multiplier * P)|U_5 into integer matrices A and B on
the basis G, G^2, G^3, ...

The ladder

    L_0 = 1,   L_{2a+1} = (multiplier * L_{2a}) | U_5,   L_{2a+2} = L_{2a+1} | U_5

is computed both by series recursion and by the vector forms
(5,0,0,...) (AB)^a  /  (5,0,0,...) (AB)^a A, and the two must agree.  The
5-adic valuations of the matrix entries and ladder entries are what the
congruence family rests on, and are exported for direct verification.

Truncations are budgeted backward from the requested ladder depth and
refuse to start if the multiplier series would exceed a coefficient ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import cranks
from .series import (
    EtaQuotientSpec,
    IntLaurentSeries,
    apply_U,
    eta_quotient,
    memo,
    pentagonal_quotient,
)


class NotHauptmodulPolynomialError(ArithmeticError):
    """Triangular elimination left a nonzero residual: the series is not a
    hauptmodul polynomial in the requested degree window (or the truncation
    was too small to close the reduction)."""


class LadderConsistencyError(AssertionError):
    """Series recursion and matrix product gave different ladder vectors."""


class BudgetExceededError(RuntimeError):
    """The requested depth needs more series coefficients than allowed."""


LADDER_MULTIPLIER_SPEC = EtaQuotientSpec(((1, 3), (2, -2), (50, 2), (25, -3)))
HAUPTMODUL_SPEC = EtaQuotientSpec(((1, 2), (2, -4), (10, 4), (5, -2)))
NEWTON_QUOTIENT_SPEC = EtaQuotientSpec(((1, 1), (2, -2), (50, 2), (25, -1)))

# alpha = 2 needs 121,226 coefficients (claimL at 40 terms), alpha = 3 needs
# 843,101, whose multiplier build alone runs for minutes: refuse it at once
COEFFICIENT_CEILING = 2 * 10 ** 5
JMAX = 11          # ladder rungs are read off and cross-checked on G^1..G^JMAX
NEWTON_ORDER = 40  # q-order at which the sigma polynomials are read off, checked


def ladder_multiplier(trunc: int) -> IntLaurentSeries:
    """The level-50 quotient multiplying odd ladder steps; q + O(q^2)."""
    return memo("ladder_multiplier", trunc,
                lambda t: eta_quotient(LADDER_MULTIPLIER_SPEC, t))


def hauptmodul(trunc: int) -> IntLaurentSeries:
    """The level-10 hauptmodul G; q + O(q^2)."""
    return memo("hauptmodul", trunc,
                lambda t: eta_quotient(HAUPTMODUL_SPEC, t))


def newton_quotient(trunc: int) -> IntLaurentSeries:
    """The auxiliary quotient phi whose powers feed Newton's identities;
    q^3 + O(q^4)."""
    return memo("newton_quotient", trunc,
                lambda t: eta_quotient(NEWTON_QUOTIENT_SPEC, t))


def newton_power_u5(mu: int, order: int) -> IntLaurentSeries:
    """phi^mu | U_5, exact below q^order (mu may be negative)."""
    return apply_U(5, eta_quotient(NEWTON_QUOTIENT_SPEC ** mu,
                                   5 * (order - 1) + 1))


# ---------------------------------------------------------------------------
# Laurent polynomials in the hauptmodul
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HauptmodulPoly:
    """sum_j c_j G^j with integer (or, transiently, rational) coefficients."""

    coeffs: tuple

    def __init__(self, coeffs):
        items = dict(coeffs)
        object.__setattr__(
            self, "coeffs",
            tuple(sorted((j, c) for j, c in items.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __getitem__(self, j: int):
        return dict(self.coeffs).get(j, 0)

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for _, c in self.coeffs)

    def to_integer(self) -> "HauptmodulPoly":
        if not self.is_integral():
            raise ValueError(f"non-integral coefficients: {self.coeffs}")
        return HauptmodulPoly({j: int(c) for j, c in self.coeffs})

    def __add__(self, other: "HauptmodulPoly") -> "HauptmodulPoly":
        out = dict(self.coeffs)
        for j, c in other.coeffs:
            out[j] = out.get(j, 0) + c
        return HauptmodulPoly(out)

    def __sub__(self, other: "HauptmodulPoly") -> "HauptmodulPoly":
        out = dict(self.coeffs)
        for j, c in other.coeffs:
            out[j] = out.get(j, 0) - c
        return HauptmodulPoly(out)

    def __mul__(self, other):
        if isinstance(other, HauptmodulPoly):
            out: dict = {}
            for i, a in self.coeffs:
                for j, b in other.coeffs:
                    out[i + j] = out.get(i + j, 0) + a * b
            return HauptmodulPoly(out)
        return HauptmodulPoly({j: c * other for j, c in self.coeffs})

    __rmul__ = __mul__

    def scale(self, factor: Fraction) -> "HauptmodulPoly":
        return HauptmodulPoly({j: c * factor for j, c in self.coeffs})

    def evaluate(self, order: int) -> IntLaurentSeries:
        """Expand sum c_j G^j as a q-series exact below q^order."""
        total = IntLaurentSeries.zero(order)
        for j, c in self.coeffs:
            total = total + _haupt_power(j, order) * c
        return total


# G^j for a contiguous run of j around 0, all from G at one truncation
# (the trunc of G^1); grown by _haupt_power, never handed out
_haupt_table: dict[int, IntLaurentSeries] = {}


def _haupt_power(j: int, order: int) -> IntLaurentSeries:
    """G^j exact below q^order, truncated to order (j may be negative).

    Built from G at truncation b, G^j (j >= 1) is exact below q^(b+j-1)
    and G^-j below q^(b-j-1), so b = order + 1 + max(0, -j) serves the
    request.  A table at a smaller b is rebuilt at that b; otherwise missing
    powers are added by one product each, stepping outward from the nearest
    one present.
    """
    table = _haupt_table
    base = order + 1 + max(0, -j)
    if not table or table[1].trunc < base:
        table.clear()
        table[0] = IntLaurentSeries.one(base)
        table[1] = hauptmodul(base)
    if j not in table:
        step = 1 if j > 0 else -1
        if step not in table:
            table[-1] = table[1].reciprocal()
        k = max(table) if j > 0 else min(table)
        while k != j:
            table[k + step] = table[k] * table[step]
            k += step
    return table[j].truncate(order)


def reduce_to_hauptmodul(x: IntLaurentSeries, jmin: int, jmax: int,
                         exact: bool = True) -> HauptmodulPoly:
    """Write x as sum_{jmin <= j <= jmax} c_j G^j by eliminating from the
    lowest exponent upward (G^j = q^j + ..., so the system is triangular).

    With ``exact`` the residual must vanish identically to x's truncation;
    otherwise only the prefix up to min(jmax, trunc - 1) is extracted, which
    is still exact for those coefficients.
    """
    val = x.valuation()
    if val is not None and val < jmin:
        raise NotHauptmodulPolynomialError(
            f"series has exponent {val} below the window start {jmin}")
    top = min(jmax, x.trunc - 1)
    if exact and top < jmax:
        raise NotHauptmodulPolynomialError(
            f"truncation {x.trunc} cannot close a degree-{jmax} reduction")
    if not exact:
        x = x.truncate(top + 1)  # nothing past q^top is read
    residual = x
    coeffs = {}
    for j in range(jmin, top + 1):
        c = residual.coeff(j)
        if c:
            coeffs[j] = c
            residual = residual - _haupt_power(j, x.trunc) * c
    if exact and residual.valuation() is not None:
        raise NotHauptmodulPolynomialError(
            f"nonzero residual starting at q^{residual.valuation()}: not a "
            f"hauptmodul polynomial on [{jmin}, {jmax}] (or truncation "
            "too small)")
    return HauptmodulPoly(coeffs)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

# row i -> {column j: entry}; read-only, since the builders below are cached
Rows = Mapping[int, Mapping[int, int]]


def _frozen(rows: dict[int, dict[int, int]]) -> Rows:
    return MappingProxyType({i: MappingProxyType(row)
                             for i, row in rows.items()})


@lru_cache(maxsize=None)
def _transfer_rows(pre: EtaQuotientSpec, imax: int, jmax: int | None) -> Rows:
    """Row i, 1 <= i <= imax: (pre * G^i) | U_5 = sum_j c_ij G^j, where the
    eta quotient pre = q^v + O(q^(v+1)) is 1 (v = 0) or the multiplier
    (v = 1).  No row has a constant term; that is verified.

    With jmax None each row has its full width 5i+v and is certified by a
    zero residual at order 5*imax+10+v.  With a column window jmax only
    columns <= jmax are read off the prefix below q^(jmax+4), and rows with
    i+v > 5*jmax are empty: (pre * G^i)|U_5 starts at q^ceil((i+v)/5).
    """
    v = pre.prefactor_exponent
    order = 5 * imax + 10 + v if jmax is None else jmax + 4
    t = 5 * order + 1
    g = hauptmodul(t)
    cur = eta_quotient(pre, t)
    rows = {}
    for i in range(1, imax + 1):
        cur = cur * g
        if jmax is not None and i + v > 5 * jmax:
            rows[i] = {}
            continue
        poly = reduce_to_hauptmodul(
            apply_U(5, cur).truncate(order), 0,
            5 * i + v if jmax is None else jmax, exact=jmax is None)
        if poly[0]:
            raise NotHauptmodulPolynomialError(
                f"(pre * G^{i})|U_5 with pre = q^{v} + ... has constant "
                f"term {poly[0]}; expected none")
        rows[i] = poly.as_dict()
    return _frozen(rows)


def u_matrix_rows(imax: int) -> Rows:
    """A: row i is G^i | U_5, full width 5i (the empty eta quotient is 1)."""
    return _transfer_rows(EtaQuotientSpec(()), imax, None)


def v_matrix_rows(imax: int) -> Rows:
    """B: row i is (multiplier * G^i) | U_5, full width 5i+1."""
    return _transfer_rows(LADDER_MULTIPLIER_SPEC, imax, None)


def _vec_mat(vec: dict[int, int], rows: Rows) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, vi in vec.items():
        if not vi:
            continue
        row = rows[i]
        for j, rij in row.items():
            out[j] = out.get(j, 0) + vi * rij
    return {j: c for j, c in out.items() if c}


# ---------------------------------------------------------------------------
# Newton's identities for the quotient phi
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def newton_sigma_polys() -> tuple[HauptmodulPoly, ...]:
    """Elementary symmetric polynomials sigma_1..sigma_5 (in G) of the five
    functions phi((tau + lam)/5), recovered from the power sums
    p_mu = 5 * (phi^mu | U_5) via Newton's identities.

    Validated by checking that the degree-5 recurrence they define,

        phi^mu|U_5 = sigma_1 phi^(mu-1)|U_5 - sigma_2 phi^(mu-2)|U_5 + ...
                     + sigma_5 phi^(mu-5)|U_5,

    reproduces directly computed series at mu = 5, 6, 7, -5 and -6.
    """
    power_sums = {}
    for mu in range(1, 6):
        poly = reduce_to_hauptmodul(newton_power_u5(mu, NEWTON_ORDER), 0,
                                    3 * mu)
        power_sums[mu] = poly * 5
    elementary: list[HauptmodulPoly] = [HauptmodulPoly({0: 1})]
    for k in range(1, 6):
        acc = HauptmodulPoly({})
        for i in range(1, k + 1):
            term = elementary[k - i] * power_sums[i]
            acc = acc + term if i % 2 else acc - term
        sigma = acc.scale(Fraction(1, k)).to_integer()
        elementary.append(sigma)
    sigmas = tuple(elementary[1:])

    for mu in (5, 6, 7, -5, -6):
        lhs = newton_power_u5(mu, NEWTON_ORDER)
        rhs = IntLaurentSeries.zero(NEWTON_ORDER)
        for i, sigma in enumerate(sigmas, start=1):
            term = (sigma.evaluate(NEWTON_ORDER)
                    * newton_power_u5(mu - i, NEWTON_ORDER))
            rhs = rhs + (term if i % 2 else -term)
        check_to = min(lhs.trunc, rhs.trunc)
        if not lhs.eq_to_order(rhs, check_to):
            raise AssertionError(
                f"Newton recurrence failed to reproduce phi^{mu}|U_5")
    return sigmas


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderState:
    """One rung: its series, and its hauptmodul-polynomial prefix."""

    nu: int
    series: IntLaurentSeries
    gpoly: HauptmodulPoly


def required_multiplier_trunc(alpha_max: int, top_trunc: int) -> int:
    """Multiplier truncation needed so L_(2*alpha_max+1) is exact below
    q^top_trunc, walking the recursion backward."""
    need = top_trunc
    f_need = 1
    for a in range(alpha_max, -1, -1):
        prod_t = 5 * (need - 1) + 1
        if a == 0:
            f_need = max(f_need, prod_t)
        else:
            f_need = max(f_need, prod_t - 1)
            need = 5 * (prod_t - 2) + 1
    return f_need


@lru_cache(maxsize=None)
def ladder(alpha_max: int) -> tuple[LadderState, ...]:
    """Rungs L_0 .. L_(2*alpha_max+1) by series recursion, cross-checked
    against the matrix vector forms on the first JMAX coefficients."""
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    f_trunc = required_multiplier_trunc(alpha_max, JMAX + 1)
    if f_trunc > COEFFICIENT_CEILING:
        raise BudgetExceededError(
            f"ladder depth alpha={alpha_max} needs {f_trunc} multiplier "
            f"coefficients, above the ceiling {COEFFICIENT_CEILING}")
    mult = ladder_multiplier(f_trunc)
    states = [LadderState(0, IntLaurentSeries.one(f_trunc),
                          HauptmodulPoly({0: 1}))]
    cur = states[0].series
    for a in range(alpha_max + 1):
        odd = apply_U(5, mult * cur)
        states.append(LadderState(2 * a + 1, odd, _rung_poly(odd)))
        if a < alpha_max:
            even = apply_U(5, odd)
            states.append(LadderState(2 * a + 2, even,
                                      _rung_poly(even)))
            cur = even

    _check_matrix_agreement(states, alpha_max)
    return tuple(states)


def _rung_poly(series: IntLaurentSeries) -> HauptmodulPoly:
    poly = reduce_to_hauptmodul(series, 0, min(JMAX, series.trunc - 1),
                                exact=False)
    if poly[0]:
        raise NotHauptmodulPolynomialError(
            f"ladder rung has constant term {poly[0]}; expected none")
    return poly


def ladder_vectors(alpha_max: int) -> dict[int, dict[int, int]]:
    """Matrix-route rungs: nu -> {j: l_j(nu)}, exact for j <= JMAX.

    Every step except the last is taken with fully certified matrix rows;
    the final step reads only columns <= JMAX of B, to which rows beyond
    5*JMAX provably contribute nothing.
    """
    vec = {1: 5}
    vectors = {1: dict(vec)}
    for a in range(alpha_max):
        vec = _vec_mat(vec, u_matrix_rows(max(vec)))
        vectors[2 * a + 2] = dict(vec)
        if a == alpha_max - 1:
            b_rows = _transfer_rows(LADDER_MULTIPLIER_SPEC, max(vec), JMAX)
        else:
            b_rows = v_matrix_rows(max(vec))
        vec = _vec_mat(vec, b_rows)
        vectors[2 * a + 3] = dict(vec)
    return vectors


def _check_matrix_agreement(states: list[LadderState],
                            alpha_max: int) -> None:
    if alpha_max < 1:
        return
    vectors = ladder_vectors(alpha_max)
    for state in states:
        if state.nu == 0:
            continue
        want = vectors.get(state.nu)
        if want is None:
            continue
        got = state.gpoly.as_dict()
        top = min(JMAX, state.series.trunc - 1)
        for j in range(1, top + 1):
            if got.get(j, 0) != want.get(j, 0):
                raise LadderConsistencyError(
                    f"rung {state.nu}, G^{j}: series gives {got.get(j, 0)}, "
                    f"matrices give {want.get(j, 0)}")


def five_adic(n: int) -> int:
    """5-adic valuation; raises on 0 (its valuation is infinite)."""
    if n == 0:
        raise ValueError("the 5-adic valuation of 0 is infinite")
    v = 0
    while n % 5 == 0:
        n //= 5
        v += 1
    return v


def ladder_subsequence_check(alpha: int, terms: int) -> bool:
    """Verify, coefficientwise below q^terms, that

        L_(2a+1) = (q^10;q^10)^2/(q^5;q^5)^3
                   * sum_{n>=1} c(5^(2a+1) n - 1 - 5^2 - ... - 5^(2a)) q^n

    where c(m) is the crank-parity coefficient."""
    if alpha < 0 or terms < 2:
        raise ValueError("need alpha >= 0 and terms >= 2")
    step = 5 ** (2 * alpha + 1)
    delta = sum(5 ** (2 * i) for i in range(alpha + 1))
    g_need = step * (terms - 1) - delta + 1
    f_need = required_multiplier_trunc(alpha, terms)
    if max(g_need, f_need) > COEFFICIENT_CEILING:
        raise BudgetExceededError(
            f"subsequence check alpha={alpha}, terms={terms} needs "
            f"{max(g_need, f_need)} coefficients, above ceiling "
            f"{COEFFICIENT_CEILING}")

    mult = ladder_multiplier(f_need)
    cur = IntLaurentSeries.one(f_need)
    rung = None
    for _ in range(alpha + 1):
        rung = apply_U(5, mult * cur)
        cur = apply_U(5, rung)

    g = cranks.crank_parity_series(g_need)
    sub = IntLaurentSeries.from_terms(
        {n: g.coeff(step * n - delta) for n in range(1, terms)}, terms)
    rhs = pentagonal_quotient(((10, 2), (5, -3)), terms) * sub
    order = min(terms, rung.trunc, rhs.trunc)
    return rung.eq_to_order(rhs, order)
