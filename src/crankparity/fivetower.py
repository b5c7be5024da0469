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
the basis G, G^2, G^3, ...  A polynomial sum_j c_j G^j is a read-only
mapping {j: c_j} of its nonzero coefficients in increasing j, and a
transfer matrix a read-only mapping {i: row i}; ``evaluate`` expands a
polynomial back into a q-series.

The ladder

    L_0 = 1,   L_{2a+1} = (multiplier * L_{2a}) | U_5,   L_{2a+2} = L_{2a+1} | U_5

is computed both by series recursion and by the vector forms
(5,0,0,...) (AB)^a  /  (5,0,0,...) (AB)^a A, and the two must agree.  The
5-adic valuations of the matrix entries and ladder entries are what the
congruence family rests on, and are exported for direct verification.
``ladder_subsequence_check`` compares a rung with the crank-parity
subsequence it encodes (Claim L) and returns None, or ``(exponent, lhs,
rhs)`` at the first disagreement.

Truncations are budgeted backward from the requested ladder depth and
refuse to start if the multiplier series would exceed a coefficient ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

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


def evaluate(poly: Mapping[int, int], order: int) -> IntLaurentSeries:
    """Expand sum c_j G^j, given as {j: c_j}, as a q-series exact below
    q^order."""
    total = IntLaurentSeries.zero(order)
    for j, c in poly.items():
        total = total + _haupt_power(j, order) * c
    return total


def reduce_to_hauptmodul(x: IntLaurentSeries, jmin: int, jmax: int,
                         exact: bool = True) -> Mapping[int, int]:
    """Write x as sum_{jmin <= j <= jmax} c_j G^j by eliminating from the
    lowest exponent upward (G^j = q^j + ..., so the system is triangular);
    returns the read-only {j: c_j} of the nonzero c_j, in increasing j.
    A term below q^jmin is refused: with jmin = 1, a constant term.

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
    return MappingProxyType(coeffs)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

# row i -> {column j: entry}; read-only, since the builders below are cached
Rows = Mapping[int, Mapping[int, int]]


@lru_cache(maxsize=None)
def _transfer_rows(pre: EtaQuotientSpec, imax: int, jmax: int | None) -> Rows:
    """Row i, 1 <= i <= imax: (pre * G^i) | U_5 = sum_j c_ij G^j, where the
    eta quotient pre = q^v + O(q^(v+1)) is 1 (v = 0) or the multiplier
    (v = 1).  No row has a constant term: the window starts at G^1, and
    reduce_to_hauptmodul refuses a nonzero q^0 coefficient below it.

    With jmax None each row has its full width 5i+v and is certified by a
    zero residual at order 5*imax+11 for both prefactors, so A's rows and
    B's read one table of G powers.  With a column window jmax only
    columns <= jmax are read off the prefix below q^(jmax+4), and rows with
    i+v > 5*jmax are empty: (pre * G^i)|U_5 starts at q^ceil((i+v)/5).
    """
    v = pre.prefactor_exponent
    order = 5 * imax + 11 if jmax is None else jmax + 4
    t = 5 * order + 1
    g = hauptmodul(t)
    cur = eta_quotient(pre, t)
    rows = {}
    for i in range(1, imax + 1):
        cur = cur * g
        if jmax is not None and i + v > 5 * jmax:
            rows[i] = MappingProxyType({})
            continue
        rows[i] = reduce_to_hauptmodul(
            apply_U(5, cur).truncate(order), 1,
            5 * i + v if jmax is None else jmax,
            exact=jmax is None)
    return MappingProxyType(rows)


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
def newton_sigma_polys() -> tuple[Mapping[int, int], ...]:
    """Elementary symmetric polynomials sigma_1..sigma_5 (in G) of the five
    functions phi((tau + lam)/5), recovered from the power sums
    p_mu = 5 * (phi^mu | U_5) via Newton's identities on q-series,

        sigma_k = (sigma_(k-1) p_1 - sigma_(k-2) p_2 + ... +- p_k) / k,

    where a coefficient not divisible by k raises NonUnitDivisorError.  Each
    sigma_k is then reduced exactly to a polynomial of degree <= 3k in G.

    Validated by checking that the degree-5 recurrence they define,

        phi^mu|U_5 = sigma_1 phi^(mu-1)|U_5 - sigma_2 phi^(mu-2)|U_5 + ...
                     + sigma_5 phi^(mu-5)|U_5,

    reproduces directly computed series at mu = 5, 6, 7, -5 and -6.
    """
    power_sums = [newton_power_u5(mu, NEWTON_ORDER) * 5 for mu in range(1, 6)]
    elementary = [IntLaurentSeries.one(NEWTON_ORDER)]
    for k in range(1, 6):
        acc = IntLaurentSeries.zero(NEWTON_ORDER)
        for i in range(1, k + 1):
            term = elementary[k - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        elementary.append(acc / k)
    sigmas = tuple(reduce_to_hauptmodul(e, 0, 3 * k)
                   for k, e in enumerate(elementary[1:], start=1))

    for mu in (5, 6, 7, -5, -6):
        lhs = newton_power_u5(mu, NEWTON_ORDER)
        rhs = IntLaurentSeries.zero(NEWTON_ORDER)
        for i, sigma in enumerate(sigmas, start=1):
            term = (evaluate(sigma, NEWTON_ORDER)
                    * newton_power_u5(mu - i, NEWTON_ORDER))
            rhs = rhs + (term if i % 2 else -term)
        bad = lhs.first_mismatch(rhs, min(lhs.trunc, rhs.trunc))
        if bad is not None:
            e, direct, recurrence = bad
            raise AssertionError(
                f"Newton recurrence failed to reproduce phi^{mu}|U_5: first "
                f"at q^{e}: direct {direct}, recurrence {recurrence}")
    return sigmas


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderState:
    """One rung: its series, and its hauptmodul-polynomial prefix
    {j: c_j}, read-only."""

    nu: int
    series: IntLaurentSeries
    gpoly: Mapping[int, int]


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
    states = [LadderState(0, IntLaurentSeries.one(f_trunc),
                          MappingProxyType({0: 1}))]
    states += (LadderState(nu, rung,
                           reduce_to_hauptmodul(rung, 1, JMAX, exact=False))
               for nu, rung in _rungs(alpha_max, f_trunc))
    _check_matrix_agreement(states, alpha_max)
    return tuple(states)


def _rungs(alpha_max: int,
           trunc: int) -> Iterator[tuple[int, IntLaurentSeries]]:
    """(nu, L_nu) for nu = 1 .. 2*alpha_max+1, from the multiplier at
    trunc: odd rungs multiply by it before U_5, even rungs do not."""
    mult = ladder_multiplier(trunc)
    cur = IntLaurentSeries.one(trunc)
    for nu in range(1, 2 * alpha_max + 2):
        cur = apply_U(5, mult * cur if nu % 2 else cur)
        yield nu, cur


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
        got = state.gpoly
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


def ladder_subsequence_check(alpha: int,
                             terms: int) -> tuple[int, int, int] | None:
    """Compare, coefficientwise below q^terms, the two sides of

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

    *_, (_, rung) = _rungs(alpha, f_need)

    g = cranks.crank_parity_series(g_need)
    sub = IntLaurentSeries.from_terms(
        {n: g.coeff(step * n - delta) for n in range(1, terms)}, terms)
    rhs = pentagonal_quotient(((10, 2), (5, -3)), terms) * sub
    order = min(terms, rung.trunc, rhs.trunc)
    return rung.first_mismatch(rhs, order)
