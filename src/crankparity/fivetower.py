"""The 5-adic tower: eta quotients, hauptmodul polynomials, and the ladder.

Two weight-0 eta quotients drive the congruence family modulo powers of 5:

    multiplier   eta(t)^3 eta(50t)^2 / (eta(2t)^2 eta(25t)^3)    on level 50
    hauptmodul   eta(t)^2 eta(10t)^4 / (eta(2t)^4 eta(5t)^2)     on level 10

The keystone identity is  multiplier | U_5 == 5 * hauptmodul.  Every series
in the tower reduces to a Laurent polynomial in the hauptmodul G = q + ...
(found by triangular elimination from the lowest exponent up, with the
residual required to vanish identically to the working truncation), which
turns U_5 and P |-> (multiplier * P)|U_5 into integer matrices A and B on
the basis G, G^2, G^3, ...  A polynomial sum_j c_j G^j is a read-only
mapping {j: c_j} of its nonzero coefficients in increasing j, and a
transfer matrix a read-only mapping {i: row i}; ``evaluate`` expands a
polynomial back into a q-series.

Only rows 0..6 of A and B are reduced from q-series.  The five values
G((tau + lam)/5) are the roots of the degree-5 modular equation

    X^5 - sigma_1 X^4 + sigma_2 X^3 - sigma_3 X^2 + sigma_4 X - sigma_5 = 0,

    sigma_1 = 55G - 300G^2 + 875G^3 - 1250G^4 + 625G^5,
    sigma_2 = 60G - 175G^2 + 250G^3 - 125G^4,
    sigma_3 = 35G - 50G^2 + 25G^3,   sigma_4 = 10G - 5G^2,   sigma_5 = G,

the constants ``SIGMAS``, so every later row of either matrix is
sigma_1 row_(i-1) - sigma_2 row_(i-2) + ... + sigma_5 row_(i-5).  Rows 5
and 6 are rebuilt that way from the series rows and must match.  Over
sigmas with no term below G^1 and degree <= 5, the coefficient equations
of rows 5 and 6 of A, and those of B, each have one solution, so every
build of either matrix certifies the constants against the series.

The ladder

    L_0 = 1,   L_{2a+1} = (multiplier * L_{2a}) | U_5,   L_{2a+2} = L_{2a+1} | U_5

is ``ladder``'s one read-only rung map {nu: {j: c_j}}, j <= JMAX: each rung
is the vector form  (5,0,0,...) (AB)^a  /  (5,0,0,...) (AB)^a A  of
``ladder_vectors``, and must match, on every G^1..G^JMAX, the crank side of
Claim L, R_nu = P_d * sum_{n>=1} c(5^nu n - delta) q^n read off in G, before
it is returned.  Every index 5^nu n - delta is 4 mod 5, so the crank side
reads c off the 5n+4 eta quotient E = sum_m c(5m+4) q^m
(``cranks.eta_5n4_series``), five times shorter than the crank series.
``ladder_vectors`` reads each step's rows only on the columns the steps
above it need, windows taken backward from the top rung's G^JMAX, so each
rung is exact on its own window, at least G^1..G^JMAX.  E takes no part in
the matrix route, nor any of the Jacobi cube passes the multiplier and G
are built with, so every rung is checked against a series that route does
not use.  The 5-adic valuations of the matrix entries and ladder entries
are what the congruence family rests on, and are exported for direct
verification.
``ladder_subsequence_check`` compares the top rung with R_(2a+1) below
q^terms and returns None, or ``(exponent, lhs, rhs)`` at the first
disagreement.

Each check refuses to start, before anything is built, if E would need
more coefficients than ``COEFFICIENT_CEILING``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import cranks
from .series import (
    EtaQuotientSpec,
    IntLaurentSeries,
    apply_U,
    eta_quotient,
    memoised,
    pentagonal_quotient,
)


class NotHauptmodulPolynomialError(ArithmeticError):
    """Triangular elimination left a nonzero residual: the series is not a
    hauptmodul polynomial in the requested degree window (or the truncation
    was too small to close the reduction)."""


class LadderConsistencyError(AssertionError):
    """Two routes to the same ladder data disagree: the crank side of
    Claim L and the matrix product, or a series row and the modular
    equation."""


class BudgetExceededError(RuntimeError):
    """The requested depth needs more series coefficients than allowed."""


LADDER_MULTIPLIER_SPEC = EtaQuotientSpec(((1, 3), (2, -2), (50, 2), (25, -3)))
HAUPTMODUL_SPEC = EtaQuotientSpec(((1, 2), (2, -4), (10, 4), (5, -2)))

# coefficients of E: alpha = 2 needs 24,245 (claimL at 40 terms), the
# ladder at alpha = 3 needs 168,620, a build of half a minute or more:
# refuse it at once
COEFFICIENT_CEILING = 4 * 10 ** 4
JMAX = 11          # ladder rungs are read off and cross-checked on G^1..G^JMAX


@memoised("multiplier")
def ladder_multiplier(trunc: int) -> IntLaurentSeries:
    """The level-50 quotient multiplying odd ladder steps; q + O(q^2)."""
    return eta_quotient(LADDER_MULTIPLIER_SPEC, trunc)


@memoised("hauptmodul")
def hauptmodul(trunc: int) -> IntLaurentSeries:
    """The level-10 hauptmodul G; q + O(q^2)."""
    return eta_quotient(HAUPTMODUL_SPEC, trunc)


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
    request.  A table at a smaller b is replaced by one at that b, once G
    at that b is built; otherwise missing powers are added by one product
    each, stepping outward from the nearest one present.
    """
    table = _haupt_table
    base = order + 1 + max(0, -j)
    if not table or table[1].trunc < base:
        fresh = {0: IntLaurentSeries.one(base), 1: hauptmodul(base)}
        table.clear()
        table.update(fresh)
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


def reduce_to_hauptmodul(x: IntLaurentSeries, jmin: int,
                         jmax: int) -> Mapping[int, int]:
    """Write x as sum_{jmin <= j <= jmax} c_j G^j by eliminating from the
    lowest exponent upward (G^j = q^j + ..., so the system is triangular);
    returns the read-only {j: c_j} of the nonzero c_j, in increasing j.
    The residual must vanish identically to x's truncation.  A term below
    q^jmin is refused: with jmin = 1, a constant term, and so is a
    truncation at or below jmax.
    """
    val = x.valuation()
    if val is not None and val < jmin:
        raise NotHauptmodulPolynomialError(
            f"series has exponent {val} below the window start {jmin}")
    if x.trunc <= jmax:
        raise NotHauptmodulPolynomialError(
            f"truncation {x.trunc} cannot close a degree-{jmax} reduction")
    residual = x
    coeffs = {}
    for j in range(jmin, jmax + 1):
        c = residual.coeff(j)
        if c:
            coeffs[j] = c
            residual = residual - _haupt_power(j, x.trunc) * c
    if residual.valuation() is not None:
        raise NotHauptmodulPolynomialError(
            f"nonzero residual starting at q^{residual.valuation()}: not a "
            f"hauptmodul polynomial on [{jmin}, {jmax}] (or truncation "
            "too small)")
    return MappingProxyType(coeffs)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

# row i -> {column j: entry}, read-only
Rows = Mapping[int, Mapping[int, int]]

SERIES_ROWS = 6  # rows 0..6 come from q-series, later ones from the quintic

# sigma_1 .. sigma_5 of the degree-5 modular equation of G, each {j: c} with
# terms at G^1 .. G^5 only; every _transfer_rows call certifies them
SIGMAS = tuple(MappingProxyType(sigma) for sigma in (
    {1: 55, 2: -300, 3: 875, 4: -1250, 5: 625},
    {1: 60, 2: -175, 3: 250, 4: -125},
    {1: 35, 2: -50, 3: 25},
    {1: 10, 2: -5},
    {1: 1}))


@lru_cache(maxsize=None)
def _series_rows(pre: EtaQuotientSpec) -> tuple[Mapping[int, int], ...]:
    """Rows 0..SERIES_ROWS of pre by the series route: (pre * G^i) | U_5 at
    its full width 5i+v, each certified by a zero residual at order
    5*SERIES_ROWS+11.  The eta quotient pre = q^v + O(q^(v+1)) is 1 (v = 0)
    or the multiplier (v = 1), so row 0 is {0: 1} or, by the keystone,
    {1: 5}.  No later row has a constant term: its window starts at G^1,
    and reduce_to_hauptmodul refuses a nonzero q^0 coefficient below it."""
    v = pre.prefactor_exponent
    order = 5 * SERIES_ROWS + 11
    t = 5 * order + 1
    g = hauptmodul(t)
    cur = eta_quotient(pre, t)
    rows = []
    for i in range(SERIES_ROWS + 1):
        if i:
            cur = cur * g
        rows.append(reduce_to_hauptmodul(apply_U(5, cur).truncate(order),
                                         min(i, 1), 5 * i + v))
    return tuple(rows)


def _modular_step(rows, i: int, jmax: int) -> dict[int, int]:
    """Row i from rows i-5 .. i-1 by the modular equation, cut at G^jmax:
    sigma_1 row_(i-1) - sigma_2 row_(i-2) + ... + sigma_5 row_(i-5), read
    from SIGMAS.  Each sigma starts at G^1, so columns <= jmax read only
    columns < jmax; each row is a {j: c} in increasing j."""
    out = [0] * (jmax + 1)
    for k, sigma in enumerate(SIGMAS, start=1):
        for a, s in sigma.items():
            s = s if k % 2 else -s
            for b, r in rows[i - k].items():
                if a + b > jmax:
                    break
                out[a + b] += s * r
    return {j: c for j, c in enumerate(out) if c}


def _routes_agree(where: str, series: Mapping[int, int],
                  other: Mapping[int, int], other_gives: str,
                  jmax: int) -> None:
    """Raise LadderConsistencyError at the first G^j, j <= jmax, where a
    polynomial from the series route differs from another route's."""
    for j in range(jmax + 1):
        if series.get(j, 0) != other.get(j, 0):
            raise LadderConsistencyError(
                f"{where}, G^{j}: series gives {series.get(j, 0)}, "
                f"{other_gives} {other.get(j, 0)}")


def _transfer_rows(pre: EtaQuotientSpec, imax: int, jmax: int) -> Rows:
    """Row i, 1 <= i <= imax: (pre * G^i) | U_5 = sum_j c_ij G^j, cut at
    the column window min(5i+v, jmax); 5i+v is the row's full width.

    Rows up to SERIES_ROWS come from _series_rows; each later row is the
    modular equation's combination of the five before it (_modular_step),
    the same for both prefactors since sum_lam pre((tau+lam)/5) X_lam^i
    obeys the quintic's recurrence in i.  Rows 5..SERIES_ROWS are rebuilt
    that way from the series rows before them and must match, on every
    call.  That checks the recurrence against the series and certifies
    SIGMAS: for either prefactor, rows 5 and 6 leave them no other solution
    of degree <= 5 without a constant term.  A window is exact because no
    sigma has a term below G^1.
    """
    v = pre.prefactor_exponent
    rows = list(_series_rows(pre))
    for i in range(5, SERIES_ROWS + 1):
        _routes_agree(f"prefactor {pre.factors or 1}, row {i}", rows[i],
                      _modular_step(rows, i, 5 * i + v),
                      "modular equation gives", 5 * i + v)
    rows = [{j: c for j, c in row.items() if j <= jmax} for row in rows]
    for i in range(len(rows), imax + 1):
        rows.append(_modular_step(rows, i, min(5 * i + v, jmax)))
    return MappingProxyType({i: MappingProxyType(rows[i])
                             for i in range(1, imax + 1)})


def u_matrix_rows(imax: int) -> Rows:
    """A: row i is G^i | U_5, full width 5i (the empty eta quotient is 1);
    rows past SERIES_ROWS come from the modular equation of G."""
    return _transfer_rows(EtaQuotientSpec(()), imax, 5 * imax)


def v_matrix_rows(imax: int) -> Rows:
    """B: row i is (multiplier * G^i) | U_5, full width 5i+1; rows past
    SERIES_ROWS come from the modular equation of G."""
    return _transfer_rows(LADDER_MULTIPLIER_SPEC, imax, 5 * imax + 1)


def _vec_mat(vec: dict[int, int], rows: Rows) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, vi in vec.items():
        for j, rij in rows[i].items():
            out[j] = out.get(j, 0) + vi * rij
    return {j: c for j, c in out.items() if c}


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

def _crank_side(nu: int, terms: int) -> IntLaurentSeries:
    """R_nu = P_d * sum_{n>=1} c(5^nu n - delta) q^n below q^terms, where c
    is the crank-parity coefficient, a = (nu-1)//2, delta = 1 + 5^2 + ...
    + 5^(2a), and P_d = (q^2d;q^2d)^2/(q^d;q^d)^3 with d = 5 for odd nu and
    d = 1 for even nu (U_5 of the odd identity, P_5 being a series in q^5).
    For nu >= 1 every index 5^nu n - delta is 4 mod 5, so c is read off the
    5n+4 eta quotient E = sum_m c(5m+4) q^m at (5^nu n - delta - 4)/5; an E
    longer than COEFFICIENT_CEILING is refused first."""
    step = 5 ** nu
    delta = sum(5 ** (2 * i) for i in range((nu - 1) // 2 + 1))
    need = (step * (terms - 1) - delta + 1) // 5
    if need > COEFFICIENT_CEILING:
        raise BudgetExceededError(
            f"Claim L at rung {nu} below q^{terms} needs {need} coefficients "
            f"of the 5n+4 eta quotient E, above the ceiling "
            f"{COEFFICIENT_CEILING}")
    e = cranks.eta_5n4_series(need)
    sub = IntLaurentSeries.from_terms(
        {n: e.coeff((step * n - delta - 4) // 5) for n in range(1, terms)},
        terms)
    d = 5 if nu % 2 else 1
    # (d, -1), (d, -2) are Euler passes, as E's are: a cube pass here would
    # share Jacobi's terms with the multiplier and G on the matrix side
    return pentagonal_quotient(((2 * d, 2), (d, -1), (d, -2)), terms) * sub


def ladder(alpha_max: int) -> Mapping[int, Mapping[int, int]]:
    """Rungs L_0 .. L_(2*alpha_max+1) as the read-only map {nu: {j: c_j}},
    L_0 = {0: 1}; every other rung is read off the crank side R_nu on
    G^1..G^JMAX and compared there with ladder_vectors before it is
    returned."""
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    # the top rung first: its E is the longest, refused or built once, and
    # the lower rungs read it truncated
    sides = {nu: _crank_side(nu, JMAX + 1)
             for nu in range(2 * alpha_max + 1, 0, -1)}
    vectors = ladder_vectors(alpha_max, JMAX)
    rungs = {0: MappingProxyType({0: 1})}
    for nu in range(1, 2 * alpha_max + 2):
        got = reduce_to_hauptmodul(sides[nu], 1, JMAX)
        _routes_agree(f"rung {nu}", got, vectors[nu], "matrices give", JMAX)
        rungs[nu] = got
    return MappingProxyType(rungs)


def ladder_vectors(alpha_max: int, jmax: int) -> dict[int, dict[int, int]]:
    """Matrix-route rungs: nu -> {j: l_j(nu)}, the vector forms
    (5,0,0,...) (AB)^a  /  (5,0,0,...) (AB)^a A.

    Every step reads a column window taken backward from the top rung's
    jmax: a step by rows (pre * G^i) | U_5 with pre = q^v + ..., v = 0 for
    A and 1 for B, that reads columns <= w needs the rung before it only
    on columns <= 5w - v, because row i starts at G^ceil((i+v)/5).  So the
    top rung is exact on G^1..G^jmax, and each lower rung on its own
    window, which is at least jmax.
    """
    top = 2 * alpha_max + 1
    windows = [jmax]  # the windows of rungs top, top-1, ..., 2
    for nu in range(top, 2, -1):
        windows.append(5 * windows[-1] - nu % 2)
    vec = {1: 5}
    vectors = {1: vec}
    for nu, w in zip(range(2, top + 1), reversed(windows)):
        pre = LADDER_MULTIPLIER_SPEC if nu % 2 else EtaQuotientSpec(())
        vec = _vec_mat(vec, _transfer_rows(pre, max(vec), w))
        vectors[nu] = vec
    return vectors


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

    where c(m) is the crank-parity coefficient: the left side is the matrix
    rung, cut below G^terms and expanded, the right side _crank_side."""
    if alpha < 0 or terms < 2:
        raise ValueError("need alpha >= 0 and terms >= 2")
    nu = 2 * alpha + 1
    rhs = _crank_side(nu, terms)
    rung = ladder_vectors(alpha, terms - 1)[nu]
    return evaluate(rung, terms).first_mismatch(rhs, terms)
