"""Exact q-series for the crank and rank parity generating functions.

The central object is the crank-parity series

    sum_n (M_e(n) - M_o(n)) q^n  =  (q;q)_inf / (-q;q)_inf^2
                                 =  (q;q)_inf (q;q^2)_inf^2,

where M_e / M_o count partitions with even / odd crank.  It is computed by
two independent routes (binomial Euler products vs pentagonal-number series)
which are required to agree.  On top of it sit the verification sweeps:

  * the congruence family  M_e(n) - M_o(n) == 0 mod 5^(a+1)  whenever
    24n == 1 mod 5^(2a+1),
  * the closed form of the 5n+4 coefficient subsequence,
  * the rewriting of the crank generating function at x = -1 as
    1/(q;q)_inf + 4 * sum_n (-1)^n q^(n(n+1)/2) / [...], whose summands
    mirror the initial-run weights, and its companion identity.

The rank analogue  sum_n (N_e(n) - N_o(n)) q^n  =  sum_n q^(n^2)/(-q;q)_n^2
(a third-order mock theta function) is cross-computed against Watson's
expansion 1/(q;q)_inf (1 + 4 sum_k (-1)^k q^(k(3k+1)/2) / (1+q^k)).

Infinite sums are truncated by lowest-exponent analysis (the exponents grow
triangularly or pentagonally), never by a fixed summand count, so every
reported coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .series import (
    IntLaurentSeries,
    TruncationError,
    euler_factor,
    memo,
    pentagonal_product,
)


def _binomial(exponent: int, coeff: int, trunc: int) -> IntLaurentSeries:
    """1 + coeff * q^exponent, collapsing to 1 when the term lies at or
    beyond the truncation window."""
    terms = {0: 1}
    if exponent < trunc:
        terms[exponent] = coeff
    return IntLaurentSeries.from_terms(terms, trunc)


def partition_series(trunc: int) -> IntLaurentSeries:
    """1/(q;q)_inf, the partition generating function."""
    return memo("partition", trunc,
                lambda t: pentagonal_product(1, t).reciprocal())


def crank_parity_series(trunc: int) -> IntLaurentSeries:
    """(q;q)_inf (q;q^2)_inf^2, computed two ways and cross-checked.

    Route one multiplies truncated binomial products; route two uses
    (q;q)_inf^3 / (q^2;q^2)_inf^2 built from pentagonal-number series.
    Any disagreement raises.
    """
    def build(t: int) -> IntLaurentSeries:
        by_products = euler_factor(1, 1, t) * euler_factor(1, 2, t) ** 2
        by_pentagonal = (pentagonal_product(1, t) ** 3
                         / pentagonal_product(2, t) ** 2)
        if not by_products.eq_to_order(by_pentagonal, t):
            raise AssertionError(
                "crank-parity series routes disagree; series arithmetic "
                "is broken")
        return by_products

    return memo("crank_parity", trunc, build)


def rank_parity_series(trunc: int) -> IntLaurentSeries:
    """sum_n q^(n^2)/(-q;q)_n^2, cross-checked against Watson's form."""
    def build(t: int) -> IntLaurentSeries:
        total = IntLaurentSeries.zero(t)
        denom_inv = IntLaurentSeries.one(t)  # 1/(-q;q)_n^2, running
        n = 0
        while n * n < t:
            if n:
                step = _binomial(n, 1, t)
                denom_inv = denom_inv / step / step
            total = total + denom_inv.shift(n * n).truncate(t)
            n += 1

        pent = pentagonal_product(1, t)
        inner = IntLaurentSeries.one(t)
        k = 1
        while k * (3 * k + 1) // 2 < t:
            sign = -1 if k % 2 else 1
            term = IntLaurentSeries.monomial(k * (3 * k + 1) // 2, 4 * sign, t)
            inner = inner + term / _binomial(k, 1, t)
            k += 1
        watson = inner / pent
        if not total.eq_to_order(watson, t):
            raise AssertionError(
                "rank-parity series disagrees with Watson's expansion")
        return total

    return memo("rank_parity", trunc, build)


# ---------------------------------------------------------------------------
# congruence family
# ---------------------------------------------------------------------------

@dataclass
class CongruenceReport:
    """Outcome of one congruence sweep: which n were tested against which
    modulus, and which failed (expected none)."""

    alpha: int
    modulus: int
    tested_n: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "modulus": self.modulus,
            "count": len(self.tested_n),
            "failures": list(self.failures),
        }


def qualifying_residue(alpha: int) -> tuple[int, int]:
    """(residue, modulus) with 24n == 1 mod 5^(2a+1) iff n == residue."""
    mod = 5 ** (2 * alpha + 1)
    return pow(24, -1, mod), mod


def verify_family_congruence(alpha: int, n_max: int,
                             series: IntLaurentSeries | None = None
                             ) -> CongruenceReport:
    """Check 5^(alpha+1) divides the crank-parity coefficient at every
    n <= n_max with 24n == 1 mod 5^(2*alpha+1)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if series is None:
        series = crank_parity_series(n_max + 1)
    if series.trunc <= n_max:
        raise TruncationError(
            f"congruence sweep to {n_max} needs trunc >= {n_max + 1}, "
            f"have {series.trunc}")
    residue, step = qualifying_residue(alpha)
    modulus = 5 ** (alpha + 1)
    report = CongruenceReport(alpha=alpha, modulus=modulus)
    for n in range(residue, n_max + 1, step):
        report.tested_n.append(n)
        if series.coeff(n) % modulus:
            report.failures.append(n)
    return report


# ---------------------------------------------------------------------------
# the 5n+4 subsequence and the two expansion identities
# ---------------------------------------------------------------------------

def subsequence_5n4_series(terms: int) -> IntLaurentSeries:
    """sum_n (M_e(5n+4) - M_o(5n+4)) q^n, extracted from the full series."""
    g = crank_parity_series(5 * terms + 5)
    return g.extract(5, 4)


def subsequence_5n4_check(terms: int) -> bool:
    """Verify the 5n+4 subsequence equals
    5 (q;q^2)^2 (q^5;q^5) (q^10;q^10)^2 / (q^2;q^2)^2  up to q^terms."""
    lhs = subsequence_5n4_series(terms)
    t = terms
    rhs = (euler_factor(1, 2, t) ** 2
           * pentagonal_product(5, t)
           * pentagonal_product(10, t) ** 2
           / pentagonal_product(2, t) ** 2) * 5
    return lhs.eq_to_order(rhs, terms)


def chan_expansion_check(terms: int) -> bool:
    """Verify the x = -1 crank expansion

        g = 1/(q;q)_inf
            + 4 sum_{n>=1} (-1)^n q^(n(n+1)/2)
              / [ (q;q)_{n-1} (1 - q^{2n}) (q^{n+1};q)_inf ]

    as exact series up to q^terms.  The n-th summand starts at q^(n(n+1)/2),
    so only triangularly many summands contribute.
    """
    t = terms
    g = crank_parity_series(t)
    pent = pentagonal_product(1, t)
    total = pent.reciprocal()
    tail_inv = pent.reciprocal()          # 1/(q^(n+1);q)_inf, running
    front = IntLaurentSeries.one(t)       # (q;q)_(n-1), running
    n = 1
    while n * (n + 1) // 2 < t:
        tail_inv = tail_inv * _binomial(n, -1, t)
        if n >= 2:
            front = front * _binomial(n - 1, -1, t)
        sign = -4 if n % 2 else 4
        numer = IntLaurentSeries.monomial(n * (n + 1) // 2, sign, t)
        total = total + numer / front / _binomial(2 * n, -1, t) * tail_inv
        n += 1
    return total.eq_to_order(g, terms)


def run_weight_expansion(terms: int) -> IntLaurentSeries:
    """sum_{n>=0} (-1)^n q^(n(n+1)/2) (1 - q^(n+1))
       / [ (q;q)_n (1 + q^(n+1)) (q^(n+2);q)_inf ],
    the expansion whose summands encode the signed run weight."""
    t = terms
    pent = pentagonal_product(1, t)
    # 1/(q^(n+2);q)_inf for n = 0
    tail_inv = pent.reciprocal() * _binomial(1, -1, t)
    front = IntLaurentSeries.one(t)       # (q;q)_n, running
    total = IntLaurentSeries.zero(t)
    n = 0
    while n * (n + 1) // 2 < t:
        if n:
            front = front * _binomial(n, -1, t)
            tail_inv = tail_inv * _binomial(n + 1, -1, t)
        sign = -1 if n % 2 else 1
        tri = n * (n + 1) // 2
        numer_terms = {tri: sign}
        if tri + n + 1 < t:
            numer_terms[tri + n + 1] = -sign
        numer = IntLaurentSeries.from_terms(numer_terms, t)
        total = total + (numer / front / _binomial(n + 1, 1, t)
                         * tail_inv)
        n += 1
    return total


def run_weight_identity_check(terms: int) -> bool:
    """The signed run-weight expansion equals the crank-parity series."""
    return run_weight_expansion(terms).eq_to_order(
        crank_parity_series(terms), terms)
