"""Exact q-series for the crank and rank parity generating functions.

The central object is the crank-parity series

    sum_n (M_e(n) - M_o(n)) q^n  =  (q;q)_inf / (-q;q)_inf^2
                                 =  (q;q)_inf (q;q^2)_inf^2,

where M_e / M_o count partitions with even / odd crank.  It is computed by
two independent routes on disjoint kernels (in-place binomial passes vs
sparse pentagonal-number passes) which are required to agree.  On top of it
sit the verification sweeps:

  * the congruence family  M_e(n) - M_o(n) == 0 mod 5^(a+1)  whenever
    24n == 1 mod 5^(2a+1),
  * the closed form of the 5n+4 coefficient subsequence,
  * the rewriting of the crank generating function at x = -1 as
    1/(q;q)_inf + 4 * sum_n (-1)^n q^(n(n+1)/2) / [...], whose summands
    mirror the initial-run weights, and its companion identity.

The rank analogue  sum_n (N_e(n) - N_o(n)) q^n  =  sum_n q^(n^2)/(-q;q)_n^2
(a third-order mock theta function) is cross-computed against Watson's
expansion 1/(q;q)_inf (1 + 4 sum_k (-1)^k q^(k(3k+1)/2) / (1+q^k)).

Every infinite sum here goes through ``series.q_sum``, which stops at the
first summand whose lowest exponent reaches the truncation (the exponents
grow quadratically), never after a fixed summand count, so every reported
coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .series import (
    IntLaurentSeries,
    TruncationError,
    _apply_binomial,
    memo,
    pentagonal_quotient,
    q_sum,
)


def partition_series(trunc: int) -> IntLaurentSeries:
    """1/(q;q)_inf, the partition generating function."""
    return memo("partition", trunc,
                lambda t: pentagonal_quotient(((1, -1),), t))


def crank_parity_series(trunc: int) -> IntLaurentSeries:
    """(q;q)_inf (q;q^2)_inf^2, computed two ways and cross-checked.

    The two routes share no kernel.  Route one is the same series written
    as the binomial product (q;q^2)_inf^3 (q^2;q^2)_inf: one in-place
    ``_apply_binomial`` pass per factor (1 - q^k).  Route two is
    (q;q)_inf^3 / (q^2;q^2)_inf^2 by ``pentagonal_quotient``, sparse passes
    over Euler's pentagonal terms.  Any disagreement raises.
    """
    def build(t: int) -> IntLaurentSeries:
        c = [1] + [0] * (t - 1)
        # largest k first: the partial products keep small coefficients
        # through most of the passes
        for k in range(t - 1, 0, -1):
            _apply_binomial(c, k, -1, 3 if k % 2 else 1)
        by_products = IntLaurentSeries(0, c, t)
        by_pentagonal = pentagonal_quotient(((1, 3), (2, -2)), t)
        if not by_products.eq_to_order(by_pentagonal, t):
            raise AssertionError(
                "crank-parity series routes disagree; series arithmetic "
                "is broken")
        return by_products

    return memo("crank_parity", trunc, build)


def rank_parity_series(trunc: int) -> IntLaurentSeries:
    """sum_n q^(n^2)/(-q;q)_n^2, cross-checked against Watson's form."""
    def build(t: int) -> IntLaurentSeries:
        total = q_sum(t, lambda n: (1, n * n, [(n, 1, -2)] if n else [], []))

        def watson_term(k):
            if k == 0:
                return 1, 0, [], []
            return 4 * (-1) ** k, k * (3 * k + 1) // 2, [], [(k, 1, -1)]

        watson = q_sum(t, watson_term, base=partition_series(t))
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
    # (q;q^2)_inf = (q;q)_inf / (q^2;q^2)_inf
    rhs = pentagonal_quotient(((1, 2), (2, -4), (5, 1), (10, 2)), terms) * 5
    return lhs.eq_to_order(rhs, terms)


def chan_expansion_check(terms: int) -> bool:
    """Verify the x = -1 crank expansion

        g = 1/(q;q)_inf
            + 4 sum_{n>=1} (-1)^n q^(n(n+1)/2)
              / [ (q;q)_{n-1} (1 - q^{2n}) (q^{n+1};q)_inf ]

    as exact series up to q^terms.  The running product is
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
    return total.eq_to_order(crank_parity_series(terms), terms)


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


def run_weight_identity_check(terms: int) -> bool:
    """The signed run-weight expansion equals the crank-parity series."""
    return run_weight_expansion(terms).eq_to_order(
        crank_parity_series(terms), terms)
