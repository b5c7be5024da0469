"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to watch the lines appear.
All tolerances are exact (integer equality) except where the asymptotic
formula's stated error bound and the numeric transformation targets apply.
"""

import time
from contextlib import contextmanager

import mpmath

from crankparity import circle, cranks, distinct, fivetower, partitions
from crankparity.series import apply_U
from modular import eta_transformation_check, phi_power_u5


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number:02d}] PASS  {description}  ({elapsed:.1f}s)")


def test_01_coefficient_ground_truth():
    with criterion(1, "series coefficients equal enumeration oracle, "
                      "2 <= n <= 60; coefficient of q^4 is 5"):
        start = time.monotonic()
        g = cranks.crank_parity_series(61)
        assert g.coeff(4) == 5
        for n in range(2, 61):
            assert g.coeff(n) == partitions.crank_parity(n).diff, n
        assert time.monotonic() - start < 60


def test_02_family_congruence():
    with criterion(2, "congruence family mod 5^(a+1) for a in {0,1,2}, "
                      "all qualifying n <= 10^4"):
        start = time.monotonic()
        expected_class = {0: (4, 5), 1: (99, 125), 2: (2474, 3125)}
        for alpha in (0, 1, 2):
            assert cranks.qualifying_residue(alpha) == expected_class[alpha]
            report = cranks.verify_family_congruence(alpha, 10_000)
            assert report["failures"] == [], report["failures"][:5]
            assert report["count"], alpha
        assert time.monotonic() - start < 60


def test_03_progression_5n4():
    with criterion(3, "closed form of the 5n+4 coefficient subsequence, "
                      "n < 400, exact"):
        assert cranks.subsequence_5n4_check(400) is None


def test_04_keystone_and_phi_closed_forms():
    with criterion(4, "multiplier|U_5 == 5 * hauptmodul to 2000; the four "
                      "printed phi^-mu|U_5 closed forms"):
        image = apply_U(5, fivetower.ladder_multiplier(10_001))
        assert image.first_mismatch(fivetower.hauptmodul(2000) * 5,
                                    2000) is None
        wanted = {1: {0: 1}, 2: {-1: 2, 0: -1},
                  3: {-1: 6, 0: -5}, 4: {-2: 6, 0: -5}}
        for mu, want in wanted.items():
            poly = fivetower.reduce_to_hauptmodul(
                phi_power_u5(-mu, 40), -3, 0)
            assert poly == want, mu


def test_05_valuation_lemmas():
    with criterion(5, "5-adic valuation bounds for the transfer matrices "
                      "(i <= 6) and ladder rungs (a <= 2), exact"):
        a_rows = fivetower.u_matrix_rows(6)
        b_rows = fivetower.v_matrix_rows(6)
        for rows in (a_rows, b_rows):
            for i, row in rows.items():
                for j, c in row.items():
                    assert fivetower.five_adic(c) >= (5 * j - i - 1) // 6, \
                        (i, j, c)
        for i, row in b_rows.items():
            if i % 5 == 1:
                for j, c in row.items():
                    assert fivetower.five_adic(c) >= 1, (i, j, c)
        for nu, poly in fivetower.ladder(2).items():
            if nu % 2 == 0:
                continue
            a = (nu - 1) // 2
            for j, c in poly.items():
                assert fivetower.five_adic(c) >= a + 1 + (j - 1) // 2, \
                    (nu, j)


def test_06_asymptotic_error_bound():
    with criterion(6, "|exact - main| < 194 n^(1/4) for 1 <= n <= 200; "
                      "relative error < 0.05 on [100, 200]"):
        start = time.monotonic()
        reports = circle.verify_error_bound(1, 200, precision_bits=128)
        for r in reports:
            assert r.passed, (r.n, r.abs_error, r.bound)
        for r in reports:
            if r.n >= 100:
                assert abs(r.abs_error / r.exact) < 0.05, r.n
        assert time.monotonic() - start < 120


def test_07_eta_transformation_points():
    with criterion(7, "modular transformation of 1/(q;q)_inf numerically "
                      "exact below 1e-10 at three sample points"):
        tol = mpmath.mpf("1e-10")
        assert eta_transformation_check(1, 1, 1, 128) < tol
        assert eta_transformation_check(1, 2, mpmath.mpc(0.7, 0.2), 128) < tol
        assert eta_transformation_check(1, 5, 1.3, 128) < tol


def test_08_weighted_identity():
    with criterion(8, "run weights: omega == omega_1 and weighted sums "
                      "equal coefficients for n <= 40; both expansion "
                      "identities to 300, exact"):
        g = cranks.crank_parity_series(41)
        for n in range(1, 41):
            assert partitions.omega_weights_agree(n), n
            total, total1 = partitions.omega_totals(n)
            assert total == total1 == g.coeff(n), n
        assert cranks.chan_expansion_check(300) is None
        assert cranks.run_weight_identity_check(300) is None


def test_09_distinct_closed_form():
    with criterion(9, "distinct-parts closed form vs oracle (n <= 60), "
                      "range and zero counts to 2000, series identities "
                      "to 2000 / 1000"):
        for n in range(1, 61):
            assert distinct.distinct_crank_exact(n) \
                == partitions.distinct_crank_parity(n).diff, n
        zeros = 0
        for n in range(1, 2001):
            v = distinct.distinct_crank_exact(n)
            assert v in (-2, -1, 0, 1, 2), n
            zeros += v == 0
        assert zeros >= 100
        assert distinct.gf_identity_check(2000) is None
        assert distinct.watson_whipple_check(1000) is None


def test_10_multiplicative_t_cross_check():
    with criterion(10, "T(24n+1) equals the distinct-parts rank parity "
                       "oracle for n <= 60; printed case rules at n = 1, 2"):
        # case rules first: 25 = (-5)^2 with -5 == 19 (mod 24) and even
        # exponent gives 1; 49 = 7^2 gives (-1)^(e/2) = -1
        assert distinct.signed_factorization(25) == [(-5, 2)]
        assert distinct.multiplicative_t(1) == 1
        assert partitions.distinct_rank_parity(1).diff == 1
        assert distinct.signed_factorization(49) == [(7, 2)]
        assert distinct.multiplicative_t(2) == -1
        assert partitions.distinct_rank_parity(2).diff == -1

        values = distinct.bootstrap_t_values(60)
        for n in range(1, 61):
            assert distinct.multiplicative_t(n, values) \
                == partitions.distinct_rank_parity(n).diff, n
        # the one composite with two unknown Hecke signs: multiplicativity
        # forces |T| = 4 there, which the oracle must (and does) confirm
        assert abs(partitions.distinct_rank_parity(45).diff) == 4
