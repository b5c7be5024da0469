from fractions import Fraction
from math import gcd

import mpmath
import pytest

from crankparity import circle
from crankparity.circle import (
    AsymptoticReport,
    dedekind_sum,
    kloosterman_sum,
    main_term,
    verify_error_bound,
)
from crankparity.cranks import crank_parity_series
from modular import eta_transformation_check


def _direct_dedekind_sum(h, k):
    """The defining O(k) sum: for 0 < r < k and gcd(h,k) = 1 neither
    sawtooth argument is an integer, so both factors are
    (x mod k)/k - 1/2, and expanding the product and summing the linear
    parts collapses the double sawtooth to a single integer sum."""
    h %= k
    s = sum(r * (h * r % k) for r in range(1, k))
    return Fraction(s, k * k) - Fraction(k - 1, 4)


class TestDedekindSum:
    def test_matches_the_defining_sum(self):
        for k in range(1, 120):
            for h in range(-3, 120):
                if gcd(h, k) == 1:
                    assert dedekind_sum(h, k) == _direct_dedekind_sum(h, k), (
                        h, k)

    def test_empty_sum(self):
        assert dedekind_sum(1, 1) == 0

    def test_small_values(self):
        # direct sawtooth sums: ((1/3))((1/3)) + ((2/3))((2/3)) = 1/18
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(2, 3) == Fraction(-1, 18)

    def test_closed_form_for_h_one(self):
        for k in (2, 3, 7, 12, 50):
            assert dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)

    def test_negation_symmetry(self):
        for h, k in ((2, 5), (3, 8), (7, 30)):
            assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)

    def test_reciprocity_exhaustive_to_200(self):
        for k in range(1, 201):
            for h in range(1, k):
                if gcd(h, k) != 1:
                    continue
                lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
                rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
                assert lhs == rhs, (h, k)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match=r"^gcd\(2,4\) != 1$"):
            dedekind_sum(2, 4)
        with pytest.raises(ValueError, match="^k must be positive, got 0$"):
            dedekind_sum(1, 0)


class TestKloostermanSum:
    def test_k1_is_parity_sign(self):
        # only h = 1 contributes and both Dedekind sums vanish
        for n in range(12):
            want = -1 if n % 2 else 1
            assert abs(kloosterman_sum(1, n) - want) < mpmath.mpf(2) ** -100

    def test_k2_at_zero_by_direct_evaluation(self):
        # independent route: raw mpmath formula with exact Dedekind sums
        want = _direct_kloosterman(2, 0, 128)
        got = kloosterman_sum(2, 0)
        assert abs(got - want) < mpmath.mpf(2) ** -100

    def test_real_to_precision(self):
        # conjugate pairing of h and 2k-h keeps the sum real; the
        # implementation checks the pairing exactly and raises if it fails
        for k in range(1, 31):
            for n in range(0, 101):
                kloosterman_sum(k, n)


def _clear_memos():
    for memo in (circle._kloosterman_residue, circle._arc_angles,
                 circle._cosine, circle._k_constants):
        memo.cache_clear()


def _direct_kloosterman(k, n, bits):
    """Raw mpmath formula, n h / k taken as it stands, not reduced."""
    with mpmath.workprec(bits + 40):
        total = mpmath.mpc(0)
        for h in range(1, 2 * k):
            if gcd(h, 2 * k) != 1:
                continue
            theta = (2 * _direct_dedekind_sum(h, k)
                     - 3 * _direct_dedekind_sum(h, 2 * k))
            total += (mpmath.expjpi(mpmath.mpf(theta.numerator)
                                    / theta.denominator)
                      * mpmath.expjpi(mpmath.mpf(-n * h) / k))
        return total.real


class TestKloostermanMemo:
    """B_k(n) is memoised on (k, n mod 2k, bits), its angles on k, its
    cosines on (k, angle, bits) and main_term's constants on (k, prec);
    each test starts and ends with every memo empty."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _clear_memos()
        yield
        _clear_memos()

    def test_matches_direct_evaluation(self):
        # every residue twice over for k <= 20; a spread of residues for
        # k that asymptotic 1 600 reaches
        cases = [(k, n) for k in range(1, 21) for n in range(4 * k + 4)]
        cases += [(k, n) for k in (24, 30, 31, 45, 60, 61)
                  for n in {0, 1, 2, k, 2 * k - 1, 2 * k + 5, 7 * k + 3,
                            *range(3, 2 * k, 11)}]
        for k, n in cases:
            got = kloosterman_sum(k, n)
            want = _direct_kloosterman(k, n, 128)
            assert abs(got - want) < mpmath.mpf(2) ** -100, (k, n)

    @pytest.mark.parametrize("bits", [64, 200])
    def test_matches_direct_evaluation_at_other_precisions(self, bits):
        for k, n in ((1, 3), (2, 0), (7, 5), (24, 13), (45, 600), (61, 599)):
            got = kloosterman_sum(k, n, bits)
            want = _direct_kloosterman(k, n, bits)
            assert abs(got - want) < mpmath.mpf(2) ** (28 - bits), (k, n)

    def test_period_2k_is_exact(self):
        # evaluated afresh on each side, so the equality is the formula's
        # periodicity, not one memo entry read twice
        for k in (1, 2, 3, 7, 12, 20):
            for n in range(2 * k):
                for j in (1, 3):
                    _clear_memos()
                    base = kloosterman_sum(k, n)
                    _clear_memos()
                    assert kloosterman_sum(k, n + 2 * k * j) == base, (k, n, j)

    def test_broken_conjugate_pair_still_raises(self, monkeypatch):
        honest = circle.dedekind_sum

        def one_shifted(h, k):
            # s(1,5) off by 1/120 moves M_1 of k = 5 by one, unpaired
            # from M_9
            return honest(h, k) + (Fraction(1, 120) if (h, k) == (1, 5)
                                   else 0)

        monkeypatch.setattr(circle, "dedekind_sum", one_shifted)
        for n in (1, 1 + 10, 1 + 20):
            with pytest.raises(AssertionError, match=r"h = 1 and h = 9"):
                kloosterman_sum(5, n)

    @pytest.mark.parametrize("bits", [53, 128])
    def test_half_range_equals_the_full_range_sum(self, bits):
        # the integer sum over every 0 < h < 2k coprime to 2k, each term
        # rounded to 2^-(bits+16) as the module rounds it, against the
        # doubled sum over h < k
        for k in range(1, 62):
            period = 24 * k
            angles = [(h, 12 * k * (2 * dedekind_sum(h, k)
                                    - 3 * dedekind_sum(h, 2 * k)))
                      for h in range(1, 2 * k) if gcd(h, 2 * k) == 1]
            for r in range(2 * k):
                total = 0
                for h, m in angles:
                    j = (m.numerator - 12 * r * h) % period
                    total += circle._cosine(min(j, period - j), k, bits)
                with mpmath.workprec(bits + 16):
                    want = mpmath.ldexp(mpmath.mpf(total), -(bits + 16))
                assert kloosterman_sum(k, r, bits) == want, (k, r)

    def test_non_integer_angle_raises(self, monkeypatch):
        honest = circle.dedekind_sum

        def off_by_half_step(h, k):
            return honest(h, k) + (Fraction(1, 240) if (h, k) == (1, 5)
                                   else 0)

        monkeypatch.setattr(circle, "dedekind_sum", off_by_half_step)
        with pytest.raises(AssertionError, match=r"is not an integer"):
            kloosterman_sum(5, 1)


class TestMainTerm:
    def test_n4_close_to_five(self):
        m = main_term(4)
        assert abs(m - 5) < 194 * mpmath.mpf(4) ** 0.25
        assert abs(m - 5) < 1

    def test_sign_tracks_parity(self):
        for n in range(20, 40):
            m = main_term(n)
            assert (m > 0) == (n % 2 == 0), n

    @pytest.mark.parametrize("bits", [53, 128, 200])
    def test_zero_terms_are_skipped_exactly(self, bits):
        # the k-sum with every term kept, exactly zero B_k(n) included,
        # in main_term's precision and order, by the mpf formula
        prec = bits + 16
        zeros = 0
        for n in range(1, 301):
            with mpmath.workprec(prec):
                shifted = mpmath.mpf(24 * n - 1) / 24
                root = mpmath.sqrt(shifted / 6)
                total = mpmath.mpf(0)
                k = 1
                while 4 * k * k < 25 * n:
                    bk = kloosterman_sum(k, n, bits)
                    zeros += bk == 0
                    total += (bk / mpmath.sqrt(k)
                              * mpmath.cosh(mpmath.pi / k * root))
                    k += 1
                want = +(total / mpmath.sqrt(shifted))
            assert main_term(n, bits) == want, n
        assert zeros > 1000

    def test_one_kloosterman_call_per_k(self, monkeypatch):
        # main_term reads each B_k through the public kloosterman_sum, where
        # a tracer can see it
        calls = []
        honest = circle.kloosterman_sum

        def counted(k, n, precision_bits=128):
            calls.append((k, n, precision_bits))
            return honest(k, n, precision_bits)

        monkeypatch.setattr(circle, "kloosterman_sum", counted)
        for n in (1, 6, 7, 100, 599):
            calls.clear()
            main_term(n, 64)
            ks = [k for k in range(1, 3 * n) if 4 * k * k < 25 * n]
            assert calls == [(k, n, 64) for k in ks], n

    def test_full_precision_outside_workprec(self):
        # results keep every bit whatever the caller's context: built in a
        # 53-bit context, they must equal those built in a wide one
        _clear_memos()
        assert mpmath.mp.prec == 53
        narrow = [main_term(n, 128) for n in (5, 77, 300)]
        bks = [kloosterman_sum(k, 11, 128) for k in (2, 9, 30)]
        _clear_memos()
        with mpmath.workprec(400):
            wide = [main_term(n, 128) for n in (5, 77, 300)]
            wide_bks = [kloosterman_sum(k, 11, 128) for k in (2, 9, 30)]
        for got, want in zip(narrow + bks, wide + wide_bks):
            assert got._mpf_ == want._mpf_
        assert all(x._mpf_[3] > 100 for x in narrow)
        assert any(x._mpf_[3] > 100 for x in bks)

    def test_precision_invariance(self):
        for n in (7, 60, 150):
            lo = main_term(n, 128)
            hi = main_term(n, 256)
            assert abs(lo - hi) < mpmath.mpf(2) ** -90


class TestErrorBound:
    def test_sweep_1_200(self):
        reports = verify_error_bound(1, 200)
        assert len(reports) == 200
        assert all(r.passed for r in reports)

    def test_bound_column(self):
        r = verify_error_bound(16, 16)[0]
        assert abs(r.bound - 388) < mpmath.mpf("1e-30")

    def test_exact_column_is_series_coefficient(self):
        g = crank_parity_series(25)
        for r in verify_error_bound(20, 24):
            assert r.exact == g.coeff(r.n)

    def test_relative_error_trend(self):
        reports = {r.n: r for r in verify_error_bound(1, 200)}
        rel = {n: abs(reports[n].abs_error / reports[n].exact)
               for n in (50, 100, 150, 200)}
        assert rel[50] > rel[100] > rel[150] > rel[200]
        assert all(abs(r.abs_error / r.exact) < 0.05
                   for r in reports.values() if r.n >= 100)

    def test_report_invariant(self):
        r = AsymptoticReport.build(10, 5, mpmath.mpf(7))
        assert r.passed == (r.abs_error < r.bound)


class TestEtaTransformation:
    def test_identity_point(self):
        # h = k = 1, z = 1 makes both sides literally equal
        assert eta_transformation_check(1, 1, 1) < mpmath.mpf("1e-12")

    def test_sample_points(self):
        tol = mpmath.mpf("1e-10")
        assert eta_transformation_check(1, 2, mpmath.mpc(0.7, 0.2)) < tol
        assert eta_transformation_check(1, 5, 1.3) < tol
        assert eta_transformation_check(2, 5, mpmath.mpc(1.0, -0.4)) < tol

    def test_a_flipped_dedekind_sum_is_caught(self, monkeypatch):
        monkeypatch.setattr("modular.dedekind_sum",
                            lambda h, k: -dedekind_sum(h, k))
        assert eta_transformation_check(1, 5, 1.3) > mpmath.mpf("1e-10")
