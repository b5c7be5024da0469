import json
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from crankparity import cranks, series
from crankparity.cranks import (
    chan_expansion_check,
    crank_parity_series,
    qualifying_residue,
    rank_parity_series,
    run_weight_expansion,
    run_weight_identity_check,
    subsequence_5n4_check,
    verify_family_congruence,
)
from crankparity.series import (
    IntLaurentSeries,
    TruncationError,
    _conv,
    pentagonal_product,
)


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.delenv("CRANK_PARITY_CACHE_DIR", raising=False)
    monkeypatch.setattr(series, "_memo", {})


# truncations in 1..700, half of them within one of a triangular number
# n(n+1)/2, where a Lambert summand starts
_EDGE_TRUNCS = st.one_of(
    st.integers(1, 700),
    st.builds(lambda n, d: n * (n + 1) // 2 + d,
              st.integers(1, 36), st.integers(-1, 1)).filter(lambda t: t >= 1))


class TestLambertSum:
    @settings(max_examples=100, deadline=None)
    @given(trunc=_EDGE_TRUNCS)
    def test_equals_dense_product(self, trunc):
        real = cranks._add_lambert_summand
        starts = []

        def checked(c, n):
            # summand n alone: 4(-1)^(n+j) at n(n+1)/2 + nj, below len(c)
            e = n * (n + 1) // 2
            alone = [0] * len(c)
            real(alone, n)
            assert alone == [4 * (-1) ** (n + (i - e) // n)
                             if i >= e and (i - e) % n == 0 else 0
                             for i in range(len(c))]
            starts.append(e)
            real(c, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cranks, "_add_lambert_summand", checked)
            got = cranks._lambert_sum(trunc)
        p1 = pentagonal_product(1, trunc)
        dense = p1 ** 3 / pentagonal_product(2, trunc) ** 2 * p1
        assert got == [dense.coeff(n) for n in range(trunc)]
        # exactly the summands that start below q^trunc were added
        k = len(starts)
        assert starts == [n * (n + 1) // 2 for n in range(1, k + 1)]
        assert all(e < trunc for e in starts)
        assert (k + 1) * (k + 2) // 2 >= trunc


# truncations in 1..700, half of them within one of a square k^2
_SQUARE_TRUNCS = st.one_of(
    st.integers(1, 700),
    st.builds(lambda k, d: k * k + d,
              st.integers(1, 26), st.integers(-1, 1)).filter(lambda t: t >= 1))

# truncations within one of a generalized pentagonal number m(3m -+ 1)/2
_PENTAGONAL_TRUNCS = st.builds(
    lambda m, sign, d: m * (3 * m + sign) // 2 + d,
    st.integers(1, 20), st.sampled_from((-1, 1)),
    st.integers(-1, 1)).filter(lambda t: t >= 1)


class TestThetaSquare:
    @settings(max_examples=100, deadline=None)
    @given(trunc=_SQUARE_TRUNCS)
    def test_equals_signed_lattice_count(self, trunc):
        r = isqrt(trunc) + 1
        r2 = Counter(a * a + b * b for a in range(-r, r + 1)
                     for b in range(-r, r + 1))
        assert cranks._theta_square(trunc) \
            == [(-1) ** n * r2[n] for n in range(trunc)]


class TestTimesEuler:
    @settings(max_examples=60, deadline=None)
    @given(trunc=_PENTAGONAL_TRUNCS, rnd=st.randoms(use_true_random=False))
    def test_equals_sparse_product(self, trunc, rnd):
        g = [rnd.randint(-10 ** 30, 10 ** 30) for _ in range(trunc)]
        euler = list(pentagonal_product(1, trunc).coeffs)
        assert cranks._times_euler(g) == _conv(euler, g, trunc)


class TestCrankParitySeries:
    def test_first_coefficients(self):
        g = crank_parity_series(5)
        assert [g.coeff(n) for n in range(5)] == [1, -3, 2, -1, 5]

    def test_non_positive_truncation_is_refused(self, fresh_memo):
        # every memoised series, cold and after a build that a shorter
        # request would be cut from
        assert len(series.SERIES) == 6
        for build in series.SERIES.values():
            for warm in (False, True):
                if warm:
                    build(20)
                for trunc in (0, -5):
                    with pytest.raises(TruncationError,
                                       match=r"must be positive"):
                        build(trunc)

    def test_routes_agree_to_2000(self):
        g = crank_parity_series(2000)
        alt = (pentagonal_product(1, 2000) ** 3
               / pentagonal_product(2, 2000) ** 2)
        assert g.first_mismatch(alt, 2000) is None

    def test_broken_lambert_sum_is_caught(self, monkeypatch, fresh_memo):
        real = cranks._add_lambert_summand

        def sign_flipped(c, n):
            if n != 7:
                return real(c, n)
            summand = [0] * len(c)  # summand 7 starts at q^28
            real(summand, n)
            c[:] = [x - y for x, y in zip(c, summand)]

        monkeypatch.setattr(cranks, "_add_lambert_summand", sign_flipped)
        with pytest.raises(AssertionError, match=r"routes disagree.* q\^28:"):
            crank_parity_series(300)

    def test_broken_pentagonal_route_is_caught(self, monkeypatch,
                                               fresh_memo):
        real = cranks._apply_pentagonal

        def one_pass_short(x, d, r):
            real(x, d, r + 1 if r < 0 else r)

        # the division by (q;q)_inf is skipped: G comes out as theta(-q)^2,
        # and theta(-q)^2 (q;q)_inf = 1 - 5q + ... against L = 1 - 4q + ...
        monkeypatch.setattr(cranks, "_apply_pentagonal", one_pass_short)
        with pytest.raises(AssertionError,
                           match=r"routes disagree.* q\^1: .*has -5, "
                                 r"the Lambert sum -4$"):
            crank_parity_series(300)

    def test_broken_theta_square_is_caught(self, monkeypatch, fresh_memo):
        real = cranks.isqrt

        # the lattice stops one square short: below q^300 that drops
        # (+-17, 0) and (0, +-17), so r_2(289) reads 8 instead of 12
        monkeypatch.setattr(cranks, "isqrt", lambda n: real(n) - 1)
        with pytest.raises(AssertionError,
                           match=r"routes disagree.* q\^289: .*has -8, "
                                 r"the Lambert sum -12$"):
            crank_parity_series(300)

    def test_broken_check_product_is_caught(self, monkeypatch, fresh_memo):
        real = cranks._times_euler

        def last_coefficient_dropped(g):
            return real(g[:-1]) + [0]

        # the Lambert sum is 8 at q^298, the last exponent below 299
        monkeypatch.setattr(cranks, "_times_euler", last_coefficient_dropped)
        with pytest.raises(AssertionError,
                           match=r"routes disagree.* q\^298: .*has 0, "
                                 r"the Lambert sum 8$"):
            crank_parity_series(299)

    def test_check_writes_its_own_pentagonal_terms(self, monkeypatch,
                                                   fresh_memo):
        real = series._pentagonal_terms

        def fifth_power_dropped(d, trunc):
            return ((e, s) for e, s in real(d, trunc) if e != 5)

        # the division runs with (q;q)_inf missing its +q^5 and the check
        # with the true one, so they no longer cancel from q^5 on
        monkeypatch.setattr(series, "_pentagonal_terms", fifth_power_dropped)
        with pytest.raises(AssertionError,
                           match=r"routes disagree.* q\^5: .*has -7, "
                                 r"the Lambert sum -8$"):
            crank_parity_series(300)

    def test_routes_share_no_kernel(self, monkeypatch, fresh_memo):
        # G by the lattice and one pentagonal division, L by slice passes,
        # the check by its own slice passes: no binomial pass, no dense
        # product and none of Jacobi's cube terms is reached.  The tower's
        # multiplier shares G's lattice and division (_gauss_quotient),
        # but no check compares it with G
        def unreachable(*args):
            raise AssertionError("dense, binomial or cube kernel reached")

        for kernel in ("_apply_binomial", "_conv", "_cube_terms"):
            monkeypatch.setattr(series, kernel, unreachable)

        # each side's functions run only inside that side
        owner = {"_gauss_quotient": "G", "_theta_square": "G",
                 "_apply_pentagonal": "G",
                 "_lambert_sum": "L", "_add_lambert_summand": "L",
                 "_times_euler": "check"}
        running, called = [], set()

        def owned(name, real):
            def run(*args):
                assert set(running) <= {owner[name]}, \
                    f"{name} reached inside {running}"
                called.add(name)
                running.append(owner[name])
                try:
                    return real(*args)
                finally:
                    running.pop()
            return run

        for name in owner:
            monkeypatch.setattr(cranks, name,
                                owned(name, getattr(cranks, name)))
        monkeypatch.setattr(series, "_apply_pentagonal",
                            cranks._apply_pentagonal)
        assert [crank_parity_series(300).coeff(n) for n in range(5)] \
            == [1, -3, 2, -1, 5]
        assert called == set(owner)

    def test_alternating_sign_to_2000(self):
        # even-index coefficients strictly positive, odd strictly negative
        g = crank_parity_series(2001)
        for n in range(1, 2001):
            c = g.coeff(n)
            assert c != 0 and (c > 0) == (n % 2 == 0), n

    def test_5n_plus_4_divisible_by_5(self):
        g = crank_parity_series(600)
        for k in range((600 - 5) // 5 + 1):
            assert g.coeff(5 * k + 4) % 5 == 0


class TestRankParitySeries:
    def test_constant_and_linear_terms(self):
        f = rank_parity_series(6)
        assert f.coeff(0) == 1
        assert f.coeff(1) == 1  # rank(1) = 0, so evens lead by one

    def test_two_formulas_agree_to_1000(self):
        # the builder itself raises if the defining sum and Watson's form
        # disagree; surviving construction at 1000 terms is the assertion
        f = rank_parity_series(1000)
        assert f.trunc >= 1000

    def test_broken_watson_side_is_caught(self, monkeypatch, fresh_memo):
        real = cranks.partition_series

        def one_coefficient_off(t):
            p = real(t)
            return p + IntLaurentSeries.monomial(5, 1, p.trunc)

        # 1/(q;q)_inf is Watson's base, its k = 0 summand: 7 becomes 8 at q^5
        monkeypatch.setattr(cranks, "partition_series", one_coefficient_off)
        with pytest.raises(AssertionError,
                           match=r"Watson's expansion: first at q\^5: "
                                 r"the sum has \S+, Watson's form \S+$"):
            rank_parity_series(100)


class TestFamilyCongruence:
    def test_qualifying_classes(self):
        assert qualifying_residue(0) == (4, 5)
        assert qualifying_residue(1) == (99, 125)
        assert qualifying_residue(2) == (2474, 3125)

    def test_alpha0_sweep(self):
        # n = 4, 9, ..., 1999: every n == 4 (mod 5) up to 2000
        report = verify_family_congruence(0, 2000)
        assert report == {"alpha": 0, "modulus": 5, "count": 400,
                          "failures": []}

    def test_alpha1_count_to_1e4(self):
        report = verify_family_congruence(1, 10_000)
        assert (report["count"], report["failures"]) == (80, [])

    def test_json_shape(self):
        # a plain dict, keys in the order ``verify family`` prints them
        report = verify_family_congruence(0, 300)
        assert type(report) is dict
        assert list(report) == ["alpha", "modulus", "count", "failures"]
        assert report["failures"] == []
        assert json.loads(json.dumps(report)) == report

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            verify_family_congruence(-1, 100)

    def test_no_qualifying_n_is_refused(self):
        # the first n with 24n == 1 (mod 5^7) is 61849
        with pytest.raises(ValueError, match=r"at least 61849$"):
            verify_family_congruence(3, 10_000)
        with pytest.raises(ValueError, match=r"at least 4$"):
            verify_family_congruence(0, 3)
        assert verify_family_congruence(0, 4)["count"] == 1


class TestSubsequence5n4:
    def test_constant_term_is_five(self):
        sub = crank_parity_series(50).extract(5, 4)
        assert sub.coeff(0) == 5

    def test_identity_to_200(self):
        assert subsequence_5n4_check(200) is None

    def test_e_to_the_depth_two_ladder(self, fresh_memo):
        # the depth-2 ladder reads E's first 6,745 terms: each equals
        # c(5m+4) from a crank series of 33,725 terms, both built here
        assert subsequence_5n4_check(6745) is None
        assert series._memo["crank"].trunc == 33725
        assert series._memo["eta_5n4"].trunc == 6745

    def test_rhs_is_divisible_by_five(self):
        sub = crank_parity_series(2000).extract(5, 4)
        assert all(sub.coeff(n) % 5 == 0 for n in range(399))
        assert sub.coeff(0) == 5


class TestExpansionIdentities:
    def test_chan_hand_prefix(self):
        # 1/(q;q) contributes 1 + q, the n=1 summand -4q: total 1 - 3q
        g = crank_parity_series(2)
        assert [g.coeff(0), g.coeff(1)] == [1, -3]
        assert chan_expansion_check(2) is None

    def test_chan_to_300(self):
        assert chan_expansion_check(300) is None

    def test_run_weight_constant_term(self):
        rhs = run_weight_expansion(10)
        assert rhs.coeff(0) == 1

    def test_run_weight_identity_to_300(self):
        assert run_weight_identity_check(300) is None

    def test_two_expansions_agree_directly(self):
        # corollary shape: both right-hand sides agree with each other,
        # independent of the crank series
        rhs = run_weight_expansion(120)
        pent = pentagonal_product(1, 120)
        # rebuild the chan side explicitly
        from crankparity.series import IntLaurentSeries
        total = pent.reciprocal()
        tail_inv = pent.reciprocal()
        front = IntLaurentSeries.one(120)
        n = 1
        while n * (n + 1) // 2 < 120:
            tail_inv = tail_inv * IntLaurentSeries.from_terms(
                {0: 1, n: -1}, 120)
            if n >= 2:
                front = front * IntLaurentSeries.from_terms(
                    {0: 1, n - 1: -1}, 120)
            sign = -4 if n % 2 else 4
            numer = IntLaurentSeries.monomial(n * (n + 1) // 2, sign, 120)
            middle = IntLaurentSeries.from_terms({0: 1, 2 * n: -1}, 120)
            total = total + numer / front / middle * tail_inv
            n += 1
        assert total.first_mismatch(rhs, 120) is None

    def test_triangular_summand_bound(self):
        # the n-th summand starts at q^(n(n+1)/2), so at order 300 the
        # n = 24 summand (lowest exponent exactly 300) contributes nothing
        assert 23 * 24 // 2 < 300 <= 24 * 25 // 2
