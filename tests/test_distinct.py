from types import SimpleNamespace

import pytest

from crankparity.distinct import (
    _first_sum,
    _second_sum,
    bootstrap_t_values,
    ceil_part,
    ceil_part_series,
    distinct_crank_case,
    distinct_crank_exact,
    floor_part,
    floor_part_series,
    gf_identity_check,
    multiplicative_t,
    pent_info,
    signed_factorization,
    t_prime_power,
    watson_whipple_check,
)
from crankparity.partitions import distinct_crank_parity, distinct_rank_parity
from crankparity.series import TruncationError


class TestPentInfo:
    def test_five_is_pentagonal_with_negative_index(self):
        info = pent_info(5)
        assert info.is_pent and info.r_floor == info.r_ceil == -2

    def test_six_sits_between(self):
        info = pent_info(6)
        assert not info.is_pent
        assert (info.floor_p, info.ceil_p) == (5, 7)
        assert (info.r_floor, info.r_ceil) == (-2, 2)

    def test_two_is_pentagonal(self):
        info = pent_info(2)
        assert info.is_pent and info.r_floor == 1

    def test_zero(self):
        info = pent_info(0)
        assert info.is_pent and info.r_floor == 0

    def test_floor_equals_ceiling_iff_pentagonal(self):
        for n in range(0, 300):
            info = pent_info(n)
            assert (info.floor_p == info.ceil_p) == info.is_pent

    def test_no_pentagonal_strictly_between(self):
        pents = {m * (3 * m + 1) // 2 for m in range(-30, 31)}
        for n in range(1, 300):
            info = pent_info(n)
            for p in pents:
                assert not (info.floor_p < p < n)
                assert not (n < p < info.ceil_p)

    def test_matches_a_walk_over_the_pentagonals(self):
        # the closed form against the generalized pentagonals in increasing
        # order, 0, 1, 2, 5, 7, ..., walked alongside n
        def pentagonals():
            yield 0, 0
            for j in range(1, 200):
                yield j * (3 * j - 1) // 2, -j
                yield j * (3 * j + 1) // 2, j

        walk = pentagonals()
        (lo, r_lo), (hi, r_hi) = next(walk), next(walk)
        for n in range(20001):
            if n == hi:
                (lo, r_lo), (hi, r_hi) = (hi, r_hi), next(walk)
            info = pent_info(n)
            if n == lo:
                want = (True, lo, lo, r_lo, r_lo)
            else:
                want = (False, lo, hi, r_lo, r_hi)
            assert (info.is_pent, info.floor_p, info.ceil_p, info.r_floor,
                    info.r_ceil) == want

    def test_at_and_beside_large_pentagonals(self):
        # n up to P(10^4) ~ 1.5e8; from |m| = 2 on, P(m) +- 1 is not
        # pentagonal, so P(m) is the floor of P(m) + 1 and the ceiling of
        # P(m) - 1
        for m in range(-10 ** 4, 10 ** 4 + 1):
            if abs(m) < 2:
                continue
            p = m * (3 * m + 1) // 2
            at = pent_info(p)
            assert at.is_pent and at.r_floor == at.r_ceil == m
            assert at.floor_p == at.ceil_p == p
            above, below = pent_info(p + 1), pent_info(p - 1)
            assert not above.is_pent and not below.is_pent
            assert (above.floor_p, above.r_floor) == (p, m)
            assert (below.ceil_p, below.r_ceil) == (p, m)


class TestClosedForm:
    @pytest.mark.parametrize("n,want", [
        (6, 2),    # floor 5, R = -2 even negative: -2 * (-1)^(6-5)
        (2, 1),    # pentagonal, R = 1 odd positive
        (3, 0),    # parity mismatch with floor 2
        (1, -1),   # pentagonal, R = -1
        (5, -1),   # pentagonal, R = -2
    ])
    def test_values(self, n, want):
        assert distinct_crank_exact(n) == want

    def test_case_labels_cover_six_cases(self):
        labels = {distinct_crank_case(n) for n in range(1, 500)}
        assert len(labels) == 6

    def test_matches_enumeration_to_60(self):
        for n in range(1, 61):
            assert distinct_crank_exact(n) == distinct_crank_parity(n).diff, n

    def test_bounded_and_often_zero_to_2000(self):
        zeros = 0
        for n in range(1, 2001):
            v = distinct_crank_exact(n)
            assert v in (-2, -1, 0, 1, 2)
            zeros += v == 0
        assert zeros >= 100

    def test_zero_set_grows(self):
        z1 = sum(1 for n in range(1, 1001) if distinct_crank_exact(n) == 0)
        z2 = sum(1 for n in range(1, 2001) if distinct_crank_exact(n) == 0)
        assert 0 < z1 < z2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            distinct_crank_exact(0)


class TestFloorCeilSplit:
    def test_split_sums_to_formula(self):
        for n in range(1, 2001):
            assert floor_part(n) + ceil_part(n) == distinct_crank_exact(n), n

    def test_case_anchors(self):
        # R(floor(7)) = 2 even positive and 7 is pentagonal: -(-1)^0 = -1
        assert floor_part(7) == -1
        # R(floor(1)) = -1 odd negative
        assert floor_part(1) == 0
        # R(ceil(1)) = -1 odd negative
        assert ceil_part(1) == -1
        # R(ceil(3)) = -2 even negative
        assert ceil_part(3) == 1

    def test_series_match_case_functions(self):
        fs = floor_part_series(2000)
        cs = ceil_part_series(2000)
        for n in range(1, 2000):
            assert fs.coeff(n) == floor_part(n), n
            assert cs.coeff(n) == ceil_part(n), n

    def test_ceiling_series_truncation(self):
        cs = ceil_part_series(2)
        assert (cs.offset, cs.coeffs, cs.trunc) == (1, (-1,), 2)
        for trunc in (1, 0, -1):
            with pytest.raises(TruncationError,
                               match=rf"needs trunc >= 2, got {trunc}$"):
                ceil_part_series(trunc)


class TestGeneratingFunctionIdentities:
    def test_coefficients_at_five_and_six(self):
        s = _first_sum(8) + _second_sum(8)  # the two-sum generating function
        assert s.coeff(6) == 2
        assert s.coeff(5) == -1   # cranks of (5), (4,1), (3,2): 5, 0, 3

    def test_all_identities_to_600(self):
        assert gf_identity_check(600) is None

    def test_watson_whipple_constant_and_q3(self):
        # constant term 1 from the n=0 factor; q^3 coefficient -1
        assert watson_whipple_check(5) is None

    def test_watson_whipple_to_600(self):
        assert watson_whipple_check(600) is None


class TestSignedFactorization:
    def test_small_cases(self):
        assert signed_factorization(25) == [(-5, 2)]
        assert signed_factorization(49) == [(7, 2)]
        assert signed_factorization(1081) == [(-23, 1), (-47, 1)]
        assert signed_factorization(1) == []

    def test_signs_give_one_mod_six(self):
        for n in range(1, 200):
            for p, _ in signed_factorization(24 * n + 1):
                assert p % 6 == 1

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            signed_factorization(10)


class TestMultiplicativeT:
    def test_square_of_negative_five(self):
        # 25 = (-5)^2 with -5 == 19 (mod 24): even exponent gives 1
        assert multiplicative_t(1) == 1
        assert distinct_rank_parity(1).diff == 1

    def test_square_of_seven(self):
        # 49 = 7^2 with 7 == 7 (mod 24): (-1)^(e/2) = -1
        assert multiplicative_t(2) == -1
        assert distinct_rank_parity(2).diff == -1

    def test_even_square_cases(self):
        # 24*5+1 = 121 = (-11)^2 gives 1; 24*7+1 = 169 = 13^2 gives 1
        assert multiplicative_t(5) == 1
        assert multiplicative_t(7) == 1

    def test_unknown_prime_raises(self):
        # 24*3+1 = 73 == 1 (mod 24) prime: value required
        assert t_prime_power(73, 1) is None
        with pytest.raises(ValueError, match=r"^T\(73\) is \+-2 by a Hecke "
                                             "character not computed here; "
                                             "supply it via prime_values$"):
            multiplicative_t(3)

    def test_prime_power_case_table(self):
        assert t_prime_power(-5, 2) == 1
        assert t_prime_power(-5, 3) == 0
        assert t_prime_power(7, 2) == -1
        assert t_prime_power(7, 4) == 1
        assert t_prime_power(13, 2) == 1
        assert t_prime_power(73, 1, {73: 2}) == 2
        assert t_prime_power(73, 3, {73: -2}) == -4
        assert t_prime_power(73, 2) == 3  # sign-independent at even exponents

    def test_zero_from_odd_exponent(self):
        # 24*31+1 = 745 = (-5)(-149), both == 19 (mod 24) with odd exponent
        assert multiplicative_t(31) == 0

    def test_zero_factor_short_circuits_unknowns(self):
        # 24*660+1 = 15841 = 73 * 7 * 31: the factors 7 and 31 force zero,
        # so the unknown Hecke value at 73 is never consulted
        assert signed_factorization(15841) == [(7, 1), (31, 1), (73, 1)]
        assert multiplicative_t(660) == 0

    def test_bootstrap_matches_oracle_to_60(self):
        values = bootstrap_t_values(60)
        for n in range(1, 61):
            assert multiplicative_t(n, values) \
                == distinct_rank_parity(n).diff, n

    def test_bootstrap_matches_oracle_at_every_n_max_to_90(self):
        # every stopping point of the solve loop, gauge steps included
        diffs = {n: distinct_rank_parity(n).diff for n in range(1, 91)}
        for n_max in range(1, 91):
            values = bootstrap_t_values(n_max)
            assert all(multiplicative_t(n, values) == diffs[n]
                       for n in range(1, n_max + 1)), n_max

    @pytest.mark.parametrize("n_max", [60, 90])
    def test_bootstrap_factors_each_24n_plus_1_once(self, monkeypatch,
                                                     n_max):
        import crankparity.distinct as module
        real = module.signed_factorization
        factored = []

        def spy(m):
            factored.append(m)
            return real(m)
        monkeypatch.setattr(module, "signed_factorization", spy)
        bootstrap_t_values(n_max)
        assert sorted(factored) == [24 * n + 1 for n in range(1, n_max + 1)]

    def test_bootstrap_values_at_90_are_pinned(self):
        # in solve order; the last three are fixed only up to one sign:
        # -23 is the gauge choice at 24*45+1 = (-23)(-47), and -47 and -71
        # (24*68+1 = (-23)(-71)) follow from it
        assert list(bootstrap_t_values(90).items()) == [
            (73, 2), (97, -2), (193, -2), (241, 2), (313, -2), (337, 2),
            (409, -2), (433, 2), (457, -2), (577, -2), (601, -2), (673, 2),
            (769, -2), (937, 2), (1009, -2), (1033, -2), (1129, 2),
            (1153, -2), (1201, -2), (1249, 2), (1297, -2), (1321, 2),
            (1489, -2), (1609, -2), (1657, 2), (1753, -2), (1777, -2),
            (1801, -2), (1873, 2), (1993, -2), (2017, 2), (2089, -2),
            (2113, 2), (2137, -2), (2161, -2), (-23, 2), (-47, 2), (-71, 2)]

    def test_bootstrap_values_are_pm2(self):
        values = bootstrap_t_values(60)
        assert values and all(v in (2, -2) for v in values.values())
        assert values[73] == distinct_rank_parity(3).diff

    def test_forced_magnitude_at_composite_unknowns(self):
        # 24*45+1 = (-23)(-47): both factors carry unknown Hecke signs, but
        # multiplicativity forces |T| = 4, a real check on the oracle
        assert abs(distinct_rank_parity(45).diff) == 4

    @staticmethod
    def perturb_oracle(monkeypatch, bad_n, change):
        """Make the oracle bootstrap_t_values reads give change(diff) at
        bad_n and the true diff elsewhere."""
        import crankparity.distinct as module
        true = module.distinct_rank_parity

        def oracle(n):
            diff = true(n).diff
            return SimpleNamespace(diff=change(diff) if n == bad_n else diff)
        monkeypatch.setattr(module, "distinct_rank_parity", oracle)

    def test_bootstrap_refuses_a_prime_value_other_than_pm2(self,
                                                           monkeypatch):
        # 24*3+1 = 73 is prime, so the oracle at 3 is T(73) itself
        self.perturb_oracle(monkeypatch, 3, lambda diff: diff + 1)
        with pytest.raises(AssertionError, match=r"T\(73\)"):
            bootstrap_t_values(60)

    def test_bootstrap_refuses_a_wrong_magnitude_at_composite(self,
                                                              monkeypatch):
        # 24*45+1 = (-23)(-47): two unknown signs, but |T| must be 4
        self.perturb_oracle(monkeypatch, 45, lambda diff: 2 * diff)
        with pytest.raises(AssertionError, match="n=45"):
            bootstrap_t_values(60)
