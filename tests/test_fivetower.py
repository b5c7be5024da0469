import dataclasses

import pytest

from crankparity import fivetower
from crankparity.fivetower import (
    LADDER_MULTIPLIER_SPEC,
    NEWTON_QUOTIENT_SPEC,
    BudgetExceededError,
    NotHauptmodulPolynomialError,
    evaluate,
    five_adic,
    hauptmodul,
    ladder,
    ladder_multiplier,
    ladder_subsequence_check,
    ladder_vectors,
    newton_power_u5,
    newton_quotient,
    newton_sigma_polys,
    reduce_to_hauptmodul,
    required_multiplier_trunc,
    u_matrix_rows,
    v_matrix_rows,
    _haupt_power,
    _transfer_rows,
)
from crankparity.series import (
    EtaQuotientSpec,
    IntLaurentSeries,
    NonUnitDivisorError,
    apply_U,
    eta_quotient,
)


class TestEtaQuotients:
    def test_expansions_start_at_q(self):
        assert ladder_multiplier(20).offset == 1
        assert hauptmodul(20).offset == 1
        assert newton_quotient(20).offset == 3

    def test_hauptmodul_negative_powers(self):
        g = hauptmodul(60)
        ginv = g.reciprocal()
        assert [ginv.coeff(e) for e in (-1, 0, 1, 2)] == [1, 2, 1, 2]
        g2inv = ginv * ginv
        assert [g2inv.coeff(e) for e in (-2, -1, 0)] == [1, 4, 6]


class TestKeystone:
    def test_multiplier_u5_is_five_hauptmodul(self):
        lhs = apply_U(5, ladder_multiplier(1501))
        assert lhs.first_mismatch(hauptmodul(300) * 5, 300) is None


class TestReduce:
    def test_identity(self):
        g = hauptmodul(60)
        assert reduce_to_hauptmodul(g, 1, 1) == {1: 1}

    def test_keystone_reduction(self):
        image = apply_U(5, ladder_multiplier(251))
        poly = reduce_to_hauptmodul(image.truncate(50), 0, 6)
        assert poly == {1: 5}

    def test_negative_window(self):
        poly = reduce_to_hauptmodul(newton_power_u5(-2, 40), -2, 0)
        # nonzero entries only, in increasing j, and read-only
        assert list(poly.items()) == [(-1, 2), (0, -1)]
        with pytest.raises(TypeError):
            poly[0] = 1

    def test_non_polynomial_rejected(self):
        # the multiplier itself lives on level 50 and is not a polynomial
        # in the level-10 hauptmodul
        with pytest.raises(NotHauptmodulPolynomialError):
            reduce_to_hauptmodul(ladder_multiplier(120), 0, 5)

    def test_window_start_enforced(self):
        with pytest.raises(NotHauptmodulPolynomialError):
            reduce_to_hauptmodul(newton_power_u5(-2, 40), 0, 3)

    @pytest.mark.parametrize("exact", [True, False])
    def test_window_from_one_refuses_a_constant_term(self, exact):
        # G^j = q^j + ... for j >= 1, so a constant term is a q^0 term
        t = 40
        x = IntLaurentSeries.one(t) + hauptmodul(t)
        with pytest.raises(NotHauptmodulPolynomialError,
                           match="exponent 0 below the window start 1"):
            reduce_to_hauptmodul(x, 1, 3, exact=exact)

    def test_inexact_reduction_reads_only_the_prefix(self):
        x = ladder_multiplier(2000)
        for jmax in (1, 11, 40):
            short = x.truncate(jmax + 1)
            assert reduce_to_hauptmodul(x, 0, jmax, exact=False) \
                == reduce_to_hauptmodul(short, 0, jmax, exact=False)

    def test_evaluate_roundtrip(self):
        poly = {-1: 2, 0: -1, 3: 7}
        assert reduce_to_hauptmodul(evaluate(poly, 40), -1, 3) == poly

    def test_evaluate_against_independent_powers(self):
        # grow the shared power table first: longer, then further negative
        _haupt_power(12, 80)
        _haupt_power(-3, 50)
        coeffs = {-2: 3, 0: -1, 4: 7, 9: 2}
        got = evaluate(coeffs, 40)
        g = hauptmodul(43)
        want = IntLaurentSeries.zero(40)
        for j, c in coeffs.items():
            power = g ** j if j >= 0 else g.reciprocal() ** -j
            want = want + power.truncate(40) * c
        assert got.trunc == 40 and got.first_mismatch(want, 40) is None

    def test_power_table_grows_and_rebuilds(self, monkeypatch):
        # from an empty table: extend both ways, rebuild at a larger base
        # at (0, 60), then read and extend the rebuilt table
        monkeypatch.setattr(fivetower, "_haupt_table", {})
        for j, order in [(-2, 40), (5, 20), (-3, 30), (5, 38), (9, 12),
                         (0, 60), (5, 58), (-4, 25), (1, 3)]:
            got = _haupt_power(j, order)
            g = hauptmodul(order + 1 + max(0, -j))
            want = g ** j if j >= 0 else g.reciprocal() ** -j
            assert got.trunc == order, (j, order)
            assert got.first_mismatch(want, order) is None, (j, order)


class TestNewtonQuotientPowers:
    @pytest.mark.parametrize("mu,want", [
        (1, {0: 1}),
        (2, {-1: 2, 0: -1}),
        (3, {-1: 6, 0: -5}),
        (4, {-2: 6, 0: -5}),
    ])
    def test_negative_power_closed_forms(self, mu, want):
        poly = reduce_to_hauptmodul(newton_power_u5(-mu, 40),
                                    -(3 * mu // 5) - 1, 0)
        assert poly == want

    @pytest.mark.parametrize("mu,want", [
        (1, {0: -1}),
        (2, {-1: 1}),
        (3, {0: -5}),
        (4, {-2: 1, -1: 5, 0: -25}),
    ])
    def test_multiplier_weighted_closed_forms(self, mu, want):
        # (multiplier * phi^-mu) | U_5 below q^40; phi^-mu starts at
        # q^(-3mu), so the multiplier is padded by 3mu terms
        t = 5 * (40 - 1) + 1
        image = apply_U(5, ladder_multiplier(t + 3 * mu)
                        * eta_quotient(NEWTON_QUOTIENT_SPEC ** -mu, t))
        poly = reduce_to_hauptmodul(image, -(3 * mu // 5) - 2, 1)
        assert poly == want


class TestNewtonSigmas:
    def test_integral_and_validated(self):
        # newton_sigma_polys raises if the degree-5 recurrence fails to
        # reproduce phi^mu|U_5 at mu = 5, 6, 7, -5, -6
        sigmas = newton_sigma_polys()
        assert len(sigmas) == 5
        for k, sigma in enumerate(sigmas, start=1):
            assert all(isinstance(c, int) for c in sigma.values())
            assert max(sigma) <= 3 * k
        assert list(sigmas) == [
            {1: 5, 2: -25, 3: 25}, {2: -15, 3: 25}, {2: -5, 3: 15},
            {3: 5}, {3: 1}]

    @pytest.mark.parametrize("mu, error", [
        (2, NonUnitDivisorError),  # sigma_2 = (sigma_1 p_1 - p_2) / 2
        (7, AssertionError),       # read only by the recurrence check
    ])
    def test_perturbed_power_sum_is_caught(self, monkeypatch, mu, error):
        # 5 q^5 added to p_mu: odd in sigma_2's numerator, and off the
        # recurrence at mu = 7
        exact = fivetower.newton_power_u5

        def perturbed(m, order):
            x = exact(m, order)
            return x + IntLaurentSeries.monomial(5, 1, order) if m == mu \
                else x

        monkeypatch.setattr(fivetower, "newton_power_u5", perturbed)
        newton_sigma_polys.cache_clear()
        try:
            with pytest.raises(error) as info:
                newton_sigma_polys()
        finally:
            newton_sigma_polys.cache_clear()
        if mu == 7:
            # the perturbed p_7 is the recurrence's direct side
            assert str(info.value) == (
                "Newton recurrence failed to reproduce phi^7|U_5: first at "
                "q^5: direct 267, recurrence 266")

    def test_recurrence_reproduces_explicitly(self):
        sigmas = newton_sigma_polys()
        order = 30
        lhs = newton_power_u5(5, order)
        rhs = IntLaurentSeries.zero(order)
        for i, sigma in enumerate(sigmas, start=1):
            term = evaluate(sigma, order) * newton_power_u5(5 - i, order)
            rhs = rhs + (term if i % 2 else -term)
        assert lhs.first_mismatch(rhs, min(lhs.trunc, rhs.trunc)) is None


class TestTransferMatrices:
    def test_row_one_against_keystone(self):
        a_rows, b_rows = u_matrix_rows(2), v_matrix_rows(2)
        # L_1 = 5G means the V-image of the constant is (5,0,0,...); row 1
        # of A is the image of G itself
        image = apply_U(5, hauptmodul(301))
        assert reduce_to_hauptmodul(image.truncate(60), 0, 5) \
            == a_rows[1]
        assert max(b_rows[1]) <= 6

    def test_degrees_and_no_constants(self):
        a_rows, b_rows = u_matrix_rows(6), v_matrix_rows(6)
        for i in range(1, 7):
            assert 0 not in a_rows[i] and max(a_rows[i]) <= 5 * i
            assert 0 not in b_rows[i] and max(b_rows[i]) <= 5 * i + 1

    def test_valuation_lower_bounds(self):
        a_rows, b_rows = u_matrix_rows(6), v_matrix_rows(6)
        for rows in (a_rows, b_rows):
            for i, row in rows.items():
                for j, c in row.items():
                    assert five_adic(c) >= (5 * j - i - 1) // 6, (i, j, c)
        for i, row in b_rows.items():
            if i % 5 == 1:
                for j, c in row.items():
                    assert five_adic(c) >= 1, (i, j, c)

    def test_cached_rows_are_read_only(self):
        rows = u_matrix_rows(3)
        with pytest.raises(TypeError):
            rows[1][1] = 999
        with pytest.raises(TypeError):
            rows[1] = {1: 999}
        assert u_matrix_rows(3)[1][1] == 11
        # a windowed row past the window is empty, and read-only too
        windowed = _transfer_rows(LADDER_MULTIPLIER_SPEC, 12, 1)
        with pytest.raises(TypeError):
            windowed[12][1] = 999

    @pytest.mark.parametrize("jmax", [1, 2, 5, 11])
    def test_windowed_rows_are_cut_full_rows(self, jmax):
        imax = 12
        for pre, full in ((EtaQuotientSpec(()), u_matrix_rows(imax)),
                          (LADDER_MULTIPLIER_SPEC, v_matrix_rows(imax))):
            v = pre.prefactor_exponent
            windowed = _transfer_rows(pre, imax, jmax)
            assert sorted(windowed) == list(range(1, imax + 1))
            for i in range(1, imax + 1):
                cut = {j: c for j, c in full[i].items() if j <= jmax}
                assert windowed[i] == cut, (v, i)
                if i + v > 5 * jmax:
                    assert windowed[i] == {}, (v, i)

    def test_wider_rows_keep_lemma_a(self):
        # the ladder consistency check computes rows up to i = 26; the
        # valuation bound is stated for all i, so spot-check beyond 6
        rows = u_matrix_rows(10)
        for i, row in rows.items():
            for j, c in row.items():
                assert five_adic(c) >= (5 * j - i - 1) // 6, (i, j, c)


class TestLadder:
    def test_budget_recursion(self):
        assert required_multiplier_trunc(2, 12) == 33726
        assert required_multiplier_trunc(0, 200) == 996

    def test_budget_guard(self):
        # alpha = 3 needs 843,101 multiplier terms: refused before any build
        for alpha_max in (3, 4):
            with pytest.raises(BudgetExceededError, match="above the ceiling"):
                ladder(alpha_max)

    def test_cached_states_are_frozen(self):
        states = ladder(0)
        assert isinstance(states, tuple) and states is ladder(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            states[1].nu = 3
        with pytest.raises(TypeError):
            states[1].gpoly[1] = 999
        assert ladder(0)[1].gpoly == {1: 5}

    def test_first_rung_is_five_hauptmodul(self):
        states = ladder(1)
        assert states[1].gpoly == {1: 5}

    def test_series_and_matrix_routes_agree(self):
        # ladder() raises LadderConsistencyError internally on mismatch;
        # also compare explicitly here
        states = ladder(2)
        vectors = ladder_vectors(2)
        for state in states:
            if state.nu == 0:
                continue
            top = min(11, state.series.trunc - 1)
            got = state.gpoly
            want = vectors[state.nu]
            for j in range(1, top + 1):
                assert got.get(j, 0) == want.get(j, 0), (state.nu, j)

    def test_odd_rung_valuations(self):
        for state in ladder(2):
            if state.nu % 2 == 0:
                continue
            a = (state.nu - 1) // 2
            for j, c in state.gpoly.items():
                assert five_adic(c) >= a + 1 + (j - 1) // 2, (state.nu, j)

    def test_even_rung_valuations(self):
        for state in ladder(2):
            if state.nu % 2 or state.nu == 0:
                continue
            a = (state.nu - 2) // 2
            for j, c in state.gpoly.items():
                assert five_adic(c) >= a + 1 + j // 2, (state.nu, j)

    def test_divisibility_theorem(self):
        # entries of L_(2a+1) are divisible by 5^(a+1)
        for state in ladder(2):
            if state.nu % 2 == 0:
                continue
            a = (state.nu - 1) // 2
            for c in state.gpoly.values():
                assert c % 5 ** (a + 1) == 0


class TestLadderSubsequence:
    def test_alpha0_matches_5n4_form(self):
        # at depth 0 the identity is the 5n+4 closed form reindexed
        assert ladder_subsequence_check(0, 200) is None

    def test_alpha1(self):
        assert ladder_subsequence_check(1, 40) is None

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            ladder_subsequence_check(3, 400)

    def test_first_coefficient_is_five(self):
        states = ladder(0)
        assert states[1].series.coeff(1) == 5


class TestFiveAdic:
    def test_values(self):
        assert five_adic(75) == 2
        assert five_adic(-125) == 3
        assert five_adic(7) == 0
        with pytest.raises(ValueError):
            five_adic(0)
