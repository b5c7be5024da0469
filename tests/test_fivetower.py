import pytest

from crankparity import cranks, fivetower, series
from crankparity.fivetower import (
    LADDER_MULTIPLIER_SPEC,
    SIGMAS,
    BudgetExceededError,
    evaluate,
    five_adic,
    hauptmodul,
    ladder,
    ladder_multiplier,
    ladder_subsequence_check,
    ladder_vectors,
    reduce_to_hauptmodul,
    u_matrix_rows,
    v_matrix_rows,
    _crank_side,
    _haupt_power,
    _transfer_rows,
)
from crankparity.series import (
    IntLaurentSeries,
    TruncationError,
    apply_U,
    eta_quotient,
)
from modular import (
    PHI_SPEC,
    phi_power_u5,
    prefactor_exponent,
    reduce_laurent,
    spec_power,
)


class TestEtaQuotients:
    def test_expansions_start_at_q(self):
        assert ladder_multiplier(20).offset == 1
        assert hauptmodul(20).offset == 1
        assert eta_quotient(PHI_SPEC, 20).offset == 3

    def test_multiplier_route_matches_its_eta_quotient(self):
        # q C(q) / C(q^25) against the eta quotient's own Euler and cube
        # passes, at every truncation to 319 (across the level-25 and
        # level-50 terms) and at longer ones
        for t in [*range(2, 320), 501, 1001, 2500, 5003]:
            got = fivetower._multiplier(t)
            want = eta_quotient(LADDER_MULTIPLIER_SPEC, t)
            assert (got.offset, got.coeffs, got.trunc) \
                == (want.offset, want.coeffs, want.trunc), t

    @pytest.mark.parametrize("build, trunc, message", [
        (ladder_multiplier, 1,
         r"truncation 1 does not reach past the prefactor q\^1"),
        (fivetower._multiplier, 1,
         r"truncation 1 does not reach past the prefactor q\^1"),
        (fivetower._multiplier, 0,
         r"truncation 0 does not reach past the prefactor q\^1"),
        (ladder_multiplier, 0, r"truncation must be positive, got 0"),
    ], ids=["memoised-1", "builder-1", "builder-0", "memoised-0"])
    def test_multiplier_refuses_its_prefactor(self, fresh_tower, build,
                                              trunc, message):
        with pytest.raises(TruncationError, match=f"^{message}$"):
            build(trunc)

    @pytest.mark.parametrize("warm", ["memo", "cache"])
    @pytest.mark.parametrize("build", [ladder_multiplier, hauptmodul],
                             ids=["multiplier", "hauptmodul"])
    def test_a_longer_series_served_refuses_its_prefactor(
            self, fresh_tower, monkeypatch, tmp_path, build, warm):
        # a series kept from a longer request, in memory or in the cache
        # directory, is refused at q^1 as a fresh build is, not cut to
        # 0 + O(q^1)
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        build(50)
        if warm == "cache":
            monkeypatch.setattr(series, "_memo", {})
        with pytest.raises(TruncationError, match=r"^truncation 1 does not "
                           r"reach past the prefactor q\^1$"):
            build(1)
        got = build(2)
        assert (got.offset, got.coeffs) == (1, (1,))

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
        # the window G^-2..G^0, read as x G^2 over G^0..G^2
        assert reduce_laurent(phi_power_u5(-2, 40), -2, 0) == {-1: 2, 0: -1}

    def test_non_polynomial_rejected(self):
        # the multiplier itself lives on level 50 and is not a polynomial
        # in the level-10 hauptmodul; the message names the first nonzero
        # residual coefficient and the 0 it should be
        with pytest.raises(AssertionError,
                           match=r"^nonzero residual starting at q\^6: "
                                 r"-154 != 0, not a hauptmodul polynomial "
                                 r"on \[0, 5\]"):
            reduce_to_hauptmodul(ladder_multiplier(120), 0, 5)

    def test_window_start_enforced(self):
        with pytest.raises(AssertionError,
                           match="exponent -1 below the window start 0"):
            reduce_to_hauptmodul(phi_power_u5(-2, 40), 0, 3)

    def test_window_from_one_refuses_a_constant_term(self):
        # G^j = q^j + ... for j >= 1, so a constant term is a q^0 term
        t = 40
        x = IntLaurentSeries.one(t) + hauptmodul(t)
        with pytest.raises(AssertionError,
                           match="exponent 0 below the window start 1"):
            reduce_to_hauptmodul(x, 1, 3)

    def test_short_truncation_is_refused(self):
        # G^11 is read at q^11, so a series cut at q^11 cannot give c_11
        x = ladder_multiplier(11)
        with pytest.raises(AssertionError,
                           match="truncation 11 cannot close"):
            reduce_to_hauptmodul(x, 0, 11)

    def test_evaluate_roundtrip(self):
        poly = reduce_to_hauptmodul(evaluate({3: 7, 1: 0, 0: -1}, 40), 0, 3)
        # nonzero entries only, in increasing j, and read-only
        assert list(poly.items()) == [(0, -1), (3, 7)]
        with pytest.raises(TypeError):
            poly[0] = 1

    def test_evaluate_against_independent_powers(self):
        # grow the shared power table first: longer, then read shorter
        _haupt_power(12, 80)
        _haupt_power(3, 50)
        coeffs = {0: -1, 2: 3, 4: 7, 9: 2}
        got = evaluate(coeffs, 40)
        g = hauptmodul(41)
        want = IntLaurentSeries.zero(40)
        for j, c in coeffs.items():
            want = want + (g ** j).truncate(40) * c
        assert got.trunc == 40 and got.first_mismatch(want, 40) is None

    def test_power_table_grows_and_rebuilds(self, monkeypatch):
        # from an empty table: extend, rebuild at a larger base at (0, 60),
        # then read and extend the rebuilt table
        monkeypatch.setattr(fivetower, "_haupt_table", [])
        for j, order in [(2, 40), (5, 20), (3, 30), (5, 38), (9, 12),
                         (0, 60), (5, 58), (11, 25), (1, 3)]:
            got = _haupt_power(j, order)
            want = hauptmodul(order + 1) ** j
            assert got.trunc == order, (j, order)
            assert got.first_mismatch(want, order) is None, (j, order)

    def test_negative_power_is_refused(self, monkeypatch):
        # a list index would wrap: G^-1 would read the top power present
        monkeypatch.setattr(fivetower, "_haupt_table", [])
        _haupt_power(4, 20)
        for call in (lambda: _haupt_power(-1, 20),
                     lambda: evaluate({-1: 2, 0: 1}, 20)):
            with pytest.raises(ValueError,
                               match=r"^G\^-1: only powers j >= 0 are built$"):
                call()
        assert len(fivetower._haupt_table) == 5

    def test_failed_rebuild_keeps_the_table(self, monkeypatch):
        # G at the new base is built before the table is replaced, so a
        # build that raises (an interrupt, a MemoryError) leaves the old
        # table whole and the next request rebuilds
        monkeypatch.setattr(fivetower, "_haupt_table", [])
        _haupt_power(2, 10)
        raised = []

        def hauptmodul_raising_once(trunc):
            if not raised:
                raised.append(trunc)
                raise MemoryError
            return hauptmodul(trunc)
        monkeypatch.setattr(fivetower, "hauptmodul", hauptmodul_raising_once)
        with pytest.raises(MemoryError):
            _haupt_power(2, 30)
        g = hauptmodul(31)
        assert _haupt_power(2, 30).first_mismatch(g * g, 30) is None
        assert _haupt_power(2, 30).trunc == 30


class TestNewtonQuotientPowers:
    @pytest.mark.parametrize("mu,want", [
        (1, {0: 1}),
        (2, {-1: 2, 0: -1}),
        (3, {-1: 6, 0: -5}),
        (4, {-2: 6, 0: -5}),
    ])
    def test_negative_power_closed_forms(self, mu, want):
        poly = reduce_laurent(phi_power_u5(-mu, 40), -(3 * mu // 5) - 1, 0)
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
                        * eta_quotient(spec_power(PHI_SPEC, -mu), t))
        poly = reduce_laurent(image, -(3 * mu // 5) - 2, 1)
        assert poly == want

    def test_another_quotient_has_no_closed_form(self, monkeypatch):
        # criterion 4's reduction, with the multiplier in phi's place
        monkeypatch.setattr("modular.PHI_SPEC", LADDER_MULTIPLIER_SPEC)
        for mu in range(1, 5):
            with pytest.raises(AssertionError,
                               match=r"^nonzero residual starting at q\^"):
                reduce_laurent(phi_power_u5(-mu, 40), -3, 0)


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
        windowed = _transfer_rows(1, 12, 1)
        with pytest.raises(TypeError):
            windowed[12][1] = 999

    @pytest.mark.parametrize("jmax", [1, 2, 5, 11])
    def test_windowed_rows_are_cut_full_rows(self, jmax):
        imax = 12
        for v, full in ((0, u_matrix_rows(imax)), (1, v_matrix_rows(imax))):
            windowed = _transfer_rows(v, imax, jmax)
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


def series_route_rows(pre, imax, jmax=None):
    """(pre * G^i) | U_5 for i = 1..imax, pre the eta quotient of the (d, r)
    factors pre, one series product per row: full width certified by a
    zero residual, or the prefix cut after q^jmax and read to column jmax
    (empty once the image starts past q^jmax)."""
    v = prefactor_exponent(pre)
    order = 5 * imax + 11 if jmax is None else jmax + 4
    t = 5 * order + 1
    g, cur = hauptmodul(t), eta_quotient(pre, t)
    rows = {}
    for i in range(1, imax + 1):
        if jmax is not None and i + v > 5 * jmax:
            rows[i] = {}
            continue
        cur = cur * g
        image = apply_U(5, cur).truncate(order)
        rows[i] = reduce_to_hauptmodul(image, 1, 5 * i + v) if jmax is None \
            else reduce_to_hauptmodul(image.truncate(jmax + 1), 1, jmax)
    return rows


def corrupt_series_rows(monkeypatch, v, i, j, delta):
    exact = fivetower._series_rows

    def corrupted(w):
        rows = list(exact(w))
        if w == v:
            rows[i] = dict(rows[i])
            rows[i][j] = rows[i].get(j, 0) + delta
        return tuple(rows)

    monkeypatch.setattr(fivetower, "_series_rows", corrupted)


class TestModularEquation:
    def test_sigmas_are_read_only_from_g1_to_g5(self):
        assert len(SIGMAS) == 5
        for sigma in SIGMAS:
            assert list(sigma) == sorted(sigma)
            assert 1 <= min(sigma) and max(sigma) <= 5
            with pytest.raises(TypeError):
                sigma[1] = 0
        with pytest.raises(TypeError):
            SIGMAS[0] = {}

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("j", range(1, 6))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_mutated_sigma_is_refused(self, monkeypatch, k, j, delta):
        # rows 5 and 6 of A pin all 25 coefficients: each one moved by 1,
        # a term added above sigma_k's degree included, is seen
        sigma = {**SIGMAS[k], j: SIGMAS[k].get(j, 0) + delta}
        monkeypatch.setattr(fivetower, "SIGMAS",
                            (*SIGMAS[:k], sigma, *SIGMAS[k + 1:]))
        with pytest.raises(AssertionError,
                           match=r"^prefactor 1, row [56], G\^"):
            _transfer_rows(0, 8, 41)

    @pytest.mark.parametrize("pre", [(), LADDER_MULTIPLIER_SPEC])
    def test_full_rows_match_the_series_route(self, pre):
        v = prefactor_exponent(pre)
        assert _transfer_rows(v, 12, 5 * 12 + v) \
            == series_route_rows(pre, 12)

    def test_windowed_rows_match_the_series_route(self):
        assert _transfer_rows(1, 130, 11) \
            == series_route_rows(LADDER_MULTIPLIER_SPEC, 130, 11)

    @pytest.mark.parametrize("v, i, j, delta, message", [
        (0, 6, 2, 1,
         "prefactor 1, row 6, G^2: series gives 1522, modular equation "
         "gives 1521"),
        (1, 6, 2, 1,
         "prefactor ((1, 3), (2, -2), (50, 2), (25, -3)), row 6, G^2: "
         "series gives -634, modular equation gives -635"),
        # row 5 of B is rebuilt from rows 0..4, so it sees row 2
        (1, 2, 1, 1,
         "prefactor ((1, 3), (2, -2), (50, 2), (25, -3)), row 5, G^2: "
         "series gives 1640, modular equation gives 1675"),
        # a constant in A's row 1 reaches row 5 through sigma_4 = 10G - 5G^2
        (0, 1, 0, 1,
         "prefactor 1, row 5, G^1: series gives 1, modular equation "
         "gives -9"),
        (0, 2, 3, 1,
         "prefactor 1, row 5, G^4: series gives -13553000, modular "
         "equation gives -13552965"),
        # the top column of a row, G^(5i), is compared too
        (0, 6, 30, 1,
         "prefactor 1, row 6, G^30: series gives 11920928955078126, "
         "modular equation gives 11920928955078125"),
    ], ids=["A-row-6", "B-row-6", "B-row-2", "A-row-1-G0", "A-row-2",
            "A-row-6-top"])
    def test_corrupt_series_row_is_refused(self, monkeypatch, v, i, j,
                                           delta, message):
        corrupt_series_rows(monkeypatch, v, i, j, delta)
        with pytest.raises(AssertionError) as info:
            _transfer_rows(v, 8, 41)
        assert str(info.value) == message

    def test_corrupt_series_row_stops_the_ladder(self, monkeypatch):
        # the ladder steps by A before B, and A's build sees its row 2
        corrupt_series_rows(monkeypatch, 0, 2, 3, 1)
        with pytest.raises(AssertionError,
                           match=r"^prefactor 1, row 5, G\^4: "):
            ladder_vectors(1, 11)


class TestLadder:
    @pytest.mark.parametrize("alpha_max, need", [(1, 1350), (2, 33725)])
    def test_crank_lengths(self, monkeypatch, fresh_tower, alpha_max, need):
        # the top rung reads c below 5^(2a+1) 11 - delta_a + 1 = need, every
        # index 4 mod 5: one build of E = sum c(5m+4) q^m, at need / 5
        # terms, and no crank series
        exact = cranks.eta_5n4_series
        built = []

        def counted(trunc):
            built.append(trunc)
            return exact(trunc)

        monkeypatch.setattr(cranks, "eta_5n4_series", counted)
        monkeypatch.setattr(cranks, "crank_parity_series", None)
        ladder(alpha_max)
        assert built[0] == need // 5
        assert series._memo["eta_5n4"].trunc == need // 5
        assert "crank" not in series._memo

    def test_budget_guard(self, monkeypatch):
        # alpha = 3 reads c below 843,100, E's first 168,620 terms: refused
        # before E or the matrices are built
        monkeypatch.setattr(cranks, "eta_5n4_series", None)
        monkeypatch.setattr(fivetower, "ladder_vectors", None)
        for alpha_max, need in ((3, 168620), (4, 4215495)):
            with pytest.raises(BudgetExceededError,
                               match=f"needs {need} coefficients of the "
                                     "5n\\+4 eta quotient E, above the "
                                     "ceiling 40000$"):
                ladder(alpha_max)

    def test_cached_states_are_frozen(self):
        rungs = ladder(0)
        assert list(rungs) == [0, 1]
        with pytest.raises(TypeError):
            rungs[1] = {1: 999}
        with pytest.raises(TypeError):
            rungs[1][1] = 999
        assert ladder(0)[1] == {1: 5}

    def test_first_rung_is_five_hauptmodul(self):
        rungs = ladder(1)
        assert rungs[0] == {0: 1} and rungs[1] == {1: 5}

    def test_crank_and_matrix_routes_agree(self):
        # ladder() raises AssertionError internally on mismatch;
        # also compare explicitly here, on every j <= 11
        rungs = ladder(2)
        vectors = ladder_vectors(2, 11)
        for nu, got in rungs.items():
            if nu == 0:
                continue
            want = vectors[nu]
            for j in range(1, 12):
                assert got.get(j, 0) == want.get(j, 0), (nu, j)

    def test_odd_rung_valuations(self):
        for nu, poly in ladder(2).items():
            if nu % 2 == 0:
                continue
            a = (nu - 1) // 2
            for j, c in poly.items():
                assert five_adic(c) >= a + 1 + (j - 1) // 2, (nu, j)

    def test_even_rung_valuations(self):
        for nu, poly in ladder(2).items():
            if nu % 2 or nu == 0:
                continue
            a = (nu - 2) // 2
            for j, c in poly.items():
                assert five_adic(c) >= a + 1 + j // 2, (nu, j)

    def test_divisibility_theorem(self):
        # entries of L_(2a+1) are divisible by 5^(a+1)
        for nu, poly in ladder(2).items():
            if nu % 2 == 0:
                continue
            a = (nu - 1) // 2
            for c in poly.values():
                assert c % 5 ** (a + 1) == 0

    def test_depth_zero_is_cross_checked(self, monkeypatch):
        # L_1 = 5G by series; a matrix route claiming 4G must be refused
        monkeypatch.setattr(fivetower, "ladder_vectors",
                            lambda alpha_max, jmax: {1: {1: 4}})
        with pytest.raises(AssertionError,
                           match=r"rung 1, G\^1: series gives 5, "
                                 "matrices give 4"):
            ladder(0)


def full_width_chain(alpha_max, jmax):
    """The rungs by full-width rows of A and B, with only the last B step
    cut at jmax, one vector-matrix product per step."""
    def times(vec, rows):
        out = {}
        for i, vi in vec.items():
            for j, rij in rows[i].items():
                out[j] = out.get(j, 0) + vi * rij
        return {j: c for j, c in out.items() if c}

    vec = {1: 5}
    vectors = {1: vec}
    for a in range(alpha_max):
        vec = times(vec, u_matrix_rows(max(vec)))
        vectors[2 * a + 2] = vec
        b_rows = _transfer_rows(1, max(vec), jmax) \
            if a == alpha_max - 1 else v_matrix_rows(max(vec))
        vec = times(vec, b_rows)
        vectors[2 * a + 3] = vec
    return vectors


class TestWindows:
    @pytest.mark.parametrize("jmax", [1, 2, 11, 39, 60])
    @pytest.mark.parametrize("alpha_max", [0, 1, 2])
    def test_rungs_match_full_width_rows(self, alpha_max, jmax):
        got = ladder_vectors(alpha_max, jmax)
        want = full_width_chain(alpha_max, jmax)
        assert sorted(got) == sorted(want)
        for nu in want:
            for j in range(1, jmax + 1):
                assert got[nu].get(j, 0) == want[nu].get(j, 0), (nu, j)

    @pytest.mark.parametrize("alpha_max, calls", [
        (2, [(0, 1, 1349), (1, 5, 270), (0, 26, 54), (1, 54, 11)]),
        (3, [(0, 1, 33724), (1, 5, 6745), (0, 26, 1349), (1, 130, 270),
             (0, 270, 54), (1, 54, 11)]),
    ])
    def test_windows_run_backward_from_the_top(self, monkeypatch,
                                               alpha_max, calls):
        # a step by rows with prefactor q^v + ... read to column w needs
        # the rung before it to column 5w - v; (v, imax, jmax) per step
        exact = fivetower._transfer_rows
        seen = []

        def recorded(v, imax, jmax):
            seen.append((v, imax, jmax))
            return exact(v, imax, jmax)

        monkeypatch.setattr(fivetower, "_transfer_rows", recorded)
        ladder_vectors(alpha_max, 11)
        assert seen == calls


class TestOneRoute:
    def test_recurrence_entry_past_row_six_is_checked(self, monkeypatch,
                                                       fresh_tower):
        # A's row 7 comes from the modular equation alone, and no series
        # row check reads it; L_3 reaches it (L_3[7] != 0), so rung 4 = L_3 A
        # moves at G^3 and only the crank side of Claim L, read off E, can
        # see that
        exact = fivetower._transfer_rows

        def corrupted(v, imax, jmax):
            rows = dict(exact(v, imax, jmax))
            if v == 0 and imax >= 7:
                rows[7] = {**rows[7], 3: rows[7][3] + 1}
            return rows

        monkeypatch.setattr(fivetower, "_transfer_rows", corrupted)
        with pytest.raises(AssertionError, match=r"^rung 4, G\^3: "):
            ladder(2)

    def test_no_multiplier_on_the_ladder_paths(self, monkeypatch,
                                               fresh_tower):
        def refused(trunc):
            raise AssertionError("multiplier built on a ladder path")

        monkeypatch.setattr(fivetower, "ladder_multiplier", refused)
        assert ladder(1)[3] == ladder_vectors(1, 11)[3]
        assert ladder_subsequence_check(1, 40) is None

    def test_multiplier_passes(self, monkeypatch, fresh_tower):
        # one lattice theta(-q)^2, one Euler division at level 1, two Euler
        # multiply passes at level 50 and one cube division at level 25:
        # no cube multiply pass and no eta quotient.  A pass is named by
        # its first term, (d, -1) for Euler's and (d, -3) for Jacobi's
        lattices, passes = [], []
        real_theta, real_sparse = cranks._theta_square, series._apply_sparse

        def theta(trunc):
            lattices.append(trunc)
            return real_theta(trunc)

        def sparse(x, terms, sign):
            passes.append((terms[0], sign))
            real_sparse(x, terms, sign)

        monkeypatch.setattr(cranks, "_theta_square", theta)
        monkeypatch.setattr(series, "_apply_sparse", sparse)
        monkeypatch.setattr(fivetower, "eta_quotient", None)
        ladder_multiplier(2001)
        assert lattices == [2000]
        assert sorted(passes) == [((1, -1), -1), ((25, -3), -1),
                                  ((50, -1), 1), ((50, -1), 1)]

    def test_b_rows_take_no_multiplier_eta_quotient(self, monkeypatch,
                                                   fresh_tower):
        # B's rows build the multiplier afresh by its one route, off the
        # memo, and never as its eta quotient
        real = fivetower.eta_quotient
        specs = []

        def recorded(spec, trunc):
            specs.append(spec)
            return real(spec, trunc)

        monkeypatch.setattr(fivetower, "eta_quotient", recorded)
        rows = fivetower._series_rows(1)
        assert rows[0] == {1: 5}
        assert LADDER_MULTIPLIER_SPEC not in specs
        assert "multiplier" not in series._memo

    def test_lattice_fault_is_caught_by_the_ladder(self, monkeypatch,
                                                   fresh_tower):
        # a lattice one square short moves the multiplier that B's rows
        # read from q^197 (the points (+-14, 0), (0, +-14) dropped); no
        # hauptmodul polynomial fits it
        real = cranks.isqrt
        monkeypatch.setattr(cranks, "isqrt", lambda n: real(n) - 1)
        with pytest.raises(AssertionError,
                           match=r"^nonzero residual starting at q\^"):
            ladder(1)

    def test_crank_side_takes_no_cube_pass(self, monkeypatch, fresh_tower):
        # P_d and E from Euler passes only: no Jacobi term and no lattice
        # theta(-q)^2 is shared with the multiplier or G
        def refused(*args):
            raise AssertionError("cube pass or lattice on the crank side")

        monkeypatch.setattr(series, "_cube_terms", refused)
        monkeypatch.setattr(cranks, "_theta_square", refused)
        sides = {nu: _crank_side(nu, 12) for nu in (1, 2, 3, 4)}
        monkeypatch.undo()
        rungs = ladder(2)
        for nu, side in sides.items():
            assert reduce_to_hauptmodul(side, 1, 11) == rungs[nu], nu


class TestLadderSubsequence:
    def test_alpha0_matches_5n4_form(self):
        # at depth 0 the identity is the 5n+4 closed form reindexed
        assert ladder_subsequence_check(0, 200) is None

    def test_alpha1(self):
        assert ladder_subsequence_check(1, 40) is None

    def test_budget_guard(self, monkeypatch):
        # refused before E or the matrices are built
        monkeypatch.setattr(cranks, "eta_5n4_series", None)
        monkeypatch.setattr(fivetower, "ladder_vectors", None)
        with pytest.raises(BudgetExceededError, match="needs 6231120 "):
            ladder_subsequence_check(3, 400)

    def test_ceiling_admits_its_own_length(self, monkeypatch):
        # depth two below q^40 needs 24,245 coefficients of E (see below):
        # built at a ceiling of exactly that, refused one below it
        class Recorded(Exception):
            pass

        def record(trunc):
            raise Recorded

        monkeypatch.setattr(cranks, "eta_5n4_series", record)
        monkeypatch.setattr(fivetower, "COEFFICIENT_CEILING", 24245)
        with pytest.raises(Recorded):
            ladder_subsequence_check(2, 40)
        monkeypatch.setattr(fivetower, "COEFFICIENT_CEILING", 24244)
        with pytest.raises(BudgetExceededError, match="needs 24245 "):
            ladder_subsequence_check(2, 40)

    def test_crank_length_at_depth_two(self, monkeypatch):
        # below q^40 the crank side reads c(5^5 n - 651) for n <= 39, E's
        # coefficients up to q^((5^5 39 - 655) / 5): 24,245 of them, asked
        # for before anything is built
        class Recorded(Exception):
            pass

        asked = []

        def record(trunc):
            asked.append(trunc)
            raise Recorded

        monkeypatch.setattr(cranks, "eta_5n4_series", record)
        with pytest.raises(Recorded):
            ladder_subsequence_check(2, 40)
        assert asked == [24245]

    @pytest.mark.parametrize("short", [1, 5, 50])
    def test_short_crank_series_is_refused(self, monkeypatch, short):
        # below q^200, c(5n - 1) is read for n <= 199, E up to q^198: an E
        # cut below it is refused, not compared on fewer coefficients
        exact = cranks.eta_5n4_series
        monkeypatch.setattr(cranks, "eta_5n4_series",
                            lambda trunc: exact(trunc - short))
        with pytest.raises(TruncationError, match=r"unavailable: trunc is "):
            ladder_subsequence_check(0, 200)


class TestJacobiCorruption:
    # the multiplier's one pass over Jacobi's cube terms is its division
    # (25, -3), and G's are (2, -4) and (10, 4); a sign flipped in one term
    # must be caught by Claim L, whose crank side (E and P_d) takes none,
    # and by the ladder.  At alpha = 0 Claim L's matrix side is 5G alone, whose
    # sixth cube term sits at q^42 in (q^2;q^2)^3, so it is compared below
    # q^200
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_flipped_sign_is_caught(self, monkeypatch, fresh_tower, n):
        exact = series._cube_terms

        def flipped(d, trunc):
            for k, (e, c) in enumerate(exact(d, trunc), start=1):
                yield e, -c if k == n else c

        monkeypatch.setattr(series, "_cube_terms", flipped)
        assert ladder_subsequence_check(0, 200) is not None
        with pytest.raises(AssertionError,
                           match=r"^nonzero residual starting at q\^"):
            ladder(1)


class TestEulerCorruption:
    # E is built from Euler passes alone; a sign flipped in one of its
    # pentagonal terms, in E's build and nowhere else, must be caught by
    # Claim L, whose matrix side never reads E, by the ladder and by the
    # 5n+4 identity against the crank series
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_flipped_sign_in_e_is_caught(self, monkeypatch, fresh_tower, n):
        exact_terms = series._pentagonal_terms
        exact_e = cranks.eta_5n4_series

        def flipped(d, trunc):
            for k, (e, s) in enumerate(exact_terms(d, trunc), start=1):
                yield e, -s if k == n else s

        def eta_5n4_series(trunc):
            with monkeypatch.context() as m:
                m.setattr(series, "_pentagonal_terms", flipped)
                return exact_e(trunc)

        monkeypatch.setattr(cranks, "eta_5n4_series", eta_5n4_series)
        assert ladder_subsequence_check(0, 200) is not None
        with pytest.raises(AssertionError, match=r"^rung \d, G\^"):
            ladder(1)
        assert cranks.subsequence_5n4_check(200) is not None


class TestFiveAdic:
    def test_values(self):
        assert five_adic(75) == 2
        assert five_adic(-125) == 3
        assert five_adic(7) == 0
        with pytest.raises(ValueError):
            five_adic(0)
