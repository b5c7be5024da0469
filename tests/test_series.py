import io
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from crankparity.fivetower import (
    HAUPTMODUL_SPEC,
    LADDER_MULTIPLIER_SPEC,
    NEWTON_QUOTIENT_SPEC,
)
from crankparity.series import (
    EtaQuotientSpec,
    FractionalExponentError,
    IntLaurentSeries,
    NonUnitDivisorError,
    TruncationError,
    apply_U,
    dump_series,
    eta_quotient,
    euler_factor,
    load_series,
    memo,
    pentagonal_product,
    pentagonal_quotient,
    q_sum,
)

F_SPEC = EtaQuotientSpec(((1, 3), (2, -2), (50, 2), (25, -3)))
G_SPEC = EtaQuotientSpec(((1, 2), (2, -4), (10, 4), (5, -2)))
PHI_SPEC = EtaQuotientSpec(((1, 1), (2, -2), (50, 2), (25, -1)))


def coeffs_of(s, lo, hi):
    return [s.coeff(e) for e in range(lo, hi)]


def random_series(rng, trunc, min_offset=-3):
    offset = rng.randint(min_offset, 2)
    coeffs = [rng.randint(-9, 9) for _ in range(trunc - offset)]
    coeffs[0] = rng.choice([c for c in range(-9, 10) if c])
    return IntLaurentSeries(offset, coeffs, trunc)


class TestEulerFactor:
    def test_pentagonal_prefix(self):
        # Euler's pentagonal number theorem forces 1 - q - q^2 + q^5
        e = euler_factor(1, 1, 6)
        assert coeffs_of(e, 0, 6) == [1, -1, -1, 0, 0, 1]

    def test_odd_product_by_hand(self):
        # (1-q)(1-q^3) = 1 - q - q^3 + q^4
        e = euler_factor(1, 2, 5)
        assert coeffs_of(e, 0, 5) == [1, -1, 0, -1, 1]

    def test_empty_product_below_truncation(self):
        e = euler_factor(5, 5, 5)
        assert coeffs_of(e, 0, 5) == [1, 0, 0, 0, 0]

    def test_invalid_truncation(self):
        with pytest.raises(TruncationError):
            euler_factor(1, 1, 0)
        with pytest.raises(TruncationError):
            euler_factor(1, 1, -3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            euler_factor(0, 1, 5)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 25])
    def test_matches_pentagonal_product(self, d):
        assert euler_factor(d, d, 400).first_mismatch(
            pentagonal_product(d, 400), 400) is None


class TestMul:
    def test_difference_of_squares(self):
        x = IntLaurentSeries.from_terms({0: 1, 1: -1}, 3)
        y = IntLaurentSeries.from_terms({0: 1, 1: 1}, 3)
        assert coeffs_of(x * y, 0, 3) == [1, 0, -1]

    def test_laurent_times_monomial(self):
        x = IntLaurentSeries.from_terms({-1: 1, 0: 2}, 1)
        q = IntLaurentSeries.monomial(1, 1, 5)
        z = x * q
        assert z.offset == 0
        assert coeffs_of(z, 0, 2) == [1, 2]

    def test_euler_square_by_hand(self):
        # (1 - q - q^2)^2 = 1 - 2q - q^2 + 2q^3 + q^4 below q^5
        z = euler_factor(1, 1, 5) ** 2
        assert coeffs_of(z, 0, 5) == [1, -2, -1, 2, 1]

    def test_truncation_rule(self):
        x = IntLaurentSeries(0, [1] * 10, 10)
        y = IntLaurentSeries(2, [1] * 3, 5)
        z = x * y
        assert z.trunc == min(x.trunc + y.offset, y.trunc + x.offset)

    def test_scalar(self):
        x = euler_factor(1, 1, 5)
        assert coeffs_of(x * 3, 0, 5) == [3, -3, -3, 0, 0]
        assert coeffs_of(-2 * x, 0, 5) == [-2, 2, 2, 0, 0]


class TestDiv:
    def test_geometric(self):
        one = IntLaurentSeries.one(4)
        z = one / IntLaurentSeries.from_terms({0: 1, 1: -1}, 4)
        assert coeffs_of(z, 0, 4) == [1, 1, 1, 1]

    def test_telescoping(self):
        num = IntLaurentSeries.from_terms({0: 1, 2: -1}, 6)
        den = IntLaurentSeries.from_terms({0: 1, 1: -1}, 6)
        assert coeffs_of(num / den, 0, 3) == [1, 1, 0]

    def test_partition_generating_function(self):
        # frozen from the enumeration oracle for n <= 10
        z = IntLaurentSeries.one(11) / euler_factor(1, 1, 11)
        assert coeffs_of(z, 0, 11) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_non_unit_inexact_raises(self):
        x = IntLaurentSeries.from_terms({0: 1, 1: 1}, 6)
        y = IntLaurentSeries.from_terms({0: 2, 1: 1}, 6)
        with pytest.raises(NonUnitDivisorError):
            x / y

    def test_scalar_divides_exactly(self):
        x = IntLaurentSeries.from_terms({0: 10, 3: -5}, 5)
        assert coeffs_of(x / 5, 0, 5) == [2, 0, 0, -1, 0]
        with pytest.raises(NonUnitDivisorError):
            x / 3

    def test_roundtrip_random(self):
        rng = random.Random(0xD1E)
        for _ in range(25):
            x = random_series(rng, 60)
            y = random_series(rng, 60)
            y = IntLaurentSeries(y.offset,
                                 (1,) + y.coeffs[1:], y.trunc)  # unit lead
            z = (x / y) * y
            order = min(z.trunc, x.trunc)
            assert z.first_mismatch(x, order) is None


_FACTORS = st.lists(st.tuples(st.integers(1, 6), st.sampled_from((-1, 1)),
                              st.integers(-2, 2)), max_size=3)


def _times_binomial(x, k, c, r, trunc):
    """x * (1 + c*q^k)^r by series arithmetic (the factor is 1 mod q^trunc
    when k >= trunc)."""
    if k >= trunc:
        return x
    b = IntLaurentSeries.from_terms({0: 1, k: c}, trunc)
    for _ in range(abs(r)):
        x = x * b if r > 0 else x / b
    return x


class TestQSum:
    @settings(max_examples=150, deadline=None)
    @given(trunc=st.integers(1, 80), start=st.integers(1, 4),
           base=st.lists(st.integers(-9, 9), min_size=80, max_size=80),
           data=st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 12),
                                   _FACTORS, _FACTORS), min_size=1,
                         max_size=8))
    def test_matches_series_arithmetic(self, trunc, start, base, data):
        base = IntLaurentSeries(0, base, 80)
        exps = [sum(gap for _, gap, _, _ in data[:i + 1]) - 1
                for i in range(len(data))]

        def term(n):
            i = n - start
            if i >= len(data):
                return 0, max(trunc, exps[-1] + 1), [], []
            coeff, _, steps, extras = data[i]
            return coeff, exps[i], steps, extras

        want = IntLaurentSeries.zero(trunc)
        run = base.truncate(trunc)
        for coeff, e, steps, extras in map(term, range(start, start + 9)):
            if e >= trunc:
                break
            for k, c, r in steps:
                run = _times_binomial(run, k, c, r, trunc)
            summand = run
            for k, c, r in extras:
                summand = _times_binomial(summand, k, c, r, trunc)
            want = want + (summand * coeff).shift(e).truncate(trunc)

        got = q_sum(trunc, term, start=start, base=base)
        assert got.trunc == trunc
        assert got.first_mismatch(want, trunc) is None

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            q_sum(10, lambda n: (1, n, [(0, 1, 1)], []))
        with pytest.raises(ValueError):
            q_sum(10, lambda n: (1, n, [], [(0, -1, -1)]))
        with pytest.raises(ValueError):
            q_sum(10, lambda n: (1, n, [(1, 2, 1)], []))

    def test_rejects_exponents_that_do_not_increase(self):
        with pytest.raises(ValueError):
            q_sum(10, lambda n: (1, 2, [], []))
        with pytest.raises(ValueError):
            q_sum(10, lambda n: (1, 5 - n, [], []))


class TestMulKernels:
    def test_kronecker_matches_schoolbook(self):
        from crankparity.series import (
            _SCHOOLBOOK_CUTOFF,
            _SPARSE_NNZ,
            _conv,
            _conv_kronecker,
            _conv_schoolbook,
            _conv_sparse,
        )
        rng = random.Random(0x12AB)

        def operand(length, scale, nnz=None):
            xs = [rng.randint(-9 * scale, 9 * scale) for _ in range(length)]
            xs[rng.randrange(length)] = rng.choice((-1, 1)) * 9 * scale
            if nnz is not None:
                keep = set(rng.sample(range(length), nnz))
                xs = [x or 1 if i in keep else 0 for i, x in enumerate(xs)]
            return xs

        cases = []
        for _ in range(20):
            la = rng.randint(1, 300)
            lb = rng.randint(1, 300)
            scale = 10 ** rng.randint(0, 40)
            a = [rng.randint(-9 * scale, 9 * scale) for _ in range(la)]
            b = [rng.randint(-9 * scale, 9 * scale) for _ in range(lb)]
            a[rng.randrange(la)] = rng.choice((-1, 1)) * 9 * scale
            rlen = rng.randint(1, la + lb - 1)
            cases.append((a[:rlen], b[:rlen], rlen))
        # _conv's kernel choice: len(a)*len(b) at and just past the
        # schoolbook cutoff, then a sparse factor on either side with
        # nonzero counts at and just past the sparse threshold
        side = math.isqrt(_SCHOOLBOOK_CUTOFF)
        for la, lb in ((side, side), (side, side + 1)):
            cases.append((operand(la, 10 ** 20), operand(lb, 10 ** 20),
                          la + lb - 1))
        for nnz in (_SPARSE_NNZ, _SPARSE_NNZ + 1):
            sparse, dense = operand(400, 10 ** 30, nnz), operand(300, 10 ** 5)
            cases.append((sparse, dense, 699))
            cases.append((dense, sparse, 500))
        for a, b, rlen in cases:
            want = _conv_schoolbook(a, b, rlen)
            terms = [(i, x) for i, x in enumerate(a) if x]
            assert _conv_kronecker(a, b, rlen) == want
            assert _conv_sparse(terms, b, rlen) == want
            assert _conv(a, b, rlen) == want
        # Kronecker's digit bound: coefficients that reach it with either
        # sign (equal magnitudes), magnitudes at and around powers of two,
        # and every rlen from one slot to past the full product
        signs = (lambda i: 1, lambda i: -1, lambda i: (-1) ** i)
        for la, lb in ((1, 1), (1, 4), (3, 3), (5, 2), (8, 8)):
            for k in (1, 7, 8, 15, 16, 63, 64):
                for m in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                    for sa, sb in ((signs[0], signs[0]), (signs[0], signs[1]),
                                   (signs[1], signs[1]), (signs[2], signs[0])):
                        a = [sa(i) * m for i in range(la)]
                        b = [sb(i) * m for i in range(lb)]
                        for rlen in range(1, la + lb + 1):
                            assert (_conv_kronecker(a, b, rlen)
                                    == _conv_schoolbook(a, b, rlen))
        assert _conv_kronecker([0, 0, 0], [5, -5], 4) == [0] * 4

    def test_big_series_product_consistency(self):
        # repeated multiplication vs binary powering vs Newton reciprocal,
        # at a size that forces the Kronecker path throughout
        x = pentagonal_product(1, 5000)
        cube = x * x * x
        assert cube.first_mismatch(x ** 3, 5000) is None
        assert (cube * x.reciprocal()).first_mismatch(x ** 2, 5000) is None


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(0xA55)
        for _ in range(8):
            x = random_series(rng, 200, min_offset=0)
            y = random_series(rng, 200, min_offset=0)
            z = random_series(rng, 200, min_offset=0)
            lhs = (x * y) * z
            rhs = x * (y * z)
            assert lhs.first_mismatch(rhs, min(lhs.trunc, rhs.trunc)) is None
            lhs = x * (y + z)
            rhs = x * y + x * z
            assert lhs.first_mismatch(rhs, min(lhs.trunc, rhs.trunc)) is None


@st.composite
def series_st(draw, unit=False):
    """A series with offset in -4..4 (negative ones included), nonzero
    (with ``unit``, +-1) leading coefficient and up to 30 coefficients."""
    offset = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    coeffs[0] = draw(st.sampled_from((1, -1)) if unit
                     else st.integers(-50, 50).filter(bool))
    return IntLaurentSeries(offset, coeffs, offset + len(coeffs))


def extended(x, tail):
    """x with ``tail`` appended past its truncation: one of the series
    that x is a truncation of."""
    return IntLaurentSeries(x.offset, x.coeffs + tuple(tail),
                            x.trunc + len(tail))


class TestSeriesProperties:
    """Ring axioms, the truncation discipline and the dump reader on
    random series, negative offsets included."""

    @settings(max_examples=200, deadline=None)
    @given(x=series_st(), y=series_st(), z=series_st())
    def test_ring_axioms(self, x, y, z):
        def mismatch(lhs, rhs):
            return lhs.first_mismatch(rhs, min(lhs.trunc, rhs.trunc))

        assert mismatch((x * y) * z, x * (y * z)) is None
        assert mismatch(x * y, y * x) is None
        assert mismatch(x * (y + z), x * y + x * z) is None
        assert mismatch((x + y) - y, x) is None
        assert mismatch(x - x, IntLaurentSeries.zero(x.trunc)) is None

    @settings(max_examples=200, deadline=None)
    @given(x=series_st(), y=series_st())
    def test_product_truncation_rule(self, x, y):
        assert (x * y).trunc == min(x.trunc + y.offset, y.trunc + x.offset)

    @settings(max_examples=200, deadline=None)
    @given(x=series_st(), y=series_st(), u=series_st(unit=True),
           step=st.integers(1, 6), residue=st.integers(-6, 6),
           tails=st.lists(st.lists(st.integers(-50, 50), min_size=1,
                                   max_size=10), min_size=3, max_size=3))
    def test_results_are_exact_below_trunc_and_end_there(
            self, x, y, u, step, residue, tails):
        # each result is read below its trunc only, where any longer
        # operands give the same coefficients; at its trunc it raises
        xe, ye, ue = (extended(s, t) for s, t in zip((x, y, u), tails))
        for got, longer in ((x * y, xe * ye), (x + y, xe + ye),
                            (x - y, xe - ye),
                            (u.reciprocal(), ue.reciprocal()),
                            (x.extract(step, residue),
                             xe.extract(step, residue))):
            assert longer.first_mismatch(got, got.trunc) is None
            with pytest.raises(TruncationError):
                got.coeff(got.trunc)

    @settings(max_examples=300, deadline=None)
    @given(x=series_st(), data=st.data())
    def test_load_series_on_damaged_dumps(self, x, data):
        # a damaged dump raises ValueError, or reads back exactly what
        # its lines state
        buf = io.StringIO()
        dump_series(x, buf)
        text = buf.getvalue()
        y = load_series(io.StringIO(text))
        assert (y.offset, y.coeffs, y.trunc) == (x.offset, x.coeffs, x.trunc)
        edits = data.draw(st.lists(st.tuples(
            st.sampled_from(("cut", "delete", "replace", "insert")),
            st.integers(0, len(text)),
            st.sampled_from("0123456789-+_ \t\nx")), min_size=1,
            max_size=3), label="edits")
        for op, at, ch in edits:
            at = min(at, len(text))
            if op == "cut":
                text = text[:at]
            elif op == "delete":
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + ch + text[at + (op == "replace"):]
        try:
            got = load_series(io.StringIO(text))
        except ValueError:
            return
        pairs = [[int(f) for f in line.strip().split("\t")]
                 for line in text.split("\n") if line.strip()]
        assert [e for e, _ in pairs] == list(range(pairs[0][0], got.trunc))
        assert [got.coeff(e) for e, _ in pairs] == [c for _, c in pairs]


class TestEtaQuotient:
    def test_multiplier_spec_offset(self):
        f = eta_quotient(F_SPEC, 40)
        assert f.offset == 1 and f.coeff(1) == 1

    def test_hauptmodul_reciprocal_expansion(self):
        ginv = eta_quotient(G_SPEC, 40).reciprocal()
        assert coeffs_of(ginv, -1, 3) == [1, 2, 1, 2]

    def test_phi_offset(self):
        phi = eta_quotient(PHI_SPEC, 40)
        assert phi.offset == 3 and phi.coeff(3) == 1

    def test_fractional_prefactor_rejected(self):
        with pytest.raises(FractionalExponentError):
            eta_quotient(((1, 1),), 10)
        with pytest.raises(FractionalExponentError):
            EtaQuotientSpec(((2, 3), (3, 1)))

    def test_pure_product_against_euler(self):
        # eta(tau)^24 = q (q;q)_inf^24 ties the quotient builder to the
        # independent binomial-product route
        z = eta_quotient(EtaQuotientSpec(((1, 24),)), 30)
        assert z.offset == 1
        assert z.first_mismatch((euler_factor(1, 1, 29) ** 24).shift(1),
                                30) is None


def _dense_quotient(factors, trunc):
    """prod (q^d;q^d)_inf^r by dense products and Newton reciprocals."""
    x = IntLaurentSeries.one(trunc)
    for d, r in factors:
        x = x * pentagonal_product(d, trunc) ** r
    return x


class TestPentagonalQuotient:
    # t up to 400 straddles _SCHOOLBOOK_CUTOFF (128 x 128) in the dense
    # reference, and (q^d;q^d)_inf has more than _SPARSE_NNZ nonzeros below
    # q^400 only for d <= 15, so the reference runs on all three kernels
    @settings(max_examples=120, deadline=None)
    @given(trunc=st.integers(1, 400),
           factors=st.lists(st.tuples(st.integers(1, 60),
                                      st.integers(-3, 3)), max_size=4))
    def test_matches_dense_products(self, trunc, factors):
        got = pentagonal_quotient(factors, trunc)
        want = _dense_quotient(factors, trunc)
        assert got.trunc == want.trunc == trunc
        assert got.first_mismatch(want, trunc) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(TruncationError):
            pentagonal_quotient(((1, 1),), 0)
        with pytest.raises(ValueError):
            pentagonal_quotient(((0, 1),), 10)

    @pytest.mark.parametrize(
        "spec", [LADDER_MULTIPLIER_SPEC, HAUPTMODUL_SPEC, NEWTON_QUOTIENT_SPEC]
        + [NEWTON_QUOTIENT_SPEC ** mu for mu in range(-6, 8)],
        ids=["multiplier", "hauptmodul", "phi"]
        + [f"phi^{mu}" for mu in range(-6, 8)])
    def test_eta_quotient_matches_dense_products(self, spec):
        shift = spec.prefactor_exponent
        got = eta_quotient(spec, 300)
        want = _dense_quotient(spec.factors, 300 - shift).shift(shift)
        assert got.offset == want.offset and got.trunc == want.trunc == 300
        assert got.first_mismatch(want, 300) is None


class TestApplyU:
    def test_monomials(self):
        q5 = IntLaurentSeries.monomial(5, 1, 20)
        assert coeffs_of(apply_U(5, q5), 0, 2) == [0, 1]
        q3 = IntLaurentSeries.monomial(3, 1, 20)
        assert apply_U(5, q3).valuation() is None

    def test_negative_exponents_keep_multiples(self):
        x = IntLaurentSeries.from_terms({-6: 7, -5: 3, 0: 1, 4: 9, 5: 2}, 7)
        u = apply_U(5, x)
        assert u.coeff(-1) == 3 and u.coeff(0) == 1 and u.coeff(1) == 2

    def test_truncation_is_ceiling(self):
        x = IntLaurentSeries(0, [1] * 11, 11)
        assert apply_U(5, x).trunc == 3

    def test_commutation_rule(self):
        # (f(q^d) g(q)) | U_d == f(q) (g | U_d); f(q^d) is exact below
        # d*(trunc-1)+1, as the exponents in between are exactly zero
        rng = random.Random(0xC0FFEE)
        for d in (2, 3, 5):
            for _ in range(6):
                f = random_series(rng, 100, min_offset=0)
                g = random_series(rng, 100, min_offset=0)
                f_d = IntLaurentSeries.from_terms(
                    {d * e: c for e, c in f.terms()}, d * (f.trunc - 1) + 1)
                lhs = apply_U(d, f_d * g)
                rhs = f * apply_U(d, g)
                assert lhs.first_mismatch(
                    rhs, min(lhs.trunc, rhs.trunc)) is None


class TestTruncationDiscipline:
    def test_coeff_beyond_trunc_raises(self):
        x = euler_factor(1, 1, 5)
        with pytest.raises(TruncationError):
            x.coeff(5)

    def test_eq_needs_enough_trunc(self):
        x = euler_factor(1, 1, 5)
        y = euler_factor(1, 1, 9)
        with pytest.raises(TruncationError):
            x.first_mismatch(y, 9)
        assert x.first_mismatch(y, 5) is None

    def test_first_mismatch(self):
        x = IntLaurentSeries.from_terms({-2: 1, 3: 7}, 9)
        y = IntLaurentSeries.from_terms({0: 4, 3: 7}, 12)
        # below both offsets the exponents are exact zeros on each side
        assert x.first_mismatch(y, 9) == (-2, 1, 0)
        assert y.first_mismatch(x + IntLaurentSeries.monomial(-2, -1, 9),
                                9) == (0, 4, 0)
        assert x.first_mismatch(x.truncate(5), 5) is None
        with pytest.raises(TruncationError):
            x.first_mismatch(y, 10)

    def test_truncate_cannot_extend(self):
        x = euler_factor(1, 1, 5)
        with pytest.raises(TruncationError):
            x.truncate(10)

    def test_constructor_invariants(self):
        with pytest.raises(TruncationError):
            IntLaurentSeries(3, (1,), 3)
        with pytest.raises(ValueError):
            IntLaurentSeries(0, (1, 2), 5)


class TestDump:
    def test_roundtrip(self, tmp_path):
        x = eta_quotient(G_SPEC, 25).reciprocal()
        path = tmp_path / "series.tsv"
        with open(path, "w") as fp:
            dump_series(x, fp)
        with open(path) as fp:
            y = load_series(fp)
        assert y.offset == x.offset and y.trunc == x.trunc
        assert y.first_mismatch(x, x.trunc) is None
        first = path.read_text().splitlines()[0]
        assert first == f"{x.offset}\t{x.coeff(x.offset)}"


class TestMemo:
    def test_grows_and_serves_shorter_requests(self, monkeypatch):
        monkeypatch.delenv("CRANK_PARITY_CACHE_DIR", raising=False)
        monkeypatch.setattr("crankparity.series._memo", {})
        built = []

        def build(t):
            built.append(t)
            return eta_quotient(G_SPEC, t)

        assert memo("g", 30, build).first_mismatch(
            eta_quotient(G_SPEC, 30), 30) is None
        assert memo("g", 10, build).trunc == 10
        assert memo("g", 40, build).trunc == 40
        assert built == [30, 40]

    def test_disk_layer_checks_what_it_loads(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("crankparity.series._memo", {})
        from crankparity import series
        want = eta_quotient(G_SPEC ** -1, 25)  # negative offset
        built = []

        def build(t):
            built.append(t)
            return eta_quotient(G_SPEC ** -1, t)

        def cold(t):
            series._memo.clear()  # as a fresh process would start
            return memo("test-memo-disk", t, build)

        assert cold(25).first_mismatch(want, 25) is None and built == [25]
        path = tmp_path / "test-memo-disk.tsv"
        good = path.read_bytes()
        assert cold(25).first_mismatch(want, 25) is None and built == [25]
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(tmp_path)) == [path.name]

        flipped = good.replace(b"\t-", b"\t", 1)  # trailer intact
        assert flipped != good
        body = good[:good.rindex(b"#")]
        digest = good[good.rindex(b"=") + 1:]
        no_trailer = body  # written before the trailer existed
        trunc_trailer = body + b"# trunc=25 sha256=" + digest  # earlier form
        for damaged in (good[:-3], flipped, no_trailer, trunc_trailer):
            path.write_bytes(damaged)
            assert cold(25).first_mismatch(want, 25) is None
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(path) in err
            assert path.read_bytes() == good
        assert built == [25] * 5

    def test_one_file_serves_shorter_requests_and_grows(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("crankparity.series._memo", {})
        from crankparity import series
        built, written = [], []
        store = series._store

        def build(t):
            built.append(t)
            return eta_quotient(G_SPEC ** -1, t)

        def spy_store(path, x):
            written.append(x.trunc)
            store(path, x)

        def cold(t):
            series._memo.clear()  # as a fresh process would start
            return memo("test-memo-grow", t, build)

        monkeypatch.setattr(series, "_store", spy_store)
        path = tmp_path / "test-memo-grow.tsv"
        assert cold(40).trunc == 40 and built == written == [40]
        got = cold(25)  # served from the file, cut to the request
        assert (got.offset, got.trunc) == (-1, 25)
        assert got.first_mismatch(eta_quotient(G_SPEC ** -1, 25), 25) is None
        assert memo("test-memo-grow", 40, build).trunc == 40
        assert built == written == [40]  # nothing built, nothing written

        got = cold(60)  # the file is too short: rebuilt and replaced
        assert built == written == [40, 60] and got.trunc == 60
        assert got.first_mismatch(eta_quotient(G_SPEC ** -1, 60), 60) is None
        assert series._load_checked(str(path)).trunc == 60
        assert cold(50).trunc == 50 and built == written == [40, 60]
        assert sorted(os.listdir(tmp_path)) == [path.name]
        assert capsys.readouterr().err == ""

    def test_short_request_decodes_only_its_lines(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("crankparity.series._memo", {})
        from crankparity import series
        built, decoded = [], []
        load = series.load_series

        def build(t):
            built.append(t)
            return eta_quotient(G_SPEC ** -1, t)

        def spy_load(fp):
            text = fp.read()
            decoded.append([int(line.split("\t")[0])
                            for line in text.splitlines()])
            return load(io.StringIO(text))

        memo("test-memo-prefix", 60, build)
        series._memo.clear()  # as a fresh process would start
        monkeypatch.setattr(series, "load_series", spy_load)
        got = memo("test-memo-prefix", 25, build)
        assert built == [60] and decoded == [list(range(-1, 25))]
        assert (got.offset, got.trunc) == (-1, 25)
        assert got.first_mismatch(eta_quotient(G_SPEC ** -1, 25), 25) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_is_dropped_or_read_back_exactly(self, data):
        from crankparity import series
        want = eta_quotient(G_SPEC ** -1, 25)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "damaged.tsv")
            series._store(path, want)
            with open(path, "rb") as fp:
                good = fp.read()
            at = data.draw(st.integers(0, len(good) - 1), label="at")
            if data.draw(st.booleans(), label="cut"):
                damaged = good[:at]
            else:
                byte = data.draw(st.integers(0, 255).filter(
                    lambda b: b != good[at]), label="byte")
                damaged = good[:at] + bytes([byte]) + good[at + 1:]
            with open(path, "wb") as fp:
                fp.write(damaged)
            got = series._load_checked(path)
            if got is None:
                assert not os.path.exists(path)
            else:
                assert (got.offset, tuple(got.coeffs), got.trunc) == (
                    want.offset, tuple(want.coeffs), want.trunc)
