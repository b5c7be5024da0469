import functools
import io
import operator
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from crankparity.fivetower import HAUPTMODUL_SPEC, LADDER_MULTIPLIER_SPEC
from crankparity import series
from crankparity.series import (
    EtaQuotientSpec,
    IntLaurentSeries,
    TruncationError,
    _conv,
    _cube_terms,
    _pentagonal_terms,
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
from modular import PHI_SPEC, spec_power

F_SPEC = EtaQuotientSpec(((1, 3), (2, -2), (50, 2), (25, -3)))
G_SPEC = EtaQuotientSpec(((1, 2), (2, -4), (10, 4), (5, -2)))
G_INV_SPEC = spec_power(G_SPEC, -1)


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
        with pytest.raises(ValueError, match=r"^reciprocal needs leading "
                                             r"coefficient \+-1, got 2$"):
            x / y

    def test_divisor_must_be_a_series(self):
        x = IntLaurentSeries.from_terms({0: 10, 3: -5}, 5)
        with pytest.raises(TypeError):
            x / 5

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


def naive_conv(a, b, rlen):
    """c_k = sum_i a_i b_(k-i) for 0 <= k < rlen, the definition."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(rlen)]


class TestMulKernels:
    def test_kronecker_matches_schoolbook(self):
        rng = random.Random(0x12AB)
        for _ in range(20):
            la = rng.randint(1, 300)
            lb = rng.randint(1, 300)
            scale = 10 ** rng.randint(0, 40)
            a = [rng.randint(-9 * scale, 9 * scale) for _ in range(la)]
            b = [rng.randint(-9 * scale, 9 * scale) for _ in range(lb)]
            a[rng.randrange(la)] = rng.choice((-1, 1)) * 9 * scale
            rlen = rng.randint(1, la + lb - 1)
            assert _conv(a, b, rlen) == naive_conv(a, b, rlen)
        # the digit bound: coefficients that reach it with either sign
        # (equal magnitudes), magnitudes at and around powers of two, and
        # every rlen from none to past the full product
        signs = (lambda i: 1, lambda i: -1, lambda i: (-1) ** i)
        for la, lb in ((1, 1), (1, 4), (3, 3), (5, 2), (8, 8)):
            for k in (1, 7, 8, 15, 16, 63, 64):
                for m in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                    for sa, sb in ((signs[0], signs[0]), (signs[0], signs[1]),
                                   (signs[1], signs[1]), (signs[2], signs[0])):
                        a = [sa(i) * m for i in range(la)]
                        b = [sb(i) * m for i in range(lb)]
                        for rlen in range(-1, la + lb + 1):
                            assert _conv(a, b, rlen) == naive_conv(a, b, rlen)
        for a, b in (([0, 0, 0], [5, -5]), ([5, -5], [0, 0, 0]), ([0], [0])):
            assert _conv(a, b, 4) == [0] * 4

    @settings(max_examples=300, deadline=None)
    @given(w=st.integers(1, 6), la=st.integers(1, 6), lb=st.integers(1, 6),
           ka=st.integers(0, 40), delta=st.integers(-2, 2),
           up=st.booleans(), data=st.data())
    def test_digit_width_boundary(self, w, la, lb, ka, delta, up, data):
        # max|a| * max|b| * min(len) within max|a| * min(len) of
        # 2^(8w-1) + delta, on either side: where the slot width steps
        # from w to w + 1 bytes.  All entries at full magnitude, so the
        # coefficients where the operands overlap fully reach the bound.
        m = min(la, lb)
        ma = 1 << min(ka, 8 * w - 5)
        target = (1 << (8 * w - 1)) + delta
        mb = max(1, -(-target // (ma * m)) if up else target // (ma * m))
        sign = st.sampled_from((-1, 1))
        a = [s * ma for s in data.draw(st.lists(sign, min_size=la,
                                                max_size=la))]
        b = [s * mb for s in data.draw(st.lists(sign, min_size=lb,
                                                max_size=lb))]
        rlen = data.draw(st.integers(0, la + lb))
        assert _conv(a, b, rlen) == naive_conv(a, b, rlen)

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

    @settings(max_examples=200, deadline=None)
    @given(x=series_st(unit=True), n=st.integers(-3, 8))
    def test_power_is_the_repeated_product(self, x, n):
        # x^n is the n-fold product of x (of 1/x for n < 0), window and all
        base = x.reciprocal() if n < 0 else x
        want = (functools.reduce(operator.mul, [base] * abs(n)) if n
                else IntLaurentSeries.one(len(x.coeffs)))
        got = x ** n
        assert (got.offset, got.trunc, got.coeffs) == (
            want.offset, want.trunc, want.coeffs)

    @pytest.mark.parametrize("lead", (1, -1))
    @settings(max_examples=100, deadline=None)
    @given(x=series_st(unit=True))
    def test_unit_times_its_reciprocal_is_one(self, lead, x):
        u = IntLaurentSeries(x.offset, (lead,) + x.coeffs[1:], x.trunc)
        prod = u * u.reciprocal()
        assert prod.first_mismatch(IntLaurentSeries.one(prod.trunc),
                                   prod.trunc) is None

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

    @settings(max_examples=300, deadline=None)
    @given(x=series_st(), data=st.data())
    def test_load_series_reads_as_a_line_loop(self, x, data):
        # the bulk reader accepts and refuses what the line-by-line reader
        # it replaced does, on dumps damaged with whitespace that strip()
        # or int() take, in every newline mode of a text stream
        def line_loop(fp):
            pairs = []
            for line in fp:
                line = line.strip()
                if line:
                    e, c = line.split("\t")
                    pairs.append((int(e), int(c)))
            exps = [e for e, _ in pairs]
            if not exps or exps != list(range(exps[0],
                                              exps[0] + len(exps))):
                raise ValueError("not a dump")
            return IntLaurentSeries(exps[0], [c for _, c in pairs],
                                    exps[-1] + 1)

        buf = io.StringIO()
        dump_series(x, buf)
        text = buf.getvalue()
        edits = data.draw(st.lists(st.tuples(
            st.booleans(), st.integers(0, len(text)),
            st.sampled_from("07-+_ \t\n\r\x0b\x0c\x1c\x85\xa0\u0663x")),
            max_size=4), label="edits")
        for replace, at, ch in edits:
            text = text[:at] + ch + text[at + replace:]
        newline = data.draw(st.sampled_from(("\n", None, "", "\r", "\r\n")))

        def read(load):
            try:
                y = load(io.StringIO(text, newline=newline))
            except ValueError:
                return None
            return y.offset, y.coeffs, y.trunc

        assert read(load_series) == read(line_loop)

    def test_load_series_reads_across_chunks(self):
        # lines are decoded about 64 KiB at a time: a dump several chunks
        # long, with a run of blank lines longer than a chunk inside it,
        # reads back whole, and a damaged line in a later chunk is refused
        x = IntLaurentSeries(-3, range(10 ** 6, 10 ** 6 + 20000), 19997)
        buf = io.StringIO()
        dump_series(x, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        text = "".join(lines[:9000]) + "\n" * 200000 + "".join(lines[9000:])
        y = load_series(io.StringIO(text))
        assert (y.offset, y.coeffs, y.trunc) == (x.offset, x.coeffs, x.trunc)
        lines[15000] = lines[15000].replace("\t", " ")
        with pytest.raises(ValueError, match="^series dump line not"):
            load_series(io.StringIO("".join(lines)))


class TestEtaQuotient:
    def test_multiplier_spec_offset(self):
        f = eta_quotient(F_SPEC, 40)
        assert f.offset == 1 and f.coeff(1) == 1

    @pytest.mark.parametrize("trunc", [0, 1])
    def test_prefactor_is_refused(self, trunc):
        # F = q + O(q^2): no coefficient lies below q^1
        with pytest.raises(TruncationError, match=rf"^truncation {trunc} does"
                           r" not reach past the prefactor q\^1$"):
            eta_quotient(F_SPEC, trunc)

    def test_hauptmodul_reciprocal_expansion(self):
        ginv = eta_quotient(G_SPEC, 40).reciprocal()
        assert coeffs_of(ginv, -1, 3) == [1, 2, 1, 2]

    def test_phi_offset(self):
        phi = eta_quotient(PHI_SPEC, 40)
        assert phi.offset == 3 and phi.coeff(3) == 1

    def test_fractional_prefactor_rejected(self):
        with pytest.raises(ValueError, match=r"^sum d\*r = 1 is not "
                                             "divisible by 24"):
            EtaQuotientSpec(((1, 1),))
        with pytest.raises(ValueError, match=r"^sum d\*r = 9 is not "
                                             "divisible by 24"):
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


class TestSparseTerms:
    @pytest.mark.parametrize("d", [1, 2, 5, 10, 25, 50])
    @pytest.mark.parametrize("n", ["1", "d", "d+1", "2000"])
    def test_jacobi_terms_match_dense_cubes(self, d, n):
        # Jacobi's identity against a cube of Euler's pentagonal series and
        # of the binomial product, both by dense products
        trunc = {"1": 1, "d": d, "d+1": d + 1, "2000": 2000}[n]
        jacobi = IntLaurentSeries.from_terms(
            dict([(0, 1), *_cube_terms(d, trunc)]), trunc)
        for cube in (pentagonal_product(d, trunc) ** 3,
                     euler_factor(d, d, trunc) ** 3):
            assert cube.trunc == trunc
            assert jacobi.first_mismatch(cube, trunc) is None

    @pytest.mark.parametrize("terms", [_pentagonal_terms, _cube_terms])
    @pytest.mark.parametrize("d", [1, 2, 5, 10, 25, 50])
    def test_exponents_strictly_increase(self, terms, d):
        # the division's segments run from one exponent to the next
        exps = [e for e, _ in terms(d, 2000)]
        assert exps and 0 < exps[0]
        assert all(a < b for a, b in zip(exps, exps[1:]))
        assert exps[-1] < 2000

    @pytest.mark.parametrize("r", range(-7, 8))
    def test_pass_counts(self, monkeypatch, r):
        # |r| // 3 passes over Jacobi's terms, then |r| % 3 over Euler's;
        # the first term tells them apart: -3 q^d against -q^d
        passes = []
        real = series._apply_sparse

        def counted(x, terms, sign):
            passes.append(("cube" if terms[0] == (2, -3) else "pentagonal",
                           sign))
            real(x, terms, sign)

        monkeypatch.setattr(series, "_apply_sparse", counted)
        series._apply_pentagonal([1] + [0] * 99, 2, r)
        sign = 1 if r > 0 else -1
        assert passes == ([("cube", sign)] * (abs(r) // 3)
                          + [("pentagonal", sign)] * (abs(r) % 3))


# levels with many shared divisors, so the running product stays a series
# in q^g, g > 1, over several factors; half the draws from any level
_LEVELS = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30,
                                     60]),
                    st.integers(1, 60))


class TestPentagonalQuotient:
    # the reference multiplies dense lists with _conv and inverts with
    # Newton's iteration on it; the quotient never calls _conv.  Exponents
    # up to 7 draw every split into cube and pentagonal passes;
    # truncations below 70 are often below g or not a multiple of it.
    @settings(max_examples=200, deadline=None)
    @given(trunc=st.one_of(st.integers(1, 70), st.integers(1, 400)),
           factors=st.lists(st.tuples(_LEVELS, st.integers(-7, 7)),
                            max_size=5))
    # the list in q^g holds ceil(trunc/g) coefficients: truncations just
    # below, at and past multiples of the levels, P_5 and E among them
    @example(trunc=4, factors=[(10, 2), (5, -1), (5, -2)])
    @example(trunc=11, factors=[(10, 2), (5, -1), (5, -2)])
    @example(trunc=9, factors=[(1, 2), (2, -2), (2, -2), (5, 1), (10, 2)])
    @example(trunc=59, factors=[(60, 3), (30, -2), (12, 1)])
    @example(trunc=61, factors=[(60, 3), (30, -2), (12, 1)])
    @example(trunc=179, factors=[(60, 3), (30, -2), (12, 1)])
    def test_matches_dense_products(self, trunc, factors):
        got = pentagonal_quotient(factors, trunc)
        want = _dense_quotient(factors, trunc)
        assert got.trunc == want.trunc == trunc
        assert got.first_mismatch(want, trunc) is None

    def test_newton_quotient_seventh_power(self):
        # phi^7's factors (2, -14) and (50, 14): four cube passes and two
        # pentagonal ones each
        factors = ((2, -14), (50, 14))
        got = pentagonal_quotient(factors, 400)
        assert got.first_mismatch(_dense_quotient(factors, 400), 400) is None

    @pytest.mark.parametrize("factors, calls", [
        # E: (q^10;q^10)^2 on q^10, both (2, -2) on q^2, then the rest
        (((1, 2), (2, -2), (2, -2), (5, 1), (10, 2)),
         [(121, 1, 2), (601, 1, -2), (601, 1, -2), (1201, 1, 2),
          (1201, 5, 1)]),
        # the multiplier: (50, 2) on q^50, (2, -2) on q^2
        (LADDER_MULTIPLIER_SPEC.factors,
         [(25, 1, 2), (601, 1, -2), (1201, 1, 3), (1201, 25, -3)]),
        # P_5, a series in q^5: every pass on ceil(N/5) coefficients or
        # fewer
        (((10, 2), (5, -1), (5, -2)),
         [(121, 1, 2), (241, 1, -1), (241, 1, -2)]),
    ])
    def test_passes_run_on_decimated_lists(self, monkeypatch, factors,
                                           calls):
        # (length of the list, level on it, exponent) per factor, at
        # N = 1201: a factor (d, r) on a series in q^g runs over ceil(N/g)
        # coefficients at level d/g
        seen = []
        real = series._apply_pentagonal

        def recorded(x, d, r):
            seen.append((len(x), d, r))
            real(x, d, r)

        monkeypatch.setattr(series, "_apply_pentagonal", recorded)
        pentagonal_quotient(factors, 1201)
        assert seen == calls

    def test_rejects_bad_arguments(self):
        with pytest.raises(TruncationError):
            pentagonal_quotient(((1, 1),), 0)
        with pytest.raises(ValueError):
            pentagonal_quotient(((0, 1),), 10)

    @pytest.mark.parametrize(
        "spec", [LADDER_MULTIPLIER_SPEC, HAUPTMODUL_SPEC, PHI_SPEC]
        + [spec_power(PHI_SPEC, mu) for mu in range(-6, 8)],
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

    @pytest.mark.parametrize("d", (0, -1, -5))
    def test_rejects_d_below_one(self, d):
        with pytest.raises(ValueError):
            apply_U(d, IntLaurentSeries.one(10))

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
        assert y.first_mismatch(x, 9) == (-2, 0, 1)
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

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(-6, 6),
           lead=st.integers(0, 8),
           coeffs=st.lists(st.sampled_from((0, 0, 0, -3, 1, 7)), min_size=1,
                           max_size=12))
    def test_valuation_is_the_first_nonzero_exponent(self, offset, lead,
                                                     coeffs):
        coeffs = [0] * lead + coeffs
        x = IntLaurentSeries(offset, coeffs, offset + len(coeffs))
        scan = next((offset + i for i, c in enumerate(coeffs) if c), None)
        assert x.valuation() == scan

    def test_repr(self):
        x = IntLaurentSeries.from_terms({-2: 3, 0: -1, 1: 4, 5: 9}, 7)
        assert repr(x) == \
            "IntLaurentSeries(3*q^-2 + -1 + 4*q + 9*q^5 + O(q^7))"
        assert repr(IntLaurentSeries.zero(4)) == "IntLaurentSeries(0 + O(q^4))"
        # six terms at most, then an ellipsis
        y = IntLaurentSeries.from_terms({e: e + 1 for e in range(9)}, 9)
        assert repr(y) == ("IntLaurentSeries(1 + 2*q + 3*q^2 + 4*q^3 + "
                           "5*q^4 + 6*q^5 + ... + O(q^9))")


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

    @pytest.mark.parametrize("warm", ["memory", "disk"])
    def test_a_longer_series_refuses_past_its_offset(self, tmp_path,
                                                     monkeypatch, warm):
        # G starts at q^1: a request for truncation 1 is refused whether G
        # is built, kept in memory or read from the cache directory
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("crankparity.series._memo", {})
        built = []

        def build(t):
            built.append(t)
            return eta_quotient(G_SPEC, t)

        message = r"^truncation 1 does not reach past the prefactor q\^1$"
        with pytest.raises(TruncationError, match=message):
            memo("test-memo-offset", 1, build)
        memo("test-memo-offset", 30, build)
        if warm == "disk":
            series._memo.clear()  # as a fresh process would start
        with pytest.raises(TruncationError, match=message):
            memo("test-memo-offset", 1, build)
        assert built == [1, 30]

    def test_disk_layer_checks_what_it_loads(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("CRANK_PARITY_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr("crankparity.series._memo", {})
        from crankparity import series
        want = eta_quotient(G_INV_SPEC, 25)  # negative offset
        built = []

        def build(t):
            built.append(t)
            return eta_quotient(G_INV_SPEC, t)

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
            return eta_quotient(G_INV_SPEC, t)

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
        assert got.first_mismatch(eta_quotient(G_INV_SPEC, 25), 25) is None
        assert memo("test-memo-grow", 40, build).trunc == 40
        assert built == written == [40]  # nothing built, nothing written

        got = cold(60)  # the file is too short: rebuilt and replaced
        assert built == written == [40, 60] and got.trunc == 60
        assert got.first_mismatch(eta_quotient(G_INV_SPEC, 60), 60) is None
        assert series._load_checked(str(path), 60).trunc == 60
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
            return eta_quotient(G_INV_SPEC, t)

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
        assert got.first_mismatch(eta_quotient(G_INV_SPEC, 25), 25) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_is_dropped_or_read_back_exactly(self, data):
        from crankparity import series
        want = eta_quotient(G_INV_SPEC, 25)
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
            got = series._load_checked(path, want.trunc)
            if got is None:
                assert not os.path.exists(path)
            else:
                assert (got.offset, tuple(got.coeffs), got.trunc) == (
                    want.offset, tuple(want.coeffs), want.trunc)
