import pytest

from crankparity import partitions
from crankparity.cranks import (
    crank_parity_series,
    partition_series,
    rank_parity_series,
)
from crankparity.partitions import (
    NotDistinctError,
    ParityCount,
    UndefinedStatisticError,
    crank,
    crank_parity,
    crank_parity_oracle,
    distinct_crank,
    distinct_crank_parity,
    distinct_rank_parity,
    enumerate_partitions,
    initial_run_length,
    omega_totals,
    omega_weights_agree,
    rank,
    rank_parity,
    weight_omega,
    weight_omega1,
)


def partition_count(n):
    """p(n), read off the crank-parity counts of the full sweep."""
    parity = crank_parity(n)
    return parity.even + parity.odd


def distinct_partition_count(n):
    """q(n), read off the crank-parity counts of the distinct-parts sweep."""
    parity = distinct_crank_parity(n)
    return parity.even + parity.odd


class TestEnumeration:
    def test_partitions_of_four(self):
        got = list(enumerate_partitions(4))
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_distinct_partitions_of_six(self):
        got = list(enumerate_partitions(6, distinct=True))
        assert got == [(6,), (5, 1), (4, 2), (3, 2, 1)]

    def test_zero(self):
        assert list(enumerate_partitions(0)) == [()]
        assert list(enumerate_partitions(0, distinct=True)) == [()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_counts_match_generating_function(self):
        pgf = partition_series(61)
        for n in range(61):
            assert partition_count(n) == pgf.coeff(n)

    def test_distinct_counts_small(self):
        # q(0..10) = 1 1 1 2 2 3 4 5 6 8 10
        want = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
        assert [distinct_partition_count(n) for n in range(11)] == want


class TestSweepsAgainstDefinitions:
    """Each cached sweep equals the readable per-partition definitions
    summed over the plain (unpruned) enumeration."""

    @staticmethod
    def strictly_decreasing(p):
        return all(a > b for a, b in zip(p, p[1:]))

    def test_distinct_enumeration_is_the_filtered_one(self):
        for n in range(31):
            want = [p for p in enumerate_partitions(n)
                    if self.strictly_decreasing(p)]
            assert list(enumerate_partitions(n, distinct=True)) == want, n

    def test_full_sweep(self):
        for n in range(26):
            parts = list(enumerate_partitions(n))
            cranks = [crank(p) % 2 if p else 0 for p in parts]
            ranks = [rank(p) % 2 if p else 0 for p in parts]
            assert partition_count(n) == len(parts), n
            assert crank_parity(n) == ParityCount(
                cranks.count(0), cranks.count(1)), n
            assert rank_parity(n) == ParityCount(
                ranks.count(0), ranks.count(1)), n

    def test_ascending_generator(self):
        # _core_weights walks the cores through it, and _core_profile's
        # inline copy relies on the same lexicographic order
        for m in range(0, 31):
            got = [tuple(a[:k + 1]) for a, k in
                   partitions._ascending_cores(m)]
            want = [p[::-1] for p in enumerate_partitions(m)
                    if p and p[-1] != 1]
            assert got == sorted(want), m

    def test_ascending_distinct_generator(self):
        # _distinct_sweep reads the first and last part off each buffer
        assert list(partitions._ascending_distinct(0)) == []
        for n in range(1, 36):
            got = [tuple(a[:k + 1]) for a, k in
                   partitions._ascending_distinct(n)]
            want = sorted(p[::-1] for p in
                          enumerate_partitions(n, distinct=True))
            assert got == want, n

    def test_core_weights(self):
        for m in range(1, 21):
            cores = [p for p in enumerate_partitions(m) if p[-1] != 1]
            for mu in (1, 2):
                parts = [p + (1,) * mu for p in cores]
                ws = [weight_omega(p) for p in parts]
                w1s = [weight_omega1(p) for p in parts]
                assert partitions._core_weights(m)[mu % 2] == (
                    sum(ws), sum(w1s), ws == w1s), (m, mu)
            assert partitions._core_weights(m)[2] == len(cores), m

    def test_core_profile(self, monkeypatch):
        # the crank walk lists the cores inline on its own buffer, not
        # through the generator, and is read here past its memo
        def refused(m):
            raise AssertionError("core walk drove the generator")

        monkeypatch.setattr(partitions, "_ascending_cores", refused)
        for m in range(2, 26):
            cores = [p for p in enumerate_partitions(m) if p[-1] != 1]
            signs = tuple(sum((-1) ** sum(part > mu for part in p)
                              for p in cores) for mu in range(1, m))
            assert partitions._core_profile.__wrapped__(m) == (
                len(cores),
                sum(p[0] % 2 == 0 for p in cores),
                sum(rank(p) % 2 == 0 for p in cores),
                signs), m

    def test_cold_sweep_equals_ascending_calls(self):
        clear = partitions._core_profile.cache_clear
        clear()
        try:
            cold = crank_parity(45), rank_parity(45), partition_count(45)
            clear()
            for n in range(1, 45):
                crank_parity(n)
            assert (crank_parity(45), rank_parity(45),
                    partition_count(45)) == cold
        finally:
            clear()

    def test_cold_distinct_sweep_equals_ascending_calls(self):
        clear = partitions._distinct_sweep.cache_clear
        clear()
        try:
            cold = distinct_crank_parity(45), distinct_rank_parity(45)
            clear()
            for n in range(1, 45):
                distinct_crank_parity(n)
            assert (distinct_crank_parity(45),
                    distinct_rank_parity(45)) == cold
        finally:
            clear()

    def test_cold_weight_sweep_equals_ascending_calls(self):
        clear = partitions._core_weights.cache_clear
        clear()
        try:
            cold = omega_totals(35), omega_weights_agree(35)
            clear()
            for n in range(1, 35):
                omega_totals(n)
            assert (omega_totals(35), omega_weights_agree(35)) == cold
        finally:
            clear()

    def test_weight_sweep_walks_no_crank_profile(self, monkeypatch):
        # the mu = 0 cores of n are counted by the weight walk itself
        def refused(m):
            raise AssertionError("crank profile walked for the weights")

        monkeypatch.setattr(partitions, "_core_profile", refused)
        want = [-3, 2, -1, 5, -5, 3, -5, 6, -10, 10, -8, 13, -15, 15, -16,
                23, -27, 25, -30, 35, -40, 42, -45, 55, -66, 68, -70, 86,
                -95, 100, -110, 125, -141, 150, -161]
        assert [omega_totals(n) for n in range(1, 36)] == [(t, t)
                                                           for t in want]
        assert all(omega_weights_agree(n) for n in range(1, 36))

    @pytest.mark.parametrize("count", [partition_count, crank_parity,
                                       rank_parity, distinct_crank_parity,
                                       omega_totals])
    def test_negative_n_refused(self, count):
        with pytest.raises(ValueError,
                           match="cannot partition a negative integer: -1"):
            count(-1)

    def test_weight_sweep(self):
        for n in range(1, 26):
            ws = [weight_omega(p) for p in enumerate_partitions(n)]
            w1s = [weight_omega1(p) for p in enumerate_partitions(n)]
            assert omega_totals(n) == (sum(ws), sum(w1s)), n
            assert omega_weights_agree(n) == (ws == w1s), n

    def test_distinct_sweep(self):
        for n in range(1, 26):
            parts = [p for p in enumerate_partitions(n)
                     if self.strictly_decreasing(p)]
            cranks = [distinct_crank(p) % 2 for p in parts]
            ranks = [rank(p) % 2 for p in parts]
            assert distinct_crank_parity(n) == ParityCount(
                cranks.count(0), cranks.count(1)), n
            assert distinct_rank_parity(n) == ParityCount(
                ranks.count(0), ranks.count(1)), n

    def test_weights_need_a_nonempty_partition(self):
        with pytest.raises(UndefinedStatisticError):
            omega_totals(0)
        with pytest.raises(UndefinedStatisticError):
            omega_weights_agree(0)
        with pytest.raises(ValueError):
            omega_totals(-1)


class TestCrank:
    def test_no_ones(self):
        assert crank((4,)) == 4

    def test_all_ones_tail(self):
        # mu = 2, no part exceeds 2, so nu = 0
        assert crank((2, 1, 1)) == -2

    def test_321_is_odd(self):
        # the lone odd crank among distinct partitions of 6
        assert crank((3, 2, 1)) == 1
        assert crank((3, 2, 1)) % 2 == 1

    def test_empty_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            crank(())

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            crank((1, 2))


class TestRank:
    @pytest.mark.parametrize("p,want", [((1,), 0), ((5, 1), 3),
                                        ((3, 3, 3), 0)])
    def test_values(self, p, want):
        assert rank(p) == want

    def test_empty_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            rank(())


class TestDistinctCrank:
    @pytest.mark.parametrize("p,want", [((6,), 6), ((5, 1), 0),
                                        ((3, 2, 1), 1), ((1,), -1)])
    def test_values(self, p, want):
        assert distinct_crank(p) == want

    def test_repeats_rejected(self):
        with pytest.raises(NotDistinctError):
            distinct_crank((2, 2))


class TestCrankParityOracle:
    def test_value_at_four(self):
        assert crank_parity_oracle(4) == 5

    def test_value_at_two(self):
        # cranks of (2) and (1,1) are 2 and -2, both even
        assert crank_parity_oracle(2) == 2

    def test_anomaly_at_one(self):
        # counting gives -1; the series coefficient is -3
        assert crank_parity_oracle(1) == -1
        assert crank_parity_series(2).coeff(1) == -3

    def test_matches_series_from_two(self):
        g = crank_parity_series(61)
        for n in range(2, 61):
            assert crank_parity(n).diff == g.coeff(n), n

    def test_counts_are_consistent(self):
        pc = crank_parity(12)
        assert pc.even + pc.odd == partition_count(12)


class TestRankParity:
    def test_matches_mock_theta_series(self):
        f = rank_parity_series(61)
        for n in range(0, 61):
            assert rank_parity(n).diff == f.coeff(n), n


class TestDistinctParity:
    def test_distinct_rank_small(self):
        # (2) has rank 1; (3) rank 2, (2,1) rank 0
        assert distinct_rank_parity(2).diff == -1
        assert distinct_rank_parity(3).diff == 2

    def test_distinct_crank_six(self):
        assert distinct_crank_parity(6).diff == 2

    def test_distinct_rank_series(self):
        # sum_n q^(n(n+1)/2) / (-q;q)_n generates the distinct-rank parity
        from crankparity.series import IntLaurentSeries
        t = 61
        total = IntLaurentSeries.zero(t)
        denom_inv = IntLaurentSeries.one(t)
        n = 0
        while n * (n + 1) // 2 < t:
            if n:
                denom_inv = denom_inv / IntLaurentSeries.from_terms(
                    {0: 1, n: 1}, t)
            total = total + denom_inv.shift(n * (n + 1) // 2).truncate(t)
            n += 1
        for n in range(0, t):
            assert total.coeff(n) == distinct_rank_parity(n).diff, n


class TestWeights:
    def test_initial_run(self):
        assert initial_run_length((7, 7, 5, 3, 3, 3, 3, 2, 1, 1)) == 3
        assert initial_run_length((6, 6, 5, 2, 2, 2, 2)) == 0

    def test_omega_examples(self):
        # the weight of (3,1) is 1 - 4 = -3: size 1 occurs once in the run
        assert weight_omega((3, 1)) == -3
        assert weight_omega((2, 1, 1)) == 5
        assert weight_omega((2, 2)) == 1
        assert weight_omega((4,)) == 1

    def test_omega_sum_at_four(self):
        # 1 - 3 + 1 + 5 + 1 = 5
        total = sum(weight_omega(p) for p in enumerate_partitions(4))
        assert total == 5

    def test_omega1_examples(self):
        assert weight_omega1((4,)) == 1
        assert weight_omega1((2, 1, 1)) == 5
        assert weight_omega1((1,)) == -3

    def test_weights_agree_small(self):
        for n in range(1, 13):
            assert omega_weights_agree(n)

    def test_weighted_sum_equals_series_small(self):
        g = crank_parity_series(13)
        for n in range(1, 13):
            total, total1 = omega_totals(n)
            assert total == total1 == g.coeff(n)

    def test_weighted_sum_fixes_the_anomaly(self):
        # at n=1 the weighted count gives the series value, not the naive one
        assert omega_totals(1)[0] == -3
