"""Shared fixtures."""

import pytest

from crankparity import cranks, distinct, fivetower, series
from crankparity.series import IntLaurentSeries

# the exponent, or n, where ``corrupt`` adds one
CORRUPT_AT = 99


@pytest.fixture
def fresh_tower(monkeypatch):
    """Rebuild every eta quotient, power of G, row and rung in the test."""
    monkeypatch.delenv("CRANK_PARITY_CACHE_DIR", raising=False)
    monkeypatch.setattr(series, "_memo", {})
    monkeypatch.setattr(fivetower, "_haupt_table", [])
    fivetower._series_rows.cache_clear()
    yield
    fivetower._series_rows.cache_clear()


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(source) adds 1 at q^CORRUPT_AT to one real result, so a
    check's failure path runs on the real code:

    * "crank": every crank-parity series ``cranks.crank_parity_series``
      hands out past that exponent (the memoised series stays exact);
    * "E": every 5n+4 eta quotient ``cranks.eta_5n4_series`` hands out,
      at q^((CORRUPT_AT - 4) / 5) instead: the coefficient that stands for
      the crank-parity coefficient at q^CORRUPT_AT;
    * "closed form": ``distinct.distinct_crank_exact(CORRUPT_AT)``;
    * "distinct sum": the first ``distinct.q_sum`` built, the left side
      of the check that builds it.
    """
    def apply(source: str) -> None:
        if source in ("crank", "E"):
            name, at = {"crank": ("crank_parity_series", CORRUPT_AT),
                        "E": ("eta_5n4_series", (CORRUPT_AT - 4) // 5)}[source]
            real = getattr(cranks, name)

            def corrupted(trunc):
                x = real(trunc)
                if trunc <= at:
                    return x
                return x + IntLaurentSeries.monomial(at, 1, trunc)

            monkeypatch.setattr(cranks, name, corrupted)
        elif source == "closed form":
            real = distinct.distinct_crank_exact
            monkeypatch.setattr(distinct, "distinct_crank_exact",
                                lambda n: real(n) + (n == CORRUPT_AT))
        elif source == "distinct sum":
            real = distinct.q_sum
            calls = []

            def q_sum(trunc, *args, **kwargs):
                s = real(trunc, *args, **kwargs)
                calls.append(trunc)
                if len(calls) > 1:
                    return s
                return s + IntLaurentSeries.monomial(CORRUPT_AT, 1, s.trunc)

            monkeypatch.setattr(distinct, "q_sum", q_sum)
        else:
            raise ValueError(f"unknown source {source!r}")
    return apply
