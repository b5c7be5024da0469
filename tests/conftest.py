"""Shared fixtures."""

import pytest

from crankparity import cranks, distinct
from crankparity.series import IntLaurentSeries

# the exponent, or n, where ``corrupt`` adds one
CORRUPT_AT = 99


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(source) adds 1 at q^CORRUPT_AT to one real result, so a
    check's failure path runs on the real code:

    * "crank": every crank-parity series ``cranks.crank_parity_series``
      hands out past that exponent (the memoised series stays exact);
    * "closed form": ``distinct.distinct_crank_exact(CORRUPT_AT)``;
    * "distinct sum": the first ``distinct.q_sum`` built, the left side
      of the check that builds it.
    """
    def apply(source: str) -> None:
        if source == "crank":
            real = cranks.crank_parity_series

            def crank_parity_series(trunc):
                g = real(trunc)
                if trunc <= CORRUPT_AT:
                    return g
                return g + IntLaurentSeries.monomial(CORRUPT_AT, 1, trunc)

            monkeypatch.setattr(cranks, "crank_parity_series",
                                crank_parity_series)
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
