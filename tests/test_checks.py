"""The identity checks' one contract: None when the identity holds below
the truncation, else the first mismatch (exponent, lhs, rhs)."""

import pytest

from crankparity import cranks, distinct, fivetower


@pytest.mark.parametrize("check, args, source, want", [
    # the 5n+4 subsequence at q^19 reads the crank coefficient at q^99
    (cranks.subsequence_5n4_check, (40,), "crank", (19, -17424, -17425)),
    (cranks.chan_expansion_check, (120,), "crank", (99, -17425, -17424)),
    (cranks.run_weight_identity_check, (120,), "crank",
     (99, -17425, -17424)),
    # at depth 0, sum_n c(5n - 1) q^n: n = 20 reads q^99
    (fivetower.ladder_subsequence_check, (0, 40), "crank",
     (20, -9830, -9829)),
    # fact (iii): (n, coefficient, distinct_crank_exact(n))
    (distinct.gf_identity_check, (120,), "closed form", (99, 2, 3)),
    # fact (i), the first sum against the floor series, fails first
    (distinct.gf_identity_check, (120,), "distinct sum", (99, 3, 2)),
    (distinct.watson_whipple_check, (120,), "distinct sum", (99, 1, 0)),
])
def test_check_returns_none_or_first_mismatch(corrupt, check, args, source,
                                              want):
    assert check(*args) is None
    corrupt(source)
    assert check(*args) == want
