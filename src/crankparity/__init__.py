"""Crank-parity partition arithmetic.

Exact q-series, brute-force enumeration oracles, and circle-method
asymptotics for the number of partitions with even crank minus the number
with odd crank, together with its congruence ladder modulo powers of 5 and
the closed form over partitions into distinct parts.
"""

from .series import (
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
    pentagonal_product,
    pentagonal_quotient,
)
from .partitions import (
    NotDistinctError,
    ParityCount,
    UndefinedStatisticError,
    crank,
    crank_parity_oracle,
    distinct_crank,
    enumerate_partitions,
    rank,
    weight_omega,
    weight_omega1,
)
from .cranks import (
    CongruenceReport,
    chan_expansion_check,
    crank_parity_series,
    partition_series,
    rank_parity_series,
    run_weight_identity_check,
    subsequence_5n4_check,
    verify_family_congruence,
)
from .fivetower import (
    HauptmodulPoly,
    LadderState,
    hauptmodul,
    ladder,
    ladder_multiplier,
    ladder_subsequence_check,
    newton_quotient,
    newton_sigma_polys,
    reduce_to_hauptmodul,
)
from .circle import (
    AsymptoticReport,
    dedekind_sum,
    eta_transformation_check,
    kloosterman_sum,
    main_term,
    verify_error_bound,
)
from .distinct import (
    PentagonalInfo,
    bootstrap_t_values,
    distinct_crank_exact,
    gf_identity_check,
    multiplicative_t,
    pent_info,
    watson_whipple_check,
)

__version__ = "0.1.0"
