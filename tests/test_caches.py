"""The per-call memos the package keeps, each for hits measured on the CLI
commands; a new one comes with its measured reason, or not at all.  Work
cheaper than a lookup is not memoised: the pentagonal floor and ceiling are
one integer square root."""

from crankparity import circle, distinct, fivetower, partitions

KEPT = {
    # every ladder and Claim L command reads the series rows 1-5 times
    # again
    "fivetower._series_rows",
    # coeffs and verify weighted come back for each m's core walk, and the
    # T bootstrap reads the distinct-parts oracle again
    "partitions._core_profile",
    "partitions._core_weights",
    "partitions._distinct_sweep",
    # asymptotic: thousands of hits each
    "circle._arc_angles",
    "circle._cosine",
    "circle._k_constants",
    "circle._kloosterman_residue",
}


def test_lru_caches_are_the_kept_ones():
    found = {f"{module.__name__.rpartition('.')[2]}.{name}"
             for module in (circle, distinct, fivetower, partitions)
             for name, value in vars(module).items()
             if hasattr(value, "cache_info")}
    assert found == KEPT
