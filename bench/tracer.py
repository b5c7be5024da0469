"""Per-layer span tracer for the benchmark's traced runs.

Run as a script it replaces ``python -m crankparity``:

    python3 bench/tracer.py SUMMARY.json <crank-parity arguments>

It imports the package from ``PYTHONPATH``, wraps the public functions
named in ``SPANS`` in every namespace that bound them, runs ``cli.main``
with the given arguments (stdout is the CLI's own, byte for byte) and writes
one JSON summary of call counts, self times and work counts.

Spans are kept as running aggregates in memory, not as a list of records:
a span's self time is its duration minus the durations of the spans it
directly encloses, accumulated per name.  Nothing inside the package is
edited; the wrappers sit only around calls that cross a module boundary or
go through a module global.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# "<module>.<function>" -> attribute path inside crankparity.<module>
SPANS = {
    "series.mul": ("series", "IntLaurentSeries.__mul__"),
    "series.pow": ("series", "IntLaurentSeries.__pow__"),
    "series.reciprocal": ("series", "IntLaurentSeries.reciprocal"),
    "series.div": ("series", "IntLaurentSeries.__truediv__"),
    "series.euler_factor": ("series", "euler_factor"),
    "series.pentagonal_product": ("series", "pentagonal_product"),
    "series.eta_quotient": ("series", "eta_quotient"),
    "series.apply_U": ("series", "apply_U"),
    "series.dump_series": ("series", "dump_series"),
    "series.load_series": ("series", "load_series"),
    "cranks.crank_parity_series": ("cranks", "crank_parity_series"),
    "cranks.verify_family_congruence": ("cranks", "verify_family_congruence"),
    "cranks.subsequence_5n4_check": ("cranks", "subsequence_5n4_check"),
    "cranks.chan_expansion_check": ("cranks", "chan_expansion_check"),
    "cranks.run_weight_identity_check": ("cranks", "run_weight_identity_check"),
    "fivetower.ladder_multiplier": ("fivetower", "ladder_multiplier"),
    "fivetower.reduce_to_hauptmodul": ("fivetower", "reduce_to_hauptmodul"),
    "fivetower.u_matrix_rows": ("fivetower", "u_matrix_rows"),
    "fivetower.v_matrix_rows": ("fivetower", "v_matrix_rows"),
    "fivetower.ladder": ("fivetower", "ladder"),
    "fivetower.ladder_vectors": ("fivetower", "ladder_vectors"),
    "fivetower.ladder_subsequence_check": ("fivetower",
                                           "ladder_subsequence_check"),
    "circle.verify_error_bound": ("circle", "verify_error_bound"),
    "circle.main_term": ("circle", "main_term"),
    "circle.kloosterman_sum": ("circle", "kloosterman_sum"),
    "partitions.crank_parity_oracle": ("partitions", "crank_parity_oracle"),
    "partitions.omega_totals": ("partitions", "omega_totals"),
    "partitions.omega_weights_agree": ("partitions", "omega_weights_agree"),
    "partitions.distinct_crank_parity": ("partitions",
                                         "distinct_crank_parity"),
    "partitions.distinct_rank_parity": ("partitions", "distinct_rank_parity"),
    "distinct.gf_identity_check": ("distinct", "gf_identity_check"),
    "distinct.watson_whipple_check": ("distinct", "watson_whipple_check"),
    "distinct.bootstrap_t_values": ("distinct", "bootstrap_t_values"),
    "distinct.distinct_crank_exact": ("distinct", "distinct_crank_exact"),
    "cli.main": ("cli", "main"),
}

# Product buckets, fixed here rather than read from the package so that a
# change to the package's own kernel cutoffs does not redefine the counters.
LARGE_PAIRS = 1 << 14
SPARSE_NNZ = 8

# Which enumeration each oracle entry point runs: all partitions of n
# ("p", p(n) of them) or partitions of n into distinct parts ("q").
SWEEPS = {
    "partitions.crank_parity_oracle": ("full", "p"),
    "partitions.omega_totals": ("weight", "p"),
    "partitions.omega_weights_agree": ("weight", "p"),
    "partitions.distinct_crank_parity": ("distinct", "q"),
    "partitions.distinct_rank_parity": ("distinct", "q"),
}


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for the self-test."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.open = []  # time covered by direct children of each open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def wrap(self, name, fn, observe=None):
        clock = self.clock
        open_spans = self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                # counting is tracer work: keep it out of every span's self time
                t = clock()
                observe(args)
                if open_spans:
                    open_spans[-1] += clock() - t
            start = clock()
            open_spans.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.calls[name] += 1
                self.self_s[name] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _max_bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


def partition_number(n: int, distinct: bool) -> int:
    """p(n), or q(n) (partitions into distinct parts) when ``distinct``."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        span = range(n, part - 1, -1) if distinct else range(part, n + 1)
        for m in span:
            table[m] += table[m - part]
    return table[n]


def _observers(tracer: Tracer, series_cls) -> dict:
    counts = tracer.counts
    phase_k: set[int] = set()
    swept: set[tuple[str, int]] = set()

    def mul(args):
        a, b = args
        if not isinstance(b, series_cls):
            return  # scalar multiple, not a product
        x, y = a.coeffs, b.coeffs
        counts["series.mul.coeff_pairs"] += len(x) * len(y)
        counts["series.mul.operand_bits"] += (len(x) * _max_bits(x)
                                              + len(y) * _max_bits(y))
        if len(x) * len(y) > LARGE_PAIRS:
            counts["series.mul.large.calls"] += 1
        if min(sum(1 for c in x if c), sum(1 for c in y if c)) <= SPARSE_NNZ:
            counts["series.mul.sparse.calls"] += 1

    def kloosterman(args):
        phase_k.add(args[0])
        counts["circle.phase_tables"] = len(phase_k)

    def sweep(kind, distinct):
        def observe(args):
            n = args[0]
            if (kind, n) not in swept:
                swept.add((kind, n))
                counts["partitions.enumerated"] += partition_number(n, distinct)
        return observe

    observers = {"series.mul": mul, "circle.kloosterman_sum": kloosterman}
    for name, (kind, family) in SWEEPS.items():
        observers[name] = sweep(kind, family == "q")
    return observers


def _bindings(module):
    """(value, rebind) for each module global, attribute of a class defined
    in the module, and value or item of a module-level container.  ``rebind``
    is None for list and tuple items: no target sits in one today, and
    ``unwrapped`` reports one that does."""
    for key, value in list(vars(module).items()):
        yield value, functools.partial(setattr, module, key)
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, member in list(vars(value).items()):
                yield member, functools.partial(setattr, value, attr)
        elif isinstance(value, dict):
            for dkey, item in list(value.items()):
                yield item, functools.partial(value.__setitem__, dkey)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield item, None


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "crankparity" or name.startswith("crankparity.")]


def install(tracer: Tracer) -> dict:
    """Wrap every SPANS target wherever the package bound it.

    Besides the defining module this covers names bound by ``from .series
    import ...``, the class attribute ``__rmul__`` (which is ``__mul__``) and
    module-level tables such as the CLI's series builders.  Returns
    {id(original): (original, wrapper)}.
    """
    modules = {name: importlib.import_module(f"crankparity.{name}")
               for name, _ in SPANS.values()}
    observers = _observers(tracer, modules["series"].IntLaurentSeries)
    wrapped = {}
    for span, (mod_name, path) in SPANS.items():
        owner = modules[mod_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped[id(original)] = (original,
                                 tracer.wrap(span, original,
                                             observers.get(span)))
    for module in _package_modules():
        for value, rebind in _bindings(module):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value and rebind is not None:
                rebind(entry[1])
    return wrapped


def unwrapped(wrapped: dict) -> list[str]:
    """Names in the package still bound to an unwrapped SPANS target."""
    missed = []
    for module in _package_modules():
        for value, _ in _bindings(module):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                missed.append(f"{module.__name__}: {value.__qualname__}")
    return missed


def self_test() -> None:
    """Check self times of nested spans, including one that raises, on a
    clock the test advances by hand."""
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(ticks):
        now[0] += ticks

    leaf = tracer.wrap("leaf", lambda: advance(100))

    def mid_fn():
        advance(10)
        leaf()

    def failing_fn():
        advance(5)
        raise KeyError("expected")

    mid = tracer.wrap("mid", mid_fn)
    failing = tracer.wrap("failing", failing_fn)

    def outer_fn():
        advance(1)
        mid()
        advance(2)
        mid()
        try:
            failing()
        except KeyError:
            pass
        advance(4)

    tracer.wrap("outer", outer_fn)()
    got = {name: (tracer.calls[name], tracer.self_s[name])
           for name in ("outer", "mid", "leaf", "failing")}
    want = {"outer": (1, 7), "mid": (2, 20), "leaf": (2, 200),
            "failing": (1, 5)}
    if got != want or tracer.open:
        raise AssertionError(f"tracer self-test: got {got}, want {want}, "
                             f"open spans {tracer.open}")


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    wrapped = install(tracer)
    missed = unwrapped(wrapped)
    if missed:
        print("tracer: unwrapped bindings: " + ", ".join(missed),
              file=sys.stderr)
        return 3
    cli = sys.modules["crankparity.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="ascii") as fp:
            json.dump(tracer.summary(), fp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
