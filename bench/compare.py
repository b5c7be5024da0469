"""Compare two BENCH files written by ``run.py --out``.

    python3 bench/compare.py BENCH_base.json BENCH_new.json

Refuses, with exit status 2, results measured with and without gmpy2 or
under different Python minor versions.  For each workload in both files it
prints, per end-to-end metric, the median and quartiles of each side, the
change of the median as a share of the base median and the bound from
BENCHMARK.json; then the per-layer metrics of the traced runs whose median
moved.  Exits 1 when a median got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ROOT, incompatibility


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(bench: dict, trace: int) -> dict:
    """{workload: {metric: [value per run]}} over runs with this trace flag."""
    out: dict = {}
    for run in bench["runs"]:
        if run["trace"] != trace:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    reason = incompatibility(base["facts"], new["facts"])
    if reason:
        print(f"compare: refusing: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    worse = []
    base_e2e, new_e2e = collect(base, 0), collect(new, 0)
    for workload in sorted(set(base_e2e) & set(new_e2e)):
        print(f"{workload}: {len(base_e2e[workload]['setup_s'])} base runs, "
              f"{len(new_e2e[workload]['setup_s'])} new runs")
        for name in base_e2e[workload]:
            b = quartiles(base_e2e[workload][name])
            n = quartiles(new_e2e[workload][name])
            change = n[1] / b[1] - 1
            bound, better = bounds.get(name, (None, "lower"))
            regressed = bound is not None and \
                (change if better == "lower" else -change) > bound
            if regressed:
                worse.append(f"{workload}.{name}")
            limit = f" (bound {bound:.0%})" if bound is not None else ""
            print(f"  {name:<26} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                  f"new {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}]  "
                  f"{change:+.1%}{limit}{'  WORSE' if regressed else ''}")

    base_layer, new_layer = collect(base, 1), collect(new, 1)
    for workload in sorted(set(base_layer) & set(new_layer)):
        print(f"{workload} per-layer medians that moved:")
        for name, values in base_layer[workload].items():
            b = statistics.median(values)
            n = statistics.median(new_layer[workload].get(name, [0]))
            if b != n:
                rel = f"{n / b - 1:+.1%}" if b else "new"
                print(f"  {name:<52} {b:.6g} -> {n:.6g} ({rel})")

    if worse:
        print("worse beyond bound: " + ", ".join(worse))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
