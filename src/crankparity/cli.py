"""Command-line frontend: coefficient tables, identity verification sweeps,
asymptotic reports, distinct-parts tables, ladder dumps, and raw series
dumps.

Every command is deterministic for a given configuration; --parallel only
fans the per-n asymptotic evaluations out to worker processes and reassembles
them in index order, so it never changes an emitted number.  Exit status is
0 exactly when everything requested passed.

``_emit`` is the one writer of a command's result to stdout, in the format
--output names; only dump-series bypasses it, always writing the dump TSV.
Big integers in JSON output are serialized as decimal strings (coefficients
overflow 64-bit machinery long before the default truncations).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import circle, cranks, distinct, fivetower, partitions
from .series import TruncationError, dump_series

SCHEMA = "crank-parity/1"

_CHECK_DEFAULT_TERMS = {
    "family": 10_000,
    "ramatype": 400,
    "chan": 300,
    "combproof": 300,
    "claimL": 40,
    "informative": 2000,
    "watson-whipple": 1000,
}


@dataclass
class RunConfig:
    terms: int | None = None
    precision_bits: int = 128
    oracle_max: int = 60
    output: str = "text"
    parallel: bool = False

    def __post_init__(self):
        if self.terms is not None and self.terms < 8:
            raise ValueError("--terms must be at least 8")
        if self.precision_bits < 53:
            raise ValueError("--precision-bits must be at least 53")
        if not 0 < self.oracle_max <= 90:
            raise ValueError("--oracle-max must be in 1..90")
        if self.output not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output}")

    def check_terms(self, check: str) -> int:
        if self.terms is not None:
            return self.terms
        return _CHECK_DEFAULT_TERMS.get(check, 2000)


def _emit(config: RunConfig, payload: dict, columns: list[str],
          rows: list[dict], text: str | None = None) -> None:
    """Write one command's result to stdout as ``config.output`` says.

    json is ``{"schema", **payload}``; csv is ``columns``, then each row's
    values under them; text is ``text``, or a padded table of the rows when
    it is None, or the csv or json form when it is "csv" or "json".
    """
    output = config.output
    if output == "text" and text in ("csv", "json"):
        output = text
    if output == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, default=str,
                         indent=2))
    elif output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    elif text is not None:
        print(text)
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows
                  else len(c) for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args, config: RunConfig) -> int:
    n_lo, n_hi = args.n_lo, args.n_hi
    if n_lo < 0 or n_hi < n_lo:
        raise SystemExit("coeffs: need 0 <= N_LO <= N_HI")
    source = args.source
    terms = config.check_terms("coeffs")
    if source in ("series", "both") and n_hi >= terms:
        raise SystemExit(
            f"coeffs: truncation {terms} too small for n = {n_hi}; rerun "
            f"with --terms at least {n_hi + 1}")
    if source in ("oracle", "both") and n_hi > config.oracle_max:
        raise SystemExit(
            f"coeffs: oracle sweep capped at {config.oracle_max}; raise "
            "--oracle-max (hard limit 90)")

    series = cranks.crank_parity_series(max(terms, n_hi + 1)) \
        if source in ("series", "both") else None
    rows = []
    for n in range(n_lo, n_hi + 1):
        row: dict = {"n": n, "series": "", "oracle": "", "flag": ""}
        if series is not None:
            row["series"] = str(series.coeff(n))
        if source in ("oracle", "both") and n >= 1:
            row["oracle"] = str(partitions.crank_parity_oracle(n))
        if source == "both" and n >= 1:
            if n == 1:
                row["flag"] = "anomaly"
            else:
                row["flag"] = ("match" if row["series"] == row["oracle"]
                               else "MISMATCH")
        rows.append(row)
    _emit(config, {"command": "coeffs", "rows": rows},
          ["n", "series", "oracle", "flag"], rows)
    return 0 if all(r["flag"] != "MISMATCH" for r in rows) else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_family(args, config: RunConfig) -> dict:
    alpha = args.alpha
    n_max = args.n_max if args.n_max is not None else \
        config.check_terms("family")
    report = cranks.verify_family_congruence(alpha, n_max)
    return {
        "check": "family",
        "passed": report.passed,
        "count": len(report.tested_n),
        "detail": report.to_json_dict(),
        "first_counterexample": report.failures[0] if report.failures
        else None,
    }


# One call on the truncation each; plain dict values looked up at call time,
# so a tracer that rebinds module globals and dict values reaches them.
_SIMPLE_CHECKS = {
    "ramatype": cranks.subsequence_5n4_check,
    "chan": cranks.chan_expansion_check,
    "combproof": cranks.run_weight_identity_check,
    "informative": distinct.gf_identity_check,
    "watson-whipple": distinct.watson_whipple_check,
}


def _verify_simple(args, config: RunConfig) -> dict:
    terms = config.check_terms(args.check)
    ok = _SIMPLE_CHECKS[args.check](terms)
    return {"check": args.check, "passed": bool(ok), "count": terms,
            "first_counterexample": None if ok else "see check definition"}


def _verify_ladder(args, config: RunConfig) -> dict:
    states = fivetower.ladder(args.alpha_max)
    worst = []
    for state in states:
        if state.nu == 0:
            continue
        a = (state.nu - 1) // 2
        for j, c in state.gpoly.as_dict().items():
            if state.nu % 2:
                required = a + 1 + (j - 1) // 2
            else:
                required = a + 1 + j // 2
            if c and fivetower.five_adic(c) < required:
                worst.append((state.nu, j))
    return {"check": "ladder", "passed": not worst,
            "count": len(states) - 1,
            "first_counterexample": worst[0] if worst else None}


def _verify_claim_l(args, config: RunConfig) -> dict:
    terms = config.check_terms("claimL")
    ok = fivetower.ladder_subsequence_check(args.alpha, terms)
    return {"check": "claimL", "passed": bool(ok), "count": terms,
            "first_counterexample": None}


def _oracle_n_max(args, config: RunConfig, default: int) -> int:
    """--n-max of a check that enumerates partitions, which --oracle-max
    caps; a request above the cap is refused, not cut."""
    if args.n_max is None:
        return min(default, config.oracle_max)
    if args.n_max > config.oracle_max:
        raise SystemExit(
            f"verify {args.check}: oracle sweep capped at "
            f"{config.oracle_max}; lower --n-max or raise --oracle-max "
            "(hard limit 90)")
    return args.n_max


def _verify_adh(args, config: RunConfig) -> dict:
    n_max = _oracle_n_max(args, config, config.oracle_max)
    values = distinct.bootstrap_t_values(n_max)
    bad = [n for n in range(1, n_max + 1)
           if distinct.multiplicative_t(n, values)
           != partitions.distinct_rank_parity(n).diff]
    return {"check": "adh", "passed": not bad, "count": n_max,
            "first_counterexample": bad[0] if bad else None}


def _verify_weighted(args, config: RunConfig) -> dict:
    n_max = _oracle_n_max(args, config, 40)
    series = cranks.crank_parity_series(n_max + 1)
    bad = []
    for n in range(1, n_max + 1):
        total, total1 = partitions.omega_totals(n)
        if not (total == total1 == series.coeff(n)
                and partitions.omega_weights_agree(n)):
            bad.append(n)
    return {"check": "weighted", "passed": not bad, "count": n_max,
            "first_counterexample": bad[0] if bad else None}


_VERIFY_HANDLERS = {
    "family": _verify_family,
    "ramatype": _verify_simple,
    "chan": _verify_simple,
    "combproof": _verify_simple,
    "ladder": _verify_ladder,
    "claimL": _verify_claim_l,
    "informative": _verify_simple,
    "watson-whipple": _verify_simple,
    "adh": _verify_adh,
    "weighted": _verify_weighted,
}


def cmd_verify(args, config: RunConfig) -> int:
    result = _VERIFY_HANDLERS[args.check](args, config)
    state = "PASS" if result["passed"] else "FAIL"
    extra = "" if result["passed"] else \
        f" (first counterexample: {result['first_counterexample']})"
    _emit(config, result, ["check", "passed", "count", "first_counterexample"],
          [result], f"{state} {result['check']}: {result['count']} cases{extra}")
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

def _asymptotic_worker(payload):
    n, exact, bits = payload
    main = circle.main_term(n, bits)
    return circle.AsymptoticReport.build(n, exact, main)


def cmd_asymptotic(args, config: RunConfig) -> int:
    n_lo, n_hi = args.n_lo, args.n_hi
    if n_lo < 1 or n_hi < n_lo:
        raise SystemExit("asymptotic: need 1 <= N_LO <= N_HI")
    series = cranks.crank_parity_series(n_hi + 1)
    jobs = [(n, series.coeff(n), config.precision_bits)
            for n in range(n_lo, n_hi + 1)]
    if config.parallel and len(jobs) > 1:
        try:
            with ProcessPoolExecutor() as pool:
                reports = list(pool.map(_asymptotic_worker, jobs))
        except OSError as exc:
            print(f"crank-parity: no worker processes ({exc}); running "
                  "sequentially", file=sys.stderr)
            reports = [_asymptotic_worker(job) for job in jobs]
    else:
        reports = [_asymptotic_worker(job) for job in jobs]

    digits = max(10, int(config.precision_bits * 0.301) - 2)
    columns = ["n", "exact", "main", "abs_error", "bound", "pass"]
    rows = [dict(zip(columns, r.csv_row(digits))) for r in reports]
    _emit(config, {"command": "asymptotic", "rows": rows}, columns, rows,
          "csv")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# distinct
# ---------------------------------------------------------------------------

def cmd_distinct(args, config: RunConfig) -> int:
    n_lo, n_hi = args.n_lo, args.n_hi
    if n_lo < 1 or n_hi < n_lo:
        raise SystemExit("distinct: need 1 <= N_LO <= N_HI")
    rows = []
    ok = True
    for n in range(n_lo, n_hi + 1):
        value = distinct.distinct_crank_exact(n)
        row = {
            "n": n,
            "case": distinct.distinct_crank_case(n),
            "value": value,
            "oracle": "",
            "floor_term": distinct.floor_part(n),
            "ceil_term": distinct.ceil_part(n),
        }
        if n <= config.oracle_max:
            oracle = partitions.distinct_crank_parity(n).diff
            row["oracle"] = oracle
            ok = ok and oracle == value
        rows.append(row)
    _emit(config, {"command": "distinct", "rows": rows},
          ["n", "case", "value", "oracle", "floor_term", "ceil_term"], rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# ladder dump
# ---------------------------------------------------------------------------

def cmd_ladder(args, config: RunConfig) -> int:
    a_rows = fivetower.u_matrix_rows(args.imax)
    b_rows = fivetower.v_matrix_rows(args.imax)
    states = fivetower.ladder(args.alpha_max)

    def encode_rows(rows):
        return {str(i): {str(j): str(c) for j, c in sorted(row.items())}
                for i, row in rows.items()}

    ladder_payload = []
    rungs = []
    for state in states:
        entries = {str(j): str(c) for j, c in state.gpoly.as_dict().items()}
        vals = {str(j): fivetower.five_adic(c)
                for j, c in state.gpoly.as_dict().items() if c}
        ladder_payload.append({"nu": state.nu, "entries": entries,
                               "valuations": vals})
        rungs += [{"nu": state.nu, "j": j, "entry": c,
                   "valuation": vals.get(j, "")} for j, c in entries.items()]
    payload = {
        "command": "ladder",
        "alpha_max": args.alpha_max,
        "A": encode_rows(a_rows),
        "B": encode_rows(b_rows),
        "ladder": ladder_payload,
    }
    _emit(config, payload, ["nu", "j", "entry", "valuation"], rungs, "json")
    return 0


# ---------------------------------------------------------------------------
# dump-series
# ---------------------------------------------------------------------------

_SERIES_BUILDERS = {
    "crank": cranks.crank_parity_series,
    "rank": cranks.rank_parity_series,
    "partition": cranks.partition_series,
    "hauptmodul": fivetower.hauptmodul,
    "multiplier": fivetower.ladder_multiplier,
    "newton": fivetower.newton_quotient,
}


def cmd_dump_series(args, config: RunConfig) -> int:
    series = _SERIES_BUILDERS[args.name](config.check_terms("dump-series"))
    dump_series(series, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _non_negative_int(text: str) -> int:
    if not text.isdecimal():  # a sign, a space or a non-number
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crank-parity",
        description="Crank-parity partition function: exact series, "
                    "congruence sweeps, circle-method asymptotics, and the "
                    "distinct-parts closed form.")
    parser.add_argument("--terms", type=int, default=None,
                        help="series truncation (per-check defaults apply "
                             "when omitted)")
    parser.add_argument("--precision-bits", type=int, default=128)
    parser.add_argument("--oracle-max", type=int, default=60,
                        help="enumeration oracle cap (hard limit 90)")
    parser.add_argument("--output", choices=("json", "csv", "text"),
                        default="text")
    parser.add_argument("--parallel", action="store_true",
                        help="evaluate asymptotic sweeps in worker processes")
    sub = parser.add_subparsers(dest="command", required=True)
    alpha_max = {"type": _non_negative_int, "default": 2,
                 "help": "ladder depth (default 2)"}

    p = sub.add_parser("coeffs", help="coefficient table: series vs oracle")
    p.add_argument("n_lo", type=int)
    p.add_argument("n_hi", type=int)
    p.add_argument("--source", choices=("series", "oracle", "both"),
                   default="both")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run one named verification sweep")
    p.add_argument("check", choices=tuple(_VERIFY_HANDLERS))
    p.add_argument("--alpha", type=_non_negative_int, default=0,
                   help="congruence level (family, claimL; default 0)")
    p.add_argument("--alpha-max", **alpha_max)
    p.add_argument("--n-max", type=_non_negative_int, default=None,
                   help="sweep bound (family, adh, weighted)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotic",
                       help="per-n asymptotic reports as CSV")
    p.add_argument("n_lo", type=int)
    p.add_argument("n_hi", type=int)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("distinct",
                       help="closed-form distinct-parts table")
    p.add_argument("n_lo", type=int)
    p.add_argument("n_hi", type=int)
    p.set_defaults(func=cmd_distinct)

    p = sub.add_parser("ladder", help="dump transfer matrices and ladder")
    p.add_argument("--alpha-max", **alpha_max)
    p.add_argument("--imax", type=_non_negative_int, default=6,
                   help="transfer matrix row count")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("dump-series",
                       help="raw exponent<TAB>coefficient dump")
    p.add_argument("name", choices=sorted(_SERIES_BUILDERS))
    p.set_defaults(func=cmd_dump_series)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(terms=args.terms,
                           precision_bits=args.precision_bits,
                           oracle_max=args.oracle_max,
                           output=args.output,
                           parallel=args.parallel)
    except ValueError as exc:
        print(f"crank-parity: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.func(args, config)
        sys.stdout.flush()
        return code
    except (TruncationError, fivetower.BudgetExceededError) as exc:
        print(f"crank-parity: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone; point fd 1 at the null device so the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
