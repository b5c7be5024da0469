"""Command-line frontend: coefficient tables, identity verification sweeps,
asymptotic reports, distinct-parts tables, ladder dumps, and raw series
dumps.

The parsed ``args`` are the one configuration object, and every command is
deterministic for given ``args``.  Exit status is 0 exactly when everything
requested passed.  argparse refuses a malformed or out-of-bounds option with
its usage message and exit status 2.  ``main`` prints a refused request
(``TruncationError``, ``BudgetExceededError``) as one ``crank-parity:``
stderr line with exit status 2, and a failed check on the package's own
series (``AssertionError``) as one such line with exit status 1.  The
options argparse cannot judge alone are refused by the command with one
unprefixed stderr line and exit status 1 (``SystemExit`` with a message):
an empty or negative N range (``_n_range``), an oracle sweep past
--oracle-max or an --n-max that checks no n (``_oracle_n_max`` and
``coeffs``), a --terms too short for ``coeffs``' N_HI, and an --n-max
below the first n that ``verify family`` checks at its --alpha.

``_emit`` is the one writer of a command's result to stdout, in the format
``args.output`` names; only dump-series bypasses it, always writing the dump
TSV.
Big integers in JSON output are serialized as decimal strings (coefficients
overflow 64-bit machinery long before the default truncations).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cranks, distinct, fivetower, partitions
from .series import SERIES, TruncationError, dump_series

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


def _terms(args, check: str) -> int:
    """--terms (argparse keeps it >= 8), or the check's default truncation."""
    return args.terms or _CHECK_DEFAULT_TERMS.get(check, 2000)


def _n_range(args, low: int) -> tuple[int, int]:
    """The command's N_LO and N_HI, refused unless low <= N_LO <= N_HI."""
    if args.n_lo < low or args.n_hi < args.n_lo:
        raise SystemExit(f"{args.command}: need {low} <= N_LO <= N_HI")
    return args.n_lo, args.n_hi


def _emit(args, payload: dict, columns: list[str], rows: list[dict],
          text: str | None = None) -> None:
    """Write one command's result to stdout as ``args.output`` says.

    json is ``{"schema", **payload}``; csv is ``columns``, then each row's
    values under them; text is ``text``, or a padded table of the rows when
    it is None, or the csv or json form when it is "csv" or "json".  The
    json and csv modules are imported only by the branch that writes their
    format, so a command that prints text never loads them.
    """
    output = args.output
    if output == "text" and text in ("csv", "json"):
        output = text
    if output == "json":
        import json

        print(json.dumps({"schema": SCHEMA, **payload}, default=str,
                         indent=2))
    elif output == "csv":
        import csv

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

def cmd_coeffs(args) -> int:
    n_lo, n_hi = _n_range(args, 0)
    source = args.source
    terms = args.terms or n_hi + 1
    if source in ("series", "both") and n_hi >= terms:
        raise SystemExit(
            f"coeffs: truncation {terms} too small for n = {n_hi}; rerun "
            f"with --terms at least {n_hi + 1}")
    if source in ("oracle", "both") and n_hi > args.oracle_max:
        raise SystemExit(
            f"coeffs: oracle sweep capped at {args.oracle_max}; raise "
            "--oracle-max (hard limit 90)")

    series = cranks.crank_parity_series(terms) \
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
    _emit(args, {"command": "coeffs", "rows": rows},
          ["n", "series", "oracle", "flag"], rows)
    return 0 if all(r["flag"] != "MISMATCH" for r in rows) else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_family(args) -> tuple:
    n_max = args.n_max if args.n_max is not None else _terms(args, "family")
    try:
        report = cranks.verify_family_congruence(args.alpha, n_max)
    except ValueError as exc:  # no n <= n_max qualifies
        raise SystemExit(f"verify family: {exc}")
    failures = report["failures"]
    return report["count"], failures[0] if failures else None, report


# The series identities: one call on the truncation each (claimL also on
# --alpha), returning None or the first mismatch (exponent, lhs, rhs).  Plain
# dict values looked up at call time, so a tracer that rebinds module
# globals and dict values reaches them.
_SIMPLE_CHECKS = {
    "ramatype": cranks.subsequence_5n4_check,
    "chan": cranks.chan_expansion_check,
    "combproof": cranks.run_weight_identity_check,
    "claimL": fivetower.ladder_subsequence_check,
    "informative": distinct.gf_identity_check,
    "watson-whipple": distinct.watson_whipple_check,
}


def _verify_simple(args) -> tuple:
    terms = _terms(args, args.check)
    check = _SIMPLE_CHECKS[args.check]
    level = ({"alpha": args.alpha},) if args.check == "claimL" else ()
    bad = check(args.alpha, terms) if level else check(terms)
    return (terms, None if bad is None else "q^{}: {} != {}".format(*bad),
            *level)


def _verify_ladder(args) -> tuple:
    # L_(2a+1) needs 5^(a + 1 + (j - 1) // 2) to divide its entry at G^j,
    # and L_(2a+2) needs 5^(a + 1 + j // 2): both are 5^((nu + j) // 2)
    rungs = fivetower.ladder(args.alpha_max)
    for nu, poly in rungs.items():
        if nu == 0:
            continue
        for j, c in poly.items():
            required = (nu + j) // 2
            v = fivetower.five_adic(c)
            if v < required:
                return len(rungs) - 1, (f"L_{nu} G^{j}: 5-adic valuation "
                                        f"{v} < {required}")
    return len(rungs) - 1, None


def _oracle_n_max(args, default: int) -> int:
    """--n-max of a check that enumerates partitions, which --oracle-max
    caps; a request above the cap is refused, not cut, and so is one that
    checks no n."""
    if args.n_max is None:
        return min(default, args.oracle_max)
    if args.n_max < 1:
        raise SystemExit(
            f"verify {args.check}: --n-max {args.n_max} checks no n; raise "
            "--n-max to at least 1")
    if args.n_max > args.oracle_max:
        raise SystemExit(
            f"verify {args.check}: oracle sweep capped at "
            f"{args.oracle_max}; lower --n-max or raise --oracle-max "
            "(hard limit 90)")
    return args.n_max


def _first_failure(n_max: int, holds) -> int | None:
    """The first 1 <= n <= n_max where ``holds(n)`` is false, or None; no n
    past the first failure is checked."""
    return next((n for n in range(1, n_max + 1) if not holds(n)), None)


def _verify_adh(args) -> tuple:
    n_max = _oracle_n_max(args, args.oracle_max)
    values = distinct.bootstrap_t_values(n_max)
    return n_max, _first_failure(n_max, lambda n: distinct.multiplicative_t(
        n, values) == partitions.distinct_rank_parity(n).diff)


def _verify_weighted(args) -> tuple:
    n_max = _oracle_n_max(args, 40)
    series = cranks.crank_parity_series(n_max + 1)
    return n_max, _first_failure(n_max, lambda n: (
        partitions.omega_totals(n) == (series.coeff(n),) * 2
        and partitions.omega_weights_agree(n)))


_VERIFY_HANDLERS = {
    "family": _verify_family,
    **dict.fromkeys(_SIMPLE_CHECKS, _verify_simple),
    "ladder": _verify_ladder,
    "adh": _verify_adh,
    "weighted": _verify_weighted,
}


def cmd_verify(args) -> int:
    """Run one check and report it; the only place a verify result is built.

    Every handler returns ``(count, first counterexample or None)``;
    family adds its report's detail as a third item, and claimL its level
    ``{"alpha": a}``.  The check passes exactly when there is no
    counterexample.  The result holds check, passed, count, detail (family
    and claimL only) and first_counterexample, in that order; its text form
    is one PASS or FAIL line, and the exit status is 0 on a pass, 1 on a
    failure.
    """
    count, first, *detail = _VERIFY_HANDLERS[args.check](args)
    passed = first is None
    result = {"check": args.check, "passed": passed, "count": count}
    if detail:
        result["detail"] = detail[0]
    result["first_counterexample"] = first
    line = f"{'PASS' if passed else 'FAIL'} {args.check}: {count} cases"
    if not passed:
        line += f" (first counterexample: {first})"
    _emit(args, result, ["check", "passed", "count", "first_counterexample"],
          [result], line)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

def cmd_asymptotic(args) -> int:
    from . import circle  # loads mpmath, which no other command needs

    n_lo, n_hi = _n_range(args, 1)
    bits = args.precision_bits
    reports = circle.verify_error_bound(n_lo, n_hi, bits)
    digits = max(10, int(bits * 0.301) - 2)
    columns = ["n", "exact", "main", "abs_error", "bound", "pass"]
    rows = [dict(zip(columns, r.csv_row(digits))) for r in reports]
    _emit(args, {"command": "asymptotic", "rows": rows}, columns, rows,
          "csv")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# distinct
# ---------------------------------------------------------------------------

def cmd_distinct(args) -> int:
    n_lo, n_hi = _n_range(args, 1)
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
        ok = ok and row["floor_term"] + row["ceil_term"] == value
        if n <= args.oracle_max:
            oracle = partitions.distinct_crank_parity(n).diff
            row["oracle"] = oracle
            ok = ok and oracle == value
        rows.append(row)
    _emit(args, {"command": "distinct", "rows": rows},
          ["n", "case", "value", "oracle", "floor_term", "ceil_term"], rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# ladder dump
# ---------------------------------------------------------------------------

def cmd_ladder(args) -> int:
    a_rows = fivetower.u_matrix_rows(args.imax)
    b_rows = fivetower.v_matrix_rows(args.imax)

    def encode_rows(rows):
        return {str(i): {str(j): str(c) for j, c in sorted(row.items())}
                for i, row in rows.items()}

    ladder_payload = []
    rungs = []
    for nu, poly in fivetower.ladder(args.alpha_max).items():
        entries = {str(j): str(c) for j, c in poly.items()}
        vals = {str(j): fivetower.five_adic(c) for j, c in poly.items()}
        ladder_payload.append({"nu": nu, "entries": entries,
                               "valuations": vals})
        rungs += [{"nu": nu, "j": j, "entry": c,
                   "valuation": vals.get(j, "")} for j, c in entries.items()]
    payload = {
        "command": "ladder",
        "alpha_max": args.alpha_max,
        "A": encode_rows(a_rows),
        "B": encode_rows(b_rows),
        "ladder": ladder_payload,
    }
    _emit(args, payload, ["nu", "j", "entry", "valuation"], rungs, "json")
    return 0


# ---------------------------------------------------------------------------
# dump-series
# ---------------------------------------------------------------------------

def cmd_dump_series(args) -> int:
    series = SERIES[args.name](_terms(args, "dump-series"))
    dump_series(series, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int, high: int | None = None):
    """An argparse type: a decimal integer >= low, and <= high if given."""
    want = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        # isdecimal refuses a sign, a space, a point or a non-number
        if text.isdecimal() and low <= int(text) and (
                high is None or int(text) <= high):
            return int(text)
        raise argparse.ArgumentTypeError(
            f"expected an integer {want}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crank-parity",
        description="Crank-parity partition function: exact series, "
                    "congruence sweeps, circle-method asymptotics, and the "
                    "distinct-parts closed form.")
    parser.add_argument("--terms", type=_int_at_least(8), default=None,
                        help="series truncation (per-check defaults apply "
                             "when omitted)")
    parser.add_argument("--precision-bits", type=_int_at_least(53),
                        default=128)
    parser.add_argument("--oracle-max", type=_int_at_least(1, 90), default=60,
                        help="enumeration oracle cap (hard limit 90)")
    parser.add_argument("--output", choices=("json", "csv", "text"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    non_negative = _int_at_least(0)
    alpha_max = {"type": non_negative, "default": 2,
                 "help": "ladder depth (default 2)"}

    p = sub.add_parser("coeffs", help="coefficient table: series vs oracle")
    p.add_argument("n_lo", type=int)
    p.add_argument("n_hi", type=int)
    p.add_argument("--source", choices=("series", "oracle", "both"),
                   default="both")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run one named verification sweep")
    p.add_argument("check", choices=tuple(_VERIFY_HANDLERS))
    p.add_argument("--alpha", type=non_negative, default=0,
                   help="congruence level (family, claimL; default 0)")
    p.add_argument("--alpha-max", **alpha_max)
    p.add_argument("--n-max", type=non_negative, default=None,
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
    p.add_argument("--imax", type=non_negative, default=6,
                   help="transfer matrix row count")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("dump-series",
                       help="raw exponent<TAB>coefficient dump")
    p.add_argument("name", choices=sorted(SERIES))
    p.set_defaults(func=cmd_dump_series)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (TruncationError, fivetower.BudgetExceededError,
            AssertionError) as exc:
        # a refused request exits 2; a failed check on the package's own
        # series (AssertionError) is a fault of the program and exits 1
        print(f"crank-parity: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, AssertionError) else 2
    except BrokenPipeError:
        # stdout's reader is gone; point fd 1 at the null device so the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
