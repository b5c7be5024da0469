"""Run a fixed list of single-line source mutants against the tests, and
report how many the tests kill.

Each mutant names a module of ``src/crankparity``, the function or table
it hits, one source line of that module (as written, without its
indentation) and the line that replaces it.  For each mutant the script
copies ``src/``, ``tests/``, ``bench/expected.json`` and
``pyproject.toml`` to a temporary directory, applies the mutant there and
runs that module's test files plus ``tests/test_expected_output.py`` (the
recorded stdout digests), stopping at the first failure.  A failure, an
error or a timeout kills the mutant; a clean pass lets it survive.  The
working tree is never written.

Before any mutant runs, every original line must occur exactly once in its
module and every mutated module must compile; anything else is an error in
the list, reported before the run, not a survivor.  An unmutated copy runs
first and must pass.  Hypothesis runs with a fixed seed, so a run is
repeatable.

Run from the repository root:

    python tests/mutants.py [TARGET ...]

With TARGET arguments, only the mutants whose module or target is one of
them run.
It prints one line per mutant, killed (with the first failing test) or
survived (with the reason, for a mutant known to be equivalent), then the
score and the run time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GATE = "tests/test_expected_output.py"
TIMEOUT = 300  # seconds per mutant; a mutant that loops is killed by it

# module -> its test files, run with GATE
TESTS = {
    "series": ["tests/test_series.py"],
    "cranks": ["tests/test_cranks.py", "tests/test_checks.py"],
    "fivetower": ["tests/test_fivetower.py", "tests/test_checks.py"],
    "distinct": ["tests/test_distinct.py", "tests/test_checks.py"],
    "partitions": ["tests/test_partitions.py"],
    "circle": ["tests/test_circle.py"],
}


class Mutant(NamedTuple):
    module: str
    target: str
    original: str
    replacement: str
    equivalent: str = ""  # why no test can kill it, when none can


MUTANTS = [
    # series: the product, its powers, reciprocals and quotients
    Mutant("series", "__mul__",
           "rlen = min(len(self.coeffs), len(other.coeffs))",
           "rlen = max(len(self.coeffs), len(other.coeffs))"),
    Mutant("series", "__mul__",
           "off = self.offset + other.offset",
           "off = self.offset - other.offset"),
    Mutant("series", "__pow__", "out = out * out", "out = out * self"),
    Mutant("series", "__pow__", 'if bit == "1":', 'if bit == "0":'),
    Mutant("series", "__pow__",
           "return IntLaurentSeries.one(len(self.coeffs))",
           "return IntLaurentSeries.one(len(self.coeffs) + 1)"),
    Mutant("series", "__pow__",
           "return self.reciprocal() ** -n", "return self ** -n"),
    Mutant("series", "_recip_unit",
           "z = [c[0]]  # 1/c[0] == c[0]", "z = [1]"),
    Mutant("series", "_recip_unit",
           "m2 = min(2 * m, rlen)", "m2 = min(2 * m + 1, rlen)"),
    Mutant("series", "_recip_unit", "t[0] -= 1", "t[0] += 1"),
    Mutant("series", "__truediv__",
           "return self * other.reciprocal()",
           "return other * self.reciprocal()"),
    Mutant("series", "__truediv__",
           "return self * other.reciprocal()", "return self * other"),
    Mutant("series", "_pack", "elif x < 0:", "elif x < -1:"),
    Mutant("series", "_conv",
           "width = bound.bit_length() // 8 + 1",
           "width = bound.bit_length() // 8"),
    Mutant("series", "_conv",
           "bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))",
           "bound = max(map(abs, a)) * max(map(abs, b))"),
    Mutant("series", "first_mismatch",
           "lo = min(self.offset, other.offset)",
           "lo = max(self.offset, other.offset)"),
    Mutant("series", "first_mismatch",
           "if mine != theirs:", "if mine > theirs:"),
    Mutant("series", "_apply_sparse", "old = x[:]", "old = x"),
    Mutant("series", "_apply_sparse", "if c == 1:", "if c == -1:"),
    Mutant("series", "_apply_sparse",
           "ends = [e for e, _ in terms[1:]] + [len(x)]",
           "ends = [e for e, _ in terms[1:]] + [len(x) - 1]"),
    Mutant("series", "_pentagonal_terms",
           "s = -1 if m % 2 else 1", "s = 1 if m % 2 else -1"),
    Mutant("series", "_pentagonal_terms",
           "for e in (d * m * (3 * m - 1) // 2, d * m * (3 * m + 1) // 2):",
           "for e in (d * m * (3 * m - 1) // 2, d * m * (3 * m + 2) // 2):"),
    Mutant("series", "_pentagonal_terms",
           "while d * m * (3 * m - 1) // 2 < trunc:",
           "while d * m * (3 * m - 1) // 2 <= trunc:",
           "the extra index yields nothing: both its exponents are >= trunc"),
    Mutant("series", "_cube_terms",
           "yield d * n * (n + 1) // 2, -2 * n - 1 if n % 2 else 2 * n + 1",
           "yield d * n * (n + 1) // 2, -2 * n - 1 if n % 2 else 2 * n - 1"),
    Mutant("series", "_cube_terms",
           "while d * n * (n + 1) // 2 < trunc:",
           "while d * n * (n + 1) // 2 <= trunc:"),
    Mutant("series", "_past_prefactor",
           "if trunc <= shift:", "if trunc < shift:"),
    Mutant("series", "memo",
           "_past_prefactor(cur.offset, trunc)", "pass"),
    Mutant("series", "load_series",
           'fields = "\\t".join(lines).split("\\t") if lines else []',
           'fields = "\\t".join(lines).split("\\t")'),
    Mutant("series", "_load_checked",
           "if data[cut:] == _trailer(data[:cut]):",
           "if data[cut:] != _trailer(data[:cut]):"),
    Mutant("series", "_load_checked",
           'cut = data.find(b"\\n%d\\t" % trunc, 0, cut) + 1 or cut',
           'cut = data.find(b"\\n%d\\t" % (trunc + 1), 0, cut) + 1 or cut'),
    # cranks: the three sides of the crank-parity series
    Mutant("cranks", "_times_euler",
           "op = operator.sub if m % 2 else operator.add",
           "op = operator.add if m % 2 else operator.sub"),
    Mutant("cranks", "_lambert_sum",
           "while n * (n + 1) // 2 < trunc:",
           "while n * (n + 1) // 2 < trunc - 1:"),
    Mutant("cranks", "_theta_square",
           "c[1::2] = [-x for x in c[1::2]]",
           "c[2::2] = [-x for x in c[2::2]]"),
    # fivetower: the multiplier's route, the modular equation and the
    # ladder's crank side
    Mutant("fivetower", "_multiplier",
           "_apply_pentagonal(c, 25, -3)", "_apply_pentagonal(c, 25, -2)"),
    Mutant("fivetower", "_series_rows",
           "cur = _multiplier(t) if v else IntLaurentSeries.one(t)",
           "cur = eta_quotient(pre, t)"),
    Mutant("fivetower", "SIGMAS", "{1: 10, 2: -5},", "{1: 10, 2: -4},"),
    Mutant("fivetower", "_modular_step",
           "s = s if k % 2 else -s", "s = -s if k % 2 else s"),
    Mutant("fivetower", "_modular_step",
           "if a + b > jmax:", "if a + b >= jmax:"),
    Mutant("fivetower", "_routes_agree",
           "for j in range(jmax + 1):", "for j in range(jmax):"),
    Mutant("fivetower", "_routes_agree",
           "if series.get(j, 0) != other.get(j, 0):",
           "if series.get(j, 0) > other.get(j, 0):"),
    Mutant("fivetower", "_crank_side",
           "d = 5 if nu % 2 else 1", "d = 1 if nu % 2 else 5"),
    Mutant("fivetower", "_crank_side",
           "delta = sum(5 ** (2 * i) for i in range((nu - 1) // 2 + 1))",
           "delta = sum(5 ** (2 * i) for i in range((nu - 1) // 2))"),
    Mutant("fivetower", "_crank_side",
           "if need > COEFFICIENT_CEILING:", "if need >= COEFFICIENT_CEILING:"),
    # distinct: pentagonal floors and ceilings
    Mutant("distinct", "pent_info",
           "lo = s - (1, 0, 1, 2, 3, 0)[s % 6]",
           "lo = s - (1, 0, 1, 2, 3, 1)[s % 6]"),
    Mutant("distinct", "pent_info",
           "hi = lo if lo * lo == 24 * n + 1 else lo + (4 if lo % 6 == 1 "
           "else 2)",
           "hi = lo if lo * lo == 24 * n + 1 else lo + (2 if lo % 6 == 1 "
           "else 4)"),
    # partitions: the enumeration oracle's sweeps
    Mutant("partitions", "_core_profile",
           "rank_even += (y ^ ell) & 1  # y - (ell + 1) is even",
           "rank_even += (y ^ k) & 1"),
    Mutant("partitions", "_distinct_sweep",
           "crank_even += k & 1 if a[0] == 1 else ~a[k] & 1  # k - 1 or a[k]",
           "crank_even += k & 1 if a[0] == 2 else ~a[k] & 1"),
    # circle: the Kloosterman sums' angles and cosines
    Mutant("circle", "_arc_angles",
           "return tuple((h, m) for h, m in angles.items() if h <= k)",
           "return tuple((h, m) for h, m in angles.items() if h < k)"),
    Mutant("circle", "_cosine",
           "x = mpf_shift(mpf_cos_pi(x, prec, round_nearest), bits + 16)",
           "x = mpf_shift(mpf_cos_pi(x, prec, round_nearest), bits + 15)"),
]


def mutated(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's one line replaced, indentation kept;
    ValueError unless the original line occurs exactly once."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines)
            if line.strip() == mutant.original]
    if len(hits) != 1:
        raise ValueError(f"{mutant.module}.{mutant.target}: "
                         f"{mutant.original!r} occurs {len(hits)} times")
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + mutant.replacement + "\n"
    return "".join(lines)


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "crankparity" / f"{module}.py"


def run_tests(mutant: Mutant | None, files: list[str]) -> tuple[str, float]:
    """The first failing test ("" if all pass) of ``files`` plus GATE on a
    copy of the tree with ``mutant`` applied, and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
        (tmp / "bench").mkdir()
        shutil.copy(ROOT / "bench" / "expected.json", tmp / "bench")
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            path = module_path(tmp, mutant.module)
            path.write_text(mutated(path.read_text(), mutant))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("CRANK_PARITY_")}
        env["PYTHONPATH"] = str(tmp / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                "-p", "no:cacheprovider", "--hypothesis-seed=0",
                *files, GATE]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, text=True,
                                  capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "", seconds
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1], seconds
    return f"pytest exit {proc.returncode}", seconds


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS
              if not argv or m.module in argv or m.target in argv]
    if not chosen:
        print(f"no mutant targets {' '.join(argv)}", file=sys.stderr)
        return 2
    try:
        for m in chosen:
            source = mutated(module_path(ROOT, m.module).read_text(), m)
            compile(source, f"{m.module}.py", "exec")
    except (ValueError, SyntaxError) as exc:
        print(f"mutant list error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    files = sorted({f for m in chosen for f in TESTS[m.module]})
    failed, seconds = run_tests(None, files)
    if failed:
        print(f"the unmutated tree fails: {failed}", file=sys.stderr)
        return 1
    print(f"unmutated tree passes ({seconds:.1f} s)")
    killed = 0
    for i, m in enumerate(chosen, 1):
        failed, seconds = run_tests(m, TESTS[m.module])
        head = (f"[{i}/{len(chosen)}] {m.module}.{m.target}: "
                f"{m.original} -> {m.replacement}")
        if failed:
            killed += 1
            print(f"{head}: killed by {failed} ({seconds:.1f} s)")
        else:
            why = f": equivalent, {m.equivalent}" if m.equivalent else ""
            print(f"{head}: SURVIVED{why} ({seconds:.1f} s)")
        sys.stdout.flush()
    total = time.perf_counter() - start
    print(f"score {killed}/{len(chosen)} killed in {total:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
