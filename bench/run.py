"""End-to-end and per-layer benchmark of the crank-parity CLI.

    python3 bench/run.py --workload {family,tower,crosscheck} --seed N \
        --seconds S --trace {0,1} [--out BENCH_label.json]

Every command is a real CLI run, ``python3 -m crankparity ...`` in a fresh
interpreter with ``PYTHONPATH=src``, so module caches start cold, exactly as
a user meets them.  Each command's exit status and stdout sha256 are checked
against ``bench/expected.json``, recorded from the seed commit.

``--trace 0`` repeats the workload's command list while another pass fits in
``--seconds`` (always at least one pass), times fresh imports between the
first pass's commands, and reports the end-to-end metrics.  The benchmark
and every process it starts run pinned to one core.  Command times are
rescaled to a reference core speed measured on that core while they ran
(``speed.py``); import times are taken relative to a bare interpreter
start spawned just before each.
``--trace 1`` runs one untraced pass and then one pass under
``bench/tracer.py`` and reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
lines before it give the machine facts and a readable table.  ``--out``
also appends the whole run to a BENCH file, refusing one made on another
machine configuration (see ``compare.py``).

``--record`` runs every command once and rewrites ``bench/expected.json``;
use it only on the commit whose outputs define correctness.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
TMP_PARENT = ROOT / ".bench_tmp"

# Fixed command lists; README.md says why each workload was chosen.
WORKLOADS = {
    "family": (
        ("verify", "family", "--alpha", "0"),
        ("verify", "family", "--alpha", "1"),
        ("verify", "family", "--alpha", "2"),
    ),
    "tower": (
        ("--terms", "10001", "dump-series", "multiplier"),
        ("ladder", "--alpha-max", "1", "--imax", "20"),
        ("verify", "ladder", "--alpha-max", "1"),
        ("verify", "claimL", "--alpha", "1"),
    ),
    "crosscheck": (
        ("coeffs", "1", "60"),
        ("verify", "weighted"),
        ("verify", "adh"),
        ("verify", "informative"),
        ("verify", "watson-whipple"),
        ("verify", "chan"),
        ("verify", "combproof"),
        ("verify", "ramatype"),
        ("distinct", "1", "2000"),
        ("asymptotic", "1", "600"),
    ),
}
# Workloads whose commands share a CRANK_PARITY_CACHE_DIR made fresh per pass.
CACHED = {"family"}

SETUP_SPAWNS = 15
# Wall time of a bare ``python3 -c pass`` on the reference core (2.1 GHz
# Intel Xeon, Python 3.11).  Fixed: it only sets the scale of setup_s.
BARE_START_S = 0.065
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
AFFINITY = frozenset(os.sched_getaffinity(0))  # the cores given, before pinning


def slug(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv)


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracer.SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "series.mul.coeff_pairs": "count",
        "series.mul.operand_bits": "bit",
        "series.mul.large.calls": "count",
        "series.mul.sparse.calls": "count",
        "circle.phase_tables": "count",
        "partitions.enumerated": "count",
        "partitions.per_s": "1/s",
        "cli.cache.hits": "count",
        "cli.cache.misses": "count",
    })
    for commands in WORKLOADS.values():
        for argv in commands:
            units[f"cli.cmd.{slug(argv)}.wall_s"] = "s"
    units["trace_overhead_frac"] = "frac"
    return units


@dataclass
class Result:
    argv: tuple
    exit: int
    sha256: str
    wall_s: float  # rescaled to the reference speed by ``rescale``
    max_rss_mb: float
    ok: bool
    start: float
    end: float
    cache_hit: bool | None = None
    summary: dict | None = None
    raw_wall_s: float = 0.0
    slowdown: float = 1.0

    def rescale(self, probe: SpeedProbe) -> None:
        self.raw_wall_s = self.end - self.start
        self.slowdown = probe.slowdown(self.start, self.end)
        self.wall_s = self.raw_wall_s / self.slowdown
        if self.summary is not None:
            self.summary["self_s"] = {
                span: s / self.slowdown
                for span, s in self.summary["self_s"].items()}


class Runner:
    """Spawns CLI processes under a clean environment and checks them."""

    def __init__(self, tmp: Path, deadline: float, expected: dict | None):
        self.tmp = tmp
        self.deadline = deadline
        self.expected = expected  # None while recording
        self.files = 0

    @staticmethod
    def env(cache_dir: Path | None = None) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("PYTHON", "CRANK_PARITY_"))}
        env["PYTHONPATH"] = str(SRC)
        if cache_dir is not None:
            env["CRANK_PARITY_CACHE_DIR"] = str(cache_dir)
        return env

    def scratch(self, kind: str) -> Path:
        self.files += 1
        return self.tmp / f"{kind}.{self.files}"

    def spawn(self, cmd, env):
        """(exit, stdout sha256, start, end, max RSS MB, stderr file) of one
        process, timed on time.monotonic() from spawn to exit and accounted
        with wait4."""
        err_path = self.scratch("stderr")
        digest = hashlib.sha256()
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0),
                                    proc.kill)
            timer.start()
            try:
                for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                    digest.update(chunk)
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
                timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, digest.hexdigest(), start, end,
                usage.ru_maxrss / 1024, err_path)

    def command(self, argv, cache_dir=None, traced=False) -> Result:
        hit = None if cache_dir is None else any(cache_dir.iterdir())
        if traced:
            summary_path = self.scratch("trace")
            cmd = [sys.executable, str(BENCH / "tracer.py"),
                   str(summary_path), *argv]
        else:
            cmd = [sys.executable, "-m", "crankparity", *argv]
        code, sha, start, end, rss, err_path = self.spawn(
            cmd, self.env(cache_dir))
        ok = True
        if self.expected is not None:
            want = self.expected.get(" ".join(argv))
            ok = want == {"exit": code, "sha256": sha}
        if not ok:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"MISMATCH {' '.join(argv)}: exit {code}, sha256 {sha}, "
                  f"expected {want}\n{tail}", file=sys.stderr)
        summary = None
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text())
        return Result(tuple(argv), code, sha, end - start, rss, ok, start,
                      end, hit, summary)

    def run_pass(self, commands, cached: bool, traced=False,
                 setup_samples: list | None = None) -> list[Result]:
        """One run of the command list.  Given ``setup_samples``, also take
        SETUP_SPAWNS of them, spread before the commands, so that setup_s
        samples the machine over the whole pass rather than one moment."""
        cache_dir = None
        if cached:
            cache_dir = Path(tempfile.mkdtemp(prefix="cache.", dir=self.tmp))
        per_command = -(-SETUP_SPAWNS // len(commands))
        results = []
        try:
            for argv in commands:
                if setup_samples is not None:
                    setup_samples.extend(self.setup_sample()
                                       for _ in range(per_command))
                results.append(self.command(argv, cache_dir, traced))
            return results
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir)

    def import_check(self) -> None:
        """Untimed first import: compiles bytecode and proves the package
        comes from this checkout's src/."""
        probe = subprocess.run(
            [sys.executable, "-c",
             "import crankparity; print(crankparity.__file__)"],
            cwd=ROOT, env=self.env(), capture_output=True, text=True,
            timeout=60)
        if probe.returncode != 0:
            raise SystemExit(f"bench: cannot import crankparity from {SRC}:\n"
                             f"{probe.stderr}")
        found = Path(probe.stdout.strip()).resolve()
        if SRC.resolve() not in found.parents:
            raise SystemExit(f"bench: crankparity imported from {found}, "
                             f"not from {SRC}")

    def startup(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        status, _, start, end, _, _ = self.spawn(
            [sys.executable, "-c", code], self.env())
        if status != 0:
            raise SystemExit(f"bench: python3 -c {code!r} failed")
        return end - start

    def setup_sample(self) -> tuple[float, float]:
        """(bare interpreter start, start through import crankparity),
        spawned back to back."""
        return self.startup("pass"), self.startup("import crankparity")


def ordered_commands(workload: str, seed: int) -> tuple:
    """The workload's commands; the seed only rotates family's order, which
    changes which alpha pays the cache miss."""
    commands = WORKLOADS[workload]
    if workload == "family":
        k = seed % len(commands)
        commands = commands[k:] + commands[:k]
    return commands


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int):
    commands = ordered_commands(workload, seed)
    setup_samples: list[tuple[float, float]] = []
    passes = []
    with SpeedProbe() as probe:
        start = time.monotonic()
        while True:
            passes.append(runner.run_pass(commands, workload in CACHED,
                                          setup_samples=None if passes
                                          else setup_samples))
            elapsed = time.monotonic() - start
            last = sum(r.wall_s for r in passes[-1])
            if elapsed + last > seconds or \
                    time.monotonic() + last > runner.deadline - 5:
                break
    results = [r for p in passes for r in p]
    for result in results:
        result.rescale(probe)
    # The speed probe does not fit set-up: an interpreter start slows less
    # than the probe's chunk when the core slows.  A bare start does fit.
    metrics = {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "setup_s": statistics.median(full / bare
                                     for bare, full in setup_samples)
        * BARE_START_S,
        "peak_rss_mb": max(r.max_rss_mb for r in results),
    }
    return metrics, results, len(passes)


def per_layer(runner: Runner, workload: str, seed: int):
    tracer.self_test()
    commands = ordered_commands(workload, seed)
    cached = workload in CACHED
    with SpeedProbe() as probe:
        plain = runner.run_pass(commands, cached)
        traced = runner.run_pass(commands, cached, traced=True)
    for result in plain + traced:
        result.rescale(probe)

    values = dict.fromkeys(per_layer_units(), 0)
    for result in traced:
        summary = result.summary or {"calls": {}, "self_s": {}, "counts": {}}
        for span, n in summary["calls"].items():
            values[f"{span}.calls"] += n
        for span, s in summary["self_s"].items():
            values[f"{span}.self_s"] += s
        for name, n in summary["counts"].items():
            values[name] += n
        if result.cache_hit is not None:
            values["cli.cache.hits" if result.cache_hit
                   else "cli.cache.misses"] += 1
    partition_s = sum(values[f"{span}.self_s"] for span in tracer.SWEEPS)
    values["partitions.per_s"] = (values["partitions.enumerated"]
                                  / partition_s if partition_s else 0.0)
    for result in plain:
        values[f"cli.cmd.{slug(result.argv)}.wall_s"] = result.wall_s
    values["trace_overhead_frac"] = (sum(r.wall_s for r in traced)
                                     / sum(r.wall_s for r in plain) - 1)
    return values, plain + traced


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    """What a comparison must hold fixed; compare.py refuses to compare
    results whose gmpy2 presence or Python minor version differ."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "crankparity").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_digest.update(path.read_bytes())
    return {
        "gmpy2": (version("gmpy2") or "present")
        if importlib.util.find_spec("gmpy2") else None,
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "nproc": len(AFFINITY),
        "cpu": cpu_model(),
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def incompatibility(a: dict, b: dict) -> str | None:
    """Why results measured under facts ``a`` and ``b`` may not be
    compared, or None."""
    if (a["gmpy2"] is None) != (b["gmpy2"] is None):
        return f"gmpy2 presence differs: {a['gmpy2']} vs {b['gmpy2']}"
    if a["python"].split(".")[:2] != b["python"].split(".")[:2]:
        return f"Python minor version differs: {a['python']} vs {b['python']}"
    return None


def append_record(path: Path, facts: dict, record: dict) -> None:
    bench = {"schema": "crankparity-bench/1", "facts": facts, "runs": []}
    if path.exists():
        bench = json.loads(path.read_text())
        reason = incompatibility(bench["facts"], facts)
        if reason is None and bench["facts"]["src_sha256"] != \
                facts["src_sha256"]:
            reason = "the sources differ; one BENCH file holds one program"
        if reason:
            raise SystemExit(f"bench: not appending to {path}: {reason}")
    bench["runs"].append(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(bench, indent=1) + "\n")
    os.replace(tmp, path)


def record_expected(runner: Runner) -> None:
    expected = {}
    for workload, commands in WORKLOADS.items():
        for result in runner.run_pass(commands, workload in CACHED):
            expected[" ".join(result.argv)] = {"exit": result.exit,
                                               "sha256": result.sha256}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {len(expected)} digests to {EXPECTED}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # Before any thread or child starts, so that all of them inherit it:
    # the speed probe must share the core that runs the commands.
    os.sched_setaffinity(0, {min(AFFINITY)})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full run to this BENCH json file")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this checkout")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "crankparity" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/crankparity",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run.", dir=TMP_PARENT))
    try:
        runner = Runner(tmp, deadline, None if args.record
                        else json.loads(EXPECTED.read_text()))
        runner.import_check()
        if args.record:
            record_expected(runner)
            return 0
        if args.trace:
            values, results = per_layer(runner, args.workload, args.seed)
            units, passes = per_layer_units(), 1
        else:
            values, results, passes = end_to_end(runner, args.workload,
                                                 args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run is using it

    failed = sum(not r.ok for r in results)
    facts = machine_facts()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {passes} commands {len(results)}")
    slowdowns = sorted(r.slowdown for r in results)
    print(f"  raw wall {sum(r.raw_wall_s for r in results):.3f} s; core "
          f"slowdown {slowdowns[0]:.3f} to {slowdowns[-1]:.3f} over "
          f"{len(results)} commands")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<52} {failed / len(results):>16.6g} frac")
    line = {"correct": failed == 0, "attempted": len(results),
            "failed": failed, "metrics": metrics}
    if args.out:
        append_record(args.out, facts, {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "passes": passes,
            **line,
            "commands": [{"argv": list(r.argv), "exit": r.exit,
                          "sha256": r.sha256, "wall_s": r.wall_s,
                          "raw_wall_s": r.raw_wall_s,
                          "slowdown": r.slowdown,
                          "max_rss_mb": r.max_rss_mb} for r in results]})
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
