"""The benchmark tracer's contract with the package: every function it
traces must still exist, or a traced bench run fails at install, and the CLI
must look each check up when the command runs, or the tracer never sees it
called."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crankparity

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
SRC = str(Path(crankparity.__file__).resolve().parent.parent)


def tracer_spans() -> dict:
    # compiled from its text, so nothing is written next to it
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SPANS"]


def test_every_span_target_resolves():
    spans = tracer_spans()
    missing = []
    for span, (mod_name, path) in spans.items():
        owner = importlib.import_module(f"crankparity.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert spans and missing == []


@pytest.mark.parametrize("argv, span", [
    (("verify", "claimL", "--alpha", "0"),
     "fivetower.ladder_subsequence_check"),
    (("--terms", "40", "verify", "chan"), "cranks.chan_expansion_check"),
    (("--terms", "40", "dump-series", "multiplier"),
     "fivetower.ladder_multiplier"),
], ids=["claimL", "chan", "dump-multiplier"])
def test_traced_run_calls_the_check_once(tmp_path, argv, span):
    # a check captured where the tracer cannot rebind it (a partial, a
    # tuple entry, a default argument) would run untraced: zero calls
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CRANK_PARITY_"))}
    env["PYTHONPATH"] = SRC
    summary = tmp_path / "summary.json"
    runs = [subprocess.run(cmd, capture_output=True, text=True, env=env,
                           cwd=tmp_path, timeout=120)
            for cmd in ([sys.executable, str(TRACER), str(summary), *argv],
                        [sys.executable, "-m", "crankparity", *argv])]
    traced, plain = runs
    assert (traced.returncode, plain.returncode) == (0, 0), traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(summary.read_text())["calls"][span] == 1
