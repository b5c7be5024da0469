"""The benchmark tracer's contract with the package: every function it
traces must still exist, or a traced bench run fails at install."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
