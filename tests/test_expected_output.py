"""The bytes of the commands ``bench/run.py`` runs, against the exit codes
and stdout sha256 digests it records in ``bench/expected.json``.

Each recorded command runs through ``cli.main`` in process, as a fresh
``python -m crankparity`` would: no CRANK_PARITY_* variable set, an empty
series memo and an empty table of hauptmodul powers.  The file is read,
never written; ``bench/run.py --record`` is what rewrites it.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from crankparity import fivetower, series
from crankparity.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
RECORDED = json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_stdout_matches_the_record(capsys, monkeypatch, command):
    for name in os.environ:
        if name.startswith("CRANK_PARITY_"):
            monkeypatch.delenv(name)
    monkeypatch.setattr(series, "_memo", {})
    monkeypatch.setattr(fivetower, "_haupt_table", [])
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert {"exit": code, "sha256": digest} == RECORDED[command]
