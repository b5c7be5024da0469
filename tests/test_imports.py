"""Every name a package module imports at top level is used in it, and
importing the CLI stays lean.

No linter runs on this package, so an import left behind when its last use
goes is caught here, from the module's syntax tree alone.  A fresh
interpreter checks which modules importing the CLI loads, and that the
series table is whole whichever package module comes first; the value
classes that replace dataclasses keep the dataclass contract.
"""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crankparity"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports (``__future__`` aside)
    that no expression in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_left_over_import_is_caught():
    assert unused_imports("from .series import IntLaurentSeries, memo\n"
                          "x = memo\n") == ["IntLaurentSeries"]


# ---------------------------------------------------------------------------
# start-up: what a fresh import loads
# ---------------------------------------------------------------------------

def fresh_stdout(code: str) -> str:
    """What a fresh interpreter prints running ``code``, with the package
    on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


def loaded_by(statement: str) -> set[str]:
    """Modules a fresh interpreter adds to sys.modules running
    ``statement``."""
    return set(fresh_stdout("import sys\n"
                            "before = set(sys.modules)\n"
                            f"{statement}\n"
                            "print(*sorted(set(sys.modules) - before))\n"
                            ).split())


def test_cli_start_up_skips_heavy_modules():
    # dataclasses pulls in inspect; json and csv load only when a command
    # writes that format; mpmath only with the asymptotic command
    heavy = {"dataclasses", "inspect", "json", "csv", "mpmath"}
    loaded = loaded_by("import crankparity.cli")
    assert "crankparity.cli" in loaded
    assert loaded & heavy == set()


def test_asymptotic_runs_in_one_process():
    # one execution path: no worker pool, and no optional multiply backend
    loaded = loaded_by("import contextlib, io\n"
                       "from crankparity.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       "    main(['asymptotic', '1', '5'])")
    assert "crankparity.circle" in loaded
    assert {m.split(".")[0] for m in loaded} \
        & {"concurrent", "multiprocessing"} == set()
    nodes = [node for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))]
    imported = {a.name for node in nodes if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "gmpy2" not in {name.split(".")[0] for name in imported}


def test_package_import_loads_only_init():
    assert loaded_by("import crankparity") == {"crankparity"}


@pytest.mark.parametrize("first", ["series", "distinct", "cranks", "circle",
                                   "fivetower", "cli"])
def test_series_table_is_whole_whichever_module_comes_first(first):
    # the memoised series of cranks and fivetower, each a dump-series choice
    out = fresh_stdout(f"import crankparity.{first}\n"
                       "from crankparity.series import SERIES\n"
                       "print(*sorted(SERIES))\n")
    assert out.split() == ["crank", "eta_5n4", "hauptmodul", "multiplier",
                           "partition", "rank"]


# ---------------------------------------------------------------------------
# the value classes: immutable, compared and hashed by value
# ---------------------------------------------------------------------------

def value_pairs():
    """(field, two equal instances built apart) for each value class."""
    from crankparity import circle, distinct, partitions

    cases = {
        "ParityCount": ("even", lambda: partitions.ParityCount(3, 2)),
        "PentagonalInfo": ("floor_p", lambda: distinct.pent_info(40)),
        "AsymptoticReport": ("passed", lambda: circle.report(10, 4, 64)),
    }
    return [pytest.param(field, make(), make(), id=name)
            for name, (field, make) in cases.items()]


@pytest.mark.parametrize("field, a, b", value_pairs())
def test_value_class_contract(field, a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    back = pickle.loads(pickle.dumps(a))
    assert back == a and type(back) is type(a)
