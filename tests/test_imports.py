"""Every name a package module imports at top level is used in it.

No linter runs on this package, so an import left behind when its last use
goes is caught here, from the module's syntax tree alone.
"""

import ast
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
