"""Every private helper the package defines is called or read in it.

No linter runs on this package, so a single-underscore function or method
left behind when its last caller goes is caught here, from the modules'
syntax trees alone.  Dunder methods are called by Python, not by name, and
are not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crankparity"


def private_helpers(tree: ast.Module) -> list[str]:
    """Single-underscore module-level functions and methods of top-level
    classes."""
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [node for node in cls.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [node.name for node in defs
            if node.name.startswith("_") and not node.name.startswith("__")]


def names_read(tree: ast.Module) -> set[str]:
    """Every bare name and attribute name the module loads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return read


def unread_helpers(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    read = set().union(*(names_read(tree) for tree in trees))
    return [name for tree in trees for name in private_helpers(tree)
            if name not in read]


def test_every_private_helper_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert private_helpers(ast.parse("\n".join(sources)))
    assert unread_helpers(sources) == []


def test_a_left_over_helper_is_caught():
    assert unread_helpers([
        "def _pentagonals():\n    yield 0, 0\n"
        "def _used():\n    return 1\n"
        "class C:\n    def _step(self):\n        return self._other()\n"
        "    def _other(self):\n        return _used()\n"
        "    def __repr__(self):\n        return ''\n",
    ]) == ["_pentagonals", "_step"]
