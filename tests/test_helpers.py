"""Every function and module-level constant the package defines has a
reader.

No linter runs on this package, so a function, method or constant left
behind when its last reader goes is caught here, from the modules' syntax
trees alone.  A single-underscore helper must be called or read in the
package.  A public one must be read in the package, be a span that
``bench/tracer.py`` wraps, be a series declared with ``@memoised(...)``
(``dump-series`` reaches it through ``series.SERIES``), or be named in
``REFERENCE`` with the reason it is kept.  Dunder methods are called by
Python, not by name, and are not checked.  A name a module binds by
assignment in its own scope must be read in the package; ``__version__``
is read by packaging tools instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crankparity"
TRACER = PACKAGE.parent.parent / "bench" / "tracer.py"

# Public functions no package code reads, each kept for a reader outside it.
REFERENCE = {
    "enumerate_partitions": "the tests' oracle: the readable enumerator "
                            "every sweep is checked against",
    "crank": "the tests' oracle: the crank by its definition",
    "rank": "the tests' oracle: the rank by its definition",
    "distinct_crank": "the tests' oracle: the distinct-parts crank by its "
                      "definition",
    "weight_omega": "the tests' oracle: omega by its definition",
    "weight_omega1": "the tests' oracle: omega_1 by its definition",
    "rank_parity": "the tests' oracle: the rank parity by enumeration",
    "euler_factor": "a bench/tracer.py span, and the tests' Euler product "
                    "built apart from the pentagonal route",
}


def defined(tree: ast.Module) -> list[str]:
    """Names of the module-level functions and of the methods of top-level
    classes."""
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [node for node in cls.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [node.name for node in defs]


def assigned(tree: ast.Module) -> list[str]:
    """Names bound by assignment in the module's own scope: its top-level
    statements and those of a top-level if or try."""
    names = []
    scope = list(tree.body)
    for node in scope:
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            scope += [child for child in ast.iter_child_nodes(node)
                      if isinstance(child, (ast.stmt, ast.ExceptHandler))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return names


def private_helpers(tree: ast.Module) -> list[str]:
    return [name for name in defined(tree)
            if name.startswith("_") and not name.startswith("__")]


def public_names(tree: ast.Module) -> list[str]:
    return [name for name in defined(tree) if not name.startswith("_")]


def memoised_series(tree: ast.Module) -> set[str]:
    """Names of the module-level functions decorated with ``memoised(...)``,
    which ``dump-series`` reaches through ``series.SERIES``."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call)
                    and "memoised" in (getattr(d.func, "id", None),
                                       getattr(d.func, "attr", None))
                    for d in node.decorator_list)}


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


def package_sources() -> list[str]:
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]


def span_targets() -> set[str]:
    """The last name of each ``SPANS`` target, the tracer compiled from its
    text as ``tests/test_bench_tracer.py`` reads it."""
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return {path.rpartition(".")[2]
            for _, path in namespace["SPANS"].values()}


def unread_helpers(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    read = set().union(*(names_read(tree) for tree in trees))
    return [name for tree in trees for name in private_helpers(tree)
            if name not in read]


def unread_constants(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    read = set().union(*(names_read(tree) for tree in trees))
    return [name for tree in trees for name in assigned(tree)
            if name not in read and name != "__version__"]


def unreached_public(sources: list[str], spans: set[str],
                     reference) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    reached = set().union(*(names_read(tree) | memoised_series(tree)
                            for tree in trees), spans, reference)
    return [name for tree in trees for name in public_names(tree)
            if name not in reached]


def test_every_private_helper_is_read():
    sources = package_sources()
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


def test_every_module_constant_is_read():
    sources = package_sources()
    assert {"SIGMAS", "SERIES_ROWS", "_memo"} <= set(
        assigned(ast.parse("\n".join(sources))))
    assert unread_constants(sources) == []


def test_a_left_over_constant_is_caught():
    assert unread_constants([
        "__version__ = '1.0'\n"
        "LEFT_OVER = 3\n"
        "USED: int = 1\n"
        "TOTAL = 0\n"
        "TOTAL += USED\n"
        "try:\n    from fast import mul\n"
        "except ImportError:\n    _FALLBACK = None\n"
        "def f():\n    local = TOTAL\n    return local\n",
    ]) == ["LEFT_OVER", "_FALLBACK"]


def test_every_public_name_is_reached():
    assert unreached_public(package_sources(), span_targets(),
                            REFERENCE) == []


def test_reference_names_are_defined_and_unread():
    # a name the package reads again, or no longer defines, leaves the set
    trees = [ast.parse(source) for source in package_sources()]
    read = set().union(*(names_read(tree) for tree in trees))
    public = {name for tree in trees for name in public_names(tree)}
    assert all(REFERENCE.values())
    assert set(REFERENCE) <= public - read


def test_a_left_over_public_helper_is_caught():
    assert unreached_public([
        "def left_over():\n    return 1\n"
        "def traced():\n    return used()\n"
        "def used():\n    return 2\n"
        "def oracle():\n    return 3\n"
        "@memoised('dumped')\ndef dumped(trunc):\n    return trunc\n"
        "@series.memoised('other')\ndef other(trunc):\n    return trunc\n"
        "@lru_cache(maxsize=None)\ndef cached(trunc):\n    return trunc\n"
        "class C:\n    def stale(self):\n        return 4\n"
        "    def _private(self):\n        return 5\n",
    ], {"traced"}, {"oracle": "the tests' oracle"}) == [
        "left_over", "cached", "stale"]
