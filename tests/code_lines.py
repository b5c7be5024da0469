"""Count the code lines of the package: lines that are not blank, not a
comment and not part of a docstring.

Docstrings are found with ``ast``: the string literal that opens a module,
a class or a function body.  Every physical line of such a literal is left
out, and so is every line whose first non-blank character is ``#``.

Run from the repository root:

    python tests/code_lines.py [PACKAGE_DIR]

It prints one ``module count`` line per module, largest first, then the
total; PACKAGE_DIR defaults to ``src/crankparity``.
"""

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crankparity"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, each class's and each
    function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are neither blank, nor a
    comment, nor part of a docstring."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
