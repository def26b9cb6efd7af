"""Count the code lines of a Python package, ``src/acklab`` by default.

A code line holds at least one token other than a comment, and is not part
of a docstring or another bare string statement, so comments, blank lines
and documentation are left out.  Simplicity changes quote this one number.

Usage: ``python tests/code_lines.py [PACKAGE_DIR]``
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in _LAYOUT
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    strings = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return len(lines - strings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "acklab"
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
