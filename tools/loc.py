"""Print the line counts of the package source: in total, and code only.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines count in the total only.

    python tools/loc.py [DIR]    # DIR defaults to the repository's src/
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The numbers of the lines that a docstring in *source* spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of *source* that hold code."""
    docstrings = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docstrings)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        total += len(source.splitlines())
        code += code_lines(source)
    print(f"{root}: {total} lines, {code} code-only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
