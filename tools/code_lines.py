#!/usr/bin/env python3
"""Count code lines: lines holding a token that is neither a comment nor
part of a docstring (blank lines fall out by construction).

    python tools/code_lines.py src [more paths...]

Prints one line per file and the total — the figure the simplicity PRs
in CHANGES.md quote.
"""

import ast
import pathlib
import sys
import tokenize

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_line_numbers(path: pathlib.Path) -> set[int]:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def code_lines(path: pathlib.Path) -> int:
    return len(code_line_numbers(path))


def main(paths: list[str]) -> None:
    files = sorted(
        f for p in paths for f in
        ([pathlib.Path(p)] if p.endswith(".py") else pathlib.Path(p).rglob("*.py"))
    )
    counts = [(code_lines(f), f) for f in files]
    for n, f in counts:
        print(f"{n:7d}  {f}")
    print(f"{sum(n for n, _f in counts):7d}  total ({len(counts)} files)")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
