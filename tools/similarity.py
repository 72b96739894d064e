#!/usr/bin/env python3
"""Token-similarity census: pairs of functions written (nearly) twice.

    python tools/similarity.py [--root DIR]

Every outermost function and method under ``--root`` (default
``src/repro``; ``--root tests`` for the test suite, a parent clone's
``src/repro`` for a before column) becomes a token sequence — the AST
node types of its body in walk order, each attribute access carrying its
attribute name, each call its callee name.
Two functions are a pair when ``difflib.SequenceMatcher`` rates their
sequences at least ``MIN_RATIO`` alike and both have at least
``MIN_TOKENS`` tokens. Prints one line per pair, most alike first, and
the count; a decision made in two places shows up as such a pair.
"""

import argparse
import ast
import difflib
import pathlib

MIN_RATIO = 0.75
MIN_TOKENS = 40


def tokens(fn: ast.AST) -> list[str]:
    out = []
    for stmt in fn.body:
        for node in ast.walk(stmt):
            name = type(node).__name__
            if isinstance(node, ast.Attribute):
                name += "." + node.attr
            elif isinstance(node, ast.Call):
                callee = node.func
                name += ":" + getattr(callee, "attr", getattr(callee, "id", "?"))
            out.append(name)
    return out


def functions(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
                    yield f"{rel}:{owner}{fn.name}", tokens(fn)


def census(root: pathlib.Path):
    fns = [(name, toks) for name, toks in functions(root) if len(toks) >= MIN_TOKENS]
    pairs = []
    for i, (name_a, a) in enumerate(fns):
        matcher = difflib.SequenceMatcher(None, autojunk=False)
        matcher.set_seq2(a)  # the side SequenceMatcher indexes once
        for name_b, b in fns[i + 1:]:
            # ratio = 2 * matches / (len a + len b) <= 2 * min / (len a + len b)
            if 2 * min(len(a), len(b)) < MIN_RATIO * (len(a) + len(b)):
                continue
            matcher.set_seq1(b)
            if matcher.real_quick_ratio() < MIN_RATIO or matcher.quick_ratio() < MIN_RATIO:
                continue
            ratio = matcher.ratio()
            if ratio >= MIN_RATIO:
                pairs.append((ratio, name_a, name_b))
    return sorted(pairs, reverse=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path("src/repro"))
    args = parser.parse_args()
    pairs = census(args.root)
    for ratio, a, b in pairs:
        print(f"{ratio:.2f}  {a}  ~  {b}")
    print(f"{len(pairs)} pairs at >= {MIN_RATIO:.0%}")


if __name__ == "__main__":
    main()
