"""Count code lines: non-blank, non-comment, non-docstring source lines
of the ``equi7grid_ray`` package plus ``__ray_entry__.py``.

A line counts when a token other than a comment, a newline or an indent
change lies on it; a token spanning several lines (a multi-line string)
counts every line it spans.  Docstrings -- the leading string statement
of a module, class or function -- do not count.

Usage: python tools/code_lines.py [REV [REV2]]

With no argument it counts the working tree.  With one git revision it
counts that revision (files read through ``git show``) and the working
tree, and prints each changed file's delta; with two it compares the
two revisions.  The last line is the total (and the net change).
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "equi7grid_ray"
EXTRA = ("__ray_entry__.py",)

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _is_counted(path: str) -> bool:
    return path in EXTRA or (path.startswith(PACKAGE + "/") and path.endswith(".py"))


def _files_at(rev: str | None) -> dict[str, str]:
    """Counted path -> source text, in the working tree or at ``rev``."""
    if rev is None:
        paths = [p.relative_to(ROOT).as_posix() for p in (ROOT / PACKAGE).rglob("*.py")]
        paths += [p for p in EXTRA if (ROOT / p).exists()]
        return {p: (ROOT / p).read_text() for p in paths}
    listing = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev],
                             cwd=ROOT, check=True, capture_output=True, text=True)
    return {
        p: subprocess.run(["git", "show", f"{rev}:{p}"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
        for p in listing.stdout.split() if _is_counted(p)
    }


def counts_at(rev: str | None = None) -> dict[str, int]:
    return {p: count_code_lines(src) for p, src in sorted(_files_at(rev).items())}


def main(argv: list[str]) -> int:
    if not argv:
        print(f"{sum(counts_at().values()):,}")
        return 0
    old = counts_at(argv[0])
    new = counts_at(argv[1] if len(argv) > 1 else None)
    for p in sorted(set(old) | set(new)):
        a, b = old.get(p, 0), new.get(p, 0)
        if a != b:
            print(f"{b - a:+7,d}  {p}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{a:,} -> {b:,} ({b - a:+,d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
