"""Line counts of the Python files under a directory, by kind.

    python tests/src_size.py src

Each line of each ``*.py`` file is counted once, as
- docstring: a line of a module, class or function docstring (blank lines
  inside one included);
- comment: any other line whose first non-blank character is ``#``;
- blank: any other line with nothing but whitespace;
- code: every other line.

The four counts of a file sum to its line count.  Prints one row per file,
a total row, the line count and the number of memo sites: a
``.memoized()`` call or a direct ``memoize_fn(...)`` call, found by AST
(the one inside a function named ``memoized`` is the mechanism, not a
site; ``tests/test_memo_sites.py`` checks each site is made and hit).
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree) -> set:
    """The 1-based line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The code, docstring, comment and blank line counts of one file."""
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        elif not stripped:
            out["blank"] += 1
        else:
            out["code"] += 1
    return out


def memo_sites(text: str) -> list:
    """(first line, last line) of each call in ``text`` that makes a memo."""
    tree = ast.parse(text)
    mechanism = {id(n) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "memoized"
                 for n in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in mechanism:
            continue
        f = node.func
        if ((isinstance(f, ast.Attribute) and f.attr == "memoized")
                or (isinstance(f, ast.Name) and f.id == "memoize_fn")):
            out.append((node.lineno, node.end_lineno))
    return out


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = dict.fromkeys(KINDS, 0)
    sites = 0
    print(f"{'file':48} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        counts = count(text)
        sites += len(memo_sites(text))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path.relative_to(root)):48} " + " ".join(f"{counts[k]:9d}" for k in KINDS))
    print(f"{'total':48} " + " ".join(f"{total[k]:9d}" for k in KINDS))
    print(f"{'lines':48} {sum(total.values()):9d}")
    print(f"{'memo sites':48} {sites:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
