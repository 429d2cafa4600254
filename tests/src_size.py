"""Line counts of the Python files under a directory, by kind.

    python tests/src_size.py src

Each line of each ``*.py`` file is counted once, as
- docstring: a line of a module, class or function docstring (blank lines
  inside one included);
- comment: any other line whose first non-blank character is ``#``;
- blank: any other line with nothing but whitespace;
- code: every other line.

The four counts of a file sum to its line count.  Prints one row per file,
a total row, the line count, the number of memo sites and the number of
defaults.  A memo site is a ``.memoized()`` call or a direct
``memoize_fn(...)`` call, found by AST (the one inside a function named
``memoized`` is the mechanism, not a site; ``tests/test_memo_sites.py``
checks each site is made and hit).  A default is a defaulted parameter of a
module-level function or method, or a defaulted dataclass field
(``defaulted``; ``tests/test_parameters.py`` checks each is set, and left
out, by some call in src/).
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


def _keyword(call, name):
    """The value node of keyword ``name`` in ``call``, else None."""
    return next((k.value for k in call.keywords if k.arg == name), None)


def _is_dataclass(cls) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _fields(cls) -> list:
    """[(field, position or None, default node)] of the defaulted fields of
    dataclass ``cls``: its ``__init__`` parameters are its fields in
    declaration order, less the ``init=False`` ones, and a keyword-only
    field takes no position."""
    out, i = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        default, kw_only = stmt.value, False
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) in (
                "field", "dc_field"):
            init, kw = _keyword(default, "init"), _keyword(default, "kw_only")
            if init is not None and ast.literal_eval(init) is False:
                continue
            kw_only = kw is not None and ast.literal_eval(kw) is True
            if _keyword(default, "default") is not None:
                default = _keyword(default, "default")
            elif _keyword(default, "default_factory") is None:
                default = None
        if default is not None:
            out.append((stmt.target.id, None if kw_only else i, default))
        i += not kw_only
    return out


def defaulted(tree):
    """(qualified name, name callers use, [(parameter, position or None,
    default node)]) for each module-level function, method and dataclass
    with defaulted parameters; positions count the arguments a call passes,
    so ``self`` is dropped, and a dataclass's parameters are its fields."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            members = [(None, node)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
            if _is_dataclass(node) and _fields(node):
                yield node.name, node.name, _fields(node)
        else:
            continue
        for cls, fn in members:
            args = fn.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            pos = (args.posonlyargs + args.args)[1 if cls and not static else 0:]
            first = len(pos) - len(args.defaults)
            params = [(p.arg, i, args.defaults[i - first])
                      for i, p in enumerate(pos) if i >= first]
            params += [(p.arg, None, d) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                qual = f"{cls}.{fn.name}" if cls else fn.name
                callee = cls if fn.name == "__init__" else fn.name
                yield qual, callee, params


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = dict.fromkeys(KINDS, 0)
    sites = defaults = 0
    print(f"{'file':48} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        counts = count(text)
        sites += len(memo_sites(text))
        defaults += sum(len(params) for _, _, params in defaulted(ast.parse(text)))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path.relative_to(root)):48} " + " ".join(f"{counts[k]:9d}" for k in KINDS))
    print(f"{'total':48} " + " ".join(f"{total[k]:9d}" for k in KINDS))
    print(f"{'lines':48} {sum(total.values()):9d}")
    print(f"{'memo sites':48} {sites:9d}")
    print(f"{'defaults':48} {defaults:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
