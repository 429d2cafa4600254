"""Every defaulted parameter of a module-level function or method in src/ is
set by some call in src/, and not only to its default: a value no caller
changes is a constant, not an option."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pbhverify"

# (qualified name, parameter) -> why it may keep a default no call in src/ sets
ALLOWED = {
    ("main", "argv"): "None reads sys.argv; tests pass their own argument lists",
    ("*", "name"): "a label for reports and messages, not a behaviour",
    ("gcs_nijenhuis", "include_frame"): "tests bracket only their own sections",
    ("SuiteContext.points", "chart"): "tests sample other charts with the suite plan",
}


def _defaulted(tree):
    """(qualified name, name callers use, [(parameter, position or None,
    default node)]) for each module-level function and method with defaulted
    parameters; positions count the arguments a call passes, so ``self`` is
    dropped."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            members = [(None, node)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
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


def _calls(tree):
    """callee name -> [(positional count, keyword names, passes **kwargs,
    call node)]; a starred positional argument counts as none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            npos = sum(not isinstance(a, ast.Starred) for a in node.args)
            kws = {k.arg for k in node.keywords}
            out.setdefault(name, []).append((npos, kws, None in kws, node))
    return out


def _src_calls(trees):
    calls = {}
    for tree in trees.values():
        for name, found in _calls(tree).items():
            calls.setdefault(name, []).extend(found)
    return calls


NOT_LITERAL = object()


def _literal(node):
    """The value of a literal node, else ``NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return NOT_LITERAL


def test_every_default_is_set_by_a_caller():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    calls = _src_calls(trees)
    unset = []
    for path, tree in trees.items():
        for qual, callee, params in _defaulted(tree):
            for param, i, _ in params:
                if (qual, param) in ALLOWED or ("*", param) in ALLOWED:
                    continue
                if not any(star or param in kws or (i is not None and npos > i)
                           for npos, kws, star, _ in calls.get(callee, [])):
                    unset.append(f"{path.relative_to(SRC)}: {qual}({param})")
    assert not unset, unset


def test_no_default_is_set_only_to_itself():
    """A parameter every setting call in src/ sets to its default literal is
    a constant too (a call passing ``**kwargs`` may set it to anything)."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    calls = _src_calls(trees)
    constant = []
    for path, tree in trees.items():
        for qual, callee, params in _defaulted(tree):
            for param, i, default in params:
                default = _literal(default)
                if default is NOT_LITERAL:
                    continue
                values = []
                for npos, kws, star, node in calls.get(callee, []):
                    if star:
                        values.append(NOT_LITERAL)
                    elif param in kws:
                        values.append(_literal(next(k.value for k in node.keywords
                                                    if k.arg == param)))
                    elif i is not None and npos > i:
                        values.append(_literal(node.args[i]))
                if values and all(v is not NOT_LITERAL and v == default for v in values):
                    constant.append(f"{path.relative_to(SRC)}: {qual}({param})")
    assert not constant, constant


def test_the_allowlist_is_needed():
    """Each allowlisted parameter still exists."""
    found = {(qual, p) for path in SRC.rglob("*.py")
             for qual, _, params in _defaulted(ast.parse(path.read_text()))
             for p, _, _ in params}
    assert {k for k in ALLOWED if k[0] != "*"} <= found
