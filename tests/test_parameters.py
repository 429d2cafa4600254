"""Every defaulted parameter of a module-level function or method in src/,
and every defaulted dataclass field, is set by some call in src/, and not
only to its default: a value no caller changes is a constant, not an
option.  Some call in src/ also leaves it out: a default that only tests
rely on is a required parameter.  A dataclass's parameters are its
``__init__`` parameters, its fields (``src_size.defaulted``)."""

import ast
from pathlib import Path

from src_size import defaulted

SRC = Path(__file__).resolve().parents[1] / "src" / "pbhverify"

# (qualified name, parameter) -> why it may keep a default no call in src/
# sets; a parameter "*" stands for every parameter of the name
ALLOWED = {
    ("main", "argv"): "None reads sys.argv; tests pass their own argument lists",
    ("SuiteConfig", "*"): "the CLI sets each field by name through setattr",
    ("oneform_field", "cost"): "the field-kind constructors share one signature, "
                               "and cost 0 (no derivative of the input read) "
                               "is the common case",
    ("metric_field", "cost"): "as for oneform_field",
}


def _trees():
    return {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}


def _defaults():
    """(file, qualified name, parameter) of every default in src/."""
    return [(path.relative_to(SRC), qual, param) for path, tree in _trees().items()
            for qual, _, params in defaulted(tree) for param, _, _ in params]


def _allowed(qual, param):
    return (qual, param) in ALLOWED or (qual, "*") in ALLOWED


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
    trees = _trees()
    calls = _src_calls(trees)
    unset = []
    for path, tree in trees.items():
        for qual, callee, params in defaulted(tree):
            for param, i, _ in params:
                if _allowed(qual, param):
                    continue
                if not any(star or param in kws or (i is not None and npos > i)
                           for npos, kws, star, _ in calls.get(callee, [])):
                    unset.append(f"{path.relative_to(SRC)}: {qual}({param})")
    assert not unset, unset


def test_no_default_is_set_only_to_itself():
    """A parameter every setting call in src/ sets to its default literal is
    a constant too (a call passing ``**kwargs`` may set it to anything)."""
    trees = _trees()
    calls = _src_calls(trees)
    constant = []
    for path, tree in trees.items():
        for qual, callee, params in defaulted(tree):
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


def test_every_default_is_omitted_by_a_caller():
    """A call passing ``**kwargs`` may set the parameter, so it omits none."""
    trees = _trees()
    calls = _src_calls(trees)
    always_set = []
    for path, tree in trees.items():
        for qual, callee, params in defaulted(tree):
            for param, i, _ in params:
                if _allowed(qual, param):
                    continue
                if not any(not star and param not in kws and (i is None or npos <= i)
                           for npos, kws, star, _ in calls.get(callee, [])):
                    always_set.append(f"{path.relative_to(SRC)}: {qual}({param})")
    assert not always_set, always_set


def test_the_allowlist_is_needed():
    """Each allowlisted parameter, or name for "*", still has a default."""
    found = {(qual, p) for _, qual, p in _defaults()}
    assert all((qual, p) in found or (p == "*" and any(q == qual for q, _ in found))
               for qual, p in ALLOWED)
