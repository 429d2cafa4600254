"""Every name a src/ module exports in ``__all__``, and every public method
of every class in src/, is used by code in src/ or perfbench/ (its tests
aside): an export or method only tests call is test-only API, and belongs in
the tests.

A use is an identifier (a name or an attribute) outside import statements
and ``__all__`` lists.  In perfbench/ a string constant counts too, since the
tracer hooks the ops it times by name, but a bare name counts only if the
file imports it from pbhverify: a local variable named like an export
(``flag_model_report``'s ``worst`` was one) is not a use of it.  The rule
goes by name alone, so a method named like another class's method or an
ndarray method (``Jet.reshape`` and ``Jet.astype`` were two) counts as used
wherever that one is called: the guard cannot see such a method go dead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pbhverify"
PERFBENCH = ROOT / "perfbench"

# (module path relative to src/pbhverify, name) -> why it may stay unused
ALLOWED = {}


def _is_all(node):
    return (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets))


def _imported(tree):
    """The names ``tree`` imports from pbhverify modules."""
    return {alias.asname or alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "pbhverify"
            for alias in n.names}


def _uses(tree, perfbench):
    skip = {id(n) for stmt in ast.walk(tree)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt)
            for n in ast.walk(stmt)}
    names = _imported(tree) if perfbench else None
    out = set()
    for n in ast.walk(tree):
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name) and (names is None or n.id in names):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif perfbench and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _exports():
    """(module path, name) for each entry of each ``__all__`` in src/."""
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if _is_all(stmt):
                for elt in stmt.value.elts:
                    yield str(path.relative_to(SRC)), elt.value


def _methods():
    """(module path, class, method) for each public (non-underscore) method
    and property of each class in src/."""
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield str(path.relative_to(SRC)), cls.name, m.name


def _used():
    out = set()
    for path in sorted(SRC.rglob("*.py")):
        out |= _uses(ast.parse(path.read_text()), perfbench=False)
    for path in sorted(PERFBENCH.rglob("*.py")):
        if "tests" not in path.relative_to(PERFBENCH).parts:
            out |= _uses(ast.parse(path.read_text()), perfbench=True)
    return out


def test_every_export_is_used_outside_the_tests():
    used = _used()
    unused = [e for e in _exports() if e[1] not in used and e not in ALLOWED]
    assert not unused, unused


def test_every_public_method_is_used_outside_the_tests():
    methods = list(_methods())
    assert ("tensorcalc/jets.py", "Jet", "partial") in methods
    used = _used()
    assert not [m for m in methods if m[2] not in used]


def test_the_allowlist_is_needed():
    """Each allowlisted export still exists and is still unused."""
    used = _used()
    exports = set(_exports())
    assert all(e in exports and e[1] not in used for e in ALLOWED)
