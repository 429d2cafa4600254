"""Every name a src/ module exports in ``__all__``, and every public method
of ``Jet``, is used by code in src/ or perfbench/ (its tests aside): an
export or method only tests call is test-only API, and belongs in the tests.

A use is an identifier (a name or an attribute) outside import statements
and ``__all__`` lists; in perfbench/ a string constant counts too, since the
tracer hooks the ops it times by name.  The rule goes by name alone, so a
``Jet`` method named like an ndarray method (``reshape`` and ``astype``
were two) counts as used wherever an array calls it: the guard cannot see
such a method go dead."""

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


def _uses(tree, strings):
    skip = {id(n) for stmt in ast.walk(tree)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt)
            for n in ast.walk(stmt)}
    out = set()
    for n in ast.walk(tree):
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _exports():
    """(module path, name) for each entry of each ``__all__`` in src/."""
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if _is_all(stmt):
                for elt in stmt.value.elts:
                    yield str(path.relative_to(SRC)), elt.value


def _jet_methods():
    """The public (non-underscore) methods and properties of ``Jet``."""
    tree = ast.parse((SRC / "tensorcalc" / "jets.py").read_text())
    jet = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Jet")
    return [m.name for m in jet.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def _used():
    out = set()
    for path in sorted(SRC.rglob("*.py")):
        out |= _uses(ast.parse(path.read_text()), strings=False)
    for path in sorted(PERFBENCH.rglob("*.py")):
        if "tests" not in path.relative_to(PERFBENCH).parts:
            out |= _uses(ast.parse(path.read_text()), strings=True)
    return out


def test_every_export_is_used_outside_the_tests():
    used = _used()
    unused = [e for e in _exports() if e[1] not in used and e not in ALLOWED]
    assert not unused, unused


def test_every_public_jet_method_is_used_outside_the_tests():
    methods = _jet_methods()
    assert "partial" in methods
    used = _used()
    assert not [m for m in methods if m not in used]


def test_the_allowlist_is_needed():
    """Each allowlisted export still exists and is still unused."""
    used = _used()
    exports = set(_exports())
    assert all(e in exports and e[1] not in used for e in ALLOWED)
