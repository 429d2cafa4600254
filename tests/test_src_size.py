"""``tests/src_size.py`` counts each line of src/ once, as one kind, the
memo sites of ``tests/test_memo_sites.py`` and the defaults of
``tests/test_parameters.py``."""

from pathlib import Path

import ast

import src_size
import test_memo_sites
import test_parameters

SRC = Path(__file__).resolve().parents[1] / "src"


def test_line_kinds_sum_to_the_line_count(capsys):
    assert src_size.main(["src_size.py", str(SRC)]) == 0
    *_, total, lines, sites, defaults = capsys.readouterr().out.splitlines()
    kinds = [int(x) for x in total.split()[1:]]
    assert len(kinds) == len(src_size.KINDS) and min(kinds) > 0
    n = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    assert sum(kinds) == int(lines.split()[1]) == n
    assert sites.rsplit(None, 1) == ["memo sites", str(len(test_memo_sites._sites()))]
    assert defaults.split() == ["defaults", str(len(test_parameters._defaults()))]


def test_memo_sites_skip_the_mechanism():
    text = ("def memoized(self):\n    return memoize_fn(self.fn)\n\n\n"
            "a = f.memoized()\nb = memoize_fn(\n    g)\nc = memoize_fn\n")
    assert src_size.memo_sites(text) == [(5, 5), (6, 7)]


def test_dataclass_fields_are_parameters():
    """Fields count in declaration order; an ``init=False`` field is no
    parameter, and a keyword-only one has no position."""
    text = ("@dataclass\nclass A:\n    x: int\n    y: int = 1\n"
            "    z: int = field(default=2, init=False)\n"
            "    w: dict = field(default_factory=dict)\n"
            "    v: str = field(kw_only=True, default='')\n    u = 3\n\n\n"
            "class B:\n    y: int = 1\n")
    (qual, callee, params), = src_size.defaulted(ast.parse(text))
    assert (qual, callee) == ("A", "A")
    assert [(p, i) for p, i, _ in params] == [("y", 1), ("w", 2), ("v", None)]
