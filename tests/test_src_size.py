"""``tests/src_size.py`` counts each line of src/ once, as one kind, and the
memo sites of ``tests/test_memo_sites.py``."""

from pathlib import Path

import src_size
import test_memo_sites

SRC = Path(__file__).resolve().parents[1] / "src"


def test_line_kinds_sum_to_the_line_count(capsys):
    assert src_size.main(["src_size.py", str(SRC)]) == 0
    *_, total, lines, sites = capsys.readouterr().out.splitlines()
    kinds = [int(x) for x in total.split()[1:]]
    assert len(kinds) == len(src_size.KINDS) and min(kinds) > 0
    n = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    assert sum(kinds) == int(lines.split()[1]) == n
    assert sites.rsplit(None, 1) == ["memo sites", str(len(test_memo_sites._sites()))]


def test_memo_sites_skip_the_mechanism():
    text = ("def memoized(self):\n    return memoize_fn(self.fn)\n\n\n"
            "a = f.memoized()\nb = memoize_fn(\n    g)\nc = memoize_fn\n")
    assert src_size.memo_sites(text) == [(5, 5), (6, 7)]
