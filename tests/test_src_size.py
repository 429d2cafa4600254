"""``tests/src_size.py`` counts each line of src/ once, as one kind."""

from pathlib import Path

import src_size

SRC = Path(__file__).resolve().parents[1] / "src"


def test_line_kinds_sum_to_the_line_count(capsys):
    assert src_size.main(["src_size.py", str(SRC)]) == 0
    *_, total, lines = capsys.readouterr().out.splitlines()
    kinds = [int(x) for x in total.split()[1:]]
    assert len(kinds) == len(src_size.KINDS) and min(kinds) > 0
    n = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    assert sum(kinds) == int(lines.split()[1]) == n
