"""Golden reports: the shipped configurations reproduce the committed reports
byte for byte, as ``to_json`` (and so the CLI) writes them, with
``wall_time_s`` set to 0.

A change that should move no residual (a refactor, a performance change)
must leave every golden as it is.  On a mismatch the test names each moved
field, check by check, with its golden and its new string.  When a residual
is meant to move, regenerate the goldens and list each moved record in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

With ``--seed N --out DIR`` the script writes the five reports at seed N
into DIR instead, so two checkouts compare with one ``diff -r``.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from pbhverify.suites import SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "golden"

# file stem -> configuration; seed 42 and the default 64 samples throughout
CONFIGS = {
    "all-torus-t0": dict(suite="all", model="torus", t=0.0),
    "all-torus-t0.1": dict(suite="all", model="torus", t=0.1),
    "all-kodaira-t0": dict(suite="all", model="kodaira", t=0.0),
    "all-kodaira-t0.1": dict(suite="all", model="kodaira", t=0.1),
    "theorem4-flag": dict(suite="theorem4", model="flag"),
}


def golden_text(stem: str, seed: int = 42) -> str:
    """The report of ``CONFIGS[stem]`` at ``seed`` as ``to_json`` writes it,
    with ``wall_time_s`` set to 0."""
    rep = run_suite(SuiteConfig(seed=seed, samples=64, **CONFIGS[stem]))
    rep.wall_time_s = 0.0
    return rep.to_json()


def _fields(node, path=()):
    """(path, string) for each leaf of a parsed report; a check (the one
    list holds the checks) is keyed by its name, and a name's later
    occurrences by name and count."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        seen, items = {}, []
        for check in node:
            name = check["name"]
            seen[name] = count = seen.get(name, 0) + 1
            items.append((name if count == 1 else f"{name} ({count})", check))
    else:
        yield path, node
        return
    for key, value in items:
        yield from _fields(value, path + (key,))


def moved_fields(new: str, old: str) -> list:
    """One line per field whose string differs between two reports."""
    a, b = dict(_fields(json.loads(old))), dict(_fields(json.loads(new)))
    return [f"{'/'.join(k)}: {a.get(k, '(absent)')} -> {b.get(k, '(absent)')}"
            for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]


@pytest.mark.parametrize("stem", sorted(CONFIGS))
def test_report_matches_golden(stem):
    new, old = golden_text(stem), (GOLDEN / f"{stem}.json").read_text()
    moved = moved_fields(new, old)
    if moved:
        pytest.fail(f"{stem}.json, golden -> new:\n" + "\n".join(moved), pytrace=False)
    assert new == old


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Write the reports of the golden configurations, wall_time_s = 0.")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=GOLDEN,
                        help="directory to write to (default: the goldens)")
    args = parser.parse_args()
    if args.seed != 42 and args.out.resolve() == GOLDEN.resolve():
        parser.error("the goldens are the seed-42 reports: give --out for another seed")
    args.out.mkdir(parents=True, exist_ok=True)
    for stem in CONFIGS:
        path = args.out / f"{stem}.json"
        path.write_text(golden_text(stem, args.seed))
        print(f"wrote {path}", file=sys.stderr)
