"""Every memo site in src/ is created and hit when every suite runs: a memo
that no evaluation reads twice only costs a key and a copy per call.

A site is a ``.memoized()`` call or a direct ``memoize_fn(...)`` call (the
one inside ``Field.memoized`` is the mechanism, not a site), found by AST
(``src_size.memo_sites``, which ``tests/src_size.py`` counts).
The test wraps ``memoize_fn`` in every module that binds it, attributes each
memo to the innermost site around its caller's line, and counts lookups and
misses per site."""

import sys
from pathlib import Path

import src_size
import pbhverify
from pbhverify import suites
from pbhverify.tensorcalc import fields

SRC = Path(pbhverify.__file__).resolve().parent
RUNS = (dict(suite="all", model="torus", t=0.1),
        dict(suite="all", model="kodaira", t=0.1),
        dict(suite="theorem4", model="flag"))


def _sites():
    """(path, first line, last line) of each call that makes a memo."""
    return [(str(path), *span) for path in sorted(SRC.rglob("*.py"))
            for span in src_size.memo_sites(path.read_text())]


def _site_of(frame, sites):
    """The innermost site whose lines hold a frame of the calling stack."""
    while frame is not None:
        path, line = str(Path(frame.f_code.co_filename).resolve()), frame.f_lineno
        around = [s for s in sites if s[0] == path and s[1] <= line <= s[2]]
        if around:
            return min(around, key=lambda s: s[2] - s[1])
        frame = frame.f_back
    return None


def _label(site):
    return f"{Path(site[0]).relative_to(SRC)}:{site[1]}" if site else "unknown site"


def test_every_memo_site_is_created_and_hit(monkeypatch):
    sites = _sites()
    assert sites
    stats = {}  # site -> [memos made, lookups, misses]
    original = fields.memoize_fn

    def counting(fn):
        st = stats.setdefault(_site_of(sys._getframe(1), sites), [0, 0, 0])
        st[0] += 1

        def miss(jc):
            st[2] += 1
            return fn(jc)

        memo = original(miss)

        def lookup(jc):
            st[1] += 1
            return memo(jc)

        return lookup

    bound = [m for name, m in sys.modules.items()
             if name.startswith("pbhverify") and getattr(m, "memoize_fn", None) is original]
    assert fields in bound
    for module in bound:
        monkeypatch.setattr(module, "memoize_fn", counting)
    for run in RUNS:
        suites.run_suite(suites.SuiteConfig(samples=8, seed=42, **run))

    assert None not in stats, "a memo was made outside every site the AST found"
    never_made = [_label(s) for s in sites if s not in stats]
    never_hit = [f"{_label(s)} ({stats[s][1]} lookups)" for s in sites
                 if s in stats and stats[s][1] == stats[s][2]]
    assert not never_made, never_made
    assert not never_hit, never_hit
