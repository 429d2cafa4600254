"""Check that seconds at reference speed grow with the program's work.

In one process, rounds of three timed jobs under the speed probe, in
rotating order: a ``courant-torus`` operation (A), a fixed extra job alone
(E), and the operation followed by the extra job (A+E).  If the
normalization in ``speed.py`` is faithful, median(A+E) - median(A) equals
median(E), whatever the host's speed does meanwhile.

    python3 perfbench/scaling_check.py --extra jets     (from the checkout root)
    python3 perfbench/scaling_check.py --extra memory

``jets`` runs the ``lemma1`` suite on the torus ten times: more of the
program's own arithmetic.  ``memory`` sums a 32 MB array 300 times: work
that streams through memory and evicts the caches the probe's kernel uses,
the way a change to the program's memory behaviour could.  Either extra job
takes about a tenth of an operation.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEED = 42


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--extra", choices=("jets", "memory"), default="jets")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    from pbhverify.suites import SuiteConfig, run_suite
    from speed import SpeedProbe
    from workloads import WORKLOADS, build_models, run_operation

    workload = WORKLOADS["courant-torus"]
    build_models(workload, SEED)
    if args.extra == "jets":
        cfg = SuiteConfig(suite="lemma1", model="torus", samples=64, seed=SEED)

        def extra():
            for _ in range(10):
                run_suite(cfg)
    else:
        big = np.ones(4 << 20)

        def extra():
            for _ in range(300):
                big.sum()

    def both():
        run_operation(workload, SEED)
        extra()

    jobs = {"A": lambda: run_operation(workload, SEED), "E": extra, "A+E": both}
    names = list(jobs)
    ref = {name: [] for name in names}
    wall = {name: [] for name in names}
    probe = SpeedProbe()
    for r in range(args.rounds):
        for name in names[r % 3:] + names[:r % 3]:
            gc.collect()
            with probe:
                t0 = time.perf_counter()
                jobs[name]()
                w = time.perf_counter() - t0
            wall[name].append(w)
            ref[name].append(probe.normalize(w))

    print(f"extra {args.extra}, {args.rounds} rounds, seed {SEED}")
    for label, values in (("reference speed", ref), ("wall clock", wall)):
        a, e, ae = (statistics.median(values[name]) for name in names)
        # the same ratio within each round, whose three jobs ran close in time
        rounds = sorted((x - y) / z for x, y, z in
                        zip(values["A+E"], values["A"], values["E"]))
        q = statistics.quantiles(rounds, n=4) if len(rounds) > 1 else rounds * 3
        print(f"  {label:15s}: A {a:.4f} s, E {e:.4f} s, A+E {ae:.4f} s; "
              f"expected growth E/A {e / a:.2%}, observed (A+E-A)/A {(ae - a) / a:.2%}, "
              f"observed/expected {(ae - a) / e:.2f}; per round "
              f"{q[1]:.2f} (quartiles {q[0]:.2f} to {q[2]:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
