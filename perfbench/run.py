"""Benchmark harness for pbhverify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload courant-torus --seed 42 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop of operations (one at a time, each started
after the previous one ends) for about ``--seconds`` seconds.  With
``--trace 1`` it runs one untraced and one traced operation and reports the
per-layer metrics.  Every operation's output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Metric definitions are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_program(root: Path):
    """Import pbhverify from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "pbhverify" / "__init__.py").is_file():
        raise ImportError(f"no pbhverify sources under {src}")
    sys.path.insert(0, str(src))
    import pbhverify
    import pbhverify.suites  # noqa: F401  (imports every module)
    if Path(pbhverify.__file__).resolve().parent != (src / "pbhverify").resolve():
        raise ImportError(f"pbhverify imported from {pbhverify.__file__}, not {src}")


def timed_operation(workload, seed, probe):
    """One operation after a full garbage collection, under the speed probe:
    (wall seconds, seconds at reference speed, texts, error)."""
    from workloads import run_operation
    gc.collect()
    with probe:
        t0 = time.perf_counter()
        try:
            texts, error = run_operation(workload, seed), None
        except Exception as exc:  # an operation that raises counts as failed
            texts, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return wall, probe.normalize(wall), texts, error


def judge(workload, texts, error, reference=None):
    """Check one operation's output; ``reference`` is the residual record of
    an earlier operation in the same run, which this one must repeat."""
    from workloads import Outcome, check_output
    if error is not None:
        return Outcome(False, f"raised {error}")
    outcome = check_output(workload, texts)
    if outcome.ok and reference is not None and outcome.residuals() != reference:
        return Outcome(False, "residuals differ from the run's first operation",
                       outcome.checks)
    return outcome


def setup_seconds(root: Path, workload_name: str, seed: int):
    """Fresh interpreters that import pbhverify and build the workload's
    models: (wall seconds, seconds at reference speed) per probe."""
    from speed import normalize
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, check=True, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        speed = json.loads(proc.stdout)
        out.append((wall, normalize(wall, speed["busy_s"], speed["samples"])))
    return out


def high_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def headrooms(outcome):
    """(headroom_max over every check with a tolerance, roundoff_margin).

    ``roundoff_margin`` is the negated headroom of the tightest identity
    check: ``<=`` mode with 0 < tolerance <= 1e-4, the checks whose
    residuals sit at float64 roundoff when the identity holds."""
    from workloads import headroom
    every, identity = [], []
    for check in outcome.checks:
        h = headroom(check)
        if h is None:
            continue
        every.append(h)
        if not check[4] and float(check[3]) <= 1e-4:
            identity.append(h)
    return max(every), -max(identity)


def describe(name, values, unit="s"):
    high = high_percentile(values)
    return (f"{name} median {statistics.median(values):.4f} {unit}, n={len(values)}; "
            + (f"p{high[0]:.1f} {high[1]:.4f} {unit}" if high else
               "no percentile has ten samples above it"))


def run_timed(root, workload, seed, seconds):
    from speed import SpeedProbe
    from workloads import build_models
    setups = setup_seconds(root, workload.name, seed)
    build_models(workload, seed)  # fills lazily built tables before timing
    probe = SpeedProbe()
    walls, refs, outcomes, reference = [], [], [], None
    start = time.perf_counter()
    while True:
        wall, ref, texts, error = timed_operation(workload, seed, probe)
        outcome = judge(workload, texts, error, reference)
        if reference is None and outcome.ok:
            reference = outcome.residuals()
        walls.append(wall)
        refs.append(ref)
        outcomes.append(outcome)
        # closed loop: start another operation only if it should end in time
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not o.ok for o in outcomes)
    good = next((o for o in outcomes if o.ok), None)
    # margins come from the first operation that produced reports, passing
    # or not, so a run whose checks fail still shows how far they miss
    checked = next((o for o in outcomes if o.checks), None)
    head, margin = headrooms(checked) if checked else (None, None)
    lines = [
        describe("verify_s      (reference speed)", refs),
        describe("verify_wall_s (wall clock)     ", walls),
        describe("setup_s       (reference speed)", [r for _, r in setups]),
        describe("setup_wall_s  (wall clock)     ", [w for w, _ in setups]),
        f"peak_rss_mb   {peak_rss_mb:.1f} MB",
        f"fail_ratio    {failed}/{len(outcomes)} = {failed / len(outcomes):.3f}",
    ]
    if checked:
        lines += [f"headroom_max  {head:.4f} decades (log10 residual/tolerance, tightest check)",
                  f"roundoff_margin {margin:.4f} decades (tightest identity check)"]
    else:
        lines.append("no operation produced reports: no headroom_max or roundoff_margin")
    lines += [f"FAILED operation: {o.reason}" for o in outcomes if not o.ok]
    metrics = {
        "verify_s": {"value": statistics.median(refs), "unit": "s"},
        "setup_s": {"value": statistics.median(r for _, r in setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if checked:
        metrics["roundoff_margin"] = {"value": margin, "unit": "decades"}
    return lines, len(outcomes), failed, metrics, good


def run_traced(workload, seed):
    from speed import SpeedProbe
    from tracer import PER_LAYER, Tracer
    from workloads import build_models
    build_models(workload, seed)
    probe = SpeedProbe()
    _, untraced_s, texts, error = timed_operation(workload, seed, probe)
    first = judge(workload, texts, error)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_s, texts, error = timed_operation(workload, seed, probe)
    finally:
        tracer.uninstall()
    second = judge(workload, texts, error, first.residuals() if first.ok else None)
    docs = [json.loads(t) for t in texts or ()]
    run_values = {
        "suites.checks": sum(len(d["checks"]) for d in docs),
        "suites.checks_failed": sum(not c["passed"] for d in docs for c in d["checks"]),
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics, lines = {}, [f"verify_s at reference speed: untraced {untraced_s:.4f} s, "
                          f"traced {traced_s:.4f} s"]
    for name, unit, _, source, key in PER_LAYER:
        value = run_values[key] if source == "run" else tracer.value(source, key)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:40s} {value:.6g} {unit}")
    outcomes = [first, second]
    for o in outcomes:
        if not o.ok:
            lines.append(f"FAILED operation: {o.reason}")
    failed = sum(not o.ok for o in outcomes)
    return lines, len(outcomes), failed, metrics, second if second.ok else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="write each check's residual string to PATH (JSON)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        import_program(root)
    except ImportError as exc:
        return fail(str(exc))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.trace:
        lines, attempted, failed, metrics, good = run_traced(workload, args.seed)
    else:
        lines, attempted, failed, metrics, good = run_timed(
            root, workload, args.seed, args.seconds)
    if args.record and good is not None:
        record = {"workload": workload.name, "seed": args.seed,
                  "residuals": [list(r) for r in good.residuals()]}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
