"""Set-up probe: import pbhverify in a fresh interpreter and build the models
a workload needs, under the speed probe, then print the probe's samples as
JSON.  The harness times the whole process.

    python3 perfbench/setup_probe.py WORKLOAD SEED   (from the checkout root)
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedProbe
    probe = SpeedProbe()
    with probe:
        from workloads import WORKLOADS, build_models
        build_models(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(json.dumps({"busy_s": probe.busy_s, "samples": probe.samples}))
