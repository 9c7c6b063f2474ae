"""Record the simulated metrics of the held-out seed in ``heldout.json``.

The held-out seed is never used while tuning the benchmark or the
simulator; a later claim is checked on it.  ``run.py`` compares its
simulated metrics against this record whenever it runs that seed, and
counts a mismatch as failed operations.  Re-record only when a change is
meant to alter the modelled behaviour::

    python3 perfbench/record_heldout.py
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, SIM_METRICS
from workloads import WORKLOADS

RECORD = HERE / "heldout.json"


def main() -> int:
    record = json.loads(RECORD.read_text())
    sims = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(record["seed"]), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        sims[workload] = {name: metrics[name]["value"] for name in SIM_METRICS}
    record["sim"] = sims
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
