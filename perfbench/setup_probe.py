"""Set up one workload in this fresh interpreter, then print `ready`.

    python3 perfbench/setup_probe.py <workload> [--smoke]

`run.py` times this process from spawn to `ready`: interpreter start,
imports, config parse and problem build, i.e. everything before the first
solve can start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](smoke="--smoke" in sys.argv[2:]).config.build_problem()
print("ready", flush=True)
