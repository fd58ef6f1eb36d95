"""Set-up probe: a fresh process imports rblkit, builds one workload and
runs one warm-up trial, as every CLI run pays. run.py times this process
from the outside and reports the median as `setup_s`.

Usage: python3 bench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    workload.warmup(workload.build(), int(sys.argv[2]))
