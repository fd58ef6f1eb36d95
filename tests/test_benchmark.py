"""The benchmark's bit-for-bit replay gate, run on every Tier-1 pass.

`bench/run.py --trace 1` replays each workload's rounds from the
single-trial public functions (simulate, complete, estimate, bound) and
exits 1 unless they reproduce the batched program's outputs bit for bit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fig4_sweep", "fig5_sweep", "track_hull"])
def test_traced_replay_matches_batched_rounds(workload):
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "5", "--seconds", "2", "--trace", "1",
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    report = json.loads(out.stdout.strip().rsplit("\n", 1)[0])["report"]
    assert report["gate_failures"] == []
