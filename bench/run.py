"""rblkit benchmark: one command per workload, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one process, one client: rounds of the workload (see
workloads.py) run back to back through the program's public entry points
for S seconds, with tracing off. The seed makes the inputs.

--trace 0 reports the end-to-end metrics: throughput in units of a fixed
reference kernel (see reference_seconds), success fraction, peak RSS, and
set-up time (the median of SETUP_REPS fresh processes that each import
rblkit, build the scenario and run one warm-up trial).
--trace 1 runs the untraced rounds for S/2 seconds, replays the same rounds
under spans (spans.py), exits 1 unless the replay reproduces the untraced
outputs bit for bit, and reports the per-layer metrics.

The lines before the last one on stdout are a JSON report: the run's
environment, pooled accuracy per cell, failure reasons and error tails.
The last line is the result {"correct", "attempted", "failed",
"metrics"}. Exit codes: 0 correct, 1 a correctness check failed (the
result is still printed), 2 bad usage or no rblkit source beside bench/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
BLOCK_S = 0.25
# One BLAS thread for this process and its set-up probes. On 2 cores the
# default thread count spread fig4 throughput over 85-109 trials/s even on
# 9-second runs, against 130-145 with one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    out = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": BLAS_ENV,
        "git_commit": _git_commit(),
        "src_py_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
        ),
    }


def reference_seconds() -> float:
    """Time a fixed mix of small numpy linear algebra and Python arithmetic,
    the same kind of work the program does (20-25 ms on one core of a
    2-core x86 VM, numpy 2.4.6, OpenBLAS 0.3.31).

    That VM shares its host and has slow phases, lasting seconds to
    minutes, in which identical work runs up to 1.8x slower. Over 15 s
    windows, a fig4 round's time and this kernel's time both moved by up
    to 15%, while their ratio moved by 3% or less.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, pts = rng.standard_normal((16, 16)), rng.standard_normal((8, 3))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        eig = np.linalg.eigh(a @ a.T)[0]
        sv = np.linalg.svd(pts, compute_uv=False)
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        acc += float(eig[0] + sv[0] + dist.sum()) + sum(j * 0.5 for j in range(50))
    return time.perf_counter() - start


def measure(workload, built, seed: int, seconds: float, tally):
    """Fresh rounds back to back for `seconds`, in blocks of at least
    BLOCK_S of round time, each block preceded by one reference kernel run.

    Each output goes to `tally` and is kept only as a digest, so that the
    benchmark's memory does not grow with the program's speed. Returns
    (digests, work seconds, work in reference-kernel units, kernel times):
    each block's time is divided by the kernel time measured just before
    it.
    """
    from rblkit import derive_seed

    workload.warmup(built, seed)
    digests, work_s, work_ref, refs = [], 0.0, 0.0, []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < seconds:
        refs.append(ref := reference_seconds())
        block = 0.0
        while block < BLOCK_S:
            round_seed = derive_seed(seed, len(digests))
            t0 = time.perf_counter()
            out = workload.run_round(built, round_seed)
            block += time.perf_counter() - t0
            digests.append(_digest(out))
            tally.add(out)
        work_s += block
        work_ref += block / ref
    return digests, work_s, work_ref, refs


def replay(workload, built, seed: int, rounds: int):
    """The same rounds again, traced; returns (digests, tracer, elapsed s)."""
    from rblkit import derive_seed
    from spans import Tracer

    tracer = Tracer()
    per_round = workload.items_per_round(built)
    digests, elapsed = [], 0.0
    for r in range(rounds):
        t0 = time.perf_counter()
        out = workload.replay_round(built, derive_seed(seed, r), tracer, r * per_round)
        elapsed += time.perf_counter() - t0
        digests.append(_digest(out))
    return digests, tracer, elapsed


def setup_seconds(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        # No timeout: a wait with one polls in 50 ms steps, which would
        # quantise the measurement.
        subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _bits(value):
    """A comparison key that is equal only for bit-identical outputs."""
    import numpy as np

    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f)) for f in value.__dataclass_fields__
        )
    return value


def _digest(output) -> bytes:
    return hashlib.sha256(repr(_bits(output)).encode()).digest()


class SweepTally:
    """ResultRows pooled per (sigma, estimator) cell, with the acceptance
    bounds that hold at any trial count."""

    def __init__(self, max_gabp_over_nls: float | None):
        self.max_gabp_over_nls = max_gabp_over_nls
        self.gates: list[str] = []
        # (sigma, tag) -> [trials, failures, sum of squared translation and
        # rotation errors, trials x squared CRLB translation and rotation]
        self.sums: dict[tuple[float, str], list[float]] = {}
        self.failed_items = 0  # a sweep trial always answers

    def add(self, rows) -> None:
        import numpy as np

        for row in rows:
            if not (np.isfinite(row.crlb_translation_m) and row.crlb_translation_m > 0
                    and np.isfinite(row.crlb_rotation_deg) and row.crlb_rotation_deg > 0):
                self.gates.append(f"CRLB column not finite and positive: {row}")
            c = self.sums.setdefault((row.sigma, row.estimator), [0, 0, 0.0, 0.0, 0.0, 0.0])
            ok = row.trials - row.failures
            c[0] += row.trials
            c[1] += row.failures
            if ok:
                c[2] += row.rmse_translation_m**2 * ok
                c[3] += row.rmse_rotation_deg**2 * ok
            c[4] += row.crlb_translation_m**2 * row.trials
            c[5] += row.crlb_rotation_deg**2 * row.trials

    @property
    def runs(self) -> int:
        return sum(c[0] for c in self.sums.values())

    @property
    def failed_runs(self) -> int:
        return sum(c[1] for c in self.sums.values())

    def report(self) -> dict:
        import numpy as np

        cells = {}
        for (sigma, tag), (trials, failures, t2, r2, c2, cr2) in self.sums.items():
            ok = trials - failures
            cells[(sigma, tag)] = {
                "sigma": sigma, "estimator": tag, "trials": trials, "failures": failures,
                "rmse_translation_m": float(np.sqrt(t2 / ok)) if ok else None,
                "rmse_rotation_deg": float(np.sqrt(r2 / ok)) if ok else None,
                "crlb_translation_m": float(np.sqrt(c2 / trials)),
                "crlb_rotation_deg": float(np.sqrt(cr2 / trials)),
            }
        if self.max_gabp_over_nls is not None:
            for (sigma, tag), gabp in cells.items():
                if tag != "gabp":
                    continue
                nls = cells[(sigma, "nls")]
                for col in ("rmse_translation_m", "rmse_rotation_deg"):
                    if gabp[col] is None or nls[col] is None or (
                        gabp[col] > self.max_gabp_over_nls * nls[col]
                    ):
                        self.gates.append(
                            f"gabp/nls {col} above {self.max_gabp_over_nls} at sigma {sigma}"
                        )
        return {"cells": list(cells.values())}


class TrackTally:
    """Frame counts, with the gate that every frame carries a pose and a twist."""

    def __init__(self):
        self.gates: list[str] = []
        self.runs = self.failed_runs = self.failed_items = 0

    def add(self, output) -> None:
        track, _ = output
        for f in track:
            self.runs += 1
            if f.error is not None:
                self.failed_items += 1
                self.gates.append(f"frame at t={f.timestamp} has no pose or twist: {f.error}")
            if f.error is not None or not f.pose_estimate.converged:
                self.failed_runs += 1

    def report(self) -> dict:
        return {"frames": self.runs}


def tails(tracer, cells: list[dict]) -> None:
    """Add p50/p90/p99 of the per-trial translation error over the trial's
    CRLB to each pooled cell, from the traced replay."""
    import numpy as np

    for cell in cells:
        ratios = tracer.values.get(f"cell.{cell['sigma']}.{cell['estimator']}", [])
        for q in (50, 90, 99):
            cell[f"err_over_crlb_p{q}"] = float(np.percentile(ratios, q)) if ratios else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rblkit" / "__init__.py").is_file():
        print(f"error: no rblkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS, and for the probes
    sys.path.insert(0, str(ROOT / "src"))
    from spans import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    built = workload.build()
    tally = SweepTally(workload.max_gabp_over_nls) if workload.kind == "sweep" else TrackTally()
    # A traced run splits its time between the untraced rounds and their
    # replay, so that it lasts about as long as an untraced run.
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    digests, work_s, work_ref, refs = measure(workload, built, args.seed, seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = len(digests) * workload.items_per_round(built)

    report: dict = {"workload": workload.name, "seed": args.seed, "environment": environment()}
    report["work_s"] = work_s
    report["throughput_per_wall_s"] = items / work_s
    report["reference_s_median"] = statistics.median(refs)
    report.update(tally.report())
    gates = tally.gates
    if args.trace == 0:
        # An operation is a trial (sweeps) or a frame (track). An estimator
        # run that fails or does not converge is a result, counted here; an
        # operation fails only when the program gives no answer for it.
        metrics = {
            "throughput_per_ref": (items / work_ref, "1/ref"),
            "success_frac": (1.0 - tally.failed_runs / tally.runs, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_seconds(workload.name, args.seed), "s"),
        }
    else:
        replayed, tracer, traced = replay(workload, built, args.seed, len(digests))
        if replayed != digests:
            gates.append("traced replay does not reproduce the untraced outputs bit for bit")
        if workload.kind == "sweep":
            tails(tracer, report["cells"])
        report["failure_reasons"] = {k: dict(c) for k, c in tracer.reasons.items()}
        report["traced_s"] = traced
        metrics = layer_metrics(tracer, items, work_s, traced)

    report["gate_failures"] = gates
    print(json.dumps({"report": report}, indent=1, default=str))
    print(json.dumps({
        "correct": not gates,
        "attempted": items,
        "failed": tally.failed_items,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not gates else 1


if __name__ == "__main__":
    sys.exit(main())
