"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --seeds 1-10 [--workloads cli,code-sums] [--out FILE]

For every workload and end-to-end metric it prints the median over the
runs and the distance between the first and third quartile as a share of
the median, next to the bound from BENCHMARK.json.  ``--traced-seed N``
adds one ``--trace 1`` run per workload.  With ``--out`` the values are
written as JSON together with the environment they were taken in;
benchmarks/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(wl: str, seed: int, seconds: int, trace: int) -> tuple[bool, dict]:
    cmd = [*SPEC["command"], "--workload", wl, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return proc.returncode == 0 and result["correct"], result["metrics"]


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = 0
    for seed in args.seeds:  # seeds outermost, so slow drift hits every workload alike
        for wl in workloads:
            ok, metrics = run(wl, seed, args.seconds, 0)
            failed += not ok
            for name, metric in metrics.items():
                values[wl].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {wl}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
    per_layer = {}
    if args.traced_seed is not None:
        for wl in workloads:
            ok, metrics = run(wl, args.traced_seed, args.seconds, 1)
            failed += not ok
            per_layer[wl] = {name: metric["value"] for name, metric in metrics.items()}

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for wl, metrics in values.items():
        summary[wl] = {}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "values": vals}
            print(f"{wl:<18} {name:<16} median {med:14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.3f}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    if args.out:
        args.out.write_text(json.dumps({
            "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "commit": commit(), "seeds": args.seeds,
                            "run_seconds": args.seconds, "machine": platform.machine()},
            "workloads": summary,
            "per_layer": per_layer,
        }, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
