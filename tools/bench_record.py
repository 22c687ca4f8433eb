"""Record the benchmark's end-to-end metrics in a BENCH_<tag>.json file.

    python3 tools/bench_record.py --tag 7 --seeds 1-3
    python3 tools/bench_record.py --show

The runs are benchmarks/sweep.py's: every workload of BENCHMARK.json runs
once per seed through ``benchmarks/run.py --trace 0``, seeds outermost.
The file holds, for every workload, whether each run passed and the value
of each end-to-end metric at every seed and their median, with the
commit, whether the runs' code differed from it, the Python version, the
CPUs the runs could use, and the seeds.  ``--show`` prints each workload
and metric's median across every BENCH_*.json in the directory, one
column per file.  The files go to the repository root unless ``--dir``
says otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "benchmarks" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load_sweep()
METRICS = [metric["name"] for metric in sweep.SPEC["end_to_end"]]
WORKLOADS = [workload["name"] for workload in sweep.SPEC["workloads"]]


def run(workload: str, seed: int, seconds: int) -> tuple[bool, dict]:
    """``sweep.run`` untraced; a run that prints no result ends the recording."""
    try:
        return sweep.run(workload, seed, seconds, 0)
    except (IndexError, ValueError):
        raise SystemExit(f"error: {workload} at seed {seed} printed no result; run "
                         f"benchmarks/run.py --workload {workload} --seed {seed} --seconds {seconds} "
                         f"to see why") from None


def dirty() -> bool:
    """Whether a tracked file has changed, or a new file sits under src/ or benchmarks/."""
    def out(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return bool(out("status", "--porcelain", "--untracked-files=no")
                or out("ls-files", "--others", "--exclude-standard", "--", "src", "benchmarks"))


def record(tag: str, seeds: list[int], seconds: int) -> dict:
    results: dict[str, list[tuple[bool, dict]]] = {workload: [] for workload in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            results[workload].append(run(workload, seed, seconds))
    doc = {"tag": tag, "commit": sweep.commit(), "dirty": dirty(),
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
           "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload, runs in results.items():
        metrics = {}
        for name in METRICS:
            missing = [seed for seed, (_, got) in zip(seeds, runs) if name not in got]
            if missing:
                raise SystemExit(f"error: {workload} printed no {name} at seeds {missing}")
            values = [got[name]["value"] for _, got in runs]
            metrics[name] = {"unit": runs[0][1][name]["unit"],
                             "median": statistics.median(values), "values": values}
        doc["workloads"][workload] = {"correct": all(ok for ok, _ in runs), "metrics": metrics}
    return doc


def show(directory: Path) -> list[str]:
    """A table of each workload and metric's median, one column per file,
    the files in order of their tags (numbers first, by value)."""
    def order(path: Path) -> tuple:
        tag = path.stem[len("BENCH_"):]
        return (0, int(tag), "") if tag.isdigit() else (1, 0, tag)

    files = sorted(directory.glob("BENCH_*.json"), key=order)
    docs = [json.loads(path.read_text()) for path in files]
    rows = [["workload", "metric", *(path.stem[len("BENCH_"):] for path in files)]]
    workloads = dict.fromkeys(workload for doc in docs for workload in doc["workloads"])
    for workload in workloads:
        for name in METRICS:
            cells = []
            for doc in docs:
                metric = doc["workloads"].get(workload, {}).get("metrics", {}).get(name)
                cells.append("-" if metric is None else f"{metric['median']:.6g}")
            rows.append([workload, name, *cells])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", help="the file written is BENCH_<tag>.json")
    parser.add_argument("--seeds", type=sweep.seed_list, default=sweep.seed_list("1-3"),
                        help="lo-hi, or one seed")
    parser.add_argument("--seconds", type=int, default=sweep.SPEC["run_seconds"])
    parser.add_argument("--dir", type=Path, default=ROOT, help="where the BENCH files are")
    parser.add_argument("--show", action="store_true", help="print the recorded files instead")
    args = parser.parse_args(argv)
    if args.show:
        print("\n".join(show(args.dir)))
        return 0
    if not args.tag:
        parser.error("--tag is required unless --show is given")
    doc = record(args.tag, args.seeds, args.seconds)
    path = args.dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
