"""Layer-by-layer benchmark of symchains.

    python3 benchmarks/run.py --workload subset-lattice --seed 1 --seconds 20 --trace 0

Run from any directory of a source checkout; the package is used from
``src`` as it is, without installing it.  Each pass of a workload runs in a
fresh interpreter (``worker.py``), one job at a time, so the load comes from
one closed-loop client.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; see benchmarks/README.md.  End-to-end
timings are scaled to the reference speeds of calibration.py.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every job passed
its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, SPAWN_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("subset-lattice", "partition-family", "code-sums", "cli")
# Time allowed after --seconds for the passes that follow the loop.
MARGIN_S = 150

# Metric units by name suffix; a suffix followed by "." also counts, as in
# cli.command_s.<subcommand>.  Anything else is an exact count.
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_share", "ratio"))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def env() -> dict:
    """The environment of every process the benchmark starts.  Bytecode
    caching is left on whatever the caller's setting, so that start-up
    times are those of an imported package, not of compiling it."""
    out = dict(os.environ)
    out["PYTHONPATH"] = str(ROOT / "src")
    out.pop("PYTHONDONTWRITEBYTECODE", None)
    return out


class PassFailed(Exception):
    """A pass crashed or ran past the deadline, so it has no results."""


def run_pass(cfg: dict, kind: str, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps({**cfg, "pass": kind})],
            cwd=ROOT, env=env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{kind} pass ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"{kind} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(times: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(times)
    if n < 20:
        return f"{n} jobs; no tail percentile (needs ten samples beyond it)"
    pct = 100 * (n - 10) // n
    tail = statistics.quantiles(times, n=100)[pct - 1]
    return f"{n} jobs; p{pct} {tail:.4f} s"


def end_to_end(loop: dict) -> dict:
    """The loop pass's timings at reference speeds (calibration.py).  A
    job's wall time is scaled by the reference task sampled during the
    jobs; jobs are averaged over the run, like the samples, so that both
    see the machine's speed over the same spell.  A set-up spawn is scaled
    by the bare interpreter started just before it."""
    job_s = REFERENCE_S * statistics.fmean(loop["job_s"]) / statistics.fmean(loop["ref_s"])
    return {
        "job_s": job_s,
        "elements_per_s": statistics.fmean(loop["elements"]) / job_s,
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": SPAWN_REFERENCE_S * statistics.median(
            r / b for r, b in zip(loop["setup_s"], loop["bare_s"])),
    }


def per_layer(loop: dict, traced: dict, probe: dict, alloc: dict,
              attempted: int, failed: int) -> dict:
    """The workload's own layer from the medians over the loop's jobs, the
    other layers from the probe pass.  A count is the same in every job, and
    median_low keeps it a whole number."""
    metrics = {name: (statistics.median_low if unit_of(name) == "count" else statistics.median)(values)
               for name, values in loop["layers"].items()}
    metrics.update(probe["metrics"])
    metrics.update(alloc["metrics"])
    metrics["cli.import_s"] = statistics.median(loop["setup_s"]) - statistics.median(loop["bare_s"])
    metrics["harness.wall_job_s"] = statistics.fmean(loop["job_s"])
    metrics["harness.reference_s"] = statistics.fmean(loop["ref_s"])
    metrics["fail_ratio"] = failed / attempted
    metrics["trace.job_s"] = traced["job_s"]
    metrics["trace.overhead_s"] = traced["overhead_s"]
    metrics["trace.spans"] = traced["spans"]
    for layer, secs in traced["self_s"].items():
        metrics[f"trace.self_share.{layer}"] = secs / traced["job_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symchains" / "__init__.py").is_file():
        print(f"error: no symchains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + args.seconds + MARGIN_S
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "scale": args.scale}
    try:
        passes = {"loop": run_pass(cfg, "loop", deadline)}
        if args.trace:
            for kind in ("probe", "trace", "alloc"):
                passes[kind] = run_pass(cfg, kind, deadline)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    for kind, p in passes.items():
        for err in p["errors"]:
            print(f"failed in {kind} pass: {err}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(passes["loop"], passes["trace"], passes["probe"], passes["alloc"],
                            attempted, failed)
    else:
        metrics = end_to_end(passes["loop"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  scale {args.scale}")
    print(f"job_s samples: {describe(passes['loop']['job_s'])}; "
          f"setup_s samples: {len(passes['loop']['setup_s'])} spawns")
    loop = passes["loop"]
    print(f"unscaled: mean job {statistics.fmean(loop['job_s']):.4f} s, "
          f"mean reference task {statistics.fmean(loop['ref_s']):.5f} s "
          f"({len(loop['ref_s'])} samples), median set-up {statistics.median(loop['setup_s']):.4f} s, "
          f"median bare start {statistics.median(loop['bare_s']):.4f} s")
    if args.trace:
        for layer, secs in passes["trace"]["self_s"].items():
            print(f"self time in traced job  {layer:<12} {secs:12.6f} s")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(f"run took {time.monotonic() - started:.1f} s")
    for name, value in metrics.items():
        print(f"{name:<40} {value:16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
