"""One pass of one workload, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python benchmarks/worker.py '{"workload": "cli", "pass": "loop",
        "seed": 1, "seconds": 20, "scale": "full"}'

Passes:
  loop   jobs in a closed loop for ``seconds``, untraced, with the set-up
         spawns between them and the reference task of calibration.py
         sampled during each job; the jobs' own timings and counts are
         the per-layer metrics of the workload's layer;
  trace  untraced and traced jobs alternately for ``seconds``, with a span
         on every call into the package, written to
         benchmarks/out/spans-<workload>.tsv.gz;
  probe  the layer probes and the other workloads' jobs once, at the
         workload's sizes;
  alloc  tracemalloc peaks of the largest builds and verifications.

The last line of standard output is one JSON object with the pass results.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibration
import symchains
import workloads as w
from oracles import check
from tracing import LAYERS, Tracer

OUT = Path(__file__).resolve().parent / "out"
READY = "import symchains, symchains.cli"
# Pairs of fresh interpreters, one bare and one that imports the package,
# timed before each job of the loop pass.  The machine's speed shifts every
# few seconds, so set-up is sampled across the whole run rather than in one
# burst, and each import is timed next to a bare start.
READY_PER_JOB = 4
# Workloads whose job runs in this process, so that the reference task can
# be timed from a timer during the job.  The cli job waits for the commands
# it spawns, and a sample taken then would run beside them; it samples
# between commands instead.
IN_PROCESS = ("subset-lattice", "partition-family", "code-sums")
MIN_TRACE_PAIRS = 3

JOBS = {
    "subset-lattice": lambda sizes, seed, span: w.subset_lattice(sizes.boolean),
    "partition-family": lambda sizes, seed, span: w.partition_family(sizes.partitions),
    "code-sums": lambda sizes, seed, span: w.code_sums(sizes.codes, seed),
    "cli": lambda sizes, seed, span: w.cli_run(seed, span),
}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for
    (the CLI commands and set-up spawns), in MiB; Linux reports ru_maxrss
    in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def spawn_s(code: str) -> float:
    """Wall seconds of a fresh interpreter running ``code``; it inherits
    this process's PYTHONPATH.  No timeout: with one, Popen.wait polls at
    growing intervals and the times come out rounded up to its steps."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def run_job(job, errors: list[str]) -> dict | None:
    """One job; None when it raised or reported failures."""
    try:
        out = job()
    except Exception as exc:  # any error is a failed job, counted and shown
        errors.append(f"{type(exc).__name__}: {exc}")
        return None
    if out.get("failures"):
        errors.extend(out["failures"])
        return None
    return out


def loop(job, seconds: float, in_process: bool) -> dict:
    """Run ``job`` back to back, one at a time, until ``seconds`` have
    passed.  Before each job, time READY_PER_JOB pairs of a bare
    interpreter and one that imports the package and the CLI.  Time the
    reference task of calibration.py just before each job and during it,
    from a timer if the job runs ``in_process``, else between its steps;
    the job's time leaves those samples out."""
    spawn_s(READY)  # writes the bytecode of symchains.cli
    calibration.task_s()  # untimed warm-up
    times, counts, ready, bare, refs, failed, errors = [], [], [], [], [], 0, []
    layers: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        for _ in range(READY_PER_JOB):
            bare.append(spawn_s("pass"))
            ready.append(spawn_s(READY))
        with calibration.sampling(timer=in_process) as samples:
            calibration.between_steps()  # a sample even for a job shorter than the timer
            t0 = calibration.clock()
            out = run_job(job, errors)
            times.append(calibration.clock() - t0)
        refs.extend(samples)
        failed += out is None
        counts.append(0 if out is None else out["elements"])
        for name, value in (out or {}).items():
            if name not in ("elements", "failures"):
                layers.setdefault(name, []).append(value)
        if time.perf_counter() - start >= seconds:
            break
    return {"job_s": times, "elements": counts, "setup_s": ready, "bare_s": bare,
            "ref_s": refs, "layers": layers, "attempted": len(times), "failed": failed,
            "errors": errors[:5], "peak_rss_mb": peak_rss_mb()}


def traced(workload: str, job, seconds: float) -> dict:
    """Pairs of an untraced and a traced job, for ``seconds`` and at least
    MIN_TRACE_PAIRS pairs.  The overhead is the median difference within a
    pair, so both sides of it ran under the same conditions.  On the code
    sums, the ``encode`` calls the identities layer makes are counted from
    the spans and must equal the oracle's number of terms."""
    tracer = Tracer(workload)
    plain, roots, failed, errors = [], [], 0, []
    start = time.perf_counter()
    while len(roots) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        failed += run_job(job, errors) is None
        plain.append(time.perf_counter() - t0)
        first = len(tracer.name)
        tracer.install()
        try:
            with tracer.span("harness.job") as root:
                out = run_job(lambda: job(tracer.span), errors)
        finally:
            tracer.uninstall()
        if out and "identities.code_terms" in out:
            encoded = tracer.calls("coding.encode", "identities", since=first)
            if encoded != out["identities.code_terms"]:
                out = None
                errors.append(f"code sums encoded {encoded} codes")
        failed += out is None
        roots.append(root)
    tracer.write(OUT / f"spans-{workload}.tsv.gz")
    job_s = [(tracer.end[r] - tracer.start[r]) / 1e9 for r in roots]
    selfs = tracer.self_times()
    return {"attempted": 2 * len(roots), "failed": failed, "errors": errors[:5],
            "job_s": statistics.median(job_s),
            "overhead_s": statistics.median(t - p for t, p in zip(job_s, plain)),
            "self_s": {layer: statistics.median(selfs[r][layer] / 1e9 for r in roots)
                       for layer in LAYERS},
            "spans": len(tracer.name) // len(roots)}


def probe(cfg: dict, sizes: w.Sizes) -> dict:
    """The probes no job covers, and the other workloads' jobs at this
    workload's sizes; this workload's own job is measured by the loop pass."""
    metrics = {"failures": []}
    metrics.update(w.subsets_probe(sizes.subsets))
    metrics.update(w.coding_probe(sizes.subsets))
    metrics.update(w.partition_kernels(sizes.partitions))
    for name, job in JOBS.items():
        if name != cfg["workload"]:
            out = job(sizes, cfg["seed"], None)
            metrics["failures"] += out.pop("failures", [])
            out.pop("elements")
            metrics.update(out)
    return metrics


def peak_alloc_mb(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def alloc(cfg: dict, sizes: w.Sizes) -> dict:
    _, gk_mb = peak_alloc_mb(symchains.gk_decomposition, sizes.boolean)
    fam, build_mb = peak_alloc_mb(symchains.build_partition_chains, sizes.partitions)
    rep, verify_mb = peak_alloc_mb(symchains.verify_partition_chains, fam)
    check(rep.ok, "verify_partition_chains fails under tracemalloc")
    return {"boolean.gk_peak_alloc_mb": gk_mb, "partitions.build_peak_alloc_mb": build_mb,
            "partitions.verify_peak_alloc_mb": verify_mb}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sizes = w.SIZES[cfg["scale"]][cfg["workload"]]
    kind = cfg["pass"]

    def job(span=None):
        return JOBS[cfg["workload"]](sizes, cfg["seed"], span)

    if kind == "loop":
        out = loop(job, cfg["seconds"], cfg["workload"] in IN_PROCESS)
    elif kind == "trace":
        out = traced(cfg["workload"], job, cfg["seconds"])
    else:
        errors: list[str] = []
        metrics = run_job(lambda: (probe if kind == "probe" else alloc)(cfg, sizes), errors)
        if metrics:
            metrics.pop("failures", None)
        out = {"metrics": metrics or {}, "attempted": 1, "failed": int(metrics is None),
               "errors": errors[:5]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
