"""Reference work that gauges how fast the machine runs.

On a shared host the speed of a core drifts by a third and more, in spells
of a second to minutes, and the process cannot see it: its CPU time grows
with its wall time either way.  The benchmark therefore times reference
work alongside the jobs and states the end-to-end timings at a reference
speed:

    scaled seconds = wall seconds * REFERENCE_S / (mean wall seconds of the task)

The reference task never calls the package, so a change to the package
moves the scaled timings as much as the wall ones, while a slow spell of
the machine stretches the task and the job alike and cancels out.  It
mixes the kinds of work the package does: integer arithmetic, tuples,
dicts, lists and a sort.

``sampling`` times the task during a job.  For a job that runs in this
process it does so from a timer signal every few tenths of a second, so
that the samples see the same spells as the job; a job that waits for the
processes it spawns calls ``between_steps`` between them instead, so that
no sample runs beside them.  ``clock`` leaves out the time spent in the
task, so a job timed with it costs what it would cost without the samples.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager

# About the mean wall seconds of one reference task in the loop passes of
# the sweeps made on the machine the baseline was recorded on (2-core
# x86_64 VM, Python 3.11.7).  A scaled timing is the wall time the job
# would take on a machine that runs the task this fast.
REFERENCE_S = 0.017
# About the median wall seconds of starting a bare interpreter on the same
# machine.  Set-up times are scaled by the bare start timed just before
# each of them, not by the task: a process start spends its time in the
# kernel and the loader as much as in the interpreter, and follows the
# machine's spells in its own way.
SPAWN_REFERENCE_S = 0.063
CHECKSUM = 151_004
# Seconds between two samples taken during a job.
EVERY_S = 0.2

# Seconds spent in reference tasks so far.  One count per process: the
# timer's samples and the clock of every job in the process share it.
_in_task = 0.0
# The samples list of the open sampling block, if any.
_open: list[float] | None = None


def reference_task() -> int:
    acc = 0
    for i in range(75_000):
        acc += i * i % 7
    table: dict = {}
    for i in range(11_000):
        key = tuple(range(i % 8))
        table[key, i % 1000] = [i, key]
    order = sorted(table, key=lambda k: (len(k[0]), -k[1]))
    return acc % 1_000_003 + len(order) + order[-1][1]


def task_s() -> float:
    """Wall seconds of one reference task; a wrong result raises.  The
    cyclic garbage collector is held off meanwhile: a collection the task
    set off during a job would walk the job's heap, and its time would
    depend on the job, not on the machine."""
    global _in_task
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        out = reference_task()
    finally:
        secs = time.perf_counter() - t0
        if collecting:
            gc.enable()
    _in_task += secs
    if out != CHECKSUM:
        raise RuntimeError(f"reference task returned {out}, not {CHECKSUM}")
    return secs


def clock() -> float:
    """``time.perf_counter`` less the time spent in reference tasks."""
    return time.perf_counter() - _in_task


@contextmanager
def sampling(timer: bool):
    """Collect samples of the reference task until the block ends; yields
    the list they are appended to.  With ``timer`` the task is timed every
    EVERY_S seconds of wall time, from SIGALRM; without it, at each call of
    ``between_steps``, for a job whose steps wait for other processes."""
    global _open
    samples: list[float] = []
    busy = False

    def sample(*_) -> None:
        nonlocal busy
        if not busy:  # a tick that falls inside a sample is dropped
            busy = True
            try:
                samples.append(task_s())
            finally:
                busy = False

    _open = samples
    if timer:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
    try:
        yield samples
    finally:
        if timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        _open = None


def between_steps() -> None:
    """Time the reference task now, if a sampling block is open."""
    if _open is not None:
        _open.append(task_s())
