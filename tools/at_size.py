"""Run the CLI's jobs past the suite's sizes, ``python3 tools/at_size.py``.

Each row of ``JOBS`` is a command line, the SHA-256 of the standard output
it must write, and a bound in MB on its peak RSS, or None.  Each job runs
in a fresh process and passes when it exits 0, writes exactly the pinned
bytes and peaks under its bound; the exit status is 1 if any job failed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOLEAN_18 = "031c72963ac4df2387440bf0f4ade68b5cd3692ed7c3ef089f74d9d616ea14f5"

JOBS = [
    # The suite checks h_n in the e_i up to n = 14; --check exits 0, silent,
    # only when the 2^21 codes of h_22 sum to the recurrence oracle.
    ("symfun 22 --check -q", hashlib.sha256(b"").hexdigest(), None),
    # The suite stops at n = 8; the benchmark builds and verifies n = 9.
    ("verify-partition 9 --format json", "d6263d57422dfa03c63b095620b60cf13e6003b008a768d4db837253a68dca10", None),
    ("verify-partition 10 --format json", "e46ff6f1b564ff26397fca6d50edad372b48a07a66c6faf03b3dc725f4f5dd24", 40),
    # m = 12 is the default ceiling: the largest job the CLI admits without an override.
    ("verify-partition 11 --format json", "26ff832bc397633470af8d0cd5bb812d6878fa7a6b9d976cd6f2536add3c771d", 64),
    # m = 13 is past the default ceiling: all 27,644,437 partitions.
    ("verify-partition 12 --ceiling 13 --format json",
     "8db0959a502d5e6264f507144fff1d68ac29c539ae180e87bf66b5c71f604db8", 160),
    # The suite pins the family's JSON up to n = 9; m = 11 is the first
    # size whose excluded count and walk it never checks.
    ("decompose-partition 10 --format json", "7ad69afed51ee7047b0d045f5d75aa231f1e38d4250fe0fbe9c20fa2d867b81c", 64),
    # m = 12 is the default ceiling: 627,396 chains and 2.6 million excluded partitions.
    ("decompose-partition 11 --format json", "89f29330440338eaafa258abc43f60cc0d085ef146da2d74f9b650582170c33c", 100),
    # The suite pins the text document up to n = 8.
    ("decompose-partition 10", "efca2760d3d87611879453adb2db17d1884bfee0f4968c5123b6c3509840772f", 64),
    # The suite pins the dot document only at n = 7; the writer indexes all 115,975 nodes.
    ("decompose-partition 9 --format dot", "370ab22064d3319b829fef6693f34712532bf3948da3d3eaf7a044ab52984616", 100),
    # The pinned gk hashes stop at n = 12; the three constructions must
    # write the same bytes at n = 18, chain order included.
    ("decompose-boolean 18 --method gk -f json", BOOLEAN_18, None),
    ("decompose-boolean 18 --method debruijn -f json", BOOLEAN_18, None),
    ("decompose-boolean 18 --method product -f json", BOOLEAN_18, None),
    # n = 2000 is the Stirling default ceiling; the values pass str()'s
    # 4,300-digit limit, which the writers lift.
    ("stirling 2000", "acb9a95da0b09eb4101144437bd84a38230ede506c4c00d19a4b72abb199fddf", 64),
    ("stirling-check 2000 -f json", "d895d2627d0a27fb31f608bffec00beb00ea9c89633348a6d2c889325fb1873d", 64),
    ("bell 2000 --method oracle", "b9d45e3a97fe7313f081cdfc9f4870ff7a55bd4fe75cb1c2200b87c96a8e47b2", 64),
    # The suite stops at n = 20; this sums the 2^21 codes of B(22).
    ("bell 22 --format json", "b547e11c842c07193f6cb5585a617a281cb913835e8b434ab69899c130a2ba4a", None),
]


def run(argv: list[str]) -> tuple[int, str, float, float, int]:
    """Run the CLI with ``argv``; return its exit code, output SHA-256, peak RSS
    in MB, seconds and output bytes.  ``os.wait4``'s peak counts the children
    the process reaped, such as the partition verifier's forked child, and the
    caller's own peak RSS at the spawn, which Linux carries across the exec."""
    digest, size, start = hashlib.sha256(), 0, time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "symchains.cli", *argv], stdout=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, digest.hexdigest(), usage.ru_maxrss / 1024, time.perf_counter() - start, size


def check(command: str, pin: str, bound: float | None) -> list[str]:
    """Run one row, print its line, and return what failed: "exit", "digest", "peak"."""
    code, digest, peak, seconds, size = run(command.split())
    failed = [name for name, bad in (("exit", code != 0), ("digest", digest != pin),
                                     ("peak", bound is not None and peak >= bound)) if bad]
    print(f"{command}: exit {code}, {seconds:.1f} s, {peak:.1f} MB, {size} bytes, {digest}"
          + (f"  FAILED {', '.join(failed)}" if failed else ""), flush=True)
    return failed


def main() -> int:
    return 1 if any([check(*row) for row in JOBS]) else 0


if __name__ == "__main__":
    raise SystemExit(main())
