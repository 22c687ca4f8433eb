"""The at-size job runner in tools/: its table, and its checks on small jobs."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from symchains.cli import build_parser

TOOL = Path(__file__).resolve().parents[1] / "tools" / "at_size.py"
BELL_10 = hashlib.sha256(b"115975\n").hexdigest()


@pytest.fixture(scope="module")
def at_size():
    spec = importlib.util.spec_from_file_location("at_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_parses(at_size):
    parser = build_parser()
    for command, _, _ in at_size.JOBS:
        parser.parse_args(command.split())


def test_rows_are_distinct_with_a_digest_and_a_bound(at_size):
    commands = [command for command, _, _ in at_size.JOBS]
    assert len(set(commands)) == len(commands)
    for command, pin, bound in at_size.JOBS:
        assert re.fullmatch("[0-9a-f]{64}", pin), command
        assert bound is None or bound > 0, command


def test_run_reports_exit_digest_peak_and_bytes(at_size):
    code, digest, peak, seconds, size = at_size.run(["bell", "10"])
    assert (code, digest, size) == (0, BELL_10, 7)
    assert peak > 0 and seconds > 0


@pytest.mark.parametrize("row, failed", [
    (("bell 10", BELL_10, None), []),
    (("bell 10", "0" * 64, None), ["digest"]),
    (("bell 26", hashlib.sha256(b"").hexdigest(), None), ["exit"]),
])
def test_check_names_the_job_and_what_it_failed(at_size, capsys, row, failed):
    assert at_size.check(*row) == failed
    line = capsys.readouterr().out
    assert line.startswith(row[0] + ": exit ")
    assert line.rstrip().endswith("FAILED " + ", ".join(failed)) if failed else "FAILED" not in line


def test_check_fails_a_peak_over_its_bound(at_size):
    # The peak counts the test process's own, so the bounds are set from a run.
    peak = at_size.run(["bell", "10"])[2]
    assert at_size.check("bell 10", BELL_10, 2 * peak) == []
    assert at_size.check("bell 10", BELL_10, peak / 2) == ["peak"]


def test_main_runs_every_row_and_fails_if_one_does(at_size, monkeypatch):
    ran = []
    monkeypatch.setattr(at_size, "JOBS", [("a", "", None), ("b", "", None), ("c", "", None)])
    monkeypatch.setattr(at_size, "check", lambda command, pin, bound: ran.append(command) or ["exit"] * (command == "b"))
    assert at_size.main() == 1 and ran == ["a", "b", "c"]
    monkeypatch.setattr(at_size, "JOBS", [("a", "", None)])
    assert at_size.main() == 0
