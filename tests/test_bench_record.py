"""The benchmark recorder in tools/, with benchmarks/sweep.py's runs stubbed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def recorder(monkeypatch):
    """The recorder module, each run passing with every end-to-end metric
    set to the seed plus its position in BENCHMARK.json."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        return True, {name: {"value": seed + k, "unit": "s"} for k, name in enumerate(module.METRICS)}

    monkeypatch.setattr(module.sweep, "run", run)
    module.calls = calls
    return module


def test_records_every_end_to_end_metric(recorder, tmp_path):
    assert recorder.main(["--tag", "7", "--seeds", "1-3", "--seconds", "1", "--dir", str(tmp_path)]) == 0
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    # Seeds outermost, every run untraced.
    assert recorder.calls == [(w, seed, 1, 0) for seed in (1, 2, 3) for w in workloads]
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert doc["tag"] == "7" and doc["seeds"] == [1, 2, 3] and doc["nproc"] >= 1
    assert {"commit", "dirty", "python", "seconds"} <= set(doc)
    assert list(doc["workloads"]) == workloads
    names = [metric["name"] for metric in spec["end_to_end"]]
    for got in doc["workloads"].values():
        assert got["correct"] and list(got["metrics"]) == names
        for k, name in enumerate(names):
            assert got["metrics"][name] == {"unit": "s", "median": 2 + k, "values": [1 + k, 2 + k, 3 + k]}


def test_a_failed_run_is_recorded_and_exits_1(recorder, tmp_path, monkeypatch):
    passing = recorder.sweep.run
    monkeypatch.setattr(recorder.sweep, "run", lambda w, *args: (w != "cli", passing(w, *args)[1]))
    assert recorder.main(["--tag", "x", "--seeds", "1", "--dir", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [w for w, got in doc["workloads"].items() if not got["correct"]] == ["cli"]


def test_a_missing_metric_is_refused(recorder, tmp_path, monkeypatch):
    monkeypatch.setattr(recorder.sweep, "run", lambda *args: (True, {}))
    with pytest.raises(SystemExit, match="printed no job_s"):
        recorder.main(["--tag", "x", "--seeds", "1", "--dir", str(tmp_path)])
    assert not (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize("error", [IndexError, json.JSONDecodeError("", "", 0)])
def test_a_run_without_a_result_is_refused(recorder, tmp_path, monkeypatch, error):
    # sweep.run reads the last line of an empty or broken output.
    def run(*args):
        raise error

    monkeypatch.setattr(recorder.sweep, "run", run)
    with pytest.raises(SystemExit, match="at seed 1 printed no result; run benchmarks/run.py"):
        recorder.main(["--tag", "x", "--seeds", "1", "--dir", str(tmp_path)])
    assert not (tmp_path / "BENCH_x.json").exists()


def test_show_lists_the_files_in_tag_order(recorder, tmp_path, capsys):
    for tag, seed in (("10", 5), ("9", 1), ("ci", 3)):
        recorder.main(["--tag", tag, "--seeds", str(seed), "--dir", str(tmp_path)])
    capsys.readouterr()
    assert recorder.main(["--show", "--dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "metric", "9", "10", "ci"]
    assert lines[1].split() == [recorder.WORKLOADS[0], recorder.METRICS[0], "1", "5", "3"]
    assert len(lines) == 1 + len(recorder.WORKLOADS) * len(recorder.METRICS)


def test_dirty_counts_new_source_files(recorder, tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "README").write_text("x\n")
    git("add", "README")
    git("commit", "-q", "-m", "x")
    monkeypatch.setattr(recorder, "ROOT", tmp_path)
    (tmp_path / "notes.txt").write_text("not run\n")
    assert not recorder.dirty()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "new.py").write_text("")
    assert recorder.dirty()
    (tmp_path / "src" / "new.py").unlink()
    (tmp_path / "README").write_text("y\n")
    assert recorder.dirty()
