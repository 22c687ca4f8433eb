"""Command-line surface: golden outputs, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symchains
from symchains import (
    bell_oracle,
    build_partition_chains,
    decomposition_from_json,
    decomposition_to_json,
    family_from_json,
    gk_decomposition,
)
from symchains.cli import _report_out, build_parser, run
from symchains.identities import DEFAULT_STIRLING_CEILING
from symchains.reports import report


def out_of(capsys):
    return capsys.readouterr().out.rstrip("\n")


class TestGoldenText:
    def test_word(self, capsys):
        assert run(["word", "10", "1,3,4,8,9"]) == 0
        assert out_of(capsys).splitlines() == [
            ")())((())(",
            "matched: (2,3) (6,9) (7,8)",
            "unmatched-right: 1 4",
            "unmatched-left: 5 10",
        ]

    def test_chain(self, capsys):
        assert run(["chain", "10", "1,3,4,8,9"]) == 0
        assert out_of(capsys).splitlines() == [
            "3,8,9",
            "1,3,8,9",
            "1,3,4,8,9",
            "1,3,4,5,8,9",
            "1,3,4,5,8,9,10",
        ]

    def test_decompose_boolean(self, capsys):
        assert run(["decompose-boolean", "3"]) == 0
        assert out_of(capsys).splitlines() == [
            "- < 1 < 1,2 < 1,2,3",
            "2 < 2,3",
            "3 < 1,3",
        ]

    def test_methods_give_same_chains(self, capsys):
        results = []
        for method in ("gk", "debruijn", "product"):
            assert run(["decompose-boolean", "5", "--method", method]) == 0
            results.append(set(out_of(capsys).splitlines()))
        assert results[0] == results[1] == results[2]

    def test_code(self, capsys):
        assert run(["code", "3", "2"]) == 0
        assert out_of(capsys) == "(1,0,2,1)"
        assert run(["code", "3", "1,3", "--compact"]) == 0
        assert out_of(capsys) == "0202"

    def test_empty_set_argument(self, capsys):
        assert run(["code", "3", "-"]) == 0
        assert out_of(capsys) == "(1,1,1,1)"

    def test_class(self, capsys):
        assert run(["class", "3", "2,3"]) == 0
        assert out_of(capsys).splitlines() == ["1,2,3/4", "1,2,4/3", "1,3,4/2"]

    def test_decompose_partition(self, capsys):
        assert run(["decompose-partition", "3"]) == 0
        assert out_of(capsys).splitlines() == [
            "1/2/3/4 < 1/2/3,4 < 1/2,3,4 < 1,2,3,4",
            "1/2,3/4 < 1,2,3/4",
            "1/2,4/3 < 1,2,4/3",
            "1,2/3/4 < 1,2/3,4",
            "1,3/2/4 < 1,3/2,4",
            "1,4/2/3 < 1,4/2,3",
            "excluded: 1,3,4/2",
        ]

    def test_bell(self, capsys):
        assert run(["bell", "3"]) == 0
        assert out_of(capsys) == "5"
        assert run(["bell", "10", "--method", "oracle"]) == 0
        assert out_of(capsys) == "115975"

    def test_stirling_row(self, capsys):
        assert run(["stirling", "5"]) == 0
        assert out_of(capsys) == "0 1 15 25 10 1"

    def test_stirling_check(self, capsys):
        assert run(["stirling-check", "8"]) == 0
        text = out_of(capsys)
        assert "monotone: ok" in text
        assert "S(5,2)=15 < S(5,3)=25" in text
        assert "shifted reflection" in text and text.count("ok") >= 2

    def test_stirling_check_reads_every_row_from_one_triangle(self, capsys):
        t0 = time.perf_counter()
        assert run(["stirling-check", "400"]) == 0
        assert time.perf_counter() - t0 < 2
        text = out_of(capsys)
        assert "monotone: ok (n <= 400)" in text
        assert "S(400,1)=1 < S(400,399)=79800" in text

    def test_symfun(self, capsys):
        assert run(["symfun", "4", "--check"]) == 0
        text = out_of(capsys)
        assert "a1^4 - 3*a1^2*a2 + 2*a1*a3 + a2^2 - a4" in text
        assert "oracle agreement: ok" in text

    def test_derivative_check(self, capsys):
        assert run(["derivative-check", "6"]) == 0
        text = out_of(capsys)
        assert "1 1 2 5 15 52 203" in text
        assert "bell agreement: ok" in text
        assert "seeded agreement: ok" in text


class TestVerifyCommands:
    def test_verify_boolean(self, capsys):
        assert run(["verify-boolean", "6"]) == 0
        lines = out_of(capsys).splitlines()
        assert "ok: yes" in lines
        assert "elements: 64" in lines
        assert "chains: 20" in lines

    def test_verify_partition(self, capsys):
        assert run(["verify-partition", "4"]) == 0
        lines = out_of(capsys).splitlines()
        assert "ok: yes" in lines
        assert "chains: 25" in lines

    def test_quiet_suppresses_output(self, capsys):
        assert run(["verify-boolean", "5", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_failing_report_exits_one(self, capsys):
        args = argparse.Namespace(format="text", quiet=False)
        rep = report(3, 1, [("missing", "2")])
        assert _report_out(args, rep, {"n": 2}) == 1
        text = out_of(capsys)
        assert "ok: no" in text
        assert "fail missing: 2" in text


class TestJsonAndDot:
    def test_boolean_json_roundtrip(self, capsys):
        assert run(["decompose-boolean", "4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert decomposition_from_json(obj) == gk_decomposition(4)
        assert obj == decomposition_to_json(gk_decomposition(4))

    def test_partition_json_roundtrip(self, capsys):
        assert run(["decompose-partition", "4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert family_from_json(obj) == build_partition_chains(4)

    def test_verify_json(self, capsys):
        assert run(["verify-boolean", "6", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["chain_count"] == 20

    def test_dot_outputs(self, capsys):
        assert run(["decompose-boolean", "3", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")
        assert run(["decompose-partition", "3", "--format", "dot"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph")
        assert "1,3,4/2" in text

    def test_dot_rejected_where_meaningless(self, capsys):
        assert run(["bell", "3", "--format", "dot"]) == 2

    def test_code_json(self, capsys):
        assert run(["code", "3", "1,3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["entries"] == [0, 2, 0, 2]
        assert obj["compact"] == "0202"


class TestExitCodes:
    def test_oversized_ground_set(self, capsys):
        assert run(["chain", "70", "1"]) == 2

    def test_element_out_of_range(self, capsys):
        assert run(["chain", "5", "9"]) == 2

    def test_enumeration_ceiling(self, capsys):
        assert run(["decompose-boolean", "30"]) == 2
        assert run(["decompose-partition", "13"]) == 2

    def test_ceiling_flag_moves_the_limit(self, capsys):
        assert run(["decompose-boolean", "10", "--ceiling", "9", "--quiet"]) == 2
        assert run(["decompose-boolean", "10", "--ceiling", "10", "--quiet"]) == 0

    def test_partition_ceiling_default(self, capsys):
        # Checked before the run: admitting m = 13 would build 27.6 million partitions.
        assert build_parser().parse_args(["decompose-partition", "12"]).ceiling == 12
        assert run(["decompose-partition", "12", "--quiet"]) == 2
        args = build_parser().parse_args(["decompose-partition", "12", "--ceiling", "13"])
        assert args.ceiling == 13

    def test_code_sums_refuse_past_the_default_ceiling(self, capsys):
        for command in ("bell", "symfun", "derivative-check"):
            assert run([command, "26"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_derivative_check_refuses_before_summing(self, capsys):
        t0 = time.perf_counter()
        assert run(["derivative-check", "19", "--ceiling", "18"]) == 2
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out == ""

    def test_stirling_commands_refuse_past_the_ceiling(self, capsys):
        assert build_parser().parse_args(["stirling", "5"]).ceiling == DEFAULT_STIRLING_CEILING
        past = str(DEFAULT_STIRLING_CEILING + 1)
        for argv in (["stirling", past], ["stirling-check", past],
                     ["bell", past, "--method", "oracle"],
                     ["stirling", "6", "--ceiling", "5"], ["stirling-check", "6", "--ceiling", "5"],
                     ["bell", "6", "--method", "oracle", "--ceiling", "5"]):
            t0 = time.perf_counter()
            assert run(argv) == 2
            assert time.perf_counter() - t0 < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
        assert run(["stirling", "5", "--ceiling", "5"]) == 0
        assert out_of(capsys) == "0 1 15 25 10 1"

    def test_bell_ceiling_default_follows_the_method(self, capsys):
        assert run(["bell", "30", "--method", "oracle"]) == 0
        assert out_of(capsys) == str(bell_oracle(30))
        assert run(["bell", "10", "--ceiling", "9"]) == 2
        assert run(["bell", "10", "--ceiling", "10"]) == 0
        assert out_of(capsys) == "115975"

    def test_ceiling_flag_only_where_it_applies(self, capsys):
        assert run(["word", "3", "1", "--ceiling", "5"]) == 2
        assert run(["chain", "3", "1", "--ceiling", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_errors_go_to_stderr(self, capsys):
        assert run(["chain", "70", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ground size" in captured.err

    def test_negative_n_is_rejected(self, capsys):
        for command in ("stirling-check", "derivative-check"):
            assert run([command, "-1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


class TestModuleEntry:
    def run_module(self, *argv):
        src = str(Path(symchains.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "symchains.cli", *argv],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)

    def test_python_dash_m_runs_the_cli(self):
        proc = self.run_module("bell", "5")
        assert proc.returncode == 0
        assert proc.stdout == "52\n"

    def test_python_dash_m_keeps_exit_codes(self):
        proc = self.run_module("bell", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
