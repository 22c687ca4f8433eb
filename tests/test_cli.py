"""Command-line surface: golden outputs, formats, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import symchains
from symchains import (
    bell_oracle,
    build_partition_chains,
    decomposition_from_json,
    decomposition_to_json,
    family_from_json,
    family_to_json,
    gk_decomposition,
)
from symchains import boolean, partitions
from symchains.cli import _json_chunks, _report_out, build_parser, run
from symchains.identities import DEFAULT_STIRLING_CEILING
from symchains.reports import VerificationReport
from symchains.subsets import DEFAULT_DOT_CEILING, DEFAULT_PARTITION_CEILING


def out_of(capsys):
    return capsys.readouterr().out.rstrip("\n")


EMPTY = hashlib.sha256(b"").hexdigest()

# Exit code and SHA-256 of stdout and of stderr of run(argv): a change to how
# the CLI is built must leave every output byte-identical.  Every subcommand
# appears in each format it takes and under -q, next to the method and flag
# variants and the ceiling, usage, range and negative-n errors.  argparse words
# its usage errors differently across Python versions, so for those (stderr
# None) only the "usage:" prefix is pinned.
CLI_SHA256 = [
    ("word 10 1,3,4,8,9", 0, "bf15f36dab40507a63df1c1814ecf681154c3477d1f090ab1f514afc869ee3ec", EMPTY),
    ("word 10 1,3,4,8,9 -f json", 0, "702a7988d5afee5c360dd361a7f2251604da9f59364f072a281c97182dc327ff", EMPTY),
    ("word 10 1,3,4,8,9 -q", 0, EMPTY, EMPTY),
    ("word 3 -", 0, "0064a6eb585941a6b444686a9debfdbbd18737cd247e9778542db4ff69a52f5c", EMPTY),
    ("chain 10 1,3,4,8,9", 0, "c6ec4bc284e0b3bd69bbdc660bb9d7ae8c1b11bc7ba6fbfafb3aac363de1126a", EMPTY),
    ("chain 10 1,3,4,8,9 -f json", 0, "77666a309ec3fb0a9fba76b9154a34e285ca9cdd3ea4fe591e51783f88fac890", EMPTY),
    ("chain 10 1,3,4,8,9 -q", 0, EMPTY, EMPTY),
    ("decompose-boolean 4", 0, "9b43b0638e5da758be12bb9a932ae29826d30799e73216870c6ba2958c650b66", EMPTY),
    ("decompose-boolean 4 -f json", 0, "cd328bec5bc0bf4aeae2f753d8612bec6eef337522c2f551f349e0bbe2ccc378", EMPTY),
    ("decompose-boolean 4 -f dot", 0, "8f55f4d792f59b636d8917877b85fc7f8182f9a060e85e49f1b348ab8355c2c0", EMPTY),
    ("decompose-boolean 4 -q", 0, EMPTY, EMPTY),
    ("decompose-boolean 4 -f json -q", 0, EMPTY, EMPTY),
    ("decompose-boolean 4 -f dot -q", 0, EMPTY, EMPTY),
    ("decompose-boolean 5 --method gk", 0, "1a185952c3597aaf1d5095377c05ba05e7de8fe89f4e0a8e724b478eb3327124", EMPTY),
    ("decompose-boolean 5 --method debruijn", 0, "1a185952c3597aaf1d5095377c05ba05e7de8fe89f4e0a8e724b478eb3327124", EMPTY),
    ("decompose-boolean 5 --method product", 0, "1a185952c3597aaf1d5095377c05ba05e7de8fe89f4e0a8e724b478eb3327124", EMPTY),
    ("decompose-boolean 0", 0, "61d1954b9aba0c9aedb8d1338804e817c7262cfc36da94161dab8e3ed7a3a43a", EMPTY),
    ("code 3 1,3", 0, "acafea9e9d6d14f5b782ffc32917d5978b7bffc4c0652386d53227c98138bf26", EMPTY),
    ("code 3 1,3 -f json", 0, "23dee1399ab46df79b1f04869aef429ca2d1a683922270128502c179ad7655fd", EMPTY),
    ("code 3 1,3 --compact", 0, "74dd5b5f35b7e475a04d62b31b488f89676b74c1a5a8c393b073e0fe12b6158a", EMPTY),
    ("code 3 1,3 -q", 0, EMPTY, EMPTY),
    ("code 10 1,2,3,4,5,6,7,8,9 --compact -q", 2, EMPTY, "47ec3c5fdfba42126480b8aadebfc668503bba52dabbca615e5fef6bda3da642"),
    ("code 3 -", 0, "3d76cfe18cabd0d0a9d8e2f6f1c2d63ab7281ebecbe33b18db72975bed04bdd0", EMPTY),
    ("class 4 2,3", 0, "9d375d9a566307744ea81f89f968a22a68e7a31ec38e397fcf5c021b34e952ef", EMPTY),
    ("class 4 2,3 -f json", 0, "ea349ea9bceb37e186960f8d6067d30e6bf9cc608562cd94ad567b2dcaeafb1e", EMPTY),
    ("class 4 2,3 -q", 0, EMPTY, EMPTY),
    ("decompose-partition 4", 0, "d3b693afbf837082567edcd8b606e51bf0032ed11a483e53ab50943b9562bcbf", EMPTY),
    ("decompose-partition 4 -f json", 0, "a88155d3977c4713d58ed0e339c9e71f791decda976dbeb077f60ff601347d16", EMPTY),
    ("decompose-partition 4 -f dot", 0, "88436b26e01dbb33b076831f68780ff98b9710cd609ba2a55057c26e9a9e5394", EMPTY),
    ("decompose-partition 4 -q", 0, EMPTY, EMPTY),
    ("decompose-partition 4 -f dot -q", 0, EMPTY, EMPTY),
    ("decompose-partition 0", 0, "1c046eff3179551305c758c178946b334e0b862b1cae132600ee85cd3f0426dc", EMPTY),
    ("verify-boolean 5", 0, "2e9fcf1583e12422a3362a8846a3bcaffcaab5255e67751497c76eb2598e4a67", EMPTY),
    ("verify-boolean 5 -f json", 0, "e852680e1c33d05169af50486e3bb64f4c80ce2f84c187bc2300778623d8e8eb", EMPTY),
    ("verify-boolean 5 -q", 0, EMPTY, EMPTY),
    ("verify-partition 4", 0, "49b533dabae1adfdecb7c691be29a73885c3a1a2f2087159e60b666792cce653", EMPTY),
    ("verify-partition 4 -f json", 0, "09f68bb4a3497967e4f3c83df07642cb2487e1bbd746708a38d985b294bf2fee", EMPTY),
    ("verify-partition 4 -q", 0, EMPTY, EMPTY),
    ("bell 6", 0, "fac89bae5eac39640ce768446a28ff0770328c8c93ff079036e6ecad6ecbc20f", EMPTY),
    ("bell 6 -f json", 0, "a717b2be803919f9639076a5fed691ac8f6b96e66a3bc032a94dbf5893d49717", EMPTY),
    ("bell 6 -q", 0, EMPTY, EMPTY),
    ("bell 6 --method oracle", 0, "fac89bae5eac39640ce768446a28ff0770328c8c93ff079036e6ecad6ecbc20f", EMPTY),
    ("stirling 5", 0, "b29af8990137307778a57e32d5249465e6ceebec5135abd8b45d6595347c6db0", EMPTY),
    ("stirling 5 -f json", 0, "6c52d40b546a6b7a03e9ba506a99e812b8cb4341a1df6c146f169d04469ba501", EMPTY),
    ("stirling 5 -q", 0, EMPTY, EMPTY),
    ("stirling-check 8", 0, "b7a6b1760ae25c20c6b8a71cba3b31d6d10a3cec9737924338d28750929080c8", EMPTY),
    ("stirling-check 8 -f json", 0, "0d5a4481550b4d5ac58b59f91defc68d52792610ffe69a87d3d4f3ddb0d88f29", EMPTY),
    ("stirling-check 8 -q", 0, EMPTY, EMPTY),
    ("stirling-check 3", 0, "e18b2e7bd848e3759788fe403335b0bd9aeb865d588e65366b73d23aa08fb377", EMPTY),
    ("stirling-check 3 -f json", 0, "b0175a8260558da54197699c711d1905b16a8ad3b0225e848a4592f1a933eef2", EMPTY),
    ("symfun 4", 0, "f427ff67279d93d3e2f965afbd2b7bcdf1e1c72fd686813c968db830e570de70", EMPTY),
    ("symfun 4 -f json", 0, "192be753548b420defe9db46613d3cf6ec4cfdc211324651f6a566c43832a175", EMPTY),
    ("symfun 4 -q", 0, EMPTY, EMPTY),
    ("symfun 4 --check", 0, "3fceec19dde1b2f7ea8c167b1ffed9555a21e6a2db42be74df4617fa962a3774", EMPTY),
    ("symfun 4 --check -f json", 0, "e4e16a4aa0533251598df412dc02f8edca43481f5a0b4690e09519968475b627", EMPTY),
    ("derivative-check 5", 0, "17ca0897e6cbd6f9e8412362bef807f048947d654fa802c4c27b1be2565c209e", EMPTY),
    ("derivative-check 5 -f json", 0, "7f3782fd6e8edb4583ed2e94a342e77b6300785b9cb9683468c1067faf1f29f6", EMPTY),
    ("derivative-check 5 -q", 0, EMPTY, EMPTY),
    ("decompose-boolean 30", 2, EMPTY, "c37531f71a8d4112d47ca917c4fa228f4842cd9496d3af38ac14171953147f5c"),
    ("word 3 1 -f dot", 2, EMPTY, None),
    ("stirling-check -1", 2, EMPTY, "5dbba25f90f46fe500885e332215fa740be3c65ced2d72c2061d05816a03b7d2"),
    ("chain 5 9", 2, EMPTY, "3cd85bff76c04b4ce50ee0666a4ac19c3b44fc71b5e40ffecb6452f71c38be73"),
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", CLI_SHA256,
                         ids=[row[0] for row in CLI_SHA256])
def test_cli_output_is_pinned(capsys, argv, code, out_sha, err_sha):
    assert run(argv.split()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    if err_sha is None:
        assert err.startswith("usage: symchains ")
    else:
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha


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
        for method in ("codes", "oracle"):
            assert run(["bell", "0", "--method", method]) == 0
            assert out_of(capsys) == "1"

    def test_stirling_row(self, capsys):
        assert run(["stirling", "5"]) == 0
        assert out_of(capsys) == "0 1 15 25 10 1"

    def test_stirling_check(self, capsys):
        assert run(["stirling-check", "8"]) == 0
        text = out_of(capsys)
        assert "monotone: ok" in text
        assert "S(5,2)=15 < S(5,3)=25" in text
        assert "shifted reflection" in text and text.count("ok") >= 2

    def test_stirling_check_reports_failures(self, capsys, monkeypatch):
        # The triangle satisfies both checked inequalities, so faked audits
        # drive the failure lines and the exit code.
        from symchains import identities
        monkeypatch.setattr(identities, "_monotone_report", lambda table, n: VerificationReport(
            1, 1, (("monotone", f"row {n}"),) if n == 2 else ()))
        monkeypatch.setattr(identities, "_symmetry_audit", lambda table, n: identities.SymmetryAudit(
            n, True, (), n != 2, ((1, 3, 7),) if n == 2 else ()))
        assert run(["stirling-check", "2"]) == 1
        assert out_of(capsys).splitlines() == [
            "monotone: FAIL (n <= 2)",
            "  row 2",
            "reflection k -> n-k: ok (n <= 2)",
            "shifted reflection k -> n-k+1: 1 counterexamples",
            "  S(2,1)=3 < S(2,2)=7",
        ]

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
        rep = VerificationReport(3, 1, (("missing", "2"),))
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

    def test_streamed_json_equals_dumps(self, capsys):
        # Written a chain at a time, the documents keep json.dumps' bytes,
        # empty lists (no excluded partitions at n <= 1) included.
        methods = {"gk": gk_decomposition, "debruijn": symchains.debruijn_decomposition,
                   "product": symchains.iterated_product_scd}
        for n in range(9):
            for name, method in methods.items():
                assert run(["decompose-boolean", str(n), "-f", "json", "--method", name]) == 0
                expected = json.dumps(decomposition_to_json(method(n)), indent=2)
                assert capsys.readouterr().out == expected + "\n"
        for n in range(8):
            assert run(["decompose-partition", str(n), "-f", "json"]) == 0
            expected = json.dumps(family_to_json(build_partition_chains(n)), indent=2)
            assert capsys.readouterr().out == expected + "\n"

    @given(st.dictionaries(st.text(), st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=12),
        min_size=1))
    def test_json_chunks_equal_dumps(self, doc):
        streamed = {k: iter(v) if isinstance(v, list) else v for k, v in doc.items()}
        assert "".join(_json_chunks(streamed)) == json.dumps(doc, indent=2)

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

    @pytest.mark.parametrize("argv, e", [
        (["chain", "3", "0"], 0), (["code", "3", "0,1"], 0), (["word", "3", "-2"], -2),
        (["class", "3", "0,2"], 0),
    ])
    def test_element_below_one_is_out_of_range(self, capsys, argv, e):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: element {e} outside ground set 1..3\n"

    @pytest.mark.parametrize("command", ["word", "chain", "code", "class"])
    def test_negative_set_literal_with_a_comma_reaches_the_parser(self, capsys, command):
        # argparse would read -2,1 as an option and report the set missing
        for argv in ([command, "3", "-2,1"], [command, "3", "-2,1", "-f", "json"]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: element -2 outside ground set 1..3\n"

    def test_compact_without_a_compact_form_is_refused_in_every_format(self, capsys):
        # An entry of 10 has no digit form.  Text, json and --quiet all
        # refuse it alike, since --quiet keeps exit codes and builds no view.
        for fmt in ("text", "json"):
            for quiet in ([], ["-q"]):
                argv = ["code", "10", "1,2,3,4,5,6,7,8,9", "--compact", "-f", fmt, *quiet]
                assert run(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: entries above 9 have no compact form")
        assert run(["code", "10", "1,2,3,4,5,6,7,8,9", "-f", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"][9] == 10

    def test_enumeration_ceiling(self, capsys):
        assert run(["decompose-boolean", "30"]) == 2
        assert run(["decompose-partition", "13"]) == 2

    def test_ceiling_flag_moves_the_limit(self, capsys):
        assert run(["decompose-boolean", "10", "--ceiling", "9", "--quiet"]) == 2
        assert run(["decompose-boolean", "10", "--ceiling", "10", "--quiet"]) == 0

    @pytest.mark.parametrize("argv, verifier", [
        (["verify-boolean", "4", "--ceiling", "7"], "verify_scd"),
        (["verify-partition", "4", "--ceiling", "7"], "verify_partition_chains"),
    ])
    def test_verifiers_get_the_ceiling_flag(self, capsys, monkeypatch, argv, verifier):
        # The handlers call the verifier in its layer, read when they run.
        layer = {"verify_scd": boolean, "verify_partition_chains": partitions}[verifier]
        seen = []
        real = getattr(layer, verifier)

        def spy(family, ceiling):
            seen.append(ceiling)
            return real(family, ceiling=ceiling)

        monkeypatch.setattr(layer, verifier, spy)
        assert run(argv + ["--quiet"]) == 0
        assert seen == [7]

    def test_partition_ceiling_default(self, capsys):
        # Checked before the run: admitting m = 13 would build 27.6 million partitions.
        # The parsed default is None: the handler resolves it per format.
        assert build_parser().parse_args(["decompose-partition", "12"]).ceiling is None
        assert run(["decompose-partition", "12", "--quiet"]) == 2
        args = build_parser().parse_args(["decompose-partition", "12", "--ceiling", "13"])
        assert args.ceiling == 13

    def test_dot_refuses_past_its_ceiling_before_building(self, capsys):
        # The dot writer holds every node: 1.4 GB at m = 12.
        t0 = time.perf_counter()
        assert run(["decompose-partition", "11", "-f", "dot"]) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Bell(12) partitions exceed the ceiling: 12 > 11\n"

    @pytest.mark.parametrize("argv, ceiling", [
        (["decompose-partition", "11", "-f", "dot"], DEFAULT_DOT_CEILING),
        (["decompose-partition", "11", "-f", "dot", "--ceiling", "12"], 12),
        (["decompose-partition", "11", "-f", "json"], DEFAULT_PARTITION_CEILING),
        (["decompose-partition", "11"], DEFAULT_PARTITION_CEILING),
        (["decompose-partition", "11", "--ceiling", "5"], 5),
    ])
    def test_partition_ceiling_resolved_per_format(self, capsys, monkeypatch, argv, ceiling):
        # The builder is handed the resolved ceiling; a small family stands
        # in for the one asked for, so no m = 12 job runs.
        seen = []
        real = partitions.build_partition_chains

        def spy(n, ceiling):
            seen.append(ceiling)
            return real(3)

        monkeypatch.setattr(partitions, "build_partition_chains", spy)
        assert run(argv + ["--quiet"]) == 0
        assert seen == [ceiling]

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


# Imports the stdlib modules the package itself needs, notes which of the
# heavy modules they loaded, then imports the package and the CLI, reads
# every public name (the package loads a module on the first read of one of
# its names, so this loads them all) and prints the heavy modules that only
# the package loaded.
IMPORT_PROBE = """
import sys
import argparse, array, fractions, json, random
heavy = ("dataclasses", "inspect")
before = {name for name in heavy if name in sys.modules}
import symchains, symchains.cli
[getattr(symchains, name) for name in symchains.__all__]
print(sorted(name for name in heavy if name in sys.modules and name not in before))
"""


class TestModuleEntry:
    def run_python(self, *argv):
        src = str(Path(symchains.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *argv],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)

    def run_module(self, *argv):
        return self.run_python("-m", "symchains.cli", *argv)

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Every CLI command is a fresh process, so the package's import is
        # paid on each; dataclasses with inspect was about half of it.  A
        # Python whose stdlib loads them already passes trivially.
        proc = self.run_python("-c", IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_python_dash_m_runs_the_cli(self):
        proc = self.run_module("bell", "5")
        assert proc.returncode == 0
        assert proc.stdout == "52\n"

    def test_python_dash_m_keeps_exit_codes(self):
        proc = self.run_module("bell", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
