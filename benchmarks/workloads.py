"""Jobs and layer probes, one function per layer of symchains.

Each function calls the package's public API at one size, checks every
result against ``oracles`` and returns its timings and counts.  A workload's
job is one of these functions at the workload's own size, and the timings
and counts of its jobs are that layer's metrics; a probe pass runs the
others once, so every per-layer metric is measured on every workload.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import calibration
import symchains
from oracles import (
    FROZEN_PARTITIONS,
    GateFailure,
    bell,
    chain_through,
    check,
    class_size,
    code,
    code_terms,
    integer_partitions,
    link_positions,
    matching,
    members,
    stirling,
    stirling_row,
    word,
)

ROOT = Path(__file__).resolve().parent.parent
# Leaves out the reference tasks sampled during a job (calibration.py).
clock = calibration.clock


@dataclass(frozen=True)
class Sizes:
    """Ground sizes per layer.  ``subsets`` and ``boolean`` are n for
    subsets of {1..n}; ``partitions`` is n for partitions of {1..n+1};
    ``codes`` is n for the code sums, whose derivative runs at order n-2."""

    subsets: int
    boolean: int
    partitions: int
    codes: int


# A workload's own layers run at its own n; layers it does not exercise are
# probed at a small fixed size so their metrics exist on every workload.
SIZES = {
    "full": {
        "subset-lattice": Sizes(subsets=16, boolean=16, partitions=6, codes=12),
        "partition-family": Sizes(subsets=9, boolean=9, partitions=9, codes=12),
        "code-sums": Sizes(subsets=17, boolean=12, partitions=6, codes=18),
        "cli": Sizes(subsets=12, boolean=12, partitions=6, codes=12),
    },
    "smoke": {name: Sizes(subsets=6, boolean=6, partitions=4, codes=8)
              for name in ("subset-lattice", "partition-family", "code-sums", "cli")},
}


def timed(fn: Callable, *args):
    t0 = clock()
    out = fn(*args)
    return out, clock() - t0


def seeded_series(seed: int, order: int) -> symchains.TruncatedSeries:
    """A series whose coefficients have fixed magnitudes and seeded signs.
    Exact rational arithmetic costs more for longer numerators, so fixing
    the magnitudes keeps the cost of a derivative sum independent of the
    seed while the value still depends on it."""
    rng = random.Random(seed)
    return symchains.TruncatedSeries.of(
        [Fraction(rng.choice((-1, 1)) * (k % 7 + 2), k % 5 + 2) for k in range(order + 1)])


# --- subsets, coding ------------------------------------------------------

def subsets_probe(n: int) -> dict:
    count = 0
    t0 = clock()
    for _ in symchains.all_subsets(n):
        count += 1
    enumerate_s = clock() - t0
    check(count == 1 << n, f"all_subsets({n}) gave {count} subsets")
    sets = list(symchains.all_subsets(n))
    t0 = clock()
    matches = [symchains.match_parens(symchains.word_of(s)) for s in sets]
    match_s = clock() - t0
    for mask, ms in enumerate(matches):
        pairs, rights, lefts = matching(n, mask)
        check(list(ms.matched_pairs) == pairs and list(ms.unmatched_rights) == rights
              and list(ms.unmatched_lefts) == lefts, f"match_parens wrong for mask {mask}")
    return {"subsets.enumerate_s": enumerate_s,
            "subsets.enumerate_per_s": count / enumerate_s,
            "subsets.match_s": match_s}


def coding_probe(n: int) -> dict:
    sets = list(symchains.all_subsets(n))
    t0 = clock()
    codes = [symchains.encode(s) for s in sets]
    encode_s = clock() - t0
    for mask, c in enumerate(codes):
        check(c.entries == code(n, mask), f"encode wrong for mask {mask}")
    return {"coding.encode_s": encode_s, "coding.encode_per_s": len(codes) / encode_s}


# --- boolean: the subset-lattice job --------------------------------------

def chain_set(d) -> set:
    return {tuple(s.elements for s in chain.sets) for chain in d.chains}


def subset_lattice(n: int) -> dict:
    """Build the three decompositions, verify each, and require equal chain
    sets numbering C(n, n//2)."""
    gk, gk_s = timed(symchains.gk_decomposition, n)
    deb, deb_s = timed(symchains.debruijn_decomposition, n)
    prod, prod_s = timed(symchains.iterated_product_scd, n)
    verify_s = 0.0
    for label, d in (("gk", gk), ("debruijn", deb), ("product", prod)):
        rep, secs = timed(symchains.verify_scd, d)
        verify_s += secs
        check(rep.ok, f"verify_scd rejects {label}: {rep.failures[:3]}")
        check(rep.element_count == 1 << n, f"{label} covers {rep.element_count} subsets")
        check(len(d.chains) == comb(n, n // 2), f"{label} has {len(d.chains)} chains")
    check(chain_set(gk) == chain_set(deb) == chain_set(prod), "methods disagree on chains")
    return {"elements": 3 << n,
            "boolean.gk_s": gk_s, "boolean.debruijn_s": deb_s, "boolean.product_s": prod_s,
            "boolean.verify_scd_s": verify_s, "boolean.chains": len(gk.chains)}


# --- partitions: the partition-family job ---------------------------------

def partition_family(n: int) -> dict:
    """Build and verify the chain family on partitions of {1..n+1}."""
    m = n + 1
    fam, build_s = timed(symchains.build_partition_chains, n)
    rep, verify_s = timed(symchains.verify_partition_chains, fam)
    placed = sum(len(chain) for chain in fam.chains)
    check(rep.ok, f"verify_partition_chains fails: {rep.failures[:3]}")
    check(len(fam.chains) == stirling(m, m - n // 2), f"{len(fam.chains)} partition chains")
    check(placed + len(fam.excluded) == bell(m), f"{placed}+{len(fam.excluded)} != Bell({m})")
    check(len(fam.excluded) == FROZEN_PARTITIONS[n]["excluded"],
          f"{len(fam.excluded)} partitions excluded")
    return {"elements": bell(m),
            "partitions.build_s": build_s, "partitions.verify_s": verify_s,
            "partitions.chains": len(fam.chains), "partitions.excluded": len(fam.excluded),
            "partitions.kept_ratio": placed / (placed + len(fam.excluded))}


def partition_kernels(n: int) -> dict:
    """Time class enumeration, class_of and inject over the whole lattice of
    partitions of {1..n+1}, one call per class, partition and link."""
    m = n + 1
    sets = list(symchains.all_subsets(n))
    t0 = clock()
    classes = [symchains.enumerate_class(s) for s in sets]
    enumerate_class_s = clock() - t0
    for mask, parts in enumerate(classes):
        sizes = [e for e in reversed(code(n, mask)) if e]
        check(len(parts) == class_size(sizes), f"class of mask {mask} has {len(parts)} members")
    class_members = sum(len(parts) for parts in classes)
    check(class_members == bell(m), f"classes hold {class_members} partitions")

    everything, enumerate_all_s = timed(lambda: list(symchains.enumerate_all_partitions(m)))
    check(len(everything) == bell(m), f"enumerate_all_partitions gave {len(everything)}")

    flat = [p for parts in classes for p in parts]
    t0 = clock()
    found = [symchains.class_of(p) for p in flat]
    class_of_s = clock() - t0
    owners = [mask for mask, parts in enumerate(classes) for _ in parts]
    check([s.mask() for s in found] == owners, "class_of disagrees with enumerate_class")

    links = [link_positions(code(n, mask)) for mask in range(1 << n)]
    pairs = [(p, i) for p, mask in zip(flat, owners) for i in links[mask]]
    t0 = clock()
    images = [symchains.inject(p, i) for p, i in pairs]
    inject_s = clock() - t0
    check(all(q.block_count == p.block_count - 1 for (p, _), q in zip(pairs, images)),
          "inject did not merge two blocks")
    check(len(pairs) == FROZEN_PARTITIONS[n]["injections"], f"{len(pairs)} injections")
    return {"partitions.enumerate_class_s": enumerate_class_s,
            "partitions.class_of_s": class_of_s, "partitions.inject_s": inject_s,
            "partitions.enumerate_all_s": enumerate_all_s,
            "partitions.class_members": class_members, "partitions.injections": len(pairs)}


# --- identities: the code-sums job ----------------------------------------

def code_sums(n: int, seed: int) -> dict:
    """The three code sums at n (derivative at order n-2), each against its
    oracle; the Bell number also against the Bell triangle."""
    order = n - 2
    g = seeded_series(seed, order)
    b, bell_s = timed(symchains.bell_via_codes, n)
    h, symfun_s = timed(symchains.complete_from_elementary, n)
    d, deriv_s = timed(symchains.derivative_formula, g, order)
    t0 = clock()
    b_oracle = symchains.bell_oracle(n)
    h_oracle = symchains.complete_from_elementary_oracle(n)
    d_oracle = symchains.derivative_oracle(g, order)
    oracles_s = clock() - t0
    check(b == b_oracle == bell(n), f"bell_via_codes({n}) = {b}")
    check(h == h_oracle, f"complete_from_elementary({n}) disagrees with its recurrence")
    check(len(h.terms) == integer_partitions(n), f"h_{n} has {len(h.terms)} monomials")
    check(d == d_oracle, f"derivative_formula order {order} disagrees with the series oracle")
    terms = code_terms(n, order)
    code_s = bell_s + symfun_s + deriv_s
    return {"elements": terms,
            "identities.bell_codes_s": bell_s, "identities.symfun_codes_s": symfun_s,
            "identities.derivative_codes_s": deriv_s, "identities.oracles_s": oracles_s,
            "identities.code_terms": terms, "identities.terms_per_s": terms / code_s}


# --- cli ------------------------------------------------------------------

CLI_ENTRY = "from symchains.cli import main; main()"


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """One CLI command in a fresh interpreter, which inherits this process's
    PYTHONPATH."""
    return subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def _lit(elements: list[int]) -> str:
    return ",".join(map(str, elements)) or "-"


def _dot_counts(out: str) -> tuple[int, int, int, int]:
    """Nodes, dashed nodes, solid edges and all edges of a dot document."""
    lines = [ln.strip() for ln in out.splitlines()]
    edges = [ln for ln in lines if "->" in ln]
    nodes = [ln for ln in lines if ln.startswith('"') and "->" not in ln]
    return (len(nodes), sum("dashed" in ln for ln in nodes),
            sum("style=solid" in ln for ln in edges), len(edges))


def cli_batch(seed: int) -> list[tuple[str, list[str], Callable[[str], None]]]:
    """One valid invocation of each of the 13 subcommands as (name, argv,
    checker).  The seed picks the subsets passed to word, chain, code and
    class; everything else is fixed."""
    rng = random.Random(seed)
    n = 16
    mask = rng.getrandbits(n)
    m7 = rng.getrandbits(7)
    s, s7 = members(n, mask), members(7, m7)

    def word_ok(out: str) -> None:
        lines = out.splitlines()
        pairs, _, _ = matching(n, mask)
        check(lines[0] == word(n, mask), "word text")
        check(lines[1] == "matched: " + " ".join(f"({a},{b})" for a, b in pairs), "word pairs")

    def chain_ok(out: str) -> None:
        check(json.loads(out)["chain"] == chain_through(n, mask), "chain json")

    def code_ok(out: str) -> None:
        check(tuple(json.loads(out)["entries"]) == code(n, mask), "code json")

    def class_ok(out: str) -> None:
        parts = json.loads(out)["partitions"]
        sizes = [e for e in reversed(code(7, m7)) if e]
        check(len(parts) == class_size(sizes), "class size")
        check(all([len(b) for b in p] == sizes and sorted(x for b in p for x in b)
                  == list(range(1, 9)) for p in parts), "class members")
        check(len({str(p) for p in parts}) == len(parts), "class repeats a partition")

    def boolean_dot_ok(out: str) -> None:
        check(_dot_counts(out) == (64, 0, 64 - comb(6, 3), 6 * 32), "decompose-boolean dot")

    def partition_dot_ok(out: str) -> None:
        nodes, dashed, solid, _ = _dot_counts(out)
        check(nodes == bell(5) and nodes - dashed - solid == stirling(5, 3),
              "decompose-partition dot")

    def verify_boolean_ok(out: str) -> None:
        doc = json.loads(out)
        check(doc["ok"] and doc["element_count"] == 4096 and doc["chain_count"] == comb(12, 6),
              "verify-boolean json")

    def verify_partition_ok(out: str) -> None:
        doc = json.loads(out)
        check(doc["ok"] and doc["chain_count"] == stirling(7, 4)
              and doc["element_count"] + doc["excluded"] == bell(7), "verify-partition json")

    def bell_ok(out: str) -> None:
        check(json.loads(out)["value"] == bell(14), "bell json")

    def stirling_ok(out: str) -> None:
        check(out.split() == [str(v) for v in stirling_row(10)], "stirling text")

    def stirling_check_ok(out: str) -> None:
        doc = json.loads(out)
        plain = [[r, k, stirling(r, k), stirling(r, r - k)] for r in range(13)
                 for k in range(1, r // 2 + 1) if stirling(r, k) < stirling(r, r - k)]
        check(doc["monotone_ok"] and doc["shifted_reflection_ok"]
              and doc["reflection_counterexamples"] == plain, "stirling-check json")

    def symfun_ok(out: str) -> None:
        doc = json.loads(out)
        check(doc["oracle_match"] and len(doc["terms"]) == integer_partitions(7), "symfun json")

    def derivative_ok(out: str) -> None:
        lines = out.splitlines()
        check(lines[0] == "bell: " + " ".join(str(bell(k)) for k in range(7))
              and lines[1] == "bell agreement: ok" and lines[2].startswith("seeded agreement: ok"),
              "derivative-check text")

    return [
        ("word", ["word", str(n), _lit(s)], word_ok),
        ("chain", ["chain", str(n), _lit(s), "--format", "json"], chain_ok),
        ("decompose-boolean", ["decompose-boolean", "6", "--method", "debruijn",
                               "--format", "dot"], boolean_dot_ok),
        ("code", ["code", str(n), _lit(s), "-f", "json"], code_ok),
        ("class", ["class", "7", _lit(s7), "--format", "json"], class_ok),
        ("decompose-partition", ["decompose-partition", "4", "--format", "dot"], partition_dot_ok),
        ("verify-boolean", ["verify-boolean", "12", "--method", "product", "--format", "json"],
         verify_boolean_ok),
        ("verify-partition", ["verify-partition", "6", "--format", "json"], verify_partition_ok),
        ("bell", ["bell", "14", "--format", "json"], bell_ok),
        ("stirling", ["stirling", "10"], stirling_ok),
        ("stirling-check", ["stirling-check", "12", "--format", "json"], stirling_check_ok),
        ("symfun", ["symfun", "7", "--check", "--format", "json"], symfun_ok),
        ("derivative-check", ["derivative-check", "6"], derivative_ok),
    ]


def cli_run(seed: int, span=None) -> dict:
    """Spawn every command of the batch once, one at a time.  A command that
    exits nonzero or prints the wrong answer is listed under ``failures``,
    which fails the job after the rest of the batch has run."""
    times, bad = {}, []
    for name, argv, checker in cli_batch(seed):
        calibration.between_steps()
        t0 = clock()
        with span(f"cli.{name}") if span else nullcontext():
            proc = run_cli(argv)
        times[f"cli.command_s.{name}"] = clock() - t0
        try:
            check(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()}")
            checker(proc.stdout)
        except (GateFailure, ValueError, KeyError, IndexError) as exc:
            bad.append(f"{name}: {exc}")
    ok = len(times) - len(bad)
    return {"elements": ok, **times, "cli.exit_ok_ratio": ok / len(times), "failures": bad}
