"""Contract acceptance suite.

One test per criterion, numbered. Each runs under a wall-clock budget
and reports a PASS/FAIL line through the conftest summary hook. The
expected values here are frozen; relaxing them is not an option.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from symchains import (
    all_subsets,
    bell_oracle,
    bell_via_codes,
    build_partition_chains,
    check_stirling_monotone,
    check_stirling_symmetry,
    complete_from_elementary,
    complete_from_elementary_oracle,
    debruijn_decomposition,
    decode,
    derivative_formula,
    derivative_oracle,
    encode,
    enumerate_class,
    exp_minus_one_series,
    gk_decomposition,
    is_valid_code,
    iterated_product_scd,
    link_rewrite,
    match_parens,
    seeded_rational_series,
    verify_partition_chains,
    verify_scd,
)
from symchains.cli import run
from symchains.identities import SERIES_SEEDS

from conftest import record_criterion
from test_coding import all_valid_codes

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)


@contextmanager
def criterion(name, budget):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        record_criterion(name, ok and elapsed <= budget, elapsed)
    if elapsed > budget:
        pytest.fail(f"{name}: {elapsed:.2f}s over the {budget}s budget")


def test_criterion_01_golden_table(capsys):
    with criterion("1 golden 3-element table", 1.0):
        assert run(["decompose-boolean", "3"]) == 0
        bool_lines = capsys.readouterr().out.splitlines()
        assert bool_lines == [
            "- < 1 < 1,2 < 1,2,3",
            "2 < 2,3",
            "3 < 1,3",
        ]

        d = gk_decomposition(3)
        flat = [s for chain in d.chains for s in chain.sets]
        assert len(flat) == 8
        assert [encode(s).compact() for s in flat] == [
            "1111", "0211", "0031", "0004", "1021", "1003", "1102", "0202",
        ]

        table = {
            "1111": ["1/2/3/4"],
            "0211": ["1/2/3,4"],
            "0031": ["1/2,3,4"],
            "0004": ["1,2,3,4"],
            "1021": ["1/2,3/4", "1/2,4/3"],
            "1003": ["1,2,3/4", "1,2,4/3", "1,3,4/2"],
            "1102": ["1,2/3/4", "1,3/2/4", "1,4/2/3"],
            "0202": ["1,2/3,4", "1,3/2,4", "1,4/2,3"],
        }
        for s in flat:
            column = [p.literal() for p in enumerate_class(s)]
            assert column == table[encode(s).compact()]

        assert run(["decompose-partition", "3"]) == 0
        part_lines = capsys.readouterr().out.splitlines()
        assert part_lines == [
            "1/2/3/4 < 1/2/3,4 < 1/2,3,4 < 1,2,3,4",
            "1/2,3/4 < 1,2,3/4",
            "1/2,4/3 < 1,2,4/3",
            "1,2/3/4 < 1,2/3,4",
            "1,3/2/4 < 1,3/2,4",
            "1,4/2/3 < 1,4/2,3",
            "excluded: 1,3,4/2",
        ]


def test_criterion_02_golden_chain(capsys):
    with criterion("2 golden 10-element chain", 1.0):
        assert run(["chain", "10", "1,3,4,8,9"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "3,8,9",
            "1,3,8,9",
            "1,3,4,8,9",
            "1,3,4,5,8,9",
            "1,3,4,5,8,9,10",
        ]
        pairs = match_parens(")())((())(").matched_pairs
        assert set(pairs) == {(2, 3), (7, 8), (6, 9)}


def test_criterion_03_method_agreement():
    with criterion("3 construction methods agree, n <= 12", 30.0):
        for n in range(13):
            key = lambda d: {tuple(s.elements for s in c.sets) for c in d.chains}
            gk = gk_decomposition(n)
            built = key(gk)
            for method in (debruijn_decomposition, iterated_product_scd):
                d = method(n)
                assert key(d) == built
                assert d == gk  # chain order included


def test_criterion_04_boolean_verifier():
    with criterion("4 verified decompositions, n <= 16", 120.0):
        for n in range(17):
            rep = verify_scd(gk_decomposition(n))
            assert rep.ok, (n, rep.failures[:3])
            assert rep.element_count == 2**n
            assert rep.chain_count == comb(n, n // 2)


def test_criterion_05_coding_suite():
    with criterion("5 coding suite, n <= 14", 60.0):
        for n in range(15):
            count = 0
            image = set()
            for s in all_subsets(n):
                c = encode(s)
                assert is_valid_code(c.entries)
                assert decode(c) == s
                count += 1
                image.add(c.entries)
            assert count == 2**n
            assert image == set(all_valid_codes(n))
        for n in range(13):
            for chain in gk_decomposition(n).chains:
                for lo, hi in zip(chain.sets, chain.sets[1:]):
                    (added,) = set(hi.elements) - set(lo.elements)
                    assert link_rewrite(encode(lo), added) == encode(hi)


def test_criterion_06_partition_family():
    with criterion("6 partition chain family, n <= 8", 120.0):
        expected_counts = {3: 6, 4: 25}
        for n in range(9):
            fam = build_partition_chains(n)
            rep = verify_partition_chains(fam)
            assert rep.ok, (n, rep.failures[:3])
            if n in expected_counts:
                assert rep.chain_count == expected_counts[n]


def test_criterion_07_classes_partition_lattice():
    with criterion("7 classes partition the lattice, m <= 9", 60.0):
        for m in range(1, 10):
            total = 0
            union = set()
            for s in all_subsets(m - 1):
                members = enumerate_class(s)
                total += len(members)
                union.update(members)
            assert total == bell_oracle(m)
            assert len(union) == total  # pairwise disjoint


def test_criterion_08_bell_identity():
    with criterion("8 Bell numbers from codes, n <= 20", 30.0):
        for n in range(1, 21):
            assert bell_via_codes(n) == bell_oracle(n)


def test_criterion_09_symmetric_function_identity():
    with criterion("9 signed expansion of h_n, n <= 8", 30.0):
        points = (
            (Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 7),
             Fraction(-3), Fraction(1, 5), Fraction(4, 3), Fraction(-2, 9)),
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1),
             Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(-7, 2), Fraction(0), Fraction(3, 4), Fraction(6),
             Fraction(-1, 8), Fraction(2, 3), Fraction(-5), Fraction(9, 11)),
        )
        for xs in points:
            e = [Fraction(1)] + [Fraction(0)] * 8
            h = [Fraction(1)] + [Fraction(0)] * 8
            for x in xs:
                for d in range(8, 0, -1):
                    e[d] += x * e[d - 1]
            for x in xs:
                for d in range(1, 9):
                    h[d] += x * h[d - 1]
            values = {i: e[i] for i in range(1, 9)}
            for n in range(1, 9):
                expansion = complete_from_elementary(n)
                assert expansion == complete_from_elementary_oracle(n)
                assert expansion.evaluate(values) == h[n]


def test_criterion_10_derivative_formula():
    with criterion("10 derivative formula vs series oracle, n <= 10", 30.0):
        g = exp_minus_one_series(10)
        for n in range(11):
            value = derivative_formula(g, n)
            assert value == derivative_oracle(g, n)
            assert value == BELL[n]
        assert len(SERIES_SEEDS) == 5
        for seed in SERIES_SEEDS:
            r = seeded_rational_series(seed, 10)
            for n in range(11):
                assert derivative_formula(r, n) == derivative_oracle(r, n)


def test_criterion_11_inequality_audit():
    with criterion("11 Stirling inequality audit, n <= 15", 5.0):
        for n in range(16):
            assert check_stirling_monotone(n).ok
        audit5 = check_stirling_symmetry(5)
        assert not audit5.reflection_ok
        assert (2, 15, 25) in audit5.reflection_counterexamples
        for n in range(16):
            assert check_stirling_symmetry(n).shifted_ok
