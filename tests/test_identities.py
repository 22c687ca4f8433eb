"""Stirling/Bell numbers, the two printed inequalities, the signed
symmetric-function expansion, and the derivative formula.

Brute-force sides: partition counts from enumerate_all_partitions (never
the recurrence), the Newton-style alternating recurrence for h_n, and
exact series arithmetic for derivatives. The identity under test is
always computed the other way, from codes.
"""

import inspect
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from symchains import (
    CeilingExceeded,
    GeneratorPolynomial,
    Subset,
    TruncatedSeries,
    all_subsets,
    bell_oracle,
    bell_via_codes,
    check_stirling_monotone,
    check_stirling_symmetry,
    complete_from_elementary,
    complete_from_elementary_oracle,
    derivative_formula,
    derivative_oracle,
    encode,
    enumerate_all_partitions,
    exp_minus_one_series,
    seeded_rational_series,
    stirling_table,
)
from symchains import identities
from symchains.identities import (
    DEFAULT_STIRLING_CEILING,
    DEFAULT_STIRLING_TABLE_CEILING,
    SERIES_SEEDS,
    _codes,
    _head_length,
    _monomial_keys,
    _monomial_of_key,
    _weighted_code_sum,
)

from code_sums import check_code_sums, reference_weighted_code_sum

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)


def brute_stirling(m):
    """Row m of the Stirling triangle, counted one partition at a time."""
    row = [0] * (m + 1)
    for p in enumerate_all_partitions(m):
        row[p.block_count] += 1
    return tuple(row)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

# Small polynomials in a1..a4 whose coefficients, in -3..3, often cancel;
# the keys are given unsorted and may repeat once sorted.
small_polynomials = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(tuple),
    st.integers(min_value=-3, max_value=3), max_size=5).map(GeneratorPolynomial)


def series_strategy(min_order=1, max_order=6, zero_constant=False):
    head = st.just(Fraction(0)) if zero_constant else small_fractions
    return st.integers(min_value=min_order, max_value=max_order).flatmap(
        lambda k: st.tuples(head, *[small_fractions] * k).map(TruncatedSeries.of)
    )


# Every identity entry point that takes a size, as a call on the size alone.
SIZED = [
    ("bell_oracle", bell_oracle),
    ("stirling_table", stirling_table),
    ("bell_via_codes", bell_via_codes),
    ("complete_from_elementary", complete_from_elementary),
    ("complete_from_elementary_oracle", complete_from_elementary_oracle),
    ("exp_minus_one_series", exp_minus_one_series),
    ("derivative_formula", lambda n: derivative_formula(exp_minus_one_series(4), n)),
    ("derivative_oracle", lambda n: derivative_oracle(exp_minus_one_series(4), n)),
    ("check_stirling_monotone", check_stirling_monotone),
    ("check_stirling_symmetry", check_stirling_symmetry),
    ("seeded_rational_series", lambda n: seeded_rational_series(7, n)),
]


@pytest.mark.parametrize("size", [True, 2.0])
@pytest.mark.parametrize("call", [call for _, call in SIZED], ids=[name for name, _ in SIZED])
def test_sizes_must_be_integers(call, size):
    # True would pass for 1, and 2.0 would fail later with TypeError.
    with pytest.raises(ValueError, match=f"^expected an integer, got {size!r}$"):
        call(size)
    call(2)


@pytest.mark.parametrize("order", [-1, -3])
@pytest.mark.parametrize("call", [exp_minus_one_series, lambda order: seeded_rational_series(7, order)],
                         ids=["exp_minus_one_series", "seeded_rational_series"])
def test_series_order_must_be_nonnegative(call, order):
    # exp_minus_one_series(-3) gave the order-0 series, and
    # seeded_rational_series(7, -1) failed on an empty coefficient list.
    with pytest.raises(ValueError, match=f"^series order must be nonnegative, got {order}$"):
        call(order)
    assert call(0).order == 0


class TestStirlingTable:
    def test_goldens(self):
        t = stirling_table(5)
        assert t.value(4, 2) == 7
        assert t.value(5, 3) == 25
        assert t.value(5, 2) == 15
        assert t.row(5) == (0, 1, 15, 25, 10, 1)
        assert t.row(0) == (1,)

    def test_outside_range_is_zero(self):
        t = stirling_table(4)
        assert t.value(4, 5) == 0
        assert t.value(3, -1) == 0
        assert t.value(0, 0) == 1

    def test_rejects_missing_row(self):
        with pytest.raises(ValueError):
            stirling_table(3).row(4)

    def test_matches_partition_counts(self):
        for m in range(1, 9):
            assert stirling_table(m).row(m) == brute_stirling(m)

    def test_ceiling(self):
        assert stirling_table(5, ceiling=5).row(5) == (0, 1, 15, 25, 10, 1)
        for build in (stirling_table, bell_oracle, check_stirling_monotone,
                      check_stirling_symmetry):
            with pytest.raises(CeilingExceeded):
                build(6, ceiling=5)

    def test_held_table_has_its_own_ceiling(self, monkeypatch):
        # Holding rows 0..2000 peaks at 1,664 MB; the jobs that read a row
        # and hold two keep the higher default.
        assert DEFAULT_STIRLING_TABLE_CEILING < DEFAULT_STIRLING_CEILING
        for stream in (bell_oracle, check_stirling_monotone, check_stirling_symmetry):
            assert inspect.signature(stream).parameters["ceiling"].default == DEFAULT_STIRLING_CEILING

        def no_row(prev, n):
            raise AssertionError("a row was built")

        monkeypatch.setattr(identities, "_next_row", no_row)
        with pytest.raises(CeilingExceeded):
            stirling_table(DEFAULT_STIRLING_TABLE_CEILING + 1)


class TestBell:
    def test_oracle_goldens(self):
        assert bell_oracle(3) == 5
        assert bell_oracle(10) == 115975
        assert [bell_oracle(k) for k in range(11)] == list(BELL)

    def test_oracle_counts_partitions(self):
        for m in range(1, 9):
            assert bell_oracle(m) == sum(1 for _ in enumerate_all_partitions(m))

    def test_codes_identity_small_terms(self):
        # over the four subsets of {1,2} the products are 1, 1, 2, 1
        terms = []
        for s in all_subsets(2):
            e = encode(s).entries
            prod = 1
            for i in range(1, 4):
                if e[i - 1]:
                    prod *= comb(i - 1, e[i - 1] - 1)
            terms.append(prod)
        assert sorted(terms) == [1, 1, 1, 2]
        assert bell_via_codes(3) == 5

    def test_codes_identity_matches_oracle(self):
        for n in range(13):
            assert bell_via_codes(n) == bell_oracle(n)
        with pytest.raises(ValueError, match="nonnegative"):
            bell_via_codes(-1)


class TestStirlingInequalities:
    def test_monotone_goldens(self):
        rep = check_stirling_monotone(4)
        assert rep.ok and rep.element_count == 2
        rep = check_stirling_monotone(6)
        assert rep.ok and rep.element_count == 3

    def test_monotone_holds_widely(self):
        for n in range(16):
            assert check_stirling_monotone(n).ok

    def test_printed_reflection_fails_from_three_up(self):
        for n in range(3):
            audit = check_stirling_symmetry(n)
            assert audit.reflection_ok and audit.shifted_ok
        for n in range(3, 13):
            audit = check_stirling_symmetry(n)
            assert not audit.reflection_ok
            # k=1 always witnesses: 1 = S(n,1) < S(n,n-1) = C(n,2)
            assert audit.reflection_counterexamples[0] == (1, 1, comb(n, 2))

    def test_five_two_counterexample(self):
        audit = check_stirling_symmetry(5)
        assert (2, 15, 25) in audit.reflection_counterexamples

    def test_shifted_form_holds(self):
        for n in range(16):
            audit = check_stirling_symmetry(n)
            assert audit.shifted_ok
            assert audit.shifted_counterexamples == ()

    def test_shifted_checks_the_right_pairs(self):
        # n=5: S(5,1) >= S(5,5), S(5,2) >= S(5,4), S(5,3) >= S(5,3)
        t = stirling_table(5)
        for k in range(1, 4):
            assert t.value(5, k) >= t.value(5, 5 - k + 1)


class TestGeneratorPolynomial:
    def test_str_formatting(self):
        a1 = GeneratorPolynomial.monomial([1])
        a2 = GeneratorPolynomial.monomial([2])
        assert str(a1 * a1 * a1 - (a1 * a2).scaled(2) + GeneratorPolynomial.monomial([3])) \
            == "a1^3 - 2*a1*a2 + a3"
        assert str(GeneratorPolynomial.zero()) == "0"
        assert str(GeneratorPolynomial.one()) == "1"

    def test_ring_identities(self):
        a1 = GeneratorPolynomial.monomial([1])
        a2 = GeneratorPolynomial.monomial([2])
        square = (a1 + a2) * (a1 + a2)
        assert square == a1 * a1 + (a1 * a2).scaled(2) + a2 * a2
        assert square - square == GeneratorPolynomial.zero()
        assert a1 * GeneratorPolynomial.one() == a1
        assert hash(a1 + a2) == hash(a2 + a1)

    @given(small_polynomials, small_polynomials, st.integers(min_value=-3, max_value=3))
    def test_arithmetic_is_canonical(self, p, q, k):
        # The arithmetic builds its results without re-sorting their keys;
        # each must be what the public constructor makes of its terms.
        for r in (p + q, p - q, p * q, p.scaled(k)):
            rebuilt = GeneratorPolynomial(r.terms)
            assert r == rebuilt
            assert repr(r) == repr(rebuilt)
            assert all(r.terms.values())
            assert all(list(mono) == sorted(mono) for mono in r.terms)

    def test_evaluate(self):
        p = GeneratorPolynomial.monomial([1, 1]) - GeneratorPolynomial.monomial([2])
        vals = {1: Fraction(3, 2), 2: Fraction(1, 4)}
        assert p.evaluate(vals) == Fraction(9, 4) - Fraction(1, 4)


class TestCompleteFromElementary:
    def test_goldens(self):
        assert str(complete_from_elementary(1)) == "a1"
        assert str(complete_from_elementary(2)) == "a1^2 - a2"
        assert str(complete_from_elementary(3)) == "a1^3 - 2*a1*a2 + a3"
        assert str(complete_from_elementary(4)) == "a1^4 - 3*a1^2*a2 + 2*a1*a3 + a2^2 - a4"

    def test_oracle_goldens(self):
        assert str(complete_from_elementary_oracle(2)) == "a1^2 - a2"
        assert str(complete_from_elementary_oracle(4)) == "a1^4 - 3*a1^2*a2 + 2*a1*a3 + a2^2 - a4"

    def test_matches_oracle(self):
        for n in range(1, 9):
            assert complete_from_elementary(n) == complete_from_elementary_oracle(n)

    @pytest.mark.parametrize("n", [1, 25, 40])
    def test_monomial_keys_round_trip(self, n):
        # All ones puts n in digit 1; n - 1 zeros then n puts n - 1 in the
        # zeros digit and 1 in the top one, the largest key of order n.
        for entries in ((1,) * n, (0,) * (n - 1) + (n,)):
            (key,) = _monomial_keys([entries], n)
            assert _monomial_of_key(key, n) == (entries.count(0), tuple(sorted(filter(None, entries))))

    def test_evaluates_to_complete_homogeneous(self):
        # independent check in 6 variables: expand e_i and h_i directly
        xs = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 7),
              Fraction(-3), Fraction(1, 5)]
        upto = 6
        e = [Fraction(1)] + [Fraction(0)] * upto
        h = [Fraction(1)] + [Fraction(0)] * upto
        for x in xs:
            for d in range(upto, 0, -1):
                e[d] += x * e[d - 1]
        for x in xs:
            for d in range(1, upto + 1):
                h[d] += x * h[d - 1]
        values = {i: e[i] for i in range(1, upto + 1)}
        for n in range(1, upto + 1):
            assert complete_from_elementary(n).evaluate(values) == h[n]


class TestTruncatedSeries:
    def test_construction_and_order(self):
        f = TruncatedSeries.of([1, 2, 3])
        assert f.order == 2
        assert f.coefficients == (Fraction(1), Fraction(2), Fraction(3))

    def test_derivative_at_center(self):
        f = TruncatedSeries.of([5, 7, Fraction(3, 2), Fraction(1, 6)])
        assert f.derivative_at_center(0) == 5
        assert f.derivative_at_center(1) == 7
        assert f.derivative_at_center(2) == 3
        assert f.derivative_at_center(3) == 1
        with pytest.raises(ValueError):
            f.derivative_at_center(4)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.of([1, 1]).exp()

    def test_exp_minus_one(self):
        g = exp_minus_one_series(8)
        assert g.coefficients == tuple(
            Fraction(0) if k == 0 else Fraction(1, factorial(k)) for k in range(9))

    @settings(max_examples=60)
    @given(series_strategy(zero_constant=True), series_strategy(zero_constant=True))
    def test_exp_is_a_homomorphism(self, f, g):
        k = min(f.order, g.order)
        cut = lambda s: TruncatedSeries.of(s.coefficients[:k + 1])
        lhs = (cut(f) + cut(g)).exp()
        assert lhs == cut(f).exp() * cut(g).exp()

    @settings(max_examples=60)
    @given(series_strategy(zero_constant=True))
    def test_exp_solves_its_ode(self, f):
        e = f.exp()
        assert e.derivative() == f.derivative() * TruncatedSeries.of(e.coefficients[:f.order])

    def test_seeded_series_are_deterministic(self):
        a = seeded_rational_series(1101, 10)
        b = seeded_rational_series(1101, 10)
        assert a == b
        assert a != seeded_rational_series(1202, 10)
        assert a.order == 10


class TestDerivativeFormula:
    def test_bell_specialization(self):
        g = exp_minus_one_series(10)
        assert derivative_formula(g, 3) == 5
        values = [derivative_formula(g, k) for k in range(11)]
        assert values == [Fraction(b) for b in BELL]

    def test_two_three_golden(self):
        g = TruncatedSeries.of([0, 2, Fraction(3, 2)])
        assert derivative_formula(g, 2) == 7
        assert derivative_oracle(g, 2) == 7

    def test_matches_oracle_on_bell_series(self):
        g = exp_minus_one_series(10)
        for k in range(11):
            assert derivative_formula(g, k) == derivative_oracle(g, k)

    def test_matches_oracle_on_seeded_series(self):
        for seed in (1101, 1202, 1303):
            g = seeded_rational_series(seed, 8)
            for k in range(9):
                assert derivative_formula(g, k) == derivative_oracle(g, k)

    @settings(max_examples=40)
    @given(series_strategy(min_order=3, max_order=6))
    def test_matches_oracle_on_random_series(self, g):
        for k in range(g.order + 1):
            assert derivative_formula(g, k) == derivative_oracle(g, k)

    def test_degenerate_orders(self):
        g = TruncatedSeries.of([4])
        assert derivative_formula(g, 0) == 1
        assert derivative_oracle(g, 0) == 1


class TestCodeSumCeiling:
    """Each code sum runs at an explicit ceiling on n and refuses one past it."""

    @pytest.mark.parametrize("k", [1, 5])
    def test_bell(self, k):
        assert bell_via_codes(k, ceiling=k) == BELL[k]
        with pytest.raises(CeilingExceeded):
            bell_via_codes(k + 1, ceiling=k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_complete_from_elementary(self, k):
        assert complete_from_elementary(k, ceiling=k) == complete_from_elementary_oracle(k)
        with pytest.raises(CeilingExceeded):
            complete_from_elementary(k + 1, ceiling=k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_derivative_formula(self, k):
        g = seeded_rational_series(1101, 8)
        assert derivative_formula(g, k, ceiling=k) == derivative_oracle(g, k)
        with pytest.raises(CeilingExceeded):
            derivative_formula(g, k + 1, ceiling=k)


# The three code sums, as a call on the order n >= 1 alone.
CODE_SUMS = [
    ("bell_via_codes", bell_via_codes),
    ("complete_from_elementary", complete_from_elementary),
    ("derivative_formula", lambda n: derivative_formula(seeded_rational_series(1101, n), n)),
]


@pytest.mark.parametrize("call", [call for _, call in CODE_SUMS], ids=[name for name, _ in CODE_SUMS])
def test_one_encode_per_term(monkeypatch, call):
    # The code-sums benchmark counts these calls against the number of terms.
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        return encode(s)

    monkeypatch.setattr(identities, "encode", counted)
    for n in range(1, 11):
        calls = 0
        call(n)
        assert calls == 2 ** (n - 1), n


class TestKernelsAgainstReferences:
    """The memoised kernels against the per-term ones in ``code_sums``."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_code_sums(self, n):
        check_code_sums(n, n)

    @pytest.mark.parametrize("seed", SERIES_SEEDS)
    def test_seeded_weights(self, seed):
        g = seeded_rational_series(seed, 14)
        for n in range(1, 15):
            assert _weighted_code_sum(n, n, g.derivative_at_center) == \
                reference_weighted_code_sum(n, g.derivative_at_center)

    def test_heads_and_tails_meet_their_bound(self):
        # Each memo holds one product per distinct run of entries, and the
        # runs meet the bound exactly.
        assert _head_length(18) == 10
        for n in range(1, 15):
            h = _head_length(n)
            codes = list(_codes(n, n))
            assert len({c[:h] for c in codes}) == 2 ** h
            assert len({c[h:] for c in codes}) == (h + 1) * 2 ** (n - 1 - h)
