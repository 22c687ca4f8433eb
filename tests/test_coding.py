"""Set coding: encode/decode, validity, nonzero profile, link rewrite.

The oracle here is all_valid_codes, an enumerator written directly from
the validity condition: at each position the entry is either 0 or the
single value that completes the prefix sum, and the last entry must be
nonzero. It shares no code with the library's encoder.
"""

import pytest
from hypothesis import given, strategies as st

from symchains import (
    Code,
    Subset,
    all_subsets,
    code_from_nonzeros,
    decode,
    encode,
    gk_decomposition,
    is_valid_code,
    link_rewrite,
    nonzeros,
)

LONG_SET = Subset.of(20, [1, 2, 3, 7, 11, 12, 16, 18, 19])
LONG_CODE = (0, 0, 0, 4, 1, 1, 0, 2, 1, 1, 0, 0, 3, 1, 1, 0, 2, 0, 0, 3, 1)

# codes of the n=3 subsets in mask order -, 1, 2, 12, 3, 13, 23, 123
N3_CODES = {
    (): (1, 1, 1, 1),
    (1,): (0, 2, 1, 1),
    (2,): (1, 0, 2, 1),
    (1, 2): (0, 0, 3, 1),
    (3,): (1, 1, 0, 2),
    (1, 3): (0, 2, 0, 2),
    (2, 3): (1, 0, 0, 3),
    (1, 2, 3): (0, 0, 0, 4),
}


def reference_encode(s):
    """The code of ``s`` by a membership test at every position 1..n+1:
    0 at a member, otherwise the distance back to the last non-member."""
    members = set(s.elements)
    entries = []
    total = 0
    for i in range(1, s.n + 2):
        if i in members:
            entries.append(0)
        else:
            entries.append(i - total)
            total = i
    return tuple(entries)


def all_valid_codes(n):
    """Every valid length-(n+1) code, by the two-branch construction."""
    codes = [((), 0)]
    for i in range(1, n + 2):
        step = []
        for prefix, total in codes:
            forced = i - total
            step.append((prefix + (forced,), i))
            if i <= n:
                step.append((prefix + (0,), total))
        codes = step
    return [c for c, _ in codes]


class TestValidity:
    def test_golden_cases(self):
        assert is_valid_code((0, 2, 0, 2))
        assert not is_valid_code((1, 2, 1))
        assert not is_valid_code((1, 1, 0))
        assert not is_valid_code(())

    def test_oracle_agrees_with_predicate(self):
        # the enumerator and the predicate must carve out the same set
        for n in range(7):
            from itertools import product

            brute = [v for v in product(range(n + 2), repeat=n + 1) if is_valid_code(v)]
            assert sorted(brute) == sorted(all_valid_codes(n))

    def test_code_constructor_enforces_validity(self):
        with pytest.raises(ValueError):
            Code(2, (1, 2, 1))
        with pytest.raises(ValueError):
            Code(3, (1, 1, 1))  # wrong length

    @pytest.mark.parametrize("n, entries", [(2.0, (0, 2, 1)), (True, (1, 1))])
    def test_code_refuses_a_non_integer_ground_size(self, n, entries):
        with pytest.raises(ValueError, match=f"^expected an integer, got {n!r}$"):
            Code(n, entries)


class TestEncodeDecode:
    def test_n3_table(self):
        for els, entries in N3_CODES.items():
            c = encode(Subset.of(3, els))
            assert c.entries == entries
            assert decode(c) == Subset.of(3, els)

    def test_long_golden(self):
        c = encode(LONG_SET)
        assert c.entries == LONG_CODE
        assert decode(c) == LONG_SET

    def test_compact_and_literal(self):
        c = encode(Subset.of(3, [2]))
        assert c.literal() == "(1,0,2,1)"
        assert c.compact() == "1021"

    def test_compact_rejects_wide_entries(self):
        c = encode(Subset.of(12, range(1, 13)))
        assert c.entries[-1] == 13
        with pytest.raises(ValueError):
            c.compact()

    @given(st.integers(min_value=0, max_value=11).flatmap(
        lambda n: st.sets(st.integers(min_value=1, max_value=max(n, 1))).map(
            lambda els: Subset.of(n, [e for e in els if e <= n])
        )
    ))
    def test_roundtrip_and_sum(self, s):
        c = encode(s)
        assert is_valid_code(c.entries)
        assert decode(c) == s
        assert sum(c.entries) == s.n + 1

    def test_carries_equal_the_membership_reference(self):
        for n in range(13):
            for s in all_subsets(n):
                c = encode(s)
                assert c.entries == reference_encode(s)
                assert is_valid_code(c.entries)

    @given(st.integers(min_value=0, max_value=64).flatmap(
        lambda n: st.sets(st.integers(min_value=1, max_value=max(n, 1))).map(
            lambda els: Subset.of(n, [e for e in els if e <= n])
        )
    ))
    def test_carries_equal_the_reference_up_to_64(self, s):
        c = encode(s)
        assert c.entries == reference_encode(s)
        assert c == Code(s.n, c.entries)

    def test_bijective_onto_valid_codes(self):
        for n in range(9):
            image = {encode(s).entries for s in all_subsets(n)}
            assert len(image) == 2**n
            assert image == set(all_valid_codes(n))


class TestNonzeros:
    def test_goldens(self):
        assert nonzeros(Code(3, (1, 0, 2, 1))) == (1, 2, 1)
        assert nonzeros(Code(3, (0, 0, 0, 4))) == (4,)
        assert nonzeros(Code(3, (1, 1, 1, 1))) == (1, 1, 1, 1)

    def test_reconstruction_goldens(self):
        assert code_from_nonzeros((1, 2, 1)).entries == (1, 0, 2, 1)
        assert code_from_nonzeros((4,)).entries == (0, 0, 0, 4)
        assert code_from_nonzeros((2, 1)).entries == (0, 2, 1)

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            code_from_nonzeros(())
        with pytest.raises(ValueError):
            code_from_nonzeros((0, 1))

    def test_mutual_inverse(self):
        for n in range(9):
            for entries in all_valid_codes(n):
                c = Code(n, tuple(entries))
                assert code_from_nonzeros(nonzeros(c)) == c


class TestLinkRewrite:
    def test_goldens(self):
        assert link_rewrite(Code(3, (1, 0, 2, 1)), 3).entries == (1, 0, 0, 3)
        assert link_rewrite(Code(3, (1, 1, 1, 1)), 1).entries == (0, 2, 1, 1)
        assert link_rewrite(Code(3, (0, 2, 1, 1)), 2).entries == (0, 0, 3, 1)

    def test_rewrite_needs_no_chain_context(self):
        # the precondition is local to the entries: (1,1,1,1) at i=2 is a
        # legal rewrite even though no bracket chain adds 2 to the empty set
        assert link_rewrite(Code(3, (1, 1, 1, 1)), 2).entries == (1, 0, 2, 1)

    def test_rejects_non_links(self):
        with pytest.raises(ValueError):
            link_rewrite(Code(3, (1, 1, 0, 2)), 2)  # follower entry is 0
        with pytest.raises(ValueError):
            link_rewrite(Code(3, (0, 2, 1, 1)), 1)  # k must be >= 1
        with pytest.raises(ValueError):
            link_rewrite(Code(3, (1, 1, 1, 1)), 4)  # no position n+2

    @pytest.mark.parametrize("i", [1.0, True])
    def test_refuses_a_non_integer_position(self, i):
        with pytest.raises(ValueError, match=f"^expected an integer, got {i!r}$"):
            link_rewrite(Code(3, (1, 1, 1, 1)), i)

    def test_every_gk_link_is_one_rewrite(self):
        # chain steps and code rewrites are the same move, n <= 9 here
        # (the acceptance suite pushes this to 12)
        for n in range(10):
            for chain in gk_decomposition(n).chains:
                for lo, hi in zip(chain.sets, chain.sets[1:]):
                    (added,) = set(hi.elements) - set(lo.elements)
                    assert link_rewrite(encode(lo), added) == encode(hi)
                    lo_e, hi_e = encode(lo).entries, encode(hi).entries
                    diffs = [i for i in range(n + 1) if lo_e[i] != hi_e[i]]
                    assert diffs == [added - 1, added]
                    k = lo_e[added - 1]
                    assert lo_e[added] == 1 and k >= 1
                    assert hi_e[added - 1] == 0 and hi_e[added] == k + 1
