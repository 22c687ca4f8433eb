"""Subsets, parenthesis words, and bracket matching."""

import pytest
from hypothesis import given, strategies as st

from symchains import CeilingExceeded, MatchStructure, Subset, all_subsets, match_parens, word_of
from symchains.subsets import LEFT, RIGHT, _members, check_ground_size


def subset_strategy(max_n=14):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=max(n, 1)), unique=True).map(
            lambda els: Subset.of(n, [e for e in els if e <= n])
        )
    )


def bit_members(n, mask):
    """The members of ``mask`` by testing its bits one at a time."""
    return tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)


class TestSubset:
    def test_of_sorts_and_validates(self):
        s = Subset.of(5, [4, 1, 3])
        assert s.elements == (1, 3, 4)
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert list(s) == [1, 3, 4]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Subset.of(5, [0])
        with pytest.raises(ValueError):
            Subset.of(5, [6])
        with pytest.raises(ValueError):
            Subset.of(3, [2, 2])

    @pytest.mark.parametrize("elements, e", [((0,), 0), ((-2,), -2), ((0, 1), 0), ((-5, 2), -5)])
    def test_element_below_one_is_outside_the_ground_set(self, elements, e):
        with pytest.raises(ValueError, match=f"^element {e} outside ground set 1..3$"):
            Subset(3, elements)
        with pytest.raises(ValueError, match=f"^element {e} outside ground set 1..3$"):
            Subset.of(3, elements)

    @pytest.mark.parametrize("elements", [(1.5,), (True, 2), (1.0, 2)])
    def test_refuses_non_integer_elements(self, elements):
        with pytest.raises(ValueError, match=f"^expected an integer, got {elements[0]!r}$"):
            Subset(3, elements)

    def test_ground_size_bounds(self):
        check_ground_size(0)
        check_ground_size(64)
        with pytest.raises(ValueError):
            check_ground_size(-1)
        with pytest.raises(ValueError):
            check_ground_size(65)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_refuses_a_non_integer_ground_size(self, n):
        with pytest.raises(ValueError, match=f"^expected an integer, got {n!r}$"):
            Subset(n, (1,))
        with pytest.raises(ValueError, match=f"^expected an integer, got {n!r}$"):
            check_ground_size(n)

    def test_from_mask_checks_its_range(self):
        for mask in (-1, 16):
            with pytest.raises(ValueError, match="out of range"):
                Subset.from_mask(4, mask)

    @pytest.mark.parametrize("n, mask, bad", [(3, True, True), (3, 1.0, 1.0), (2.0, 1, 2.0)])
    def test_from_mask_refuses_non_integers(self, n, mask, bad):
        with pytest.raises(ValueError, match=f"^expected an integer, got {bad!r}$"):
            Subset.from_mask(n, mask)

    def test_literal_empty_set(self):
        assert Subset.of(4, []).literal() == "-"
        assert Subset.from_literal(4, "-").elements == ()
        assert Subset.from_literal(4, "").elements == ()

    def test_literal_rejects_repeats(self):
        with pytest.raises(ValueError):
            Subset.from_literal(4, "2,2")

    def test_with_element(self):
        s = Subset.of(4, [2])
        assert s.with_element(3).elements == (2, 3)
        with pytest.raises(ValueError):
            s.with_element(2)

    @given(subset_strategy())
    def test_literal_roundtrip(self, s):
        assert Subset.from_literal(s.n, s.literal()) == s

    @given(subset_strategy())
    def test_mask_roundtrip(self, s):
        assert Subset.from_mask(s.n, s.mask()) == s


class TestWords:
    def test_word_golden(self):
        s = Subset.of(10, [1, 3, 4, 8, 9])
        assert word_of(s) == ")())((())("

    @given(subset_strategy())
    def test_word_roundtrip(self, s):
        w = word_of(s)
        assert len(w) == s.n
        # RIGHT marks membership
        for i in range(1, s.n + 1):
            assert (w[i - 1] == RIGHT) == (i in s)


class TestMatching:
    def test_golden_matching(self):
        m = match_parens(")())((())(")
        assert m.matched_pairs == ((2, 3), (6, 9), (7, 8))
        assert m.unmatched_rights == (1, 4)
        assert m.unmatched_lefts == (5, 10)

    def test_empty_word(self):
        assert match_parens("") == MatchStructure((), (), ())

    @given(subset_strategy())
    def test_matching_partitions_positions(self, s):
        w = word_of(s)
        m = match_parens(w)
        seen = []
        for a, b in m.matched_pairs:
            assert a < b
            assert w[a - 1] == LEFT and w[b - 1] == RIGHT
            seen.extend((a, b))
        seen.extend(m.unmatched_rights)
        seen.extend(m.unmatched_lefts)
        assert sorted(seen) == list(range(1, s.n + 1))
        for p in m.unmatched_rights:
            assert w[p - 1] == RIGHT
        for p in m.unmatched_lefts:
            assert w[p - 1] == LEFT
        # an unmatched left before an unmatched right would have matched
        if m.unmatched_rights and m.unmatched_lefts:
            assert max(m.unmatched_rights) < min(m.unmatched_lefts)

    @given(subset_strategy())
    def test_pairs_nest(self, s):
        pairs = match_parens(word_of(s)).matched_pairs
        for a, b in pairs:
            for c, d in pairs:
                if a < c:
                    assert d < b or b < c


class TestEnumeration:
    def test_count_is_power_of_two(self):
        for n in range(7):
            subs = list(all_subsets(n))
            assert len(subs) == 2**n
            assert len(set(subs)) == 2**n

    def test_ascending_mask_order(self):
        masks = [s.mask() for s in all_subsets(5)]
        assert masks == sorted(masks)
        assert masks[0] == 0 and masks[-1] == 2**5 - 1

    def test_split_tables_equal_the_masks(self):
        # n = 0 and 1 give the low half no positions; odd n splits unevenly
        for n in range(13):
            assert list(all_subsets(n)) == [Subset(n, bit_members(n, m)) for m in range(2**n)]

    def test_byte_tables_equal_from_mask(self):
        # from_mask reads its members through the byte tables, so both are
        # held to a bit loop that shares no code with them.
        for n in range(13):
            for m in range(2**n):
                assert _members(m) == Subset.from_mask(n, m).elements == bit_members(n, m)

    @given(st.integers(min_value=0, max_value=64).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=2**n - 1))))
    def test_byte_tables_equal_from_mask_to_64(self, nm):
        n, m = nm
        assert _members(m) == Subset.from_mask(n, m).elements == bit_members(n, m)

    def test_ceiling_is_checked_eagerly(self):
        with pytest.raises(CeilingExceeded):
            all_subsets(9, ceiling=8)
        # ceiling can be raised explicitly
        assert sum(1 for _ in all_subsets(9, ceiling=9)) == 512
