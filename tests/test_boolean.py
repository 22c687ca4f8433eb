"""Symmetric chain decompositions of the subset lattice.

verify_scd is checked against hand-frozen goldens and tampered
decompositions; the three construction methods are cross-checked
against each other, which is the point of keeping all three.
"""

import copy
import gc
import hashlib
import inspect
import json
import math
import pickle
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from symchains import (
    BooleanChain,
    BooleanDecomposition,
    DEFAULT_ENUM_CEILING,
    CeilingExceeded,
    Code,
    SetPartition,
    Subset,
    all_subsets,
    build_partition_chains,
    chain_of,
    check_stirling_symmetry,
    debruijn_decomposition,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
    encode,
    exp_minus_one_series,
    gk_decomposition,
    iterated_product_scd,
    match_parens,
    product_scd,
    stirling_table,
    verify_scd,
    word_of,
)
from symchains import boolean, coding, partitions, subsets
from symchains.reports import VerificationReport


def reference_gk(n):
    """The decomposition by grouping: every subset of {1..n} goes to the
    chain named by its bottom, each group sorted by size is a chain, and
    the chains are sorted by bottom."""
    groups = {}
    for s in all_subsets(n):
        groups.setdefault(chain_of(s).bottom.mask(), []).append(s)
    chains = []
    for bottom in sorted(groups):
        members = sorted(groups[bottom], key=len)
        chains.append(BooleanChain(n, tuple(members)))
    return BooleanDecomposition(n, tuple(chains))


def reference_verify_scd(d):
    """verify_scd on element sets rather than masks: the same checks, the
    same failure kinds, witnesses and order."""
    n = d.n
    failures = []
    seen = set()
    for chain in d.chains:
        for s in chain.sets:
            m = s.mask()
            if m in seen:
                failures.append(("overlap", s.literal()))
            seen.add(m)
        bottom, top = chain.bottom, chain.top
        if len(bottom) + len(top) != n:
            failures.append(("not_symmetric", f"{bottom.literal()} .. {top.literal()}"))
        if n >= 1 and n not in top:
            failures.append(("link_rule", f"top {top.literal()} lacks {n}"))
        prev = bottom
        prev_added = 0
        for s in chain.sets[1:]:
            added = set(s.elements) - set(prev.elements)
            if len(s) != len(prev) + 1 or len(added) != 1:
                failures.append(("not_saturated", f"{prev.literal()} -> {s.literal()}"))
            else:
                i = added.pop()
                if i <= prev_added:
                    failures.append(("link_rule",
                                     f"added {i} after {prev_added} in chain from {bottom.literal()}"))
                if (i + 1) in prev or (i != 1 and (i - 1) not in prev):
                    failures.append(("link_rule", f"link {prev.literal()} -> add {i}"))
                prev_added = i
            prev = s
    if len(seen) != 1 << n:
        for mask in range(1 << n):
            if mask not in seen:
                failures.append(("missing", Subset.from_mask(n, mask).literal()))
    return VerificationReport(len(seen), len(d.chains), tuple(failures))


METHODS = (gk_decomposition, debruijn_decomposition, iterated_product_scd)


def reference_decomposition_to_dot(d):
    """decomposition_to_dot by objects: every covered set in mask order,
    then every cover between covered sets, by the lower set's mask and then
    the added element, solid exactly when the pair is consecutive in some
    chain."""
    covered = {s.mask(): s for chain in d.chains for s in chain.sets}
    links = {pair for chain in d.chains for pair in zip(chain.sets, chain.sets[1:])}
    nodes = [covered[mask] for mask in sorted(covered)]
    lines = ["digraph scd {", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f'  "{s.literal()}";' for s in nodes]
    for s in nodes:
        for up in (s.with_element(e) for e in range(1, d.n + 1) if e not in s):
            if up.mask() in covered:
                style = "solid" if (s, up) in links else "dotted"
                lines.append(f'  "{s.literal()}" -> "{up.literal()}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)


def chains_as_sets(d):
    return {tuple(s.elements for s in chain.sets) for chain in d.chains}


def lit(chain):
    return [s.literal() for s in chain.sets]


class TestChainOf:
    def test_golden_chain(self):
        chain = chain_of(Subset.of(10, [1, 3, 4, 8, 9]))
        assert [lit(chain)[i] for i in range(5)] == [
            "3,8,9",
            "1,3,8,9",
            "1,3,4,8,9",
            "1,3,4,5,8,9",
            "1,3,4,5,8,9,10",
        ]

    def test_chain_is_symmetric_and_saturated(self):
        chain = chain_of(Subset.of(10, [1, 3, 4, 8, 9]))
        sizes = [len(s) for s in chain.sets]
        assert sizes == list(range(sizes[0], sizes[-1] + 1))
        assert sizes[0] + sizes[-1] == 10

    def test_bottom_is_shared_along_chain(self):
        chain = chain_of(Subset.of(10, [1, 3, 4, 8, 9]))
        bottoms = {chain_of(s).bottom for s in chain.sets}
        assert bottoms == {Subset.of(10, [3, 8, 9])}

    def test_bottom_is_the_matched_rights(self):
        # chain_of builds the bottom from masks; this is the direct spelling.
        for n in range(11):
            for s in all_subsets(n):
                closes = sorted(close for _, close in match_parens(word_of(s)).matched_pairs)
                assert chain_of(s).bottom == Subset(n, tuple(closes))

    def test_every_set_lies_on_its_chain(self):
        for n in range(11):
            d = gk_decomposition(n)
            for chain in d.chains:
                for s in chain.sets:
                    assert chain_of(s) == chain


class TestConstructions:
    def test_gk_equals_grouping_reference(self):
        for n in range(13):
            assert gk_decomposition(n) == reference_gk(n)

    def test_gk3_golden(self):
        d = gk_decomposition(3)
        assert [lit(c) for c in d.chains] == [
            ["-", "1", "1,2", "1,2,3"],
            ["2", "2,3"],
            ["3", "1,3"],
        ]

    def test_n4_shape(self):
        d = gk_decomposition(4)
        assert len(d.chains) == 6
        assert sum(len(c.sets) for c in d.chains) == 16

    def test_trivial_ground_sets(self):
        assert [lit(c) for c in gk_decomposition(0).chains] == [["-"]]
        assert [lit(c) for c in gk_decomposition(1).chains] == [["-", "1"]]
        assert [lit(c) for c in debruijn_decomposition(1).chains] == [["-", "1"]]

    def test_methods_agree_small(self):
        # As chain sets and as whole values, chain order included: the de
        # Bruijn and product steps list the chains that keep their bottom
        # before those that gain the new highest bit, gk's ascending order.
        for n in range(13):
            gk = gk_decomposition(n)
            g = chains_as_sets(gk)
            for method in METHODS:
                d = method(n)
                assert chains_as_sets(d) == g
                assert d == gk, (method.__name__, n)
                bottoms = [chain.masks[0] for chain in d.chains]
                assert all(a < b for a, b in zip(bottoms, bottoms[1:])), (method.__name__, n)

    def test_chain_count_is_middle_binomial(self):
        for n in range(11):
            d = gk_decomposition(n)
            assert len(d.chains) == math.comb(n, n // 2)

    def test_public_chain_equals_kernel_chain(self):
        # Equality and hash are over (n, masks), as they were over (n, sets).
        for n in range(9):
            for method in METHODS:
                for chain in method(n).chains:
                    public = BooleanChain(n, chain.sets)
                    assert public == chain and hash(public) == hash(chain)
                    assert public.masks == chain.masks
                    assert (chain.bottom, chain.top) == (chain.sets[0], chain.sets[-1])

    def test_chain_keeps_only_masks(self):
        chain = gk_decomposition(3).chains[0]
        assert BooleanChain.__slots__ == ("n", "masks")
        assert chain.masks == (0b000, 0b001, 0b011, 0b111)
        assert chain.sets == chain.sets and chain.sets is not chain.sets

    def test_public_chain_checks(self):
        with pytest.raises(ValueError, match="at least one set"):
            BooleanChain(3, ())
        with pytest.raises(ValueError, match="ground size mismatch"):
            BooleanChain(3, (Subset.of(3, [1]), Subset.of(4, [1, 4])))

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            gk_decomposition(25)
        with pytest.raises(CeilingExceeded):
            debruijn_decomposition(11, ceiling=10)


class TestPackedChains:
    """A decomposition holds its chains as one array of masks and one of
    offsets; tuples of kernel-built ``BooleanChain``s are the oracle."""

    def test_repacking_the_chains_gives_an_equal_value(self):
        for n in range(13):
            for method in METHODS:
                d = method(n)
                again = BooleanDecomposition(n, tuple(d.chains))
                assert again == d and hash(again) == hash(d), (method.__name__, n)
                assert (again.chains._masks, again.chains._offsets) == (d.chains._masks, d.chains._offsets)

    def test_chains_stand_for_their_tuple(self):
        d = gk_decomposition(4)
        t = tuple(d.chains)
        assert d.chains == t and t == d.chains and hash(d.chains) == hash(t)
        assert repr(d.chains) == repr(t)
        assert d.chains + t[:1] == t + t[:1] and t[:1] + d.chains == t[:1] + t
        assert d.chains + d.chains == t + t
        assert (d.chains[0], d.chains[-1]) == (t[0], t[-1])
        assert d.chains[1:4] == t[1:4] and d.chains[::-2] == t[::-2]
        with pytest.raises(IndexError):
            d.chains[len(t)]
        assert list(d.chains.runs()) == [c.masks for c in t]

    def test_one_array_of_masks(self):
        for method in METHODS:
            d = method(10)
            masks, offsets = d.chains._masks, d.chains._offsets
            assert (type(masks), masks.typecode) == (type(offsets), offsets.typecode) == (array, "Q")
            assert sorted(masks) == list(range(1 << 10))
            assert len(offsets) == len(d.chains) + 1 and offsets[0] == 0 and offsets[-1] == len(masks)

    def test_packed_chains_are_kept(self):
        d = gk_decomposition(5)
        assert BooleanDecomposition(5, d.chains).chains is d.chains

    def test_packed_chains_are_read_only(self):
        chains = gk_decomposition(5).chains
        for name, value in (("n", 4), ("_masks", array("Q")), ("_offsets", array("Q", [0])), ("masks", ())):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(chains, name, value)
        assert list(chains.flat()) == [m for c in chains for m in c.masks]

    def test_pickle_and_copy_rebuild_the_packed_chains(self):
        # The read-only view refuses the slot state pickle would restore, so
        # it is rebuilt from its arrays.
        built = [(method.__name__, n, method(n)) for n in range(7) for method in METHODS]
        loaded = decomposition_from_json(decomposition_to_json(gk_decomposition(6)))
        for label, n, d in built + [("loaded", 6, loaded)]:
            for again in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
                assert again == d and hash(again) == hash(d), (label, n)
                assert list(again.chains.flat()) == list(d.chains.flat()), (label, n)
                assert verify_scd(again).ok, (label, n)
            chains = copy.copy(d.chains)
            assert type(chains) is boolean._Packed and chains == d.chains, (label, n)
            assert (chains._masks, chains._offsets) == (d.chains._masks, d.chains._offsets), (label, n)
            deep = copy.deepcopy(d.chains)
            assert deep == d.chains and deep._masks is not d.chains._masks, (label, n)

    def test_ground_size_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="ground size mismatch"):
            BooleanDecomposition(3, (BooleanChain(4, (Subset.of(4, [4]),)),))
        with pytest.raises(ValueError, match="ground size mismatch"):
            BooleanDecomposition(3, gk_decomposition(4).chains)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_refuses_a_non_integer_ground_size(self, n):
        # verify_scd would size its tables by it
        with pytest.raises(ValueError, match=f"^expected an integer, got {n!r}$"):
            BooleanDecomposition(n, ())

    def test_one_sequence_class_for_every_view(self):
        assert partitions._TupleView is subsets._TupleView
        for view in (boolean._Packed, partitions._Chains, partitions._Chain, partitions._Excluded):
            assert issubclass(view, subsets._TupleView)


def traced_peak_ratio(build):
    """The traced peak of ``build()`` over the final arrays of the
    decomposition it returns, 8 bytes a mask plus 8 bytes an offset.

    A tuple the traced call allocates afresh, rather than taking from the
    interpreter's free lists, counts towards its peak even once it is freed
    back to a list, so the ratio would depend on what ran before.  So the
    lists are filled first: a full collection (which empties them), then
    2000 freed tuples of each size up to 19 (as many as a list keeps) and
    one untraced call, with the collector held off from the collection to
    the end of the traced call."""
    gc.collect()
    gc.disable()
    try:
        filler = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
        del filler
        build()
        tracemalloc.start()
        try:
            d = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    return peak / (8 * (len(d.chains._masks) + len(d.chains._offsets)))


class TestPeakMemory:
    """The chains are held once: a growth step holds the previous step's
    arrays and the new step's, and the loader packs each chain as it reads
    it.  A second buffer for the lifted chains would take 2.1 times the
    final arrays at n = 18, and a list of the loaded chains 7."""

    BOUND = 1.85

    @pytest.mark.parametrize("method", [debruijn_decomposition, iterated_product_scd])
    def test_growth_peak(self, method):
        ratio = traced_peak_ratio(lambda: method(18))
        assert ratio <= self.BOUND, ratio

    def test_loader_peak(self):
        doc = decomposition_to_json(gk_decomposition(12))
        ratio = traced_peak_ratio(lambda: decomposition_from_json(doc))
        assert ratio <= self.BOUND, ratio


class TestProductGrid:
    def test_hooks_3x2(self):
        assert product_scd(3, 2) == (
            ((1, 1), (2, 1), (3, 1), (3, 2)),
            ((1, 2), (2, 2)),
        )

    def test_hooks_2x2(self):
        assert product_scd(2, 2) == (
            ((1, 1), (2, 1), (2, 2)),
            ((1, 2),),
        )

    def test_hooks_cover_grid_symmetrically(self):
        for k in range(1, 7):
            for l in range(1, 7):
                chains = product_scd(k, l)
                cells = [cell for chain in chains for cell in chain]
                assert sorted(cells) == [(r, c) for r in range(1, k + 1) for c in range(1, l + 1)]
                for chain in chains:
                    ranks = [r + c for r, c in chain]
                    assert ranks == list(range(ranks[0], ranks[-1] + 1))
                    assert ranks[0] + ranks[-1] == k + l + 2

    def test_rejects_empty_factor(self):
        with pytest.raises(ValueError):
            product_scd(0, 2)

    def test_mask_hooks_equal_product_scd(self):
        for k in range(1, 12):
            hooks = [tuple((row + 1, 2 if add else 1) for row, add in hook)
                     for hook in boolean._two_hooks(k)]
            assert tuple(hooks) == product_scd(k, 2)

    def test_hooks_computed_once_per_chain_length(self, monkeypatch):
        calls = []

        def counted(k, l):
            calls.append((k, l))
            return product_scd(k, l)

        monkeypatch.setattr(boolean, "product_scd", counted)
        d = iterated_product_scd(8)
        # The chains that meet element 8 have 1..8 sets.
        assert sorted(calls) == [(k, 2) for k in range(1, 9)]
        assert chains_as_sets(d) == chains_as_sets(gk_decomposition(8))


class TestVerifier:
    def test_accepts_gk(self):
        rep = verify_scd(gk_decomposition(10))
        assert rep.ok
        assert rep.element_count == 1024
        assert rep.chain_count == 252
        assert rep.failures == ()

    def test_duplicate_set_is_overlap(self):
        good = gk_decomposition(2)
        doubled = BooleanDecomposition(2, good.chains + (BooleanChain(2, (Subset.of(2, [2]),)),))
        rep = verify_scd(doubled)
        assert not rep.ok
        assert "overlap" in {kind for kind, _ in rep.failures}

    def test_missing_set_is_reported(self):
        d = gk_decomposition(2)
        pruned = BooleanDecomposition(2, tuple(c for c in d.chains if len(c.sets) > 1))
        rep = verify_scd(pruned)
        assert not rep.ok
        assert "missing" in {kind for kind, _ in rep.failures}

    def test_asymmetric_chain_is_reported(self):
        chains = (
            BooleanChain(1, (Subset.of(1, []),)),
            BooleanChain(1, (Subset.of(1, [1]),)),
        )
        rep = verify_scd(BooleanDecomposition(1, chains))
        assert not rep.ok
        assert "not_symmetric" in {kind for kind, _ in rep.failures}

    def test_skipping_a_rank_is_unsaturated(self):
        chains = (BooleanChain(2, (Subset.of(2, []), Subset.of(2, [1, 2]))),
                  BooleanChain(2, (Subset.of(2, [1]),)),
                  BooleanChain(2, (Subset.of(2, [2]),)))
        rep = verify_scd(BooleanDecomposition(2, chains))
        assert not rep.ok
        assert "not_saturated" in {kind for kind, _ in rep.failures}

    def test_cover_breaking_link_rules_is_reported(self):
        # {2} < {1,2} adds 1 with 2 already present: fine.
        # {1} < {1,2} adds 2 while 2's predecessor test holds but 3 is absent;
        # build instead a chain adding an element whose successor is present.
        chains = (BooleanChain(2, (Subset.of(2, []), Subset.of(2, [1]),)),
                  BooleanChain(2, (Subset.of(2, [2]), Subset.of(2, [1, 2]))))
        rep = verify_scd(BooleanDecomposition(2, chains))
        assert not rep.ok
        assert "link_rule" in {kind for kind, _ in rep.failures}


class TestVerifierWitnessCap:
    def test_empty_payload_lists_1000_missing_sets(self):
        rep = verify_scd(decomposition_from_json({"n": 12, "chains": []}))
        assert not rep.ok and (rep.element_count, rep.chain_count) == (0, 0)
        assert rep.failures == tuple(
            ("missing", Subset.from_mask(12, m).literal()) for m in range(1000)
        ) + (("missing", "3096 more"),)

    def test_empty_payload_at_n22_stays_small(self):
        rep = verify_scd(BooleanDecomposition(22, ()))
        assert len(rep.failures) == 1001
        assert rep.failures[-1] == ("missing", "4193304 more")

    def test_cap_boundary(self):
        # One-set chains at the top of the lattice: 1000 missing sets are
        # all listed as the reference lists them; a 1001st ends in a count.
        for listed in (24, 23):
            chains = tuple(BooleanChain(10, (Subset.from_mask(10, m),))
                           for m in range(1024 - listed, 1024))
            d = BooleanDecomposition(10, chains)
            expected = reference_verify_scd(d).failures
            if listed == 23:
                expected = expected[:-1] + (("missing", "1 more"),)
            assert verify_scd(d).failures == expected


def mutate(chains, ops, data):
    """Apply ``ops`` random edits to a list of chains (lists of subsets): drop
    a set, duplicate one into a chain, move one between chains, or reorder
    the chains.  A chain left empty is dropped, since a chain needs a set."""
    chains = [list(c) for c in chains]
    for _ in range(ops):
        op = data.draw(st.sampled_from(("drop", "duplicate", "move", "reorder")))
        if op == "reorder":
            chains = data.draw(st.permutations(chains))
            continue
        a = data.draw(st.integers(0, len(chains) - 1))
        j = data.draw(st.integers(0, len(chains[a]) - 1))
        s = chains[a][j] if op == "duplicate" else chains[a].pop(j)
        if op != "drop":
            b = data.draw(st.integers(0, len(chains) - 1))
            chains[b].insert(data.draw(st.integers(0, len(chains[b]))), s)
        chains = [c for c in chains if c]
        if not chains:
            break
    return chains


class TestVerifierCeiling:
    # Explicit small ceilings only: past the default, coverage alone would
    # be a 2^n bytearray.
    def test_default_is_the_enumeration_ceiling(self):
        assert inspect.signature(verify_scd).parameters["ceiling"].default == DEFAULT_ENUM_CEILING

    def test_refuses_past_the_ceiling_before_allocating(self, monkeypatch):
        def no_bytearray(size):
            raise AssertionError(f"allocated {size} bytes")

        monkeypatch.setattr(boolean, "bytearray", no_bytearray, raising=False)
        with pytest.raises(CeilingExceeded):
            verify_scd(gk_decomposition(9), ceiling=8)
        # Chains are not needed for the refusal: an empty payload of n = 9
        # would otherwise list 512 missing subsets.
        with pytest.raises(CeilingExceeded):
            verify_scd(BooleanDecomposition(9, ()), ceiling=8)

    def test_admits_the_ceiling(self):
        assert verify_scd(gk_decomposition(8), ceiling=8).ok


class TestVerifierOracle:
    def test_agrees_on_the_three_constructions(self):
        for n in range(9):
            for method in METHODS:
                d = method(n)
                assert verify_scd(d) == reference_verify_scd(d)

    def test_agrees_on_every_two_set_chain(self):
        # Deterministic where the mutants below are random: a neighbour
        # shift off by one, a top test that misses bit n, or coverage that
        # loses a byte each changes some report here.
        for n in range(5):
            sets = [Subset.from_mask(n, m) for m in range(2**n)]
            for lo in sets:
                for hi in sets:
                    d = BooleanDecomposition(n, (BooleanChain(n, (lo, hi)),))
                    assert verify_scd(d) == reference_verify_scd(d)

    @settings(max_examples=300)
    @given(st.integers(0, 6), st.sampled_from(METHODS), st.integers(1, 4), st.data())
    def test_agrees_on_mutants(self, n, method, ops, data):
        d = method(n)
        chains = mutate([c.sets for c in d.chains], ops, data)
        mutant = BooleanDecomposition(n, tuple(BooleanChain(n, tuple(c)) for c in chains))
        assert verify_scd(mutant) == reference_verify_scd(mutant)


def hand_built(n, chains):
    """A decomposition of ``BooleanChain``s made by the public constructor
    from chains given as lists of masks."""
    return BooleanDecomposition(n, tuple(BooleanChain(n, [Subset.from_mask(n, m) for m in c])
                                         for c in chains))


def corrupt(d, how, data):
    """Edit a copy of ``d``'s packed arrays, and the same edit on its chains
    as lists of masks: a mask copied over one in another chain, two masks
    swapped across chains, a chain dropped with its offset, or a middle
    set dropped from a chain of three or more."""
    n, masks, offsets = d.n, array("Q", d.chains.flat()), array("Q", d.chains._offsets)
    chains = [list(c) for c in d.chains.runs()]
    index = lambda lo, hi: data.draw(st.integers(lo, hi - 1))
    if how in ("duplicate", "swap"):
        a, b = data.draw(st.lists(st.integers(0, len(chains) - 1), min_size=2, max_size=2, unique=True))
        j, k = index(offsets[a], offsets[a + 1]), index(offsets[b], offsets[b + 1])
        ja, kb = j - offsets[a], k - offsets[b]
        if how == "duplicate":
            masks[k] = masks[j]
            chains[b][kb] = chains[a][ja]
        else:
            masks[j], masks[k] = masks[k], masks[j]
            chains[a][ja], chains[b][kb] = chains[b][kb], chains[a][ja]
    elif how == "drop_chain":
        a = index(0, len(chains))
        size = offsets[a + 1] - offsets[a]
        del masks[offsets[a]:offsets[a + 1]]
        offsets = offsets[:a + 1] + array("Q", [o - size for o in offsets[a + 2:]])
        del chains[a]
    else:
        a = data.draw(st.sampled_from([i for i, c in enumerate(chains) if len(c) >= 3]))
        j = index(offsets[a] + 1, offsets[a + 1] - 1)
        del masks[j]
        offsets = offsets[:a + 1] + array("Q", [o - 1 for o in offsets[a + 1:]])
        del chains[a][j - offsets[a]]
    return BooleanDecomposition(n, boolean._Packed(n, masks, offsets)), hand_built(n, chains)


class TestPackedMutants:
    def test_hand_built_and_packed_give_one_report(self):
        for n in range(9):
            for method in METHODS:
                d = method(n)
                hand = hand_built(n, d.chains.runs())
                assert hand == d and verify_scd(hand) == verify_scd(d)

    @settings(max_examples=200)
    @given(st.integers(4, 7), st.sampled_from(METHODS),
           st.sampled_from(("duplicate", "swap", "drop_chain", "unsaturate")), st.data())
    def test_corrupted_arrays_report_as_hand_built(self, n, method, how, data):
        mutant, hand = corrupt(method(n), how, data)
        assert mutant == hand
        rep = verify_scd(mutant)
        assert rep.failures == verify_scd(hand).failures == reference_verify_scd(hand).failures
        assert rep == reference_verify_scd(hand)
        kinds = {kind for kind, _ in rep.failures}
        if how == "drop_chain":
            assert kinds == {"missing"}
        elif how == "unsaturate":
            assert {"not_saturated", "missing"} <= kinds
        elif how == "duplicate":
            assert {"overlap", "missing"} <= kinds


class TestSlots:
    def test_value_classes_have_no_dict(self):
        s = Subset.of(3, [1, 3])
        for obj in (s, match_parens("(()"), BooleanChain(3, (s,)), encode(s),
                    SetPartition.of(3, [[1, 3], [2]]), gk_decomposition(3), verify_scd(gk_decomposition(3)),
                    build_partition_chains(3), stirling_table(3), check_stirling_symmetry(3),
                    exp_minus_one_series(3)):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        # The kernels' constructors, all made by subsets._unchecked, build
        # the same values as the public ones: equal, equally hashed, slotted
        # and frozen.
        code = encode(s).entries
        for kernel, public in (
            (subsets._trusted(3, (1, 3)), s),
            (coding._trusted(3, code), Code(3, code)),
            (partitions._trusted(3, ((1, 3), (2,))), SetPartition(3, ((1, 3), (2,)))),
            (boolean._chain(3, (0b101, 0b111)), BooleanChain(3, (s, Subset.of(3, [1, 2, 3])))),
        ):
            assert type(kernel) is type(public)
            assert kernel == public and hash(kernel) == hash(public)
            assert not hasattr(kernel, "__dict__")
            for name in kernel.__slots__:
                with pytest.raises(FrozenInstanceError):
                    setattr(kernel, name, getattr(public, name))


# SHA-256 of json.dumps(decomposition_to_json(gk_decomposition(n))) for
# n = 0..12, recorded from the Subset-based decomposition before chains
# were stored as masks.
GK_JSON_SHA256 = [
    "bf0c3b34755d23df6fc81a095107c1b4876d5c70fb5e5115acb04b560a1f6123",
    "22d3849938a675daf7133618de98e5530487422fde4e152b3222ec77e1905dc5",
    "dbd9944f030fa3d84741db42b4fda09ec6ad45c4e2ca2ab26508341866d91e0e",
    "1236e64de2709c818f7e845cc61d16894150a33b068856fa516a8ce66f9c3ad1",
    "fc4b22ecc47000f27bcc9f352b78292496bf8141347182fdf767f8d69521422b",
    "e9935b43e533eab167fed31e8a17e637a4300066ba3e8688adb47a6bea1be9c9",
    "bb9ab1ecead860f0d83131025f469a53696a6dc0cd46be4f31ddf3bbf384ed9d",
    "a3b28ca157c8dc971ecd23ba9d4c2b4c8f710addb39a74183b9920b7e9850bee",
    "fd9af084bb8a67bf02026477f18a28cd7390e711a3913d4713857c2e2fd6bd51",
    "a4265c0b915e68b54f2b785fba7085842871b52030c62927c9a3c375687888c0",
    "64201fac6b0423c9b53fe606a99e96c00ca14caec7e0bda701fbc09180e5896c",
    "32552b12c5260770a61a1056060fc61a6ddc7ec0313fde7163987c23f0190b28",
    "0d7f982069b2dc6f4f7854965f98cfbbf02a5281142fc3f969bef0c3a6122d9b",
]


class TestSerialization:
    def test_gk_json_is_pinned(self):
        for n, expected in enumerate(GK_JSON_SHA256):
            text = json.dumps(decomposition_to_json(gk_decomposition(n)))
            assert hashlib.sha256(text.encode()).hexdigest() == expected, n

    def test_json_roundtrip_every_method(self):
        for n in range(9):
            for method in METHODS:
                d = method(n)
                assert decomposition_from_json(decomposition_to_json(d)) == d

    def test_json_roundtrip(self):
        d = gk_decomposition(4)
        obj = decomposition_to_json(d)
        assert obj["n"] == 4
        assert decomposition_from_json(obj) == d

    def test_json_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            decomposition_from_json({"n": 2})

    def test_dot_equals_object_reference(self):
        for n in range(7):
            for method in METHODS:
                d = method(n)
                assert decomposition_to_dot(d) == reference_decomposition_to_dot(d), (method.__name__, n)

    def test_dot_draws_every_chain_link(self):
        # {2} lies in two chains, so both its links are solid.
        d = gk_decomposition(3)
        hand = BooleanDecomposition(3, tuple(d.chains) + (BooleanChain(3, (Subset.of(3, [2]), Subset.of(3, [1, 2]))),))
        dot = decomposition_to_dot(hand)
        assert dot == reference_decomposition_to_dot(hand)
        assert '"2" -> "2,3" [style=solid]' in dot
        assert '"2" -> "1,2" [style=solid]' in dot

    def test_dot_output(self):
        dot = decomposition_to_dot(gk_decomposition(2))
        assert dot.startswith("digraph scd")
        assert '"-"' in dot and '"1,2"' in dot
        assert "->" in dot
        assert dot.count("\n") > 4
