"""Set partitions, classes, the one-step coarsening, and the chain family.

The brute-force side throughout is enumerate_all_partitions, which walks
restricted-growth choices and never consults codes or classes; the class
and chain machinery is checked against it.
"""

import copy
import gc
import hashlib
import inspect
import itertools
import json
import os
import pickle
import signal
import threading
import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from symchains import (
    CeilingExceeded,
    PartitionChainFamily,
    SetPartition,
    Subset,
    VerificationReport,
    all_subsets,
    bell_oracle,
    build_partition_chains,
    chain_of,
    class_of,
    code_from_nonzeros,
    decode,
    encode,
    enumerate_all_partitions,
    enumerate_class,
    family_from_json,
    family_to_dot,
    family_to_json,
    gk_decomposition,
    inject,
    inject_inverse,
    type_of,
    verify_partition_chains,
)
from symchains import partitions
from symchains.identities import stirling_table
from symchains.partitions import (
    DEFAULT_PARTITION_CEILING,
    _is_image,
    _is_singleton_merge,
    _iter_partitions,
    _literal,
    _merge_index,
    _partitions,
    _rank_index,
    _trusted,
    _type_of_code,
    _walk,
)
from symchains.reports import _WITNESS_CAP

from capped_walk import check_block_walk
from test_startup import fresh_python

P4 = SetPartition.from_literal


def reference_inject(p, i):
    """inject by objects: find the class code again, take the singleton at
    block b-m* and the size-k block after it, and re-sort the merge."""
    c = encode(class_of(p)).entries
    m_star = sum(1 for e in c[:i] if e)
    b = p.block_count
    singleton, target = p.blocks[b - m_star - 1], p.blocks[b - m_star]
    assert len(singleton) == 1 and len(target) == c[i - 1] and c[i] == 1
    rest = [blk for idx, blk in enumerate(p.blocks) if idx not in (b - m_star - 1, b - m_star)]
    return SetPartition.of(p.m, rest + [singleton + target])


def reference_inject_inverse(q, i):
    """inject_inverse by round trip: split the block at b-m*, re-sort the
    split, and accept it only when it lies in the lower class and injects
    back to ``q``."""
    s_prime = class_of(q)
    c = encode(s_prime)
    if i not in s_prime or c.entries[i] == 0:
        raise ValueError(f"class {s_prime.literal()} has no link arriving by adding {i}")
    m_star = sum(1 for e in c.entries[:i + 1] if e)
    merged = q.blocks[q.block_count - m_star]
    rebuilt = [block for block in q.blocks if block != merged]
    rebuilt.append((merged[0],))
    rebuilt.append(merged[1:])
    candidate = SetPartition.of(q.m, rebuilt)
    expected = Subset(s_prime.n, tuple(e for e in s_prime.elements if e != i))
    if class_of(candidate) != expected:
        return None
    if inject(candidate, i) != q:
        return None
    return candidate


def reference_iter_partitions(m):
    """Block tuples of every partition of {1..m}: element e joins each
    block in turn, then opens a new one, one generator level per element."""
    blocks = []

    def extend(e):
        if e > m:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(e)
            yield from extend(e + 1)
            block.pop()
        blocks.append([e])
        yield from extend(e + 1)
        blocks.pop()

    return extend(1)


def reference_enumerate_class(s):
    """The class of ``s`` by recursive placement: the type is the code's
    nonzeros reversed; the smallest unplaced element opens each successive
    block and the rest of that block is chosen ascending from what is left."""
    m = s.n + 1
    sizes = [e for e in reversed(encode(s).entries) if e]
    out, acc = [], []

    def place(remaining, depth):
        if depth == len(sizes):
            out.append(SetPartition(m, tuple(acc)))
            return
        opener, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, sizes[depth] - 1):
            taken = set(combo)
            acc.append((opener, *combo))
            place(tuple(x for x in rest if x not in taken), depth + 1)
            acc.pop()

    place(tuple(range(1, m + 1)), 0)
    return tuple(out)


def reference_class_of(p):
    """The class index through the coding: the reversed type is the nonzero
    sequence of one code, which decodes to the class."""
    return decode(code_from_nonzeros(tuple(reversed(type_of(p)))))


def reference_is_singleton_merge(lo, hi):
    """The link check by sets: exactly two blocks of ``lo`` are gone from
    ``hi`` and one is new, the new one is their union, and the singleton
    among them holds its minimum."""
    hi_set, lo_set = set(hi), set(lo)
    gone = [b for b in lo if b not in hi_set]
    new = [b for b in hi if b not in lo_set]
    if len(gone) != 2 or len(new) != 1:
        return False
    merged = new[0]
    if tuple(sorted(gone[0] + gone[1])) != merged:
        return False
    sizes = sorted(len(b) for b in gone)
    if sizes[0] != 1:
        return False
    singleton = gone[0] if len(gone[0]) == 1 else gone[1]
    return singleton[0] == merged[0]


def outcome(f, *args):
    """The value of ``f(*args)``, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def reference_family(n):
    """The chain family by the object walk: each class of a subset chain
    from reference_enumerate_class, chain tips moved by reference_inject,
    then pruned to the rank window r..n-r of each chain's birth rank r."""
    grown, excluded = [], []
    for bchain in gk_decomposition(n).chains:
        active = [[p] for p in reference_enumerate_class(bchain.bottom)]
        for lo, hi in zip(bchain.sets, bchain.sets[1:]):
            (added,) = set(hi.elements) - set(lo.elements)
            images = set()
            for chain in active:
                chain.append(reference_inject(chain[-1], added))
                images.add(chain[-1])
            active += [[p] for p in reference_enumerate_class(hi) if p not in images]
        for chain in active:
            keep = max(0, n - 2 * chain[0].rank + 1)
            if keep:
                grown.append(tuple(chain[:keep]))
            excluded += chain[keep:]
    grown.sort(key=lambda chain: chain[0].blocks)
    excluded.sort(key=lambda p: p.blocks)
    return PartitionChainFamily(n + 1, tuple(grown), tuple(excluded))


def reference_excluded_by_rule(n):
    """The excluded partitions of the family on {1..n+1}, by the rule that
    fixes them: a partition of rank r lies in a kept chain exactly when it
    splits back 2r - n times down the subset chain through its class, or
    reaches that chain's bottom first.  Sorted in block order."""
    m = n + 1
    excluded = []
    for blocks in reference_iter_partitions(m):
        p = q = SetPartition(m, blocks)
        s = reference_class_of(p)
        sets = chain_of(s).sets
        t = sets.index(s)
        splits = 0
        while splits < 2 * p.rank - n and t > 0:
            (added,) = set(sets[t].elements) - set(sets[t - 1].elements)
            q = reference_inject_inverse(q, added)
            if q is None:
                excluded.append(p)
                break
            t, splits = t - 1, splits + 1
    return tuple(sorted(excluded, key=lambda p: p.blocks))


def reference_chain_starts(n):
    """The first partition of each chain of the family on {1..n+1}, as the
    builder once stored them: each class with more than m/2 blocks walked
    for its births across the link arriving at it (every member at the
    bottom of its subset chain), all of them sorted in block order."""
    m = n + 1
    starts = []
    for bchain in gk_decomposition(n).chains:
        sets = bchain.sets
        for t, s in enumerate(sets):
            entries = encode(s).entries
            sizes = _type_of_code(entries)
            if 2 * len(sizes) > m:
                j = -1
                if t:
                    (added,) = set(s.elements) - set(sets[t - 1].elements)
                    j = _merge_index(entries, added)
                starts += _partitions(m, sizes, j)
    return sorted(starts)


def reference_verify_partition_chains(fam):
    """verify_partition_chains by a dictionary keyed on block tuples: True
    for a partition in a chain, False for an excluded one.  The walk of the
    lattice looks every partition up, so no rank is involved."""
    m = fam.m
    n = m - 1
    failures = []
    status = {}
    for chain in fam.chains:
        for p in chain:
            if p.blocks in status:
                failures.append(("overlap", p.literal()))
            status[p.blocks] = True
        if 2 * m - len(chain[0].blocks) - len(chain[-1].blocks) != n:
            failures.append(("not_symmetric", f"{chain[0].literal()} .. {chain[-1].literal()}"))
        for lo, hi in zip(chain, chain[1:]):
            if len(hi.blocks) != len(lo.blocks) - 1 or not _is_singleton_merge(lo.blocks, hi.blocks):
                failures.append(("not_saturated", f"{lo.literal()} -> {hi.literal()}"))
    members = len(status)
    for p in fam.excluded:
        if status.setdefault(p.blocks, False):
            failures.append(("overlap", f"excluded {p.literal()}"))
    if len(status) != members + len(fam.excluded):
        failures.append(("overlap", "excluded list repeats a partition"))
    total = missing = uncovered = 0
    for p in _iter_partitions(m):
        total += 1
        covered = status.get(p)
        if covered is None:
            missing += 1
            if missing <= _WITNESS_CAP:
                failures.append(("missing", _literal(p)))
        if not covered:
            b = len(p)
            if b > (n + 1) // 2:
                uncovered += 1
                if uncovered <= _WITNESS_CAP:
                    failures.append(("coverage", f"{_literal(p)} has {b} blocks"))
            if m - b <= (n - 1) // 2:
                uncovered += 1
                if uncovered <= _WITNESS_CAP:
                    failures.append(("coverage", f"{_literal(p)} has rank {m - b}"))
    for kind, count in (("missing", missing), ("coverage", uncovered)):
        if count > _WITNESS_CAP:
            failures.append((kind, f"{count - _WITNESS_CAP} more"))
    if len(status) != total - missing:
        failures.append(("missing", "family mentions partitions outside the lattice"))
    expected = stirling_table(m).value(m, m - n // 2)
    if len(fam.chains) != expected:
        failures.append(("chain_count", f"{len(fam.chains)} chains, middle level has {expected}"))
    return VerificationReport(members, len(fam.chains), tuple(failures))


def checked_verify(fam):
    """verify_partition_chains, held to the reference: the same verdict,
    counts, and multiset of (kind, witness) failures."""
    rep = verify_partition_chains(fam)
    ref = reference_verify_partition_chains(fam)
    assert (rep.ok, rep.element_count, rep.chain_count) == (ref.ok, ref.element_count, ref.chain_count)
    assert Counter(rep.failures) == Counter(ref.failures)
    return rep


@lru_cache(maxsize=None)
def family(n):
    return build_partition_chains(n)


def failure_kinds(m, chains, excluded):
    rep = checked_verify(PartitionChainFamily(m, tuple(chains), tuple(excluded)))
    assert not rep.ok
    return {kind for kind, _ in rep.failures}


def draw_partition(draw, m):
    """A partition of {1..m} from a random restricted-growth string."""
    blocks = [[1]]
    for e in range(2, m + 1):
        j = draw(st.integers(min_value=0, max_value=len(blocks)))
        if j == len(blocks):
            blocks.append([e])
        else:
            blocks[j].append(e)
    return SetPartition.of(m, blocks)


@st.composite
def set_partitions(draw):
    """A partition of {1..m}, m <= 14."""
    return draw_partition(draw, draw(st.integers(min_value=1, max_value=14)))


@st.composite
def partition_pairs(draw):
    """Two partitions of {1..m}, m <= 10: the second is random, equal to the
    first, or the first with two of its blocks merged, so both answers of
    the link check come up often."""
    lo = draw_partition(draw, draw(st.integers(min_value=1, max_value=10)))
    how = draw(st.sampled_from(["random", "same", "merge"]))
    if how == "random":
        return lo, draw_partition(draw, lo.m)
    if how == "same" or lo.block_count < 2:
        return lo, lo
    x, y = draw(st.lists(st.integers(0, lo.block_count - 1), min_size=2, max_size=2, unique=True))
    rest = [blk for idx, blk in enumerate(lo.blocks) if idx not in (x, y)]
    return lo, SetPartition.of(lo.m, rest + [lo.blocks[x] + lo.blocks[y]])


def links_of(s: Subset):
    """Positions i where the class code holds (k, 1) at (i, i+1)."""
    e = encode(s).entries
    return [i for i in range(1, s.n + 1) if e[i - 1] >= 1 and e[i] == 1]


def refines(p, q):
    return all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition.of(4, [[3, 2], [4], [1]])
        assert p.blocks == ((1,), (2, 3), (4,))
        assert p.literal() == "1/2,3/4"
        assert p.block_count == 3
        assert p.rank == 1

    def test_rejects_non_partitions(self):
        with pytest.raises(ValueError):
            SetPartition.of(3, [[1, 2]])  # 3 missing
        with pytest.raises(ValueError):
            SetPartition.of(3, [[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            SetPartition.of(3, [[1, 2, 3], []])  # empty block

    @pytest.mark.parametrize("blocks, e", [
        ([[0], [1, 2]], 0), ([[-1], [1, 2]], -1), ([[0, 1], [2]], 0), ([[-3, 2], [1]], -3),
    ])
    def test_element_below_one_is_outside_the_ground_set(self, blocks, e):
        with pytest.raises(ValueError, match=f"^element {e} outside ground set 1..3$"):
            SetPartition.of(3, blocks)

    @pytest.mark.parametrize("blocks, e", [(((1.0, 2),), 1.0), (((1, 2.0),), 2.0), (((True,), (2,)), True)])
    def test_refuses_non_integer_elements(self, blocks, e):
        with pytest.raises(ValueError, match=f"^expected an integer, got {e!r}$"):
            SetPartition(2, blocks)

    @pytest.mark.parametrize("m", [2.0, True])
    def test_refuses_a_non_integer_ground_size(self, m):
        blocks = ((1,), (2,)) if m == 2 else ((1,),)
        with pytest.raises(ValueError, match=f"^expected an integer, got {m!r}$"):
            SetPartition(m, blocks)

    def test_literal_roundtrip(self):
        for m in range(1, 7):
            for p in enumerate_all_partitions(m):
                assert SetPartition.from_literal(m, p.literal()) == p

    def test_wrong_ground_size_fails_before_allocating(self):
        # a table sized by m would raise OverflowError or exhaust memory
        with pytest.raises(ValueError):
            SetPartition(10**20, ((1,),))
        with pytest.raises(ValueError):
            family_from_json({"m": 10**20, "chains": [[[[1]]]], "excluded": []})

    def test_compact_literal_input(self):
        assert P4(4, "1/23/4") == SetPartition.of(4, [[1], [2, 3], [4]])
        assert P4(4, "14/23") == SetPartition.of(4, [[1, 4], [2, 3]])
        # past m=9 a bare digit run is one element, not a compact block
        p = P4(12, "12/1,2,3,4,5,6,7,8,9,10,11")
        assert p.blocks == (tuple(range(1, 12)), (12,))


class TestTrustedOutput:
    """The kernels skip SetPartition's checks; each partition they return
    must still pass them."""

    @staticmethod
    def valid(p):
        return type(p) is SetPartition and SetPartition(p.m, p.blocks) == p

    def test_built_families(self):
        for n in range(8):
            fam = build_partition_chains(n)
            assert all(self.valid(p) for chain in fam.chains for p in chain)
            assert all(self.valid(p) for p in fam.excluded)

    def test_enumerations(self):
        for m in range(1, 9):
            assert all(self.valid(p) for p in enumerate_all_partitions(m))
            for s in all_subsets(m - 1):
                assert all(self.valid(p) for p in enumerate_class(s))

    def test_inject_and_inverse(self):
        for m in range(1, 9):
            for p in enumerate_all_partitions(m):
                # every partition with a preimage is an image
                for i in links_of(class_of(p)):
                    q = inject(p, i)
                    assert self.valid(q)
                    assert self.valid(inject_inverse(q, i))


class TestTypesAndClasses:
    def test_type_goldens(self):
        wide = SetPartition.of(20, [
            [1], [2, 3, 5, 7, 11, 13, 17, 19], [4, 6, 9, 10, 14, 15],
            [8, 12, 18, 20], [16],
        ])
        assert type_of(wide) == (1, 8, 6, 4, 1)
        assert type_of(P4(4, "1/2/3/4")) == (1, 1, 1, 1)
        assert type_of(P4(4, "1234")) == (4,)
        assert class_of(wide).n == 19

    def test_class_goldens(self):
        assert class_of(P4(4, "1/23/4")) == Subset.of(3, [2])
        assert class_of(P4(4, "14/23")) == Subset.of(3, [1, 3])
        assert class_of(P4(4, "1/2/3/4")) == Subset.of(3, [])

    def test_enumerate_class_goldens(self):
        row = lambda s: [p.literal() for p in enumerate_class(s)]
        assert row(Subset.of(3, [3])) == ["1,2/3/4", "1,3/2/4", "1,4/2/3"]
        assert row(Subset.of(3, [2, 3])) == ["1,2,3/4", "1,2,4/3", "1,3,4/2"]
        assert row(Subset.of(3, [])) == ["1/2/3/4"]

    def test_class_of_equals_coding_reference(self):
        for m in range(1, 9):
            for p in enumerate_all_partitions(m):
                assert class_of(p) == reference_class_of(p), p

    def test_class_of_refuses_the_empty_ground_set(self):
        with pytest.raises(ValueError, match="^at least one nonzero entry is required$"):
            class_of(SetPartition(0, ()))
        with pytest.raises(ValueError, match="^at least one nonzero entry is required$"):
            reference_class_of(SetPartition(0, ()))

    def test_enumerate_class_equals_placement_reference(self):
        # same partitions in the same order, for every class with n <= 8
        for n in range(9):
            for s in all_subsets(n):
                assert enumerate_class(s) == reference_enumerate_class(s), s

    def test_class_sizes_are_binomial_products(self):
        for n in range(7):
            for s in all_subsets(n):
                e = encode(s).entries
                expect = 1
                for i in range(1, n + 2):
                    if e[i - 1]:
                        expect *= comb(i - 1, e[i - 1] - 1)
                assert len(enumerate_class(s)) == expect

    def test_classes_partition_everything(self):
        # every partition is in exactly the class its type points to
        for m in range(1, 8):
            n = m - 1
            tables = {s: set(enumerate_class(s)) for s in all_subsets(n)}
            assert sum(len(v) for v in tables.values()) == bell_oracle(m)
            for p in enumerate_all_partitions(m):
                home = class_of(p)
                assert p in tables[home]
                assert sum(p in v for v in tables.values()) == 1

    def test_class_members_share_rank(self):
        for s in all_subsets(5):
            for p in enumerate_class(s):
                assert p.rank == len(s)


class TestEnumeration:
    def test_bell_counts(self):
        for m, b in zip(range(1, 9), (1, 2, 5, 15, 52, 203, 877, 4140)):
            got = list(enumerate_all_partitions(m))
            assert len(got) == b
            assert len(set(got)) == b

    def test_class_walk_shares_equal_blocks(self):
        # The walk holds a whole class, or its births, so it hands out each
        # block once.
        for m in range(1, 9):
            for s in all_subsets(m - 1):
                sizes = _type_of_code(encode(s).entries)
                for j in range(-1, len(sizes) - 1):
                    parts = _partitions(m, sizes, j)
                    assert len({id(b) for p in parts for b in p}) == len({b for p in parts for b in p}), (s, j)

    def test_block_walk_equals_the_sorted_capped_walk(self):
        # The element-by-element walk the package ran before is the oracle:
        # for every class and every j below its last block, the block walk
        # lists its partitions sorted, and enumerate_class gives the tuple
        # it gave.  The counts are the (class, j) pairs checked per m.
        assert [check_block_walk(m) for m in range(1, 10)] == [1, 3, 8, 20, 48, 112, 256, 576, 1280]

    def test_births_walk_equals_the_filtered_class(self):
        # Pruned as it walks, the class across each arriving link keeps
        # exactly the members that are no image, in the same order.
        for m in range(1, 10):
            for s in all_subsets(m - 1):
                for i in links_of(s):
                    entries = encode(s.with_element(i)).entries
                    sizes, j = _type_of_code(entries), _merge_index(entries, i)
                    whole = _partitions(m, sizes)
                    assert _partitions(m, sizes, j) == [p for p in whole if not _is_image(p, j)], (s, i)

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            enumerate_all_partitions(14)
        with pytest.raises(CeilingExceeded):
            enumerate_class(Subset.of(14, [1]), ceiling=13)

    def test_default_ceiling_is_twelve(self):
        assert DEFAULT_PARTITION_CEILING == 12
        with pytest.raises(CeilingExceeded):
            build_partition_chains(12)
        with pytest.raises(CeilingExceeded):
            enumerate_all_partitions(13)
        # An explicit ceiling still admits m = 13; the enumeration is lazy.
        enumerate_all_partitions(13, ceiling=13)

    def test_verifier_ceiling(self):
        # Explicit small ceilings only: past the default, the audit would
        # walk Bell(m) partitions.
        assert (inspect.signature(verify_partition_chains).parameters["ceiling"].default
                == DEFAULT_PARTITION_CEILING)
        fam = build_partition_chains(5)
        with pytest.raises(CeilingExceeded):
            verify_partition_chains(fam, ceiling=5)
        with pytest.raises(CeilingExceeded):
            verify_partition_chains(PartitionChainFamily(9, (), ()), ceiling=8)
        assert verify_partition_chains(fam, ceiling=6).ok

    def test_negative_ground_size(self):
        for m in (-1, -5):
            with pytest.raises(ValueError, match="nonnegative"):
                enumerate_all_partitions(m)

    @pytest.mark.parametrize("m", [2.0, True])
    def test_family_refuses_a_non_integer_ground_size(self, m):
        # verify_partition_chains would size its tables by it
        with pytest.raises(ValueError, match=f"^expected an integer, got {m!r}$"):
            PartitionChainFamily(m, (), ())

    @pytest.mark.parametrize("m", [2.0, True])
    def test_enumeration_refuses_a_non_integer_ground_size(self, m):
        # its partitions skip SetPartition's checks, so 2.0 would be an element
        with pytest.raises(ValueError, match=f"^expected an integer, got {m!r}$"):
            enumerate_all_partitions(m)


class TestWalkAndLinkRules:
    def test_walk_equals_recursive_reference(self):
        for m in range(10):
            assert list(_iter_partitions(m)) == list(reference_iter_partitions(m)), m

    def test_image_rule_matches_image_sets(self):
        # a member of the class above is an inject image exactly when the
        # split helper says so, on every link of every class
        for n in range(8):
            for s in all_subsets(n):
                members = enumerate_class(s)
                for i in links_of(s):
                    up = s.with_element(i)
                    j = _merge_index(encode(up).entries, i)
                    images = {inject(p, i).blocks for p in members}
                    for q in enumerate_class(up):
                        assert _is_image(q.blocks, j) == (q.blocks in images), (q, i)

    def test_block_order_walk_equals_the_sorted_enumeration(self):
        for m in range(10):
            everything = sorted(_iter_partitions(m))
            for least in range(m + 2):
                assert list(_walk(m, least)) == [p for p in everything if len(p) >= least], (m, least)

    def test_link_check_on_all_pairs(self):
        # Partitions of every subset of {1..5}, so of {1..m} for each m <= 5.
        # Pairs over different sets also reach the singleton and minimum
        # tests, which pairs over one set never need.  A merge leaves one
        # block fewer, so the verifier tests no length beside the check.
        everything = [
            tuple(tuple(s.elements[e - 1] for e in block) for block in p.blocks)
            for s in all_subsets(5)
            for p in enumerate_all_partitions(len(s))
        ]
        assert len(everything) == bell_oracle(6)
        merges = 0
        for lo in everything:
            for hi in everything:
                merged = _is_singleton_merge(lo, hi)
                assert merged == reference_is_singleton_merge(lo, hi), (lo, hi)
                if merged:
                    assert len(hi) == len(lo) - 1, (lo, hi)
                    merges += 1
        assert merges

    @settings(max_examples=300)
    @given(partition_pairs())
    def test_link_check_on_random_pairs(self, pair):
        lo, hi = pair
        assert _is_singleton_merge(lo.blocks, hi.blocks) == reference_is_singleton_merge(lo.blocks, hi.blocks)


class TestInjection:
    def test_goldens(self):
        assert inject(P4(4, "1/23/4"), 3) == P4(4, "123/4")
        assert inject(P4(4, "1/2/3/4"), 1) == P4(4, "1/2/34")
        assert inject(P4(4, "1/24/3"), 3) == P4(4, "124/3")

    def test_inverse_goldens(self):
        assert inject_inverse(P4(4, "123/4"), 3) == P4(4, "1/23/4")
        assert inject_inverse(P4(4, "134/2"), 3) is None
        assert inject_inverse(P4(4, "1/2/34"), 1) == P4(4, "1/2/3/4")

    def test_inverse_rejects_class_lookalikes(self):
        # splitting 1,3,4/2,5 along the link adding 4 gives 1/2,5/3,4, which
        # sits in the right class but injects to 1,2,5/3,4 instead; a class
        # check alone would wrongly accept it
        q = P4(5, "1,3,4/2,5")
        assert inject_inverse(q, 4) is None
        p = P4(5, "1/2,5/3,4")
        assert class_of(p) == Subset.of(4, [1, 3])
        assert inject(p, 4) == P4(5, "1,2,5/3,4")

    def test_any_code_link_works(self):
        # the finest partition's class has a (1,1) pair at every position,
        # so inject is defined there even off the bracket chains
        assert inject(P4(4, "1/2/3/4"), 2) == P4(4, "1/23/4")

    def test_rejects_missing_link(self):
        with pytest.raises(ValueError):
            inject(P4(4, "1/2/34"), 1)  # class code 0211 starts with a zero
        for i in (0, 4):  # no position i, or no position i+1, in code 1111
            with pytest.raises(ValueError):
                inject(P4(4, "1/2/3/4"), i)
        with pytest.raises(ValueError):
            inject_inverse(P4(4, "1/2/3/4"), 1)  # 1 not in the class at all

    @pytest.mark.parametrize("i", [1.0, True])
    def test_refuses_a_non_integer_position(self, i):
        with pytest.raises(ValueError, match=f"^expected an integer, got {i!r}$"):
            inject(P4(4, "1/2/3/4"), i)
        with pytest.raises(ValueError, match=f"^expected an integer, got {i!r}$"):
            inject_inverse(P4(4, "1/2/34"), i)

    @settings(max_examples=200)
    @given(set_partitions(), st.data())
    def test_random_links_match_reference_and_invert(self, p, data):
        j = data.draw(st.integers(min_value=0, max_value=p.m))
        assert outcome(inject_inverse, p, j) == outcome(reference_inject_inverse, p, j)
        s = class_of(p)
        links = links_of(s)
        if not links:
            return
        i = data.draw(st.sampled_from(links))
        q = inject(p, i)
        assert q == reference_inject(p, i)
        assert class_of(q) == s.with_element(i)
        assert inject_inverse(q, i) == p

    def test_inverse_equals_round_trip_reference(self):
        for m in range(9):
            for q in enumerate_all_partitions(m):
                for i in range(m + 1):
                    assert outcome(inject_inverse, q, i) == outcome(reference_inject_inverse, q, i)

    def test_inject_covers_and_inverts(self):
        for m in range(2, 9):
            n = m - 1
            for s in all_subsets(n):
                members = enumerate_class(s)
                for i in links_of(s):
                    bigger = set(enumerate_class(s.with_element(i)))
                    image = set()
                    for p in members:
                        q = inject(p, i)
                        assert q in bigger
                        assert q.rank == p.rank + 1
                        assert refines(p, q)
                        assert inject_inverse(q, i) == p
                        image.add(q)
                    assert len(image) == len(members)
                    for q in bigger - image:
                        assert inject_inverse(q, i) is None


class TestChainFamily:
    def test_n3_golden_table(self):
        fam = build_partition_chains(3)
        chains = [[p.literal() for p in chain] for chain in fam.chains]
        assert chains == [
            ["1/2/3/4", "1/2/3,4", "1/2,3,4", "1,2,3,4"],
            ["1/2,3/4", "1,2,3/4"],
            ["1/2,4/3", "1,2,4/3"],
            ["1,2/3/4", "1,2/3,4"],
            ["1,3/2/4", "1,3/2,4"],
            ["1,4/2/3", "1,4/2,3"],
        ]
        assert [p.literal() for p in fam.excluded] == ["1,3,4/2"]

    def test_n1_trivial(self):
        fam = build_partition_chains(1)
        assert [[p.literal() for p in c] for c in fam.chains] == [["1/2", "1,2"]]
        assert fam.excluded == ()

    def test_n0_single_point(self):
        fam = build_partition_chains(0)
        assert [[p.literal() for p in c] for c in fam.chains] == [["1"]]

    def test_chain_counts(self):
        # middle-level Stirling numbers S(n+1, n+1 - n//2)
        for n, count in ((2, 3), (3, 6), (4, 25), (5, 65), (6, 350)):
            assert len(build_partition_chains(n).chains) == count

    def test_verifier_accepts_built_families(self):
        for n in range(7):
            fam = build_partition_chains(n)
            rep = checked_verify(fam)
            assert rep.ok, (n, rep.failures)
            assert rep.element_count == bell_oracle(n + 1) - len(fam.excluded)

    def test_rank_window(self):
        n = 6
        fam = build_partition_chains(n)
        for chain in fam.chains:
            r = chain[0].rank
            assert chain[-1].rank == n - r
        for p in fam.excluded:
            assert p.rank > n // 2

    def test_removing_a_top_breaks_symmetry(self):
        fam = build_partition_chains(3)
        chains = (fam.chains[0][:-1],) + fam.chains[1:]
        rep = checked_verify(PartitionChainFamily(4, chains, fam.excluded))
        assert not rep.ok
        kinds = {kind for kind, _ in rep.failures}
        assert "not_symmetric" in kinds and "missing" in kinds

    def test_non_minimum_merge_is_unsaturated(self):
        # 13/2/4 -> 123/4 is a covering merge, but the singleton {2} is not
        # the merged block's minimum, so it cannot be an injection step
        fam = build_partition_chains(3)
        chains = tuple(
            (P4(4, "1,3/2/4"), P4(4, "1,2,3/4")) if chain[0].literal() == "1,3/2/4" else chain
            for chain in fam.chains
        )
        rep = checked_verify(PartitionChainFamily(4, chains, fam.excluded))
        assert not rep.ok
        assert "not_saturated" in {kind for kind, _ in rep.failures}
        assert "overlap" in {kind for kind, _ in rep.failures}

    def test_duplicated_excluded_is_overlap(self):
        fam = build_partition_chains(3)
        rep = checked_verify(
            PartitionChainFamily(4, fam.chains, fam.excluded + fam.excluded))
        assert not rep.ok
        assert "overlap" in {kind for kind, _ in rep.failures}

    def test_outside_witness_only_for_outside_partitions(self):
        outside = ("missing", "family mentions partitions outside the lattice")
        fam = build_partition_chains(3)
        rep = checked_verify(PartitionChainFamily(4, fam.chains[1:], fam.excluded))
        assert "missing" in {kind for kind, _ in rep.failures}
        assert outside not in rep.failures
        fam = build_partition_chains(2)
        extra = _trusted(3, ((1, 2), (4,)))
        rep = checked_verify(PartitionChainFamily(3, fam.chains, fam.excluded + (extra,)))
        assert outside in rep.failures
        # one partition missing and one outside: the counts cancel, but the
        # outside one is still reported
        rep = checked_verify(PartitionChainFamily(1, (), (_trusted(1, ((2,),)),)))
        assert ("missing", "1") in rep.failures and outside in rep.failures

    def test_skipped_start_is_counted_and_missing(self, monkeypatch):
        # A built family's len is counted when built, so the verifier must
        # count the chains it reads to see one go missing.  It reads a
        # built family's chains from the births of its classes, so one
        # birth that starts a chain is skipped there.
        walk = partitions._partitions
        skipped = []

        def skip_one(m, sizes, j=-1):
            births = walk(m, sizes, j)
            if 2 * len(sizes) > m and births and not skipped:
                skipped.append(births.pop())
            return births

        fam = build_partition_chains(6)
        monkeypatch.setattr(partitions, "_partitions", skip_one)
        rep = verify_partition_chains(fam)
        assert len(skipped) == 1
        kinds = {kind for kind, _ in rep.failures}
        assert {"chain_count", "missing"} <= kinds
        assert rep.chain_count == len(fam.chains) - 1 == 349
        assert ("chain_count", "349 chains, middle level has 350") in rep.failures

    def test_wrong_chain_count_is_reported(self):
        fam = build_partition_chains(2)
        # drop a whole singleton-level chain and stash its members as excluded
        chains = fam.chains[:-1]
        extra = fam.chains[-1]
        rep = checked_verify(PartitionChainFamily(3, chains, fam.excluded + extra))
        kinds = {kind for kind, _ in rep.failures}
        assert "chain_count" in kinds

    def test_block_bound_is_rank_at_most_half(self):
        # More than (n+1)//2 blocks is rank at most n//2.  For even n that
        # admits the S(n+1, n/2+1) partitions of rank n/2 beyond rank at
        # most (n-1)//2 (1, 3, 25, 350, 6951 for n = 0, 2, 4, 6, 8), and
        # the family covers them all.
        extra = {0: 1, 2: 3, 4: 25, 6: 350, 8: 6951}
        for n in range(9):
            m = n + 1
            covered = {p for chain in family(n).chains for p in chain}
            every = list(enumerate_all_partitions(m))
            by_blocks = {p for p in every if p.block_count > (n + 1) // 2}
            assert by_blocks == {p for p in every if p.rank <= n // 2}
            by_rank = {p for p in by_blocks if p.rank <= (n - 1) // 2}
            assert len(by_blocks - by_rank) == extra.get(n, 0), n
            assert by_blocks <= covered, n


class TestVerifierWitnessCap:
    def test_empty_family_lists_1000_of_each_kind(self):
        rep = checked_verify(family_from_json({"m": 8, "chains": [], "excluded": []}))
        assert not rep.ok and (rep.element_count, rep.chain_count) == (0, 0)
        by_kind = {}
        for kind, witness in rep.failures:
            by_kind.setdefault(kind, []).append(witness)
        walk = list(enumerate_all_partitions(8))
        assert len(walk) == 4140
        assert by_kind["missing"] == [p.literal() for p in walk[:1000]] + ["3140 more"]
        # n = 7 is odd, so a partition with five or more blocks fails both
        # coverage tests: 2 * (1050 + 266 + 28 + 1) = 2690 failures.
        assert len(by_kind["coverage"]) == 1001
        assert by_kind["coverage"][-1] == "1690 more"
        assert by_kind["coverage"][:2] == ["1,2,3,4/5/6/7/8 has 5 blocks",
                                           "1,2,3,4/5/6/7/8 has rank 3"]
        assert by_kind["chain_count"] == ["0 chains, middle level has 1050"]
        assert set(by_kind) == {"missing", "coverage", "chain_count"}

    def test_one_partition_short_names_it(self):
        fam = family(7)
        short = PartitionChainFamily(8, fam.chains, fam.excluded[1:])
        rep = checked_verify(short)
        assert rep.failures == (("missing", fam.excluded[0].literal()),)

    def test_cap_boundary(self):
        # Excluded partitions have few blocks, so dropping them adds only
        # missing failures: 1000 are all listed, 1001 end in a count.
        fam = family(7)
        for dropped, tail in ((1000, ()), (1001, (("missing", "1 more"),))):
            rep = checked_verify(
                PartitionChainFamily(8, fam.chains, fam.excluded[dropped:]))
            listed, rest = rep.failures[:1000], rep.failures[1000:]
            assert {kind for kind, _ in listed} == {"missing"}
            assert {w for _, w in listed} <= {p.literal() for p in fam.excluded[:dropped]}
            assert rest == tail


class TestAgainstReference:
    def test_built_family_equals_object_walk(self):
        for n in range(9):
            assert build_partition_chains(n) == reference_family(n), n

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_chain_links_are_injections(self, n, data):
        chain = data.draw(st.sampled_from([c for c in family(n).chains if len(c) > 1]))
        t = data.draw(st.integers(min_value=0, max_value=len(chain) - 2))
        lo, hi = chain[t], chain[t + 1]
        (i,) = set(class_of(hi).elements) - set(class_of(lo).elements)
        assert inject(lo, i) == hi
        assert inject_inverse(hi, i) == lo

    @given(st.integers(min_value=0, max_value=6))
    def test_chains_sit_in_the_rank_window(self, n):
        fam = family(n)
        for chain in fam.chains:
            assert chain[0].rank + chain[-1].rank == n
            assert [p.rank for p in chain] == list(range(chain[0].rank, chain[-1].rank + 1))
        placed = sum(len(chain) for chain in fam.chains)
        assert placed + len(fam.excluded) == bell_oracle(n + 1)
        assert all(p.rank > n // 2 for p in fam.excluded)


class TestVerifierMutations:
    """Each broken family must be reported with the failure kind it breaks."""

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_dropped_top(self, n, data):
        fam = family(n)
        chains = list(fam.chains)
        a = data.draw(st.sampled_from([i for i, c in enumerate(chains) if len(c) > 1]))
        chains[a] = chains[a][:-1]
        assert {"not_symmetric", "missing"} <= failure_kinds(n + 1, chains, fam.excluded)

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_member_moved_to_another_chain(self, n, data):
        fam = family(n)
        chains = list(fam.chains)
        a = data.draw(st.sampled_from([i for i, c in enumerate(chains) if len(c) > 1]))
        b = data.draw(st.sampled_from([i for i in range(len(chains)) if i != a]))
        chains[b] = chains[b] + chains[a][-1:]
        chains[a] = chains[a][:-1]
        assert "not_symmetric" in failure_kinds(n + 1, chains, fam.excluded)

    @settings(max_examples=40)
    @given(st.integers(min_value=3, max_value=6), st.data())
    def test_non_minimum_merge(self, n, data):
        # merging blocks x < y (by minimum) is a singleton merge only when x
        # is a singleton, so merge a larger x into a later block instead
        fam = family(n)
        sites = [(a, t, x, y)
                 for a, chain in enumerate(fam.chains)
                 for t, lo in enumerate(chain[:-1])
                 for x in range(lo.block_count) if len(lo.blocks[x]) > 1
                 for y in range(x + 1, lo.block_count)]
        a, t, x, y = data.draw(st.sampled_from(sites))
        lo = fam.chains[a][t]
        rest = [blk for idx, blk in enumerate(lo.blocks) if idx not in (x, y)]
        wrong = SetPartition.of(lo.m, rest + [lo.blocks[x] + lo.blocks[y]])
        chains = list(fam.chains)
        chains[a] = chains[a][:t + 1] + (wrong,) + chains[a][t + 2:]
        assert "not_saturated" in failure_kinds(n + 1, chains, fam.excluded)

    @settings(max_examples=40)
    @given(st.integers(min_value=3, max_value=6), st.data())
    def test_duplicated_excluded(self, n, data):
        fam = family(n)
        p = data.draw(st.sampled_from(fam.excluded))
        assert "overlap" in failure_kinds(n + 1, fam.chains, fam.excluded + (p,))

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_kept_partition_moved_to_excluded(self, n, data):
        # a chain's bottom has rank at most n//2, which coverage demands
        fam = family(n)
        chains = list(fam.chains)
        a = data.draw(st.sampled_from([i for i, c in enumerate(chains) if len(c) > 1]))
        bottom = chains[a][0]
        chains[a] = chains[a][1:]
        assert "coverage" in failure_kinds(n + 1, chains, fam.excluded + (bottom,))


def reference_family_to_dot(fam):
    """family_to_dot by objects: every block pair of every node merged
    through SetPartition.of, and all edges sorted at the end."""
    nodes = {p for chain in fam.chains for p in chain} | set(fam.excluded)
    links = {(lo, hi) for chain in fam.chains for lo, hi in zip(chain, chain[1:])}
    excluded = set(fam.excluded)
    lines = ["digraph partition_chains {", "  rankdir=BT;", "  node [shape=box];"]
    for p in sorted(nodes, key=lambda q: q.blocks):
        attr = " [style=dashed]" if p in excluded else ""
        lines.append(f'  "{p.literal()}"{attr};')
    edges = []
    for p in nodes:
        for a in range(p.block_count):
            for b in range(a + 1, p.block_count):
                up_blocks = [blk for idx, blk in enumerate(p.blocks) if idx not in (a, b)]
                up_blocks.append(tuple(sorted(p.blocks[a] + p.blocks[b])))
                up = SetPartition.of(p.m, up_blocks)
                if up in nodes:
                    style = "solid" if (p, up) in links else "dotted"
                    edges.append((p.blocks, up.blocks, f'  "{p.literal()}" -> "{up.literal()}" [style={style}];'))
    lines.extend(line for _, _, line in sorted(edges))
    lines.append("}")
    return "\n".join(lines)


# SHA-256 of family_to_dot(build_partition_chains(7)), as the object-based
# reference gave it.
FAMILY_DOT_7_SHA256 = "f5a7e262c7b2724e3a4fc0ce3b31b06336f4cf8f311adb119225127acd37fe73"

# SHA-256 of json.dumps(family_to_json(build_partition_chains(n))), n = 0..9:
# a faster builder must give byte-identical families.
FAMILY_JSON_SHA256 = [
    "dbdd814e4acbec70bbde8ae5f9c210aaec9984ed3a2eb8f286dd12885cf492c8",
    "0d4ea581a4b4e5210d59d78a39990bbe7e15ba621310c05bbe8d194dc3a37dba",
    "3d098375b73bed4590326822fd8593cf370d7ba771a7e82fb93813e4509ab1d7",
    "35e32f4a65dfc44faa4fe0cef1345c366643672b37267e8f11d27c5b76998d63",
    "d5b509dd534f120f527666f9399767d620892a447582210e3d6143b47f1dd59e",
    "3313c041ba463f2a21a421c3cc68d298823af9243b95953d93b95b9822b8b09c",
    "13131c4000d52536b059105c81cee56ed931e5822a2aeb5c55d3fee27a5cb071",
    "ea3d919e7f8769e90e68ca32baeb66cc170ba3c847b5e301f960dbb4e02e5e64",
    "60975054c2ca9990b59ddf29c2f604ee8eb1bda6e4fcb2fd1d2a50ac13dffb31",
    "d949bcc633e394721754507214403124418ab1517a3437fe78ceae0781a40dc5",
]


class TestFamilySerialization:
    def test_family_json_goldens(self):
        for n, expected in enumerate(FAMILY_JSON_SHA256):
            text = json.dumps(family_to_json(build_partition_chains(n)))
            assert hashlib.sha256(text.encode()).hexdigest() == expected, n

    def test_json_roundtrip(self):
        fam = build_partition_chains(4)
        obj = family_to_json(fam)
        assert obj["m"] == 5
        back = family_from_json(obj)
        assert back == fam

    def test_json_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            family_from_json({"m": 3, "chains": []})

    def test_dot_equals_the_object_reference(self):
        for n in range(7):
            fam = build_partition_chains(n)
            assert family_to_dot(fam) == reference_family_to_dot(fam), n
        dot = family_to_dot(build_partition_chains(7))
        assert hashlib.sha256(dot.encode()).hexdigest() == FAMILY_DOT_7_SHA256

    def test_dot_draws_every_chain_link(self):
        # 1/2/3/4 lies in two chains, so both its links are solid.
        fam = build_partition_chains(3)
        chains = tuple(tuple(c) for c in fam.chains) + ((P4(4, "1/2/3/4"), P4(4, "1,2/3/4")),)
        hand = PartitionChainFamily(4, chains, tuple(fam.excluded))
        dot = family_to_dot(hand)
        assert dot == reference_family_to_dot(hand)
        assert '"1/2/3/4" -> "1/2/3,4" [style=solid]' in dot
        assert '"1/2/3/4" -> "1,2/3/4" [style=solid]' in dot

    def test_dot_output(self):
        dot = family_to_dot(build_partition_chains(3))
        assert dot.startswith("digraph")
        assert "1,3,4/2" in dot
        assert "dashed" in dot


def is_canonical_partition(m, blocks):
    """True when ``blocks`` is a partition of {1..m} in canonical order."""
    elements = [e for block in blocks for e in block]
    return (sorted(elements) == list(range(1, m + 1))
            and all(block and list(block) == sorted(set(block)) for block in blocks)
            and [block[0] for block in blocks] == sorted(block[0] for block in blocks))


@st.composite
def block_tuples(draw):
    """Block tuples for m <= 7 that are often partitions of {1..m} and
    otherwise break one rule: an element repeated, missing or outside
    1..m, a block out of order or unsorted, an empty block."""
    m = draw(st.integers(min_value=0, max_value=7))
    blocks = [list(b) for b in draw_partition(draw, m).blocks] if m else []
    how = draw(st.sampled_from(["keep", "repeat", "drop", "outside", "swap", "unsort", "empty"]))
    if how == "repeat" and blocks:
        draw(st.sampled_from(blocks)).append(draw(st.integers(1, m)))
    elif how == "drop" and blocks:
        block = draw(st.sampled_from(blocks))
        block.pop()
        blocks = [b for b in blocks if b]
    elif how == "outside":
        blocks.append([draw(st.sampled_from([0, m + 1, m + 2, 255]))])
    elif how == "swap" and len(blocks) > 1:
        i = draw(st.integers(0, len(blocks) - 2))
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
    elif how == "unsort":
        long = [b for b in blocks if len(b) > 1]
        if long:
            draw(st.sampled_from(long)).reverse()
    elif how == "empty":
        blocks.insert(draw(st.integers(0, len(blocks))), [])
    return m, tuple(map(tuple, blocks))


class TestRankIndex:
    def test_rank_is_the_walk_counter(self):
        for m in range(10):
            index = _rank_index(m)
            ranks = [index(p) for p in _iter_partitions(m)]
            assert ranks == list(range(len(ranks))), m
            assert len(ranks) == bell_oracle(m)

    def test_rank_is_a_bijection_onto_range_bell(self):
        # the walk counter is 0..Bell(m)-1, so every rank lies in that range
        for m in range(10):
            index = _rank_index(m)
            assert sorted(map(index, _iter_partitions(m))) == list(range(bell_oracle(m)))

    def test_refusals(self):
        index = _rank_index(4)
        for blocks in [((1, 2), (3,)), ((1, 2), (3,), (4,), (4,)), ((2,), (1, 3, 4)),
                       ((1, 3), (2,), (2, 4)), ((1,), (), (2, 3, 4)), ((1, 2, 3, 4, 5),),
                       ((1, 2), (4, 3)), ((1,), (2,), (3,), (4,), (5,)), ((0, 1, 2, 3, 4),)]:
            assert index(blocks) == -1, blocks

    def test_refuses_misplaced_overlong_and_repeated_blocks(self):
        for m in range(2, 10):
            index = _rank_index(m)
            rest = tuple((e,) for e in range(3, m + 1))
            # a block whose minimum lies below its position
            assert index(((2,), (1,)) + rest) == -1, m
            # m + 1 blocks
            assert index(((1,),) + tuple((e,) for e in range(1, m + 1))) == -1, m
            # an element twice
            assert index(((1, 2), (2,)) + rest) == -1, m
            assert index(((1,), (2,)) + rest) >= 0, m

    @settings(max_examples=400)
    @given(block_tuples())
    def test_rank_refuses_exactly_the_non_partitions(self, case):
        m, blocks = case
        rank = _rank_index(m)(blocks)
        if is_canonical_partition(m, blocks):
            assert rank == list(_iter_partitions(m)).index(blocks)
        else:
            assert rank == -1


@st.composite
def mutated_families(draw):
    """A built family on m <= 7 with one to three random edits: a member
    dropped, repeated, moved between chains or to and from the excluded
    list, a chain dropped or reversed, a chain forked off a member, or a
    partition added that is random, outside the lattice, or out of
    canonical order."""
    n = draw(st.integers(min_value=0, max_value=6))
    m = n + 1
    fam = family(n)
    chains = [list(c) for c in fam.chains]
    excluded = list(fam.excluded)

    def somewhere():
        """A list to edit: a chain or the excluded list."""
        return draw(st.sampled_from(chains + [excluded]))

    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "repeat", "move", "drop_chain", "reverse",
                                    "fork", "random", "outside", "scramble"]))
        target = somewhere()
        if how == "drop" and target:
            target.pop(draw(st.integers(0, len(target) - 1)))
        elif how == "repeat" and target:
            somewhere().append(draw(st.sampled_from(target)))
        elif how == "move" and target:
            p = target.pop(draw(st.integers(0, len(target) - 1)))
            dest = somewhere()
            dest.insert(draw(st.integers(0, len(dest))), p)
        elif how == "drop_chain" and chains:
            chains.pop(draw(st.integers(0, len(chains) - 1)))
        elif how == "reverse" and chains:
            draw(st.sampled_from(chains)).reverse()
        elif how == "fork":
            # A new chain from lo to a cover other than hi, so that lo has a
            # successor in two chains.
            links = [(lo, hi) for c in chains for lo, hi in zip(c, c[1:]) if lo.block_count >= 3]
            if links:
                lo, hi = draw(st.sampled_from(links))
                ups = [SetPartition.of(m, lo.blocks[:a] + lo.blocks[a + 1:b] + lo.blocks[b + 1:]
                                       + (lo.blocks[a] + lo.blocks[b],))
                       for a, b in itertools.combinations(range(lo.block_count), 2)]
                chains.append([lo, draw(st.sampled_from([up for up in ups if up != hi]))])
        elif how == "random":
            target.append(draw_partition(draw, m))
        elif how == "outside":
            target.append(_trusted(m, ((1,), (m + 1,))))
        elif how == "scramble" and target:
            p = draw(st.sampled_from(target))
            if p.block_count > 1:
                target.append(_trusted(m, tuple(reversed(p.blocks))))
    return PartitionChainFamily(m, tuple(tuple(c) for c in chains if c), tuple(excluded))


class TestVerifierAgainstReference:
    def test_built_families(self):
        for n in range(9):
            rep = checked_verify(family(n))
            assert rep.ok, n

    @settings(max_examples=300)
    @given(mutated_families())
    def test_mutants(self, fam):
        checked_verify(fam)


@lru_cache(maxsize=None)
def tuple_family(n):
    """The built family on {1..n+1} as tuples, as a loaded one holds it."""
    fam = family(n)
    return tuple(tuple(chain) for chain in fam.chains), tuple(fam.excluded)


# Leaves text in stdout's buffer, then verifies m = 10 through a forked
# child; stdout is a buffered pipe, so the text is flushed only at exit.
FORK_PROBE = """
import io, os, sys
assert isinstance(sys.stdout.buffer, io.BufferedWriter)
from symchains import build_partition_chains, verify_partition_chains
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []

def spy():
    forks.append(os.getpid())
    return fork()

os.fork = spy
sys.stdout.write("unflushed")
assert verify_partition_chains(build_partition_chains(9)).ok
assert len(forks) == 1
"""


class TestTwoProcessVerify:
    """From Bell(9) partitions on, with two CPUs, a forked child marks half
    of the family: the tail of a built family's class list, or a hand-built
    family's excluded list.  Its reports must equal the reference's on the
    built family and on mutants that hit each way the two maps meet."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """Two CPUs for the verifier, whatever the machine has; returns the
        list of the workers it starts."""
        started = []
        worker = partitions._Worker

        def spy(*args):
            started.append(worker(*args))
            return started[-1]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(partitions, "_Worker", spy)
        return started

    def test_built_family(self, workers):
        fds = len(os.listdir("/proc/self/fd"))
        assert checked_verify(family(9)).ok
        assert len(workers) == 1
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_tuple_chains_with_the_built_excluded_view(self, workers):
        # The chains are tuples and the excluded list is the built view, so
        # the child reads the view's unordered stream (``_Excluded.blocks``,
        # the tails of the class runs) while the verifier marks the chains.
        chains, excluded = tuple_family(9)
        mixed = verify_partition_chains(PartitionChainFamily(10, chains, family(9).excluded))
        assert len(workers) == 1
        assert mixed.ok
        assert mixed == verify_partition_chains(PartitionChainFamily(10, chains, excluded))
        assert len(workers) == 2

    @pytest.mark.parametrize("mutant, counts", [
        # The "excluded list repeats a partition" overlap comes with each
        # mutant that excludes a partition already marked.
        ("member_excluded_once", {"overlap": 2}),
        ("member_excluded_twice", {"overlap": 3}),
        ("excluded_repeated", {"overlap": 1}),
        ("outside_in_each", {"missing": 1, "not_symmetric": 1, "chain_count": 1}),
        ("outside_in_both", {"missing": 1, "not_symmetric": 1, "chain_count": 1, "overlap": 3}),
        ("member_dropped", {"missing": 1, "coverage": 2, "not_saturated": 1}),
        ("coverage_breach", {"coverage": 2, "not_symmetric": 1}),
    ])
    def test_mutants_of_m10(self, workers, mutant, counts):
        chains, excluded = tuple_family(9)
        m = 10
        member = chains[5][1]
        outside = _trusted(m, ((1,), (m + 1,)))
        if mutant == "member_excluded_once":
            excluded += (member,)
        elif mutant == "member_excluded_twice":
            excluded += (member, member)
        elif mutant == "excluded_repeated":
            excluded += excluded[:2] + excluded[:1]
        elif mutant == "outside_in_each":
            chains += ((outside,),)
            excluded += (_trusted(m, ((1,), (m + 2,))),)
        elif mutant == "outside_in_both":
            chains += ((outside,),)
            excluded += (outside, outside)
        elif mutant == "member_dropped":
            chains = chains[:5] + (chains[5][:1] + chains[5][2:],) + chains[6:]
        else:
            # The bottom of a chain has more than m/2 blocks, so a chain
            # must hold it.
            chains, excluded = chains[:5] + (chains[5][1:],) + chains[6:], excluded + chains[5][:1]
        rep = checked_verify(PartitionChainFamily(m, chains, excluded))
        assert Counter(kind for kind, _ in rep.failures) == counts
        assert len(workers) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("source, reader", [("tail", "head"), ("head", "head"), ("tail", "tail")])
    def test_a_class_read_twice(self, workers, monkeypatch, cpus, source, reader):
        # The job list is patched so that one class, whose runs hold chains
        # and excluded partitions, is read twice: by both halves, across the
        # two maps (chain/chain and excluded/excluded), or twice by one.
        # The family read that way is its chains and excluded list with
        # that class's runs once more, which the reference checks by hand.
        fam = family(9)
        m = 10
        places = fam.chains.places
        halves = partitions._halves
        split = dict(zip(("head", "tail"), halves(partitions._class_weights(m, places))))

        def runs(sizes):
            return list(partitions._class_runs(m, places, [sizes]))

        twice = next(sizes for sizes in split[source]
                     if any(chain for chain, _ in runs(sizes)) and any(tail for _, tail in runs(sizes)))
        chains = [chain for chain, _ in runs(twice) if chain]
        tails = [p for _, tail in runs(twice) for p in tail]

        def read_twice(weights):
            got = dict(zip(("head", "tail"), halves(weights)))
            got[reader] = got[reader] + [twice]
            return got["head"], got["tail"]

        monkeypatch.setattr(partitions, "_halves", read_twice)
        if cpus == 1:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rep = verify_partition_chains(PartitionChainFamily(
            m, partitions._Chains(m, places, len(fam.chains) + len(chains)),
            partitions._Excluded(m, places, len(fam.excluded) + len(tails))))
        tuple_chains, tuple_excluded = tuple_family(9)
        ref = reference_verify_partition_chains(PartitionChainFamily(
            m, tuple_chains + tuple(tuple(_trusted(m, p) for p in chain) for chain in chains),
            tuple_excluded + tuple(_trusted(m, p) for p in tails)))
        assert (rep.ok, rep.element_count, rep.chain_count) == (ref.ok, ref.element_count, ref.chain_count)
        assert Counter(rep.failures) == Counter(ref.failures)
        assert Counter(kind for kind, _ in rep.failures) == {
            "overlap": sum(map(len, chains)) + 1, "chain_count": 1}
        assert len(workers) == cpus - 1

    def test_failed_worker_raises_and_is_reaped(self, workers, monkeypatch, capfd):
        # Both processes run the marking routine, so it fails only in the
        # child; the verifier marks its half and then reads the exit code.
        parent = os.getpid()
        mark = partitions._mark_runs

        def fail(*args):
            if os.getpid() != parent:
                raise ValueError("gave up")
            return mark(*args)

        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(partitions, "_mark_runs", fail)
        with pytest.raises(RuntimeError, match="exited with 1$"):
            verify_partition_chains(PartitionChainFamily(10, (), ()))
        assert len(workers) == 1
        assert "ValueError: gave up" in capfd.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_error_in_the_verifier_kills_the_worker(self, workers, monkeypatch):
        # Both halves of a built family hold chains, so both processes check
        # links: the check raises in the verifier and holds the child until
        # it is killed, so the child is still running then.
        parent = os.getpid()

        def fail(lo, hi):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            signal.pause()

        codes = []
        waitpid = os.waitpid

        def reap(pid, options):
            pid, status = waitpid(pid, options)
            codes.append(os.waitstatus_to_exitcode(status))
            return pid, status

        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(partitions, "_is_singleton_merge", fail)
        monkeypatch.setattr(os, "waitpid", reap)
        with pytest.raises(KeyboardInterrupt):
            verify_partition_chains(family(9))
        assert len(workers) == 1 and codes == [-signal.SIGKILL]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_one_cpu_verifies_in_process(self, workers, monkeypatch):
        two = verify_partition_chains(family(9))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert verify_partition_chains(family(9)) == two
        assert len(workers) == 1

    @pytest.mark.parametrize("hazard", ["second_thread", "no_affinity_call"])
    def test_no_fork_verifies_in_process(self, workers, monkeypatch, hazard):
        two = verify_partition_chains(family(9))
        if hazard == "no_affinity_call":
            monkeypatch.delattr(os, "sched_getaffinity")
            assert verify_partition_chains(family(9)) == two
        else:
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            try:
                assert verify_partition_chains(family(9)) == two
            finally:
                release.set()
                thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(workers) == 1

    def test_child_flushes_none_of_the_parents_buffers(self):
        proc = fresh_python(FORK_PROBE, env={"PYTHONUNBUFFERED": ""})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "unflushed"


class TestClassRuns:
    """The verifier reads a built family as class runs: each birth of a
    class expanded once up its subset chain, its first max(0, 2b - m)
    members a chain and the rest excluded, the classes weighed by the
    partitions their runs hold and cut into two halves of near equal
    weight."""

    def test_runs_are_the_chains_and_the_excluded(self):
        for n in range(9):
            m = n + 1
            fam = family(n)
            chains, tails = Counter(), []
            for chain, tail in partitions._class_runs(m, fam.chains.places, fam.chains.places):
                if chain:
                    chains[tuple(chain)] += 1
                tails += tail
            assert chains == Counter(tuple(p.blocks for p in chain) for chain in fam.chains), n
            assert len(tails) == len(fam.excluded) and set(tails) == {p.blocks for p in fam.excluded}, n

    def test_weights_count_the_runs(self):
        for n in range(10):
            m = n + 1
            places = family(n).chains.places
            weights = partitions._class_weights(m, places)
            assert [sizes for sizes, _ in weights] == list(places), n
            for sizes, weight in weights:
                runs = partitions._class_runs(m, places, [sizes])
                assert weight == sum(len(chain) + len(tail) for chain, tail in runs), (n, sizes)
            assert sum(weight for _, weight in weights) == bell_oracle(m), n

    def test_halves_differ_by_at_most_the_heaviest_class(self):
        for n in range(12):
            weights = dict(partitions._class_weights(n + 1, family(n).chains.places))
            head, tail = partitions._halves(list(weights.items()))
            assert head + tail == list(weights), n
            gap = sum(map(weights.get, head)) - sum(map(weights.get, tail))
            assert abs(gap) <= max(weights.values()), (n, gap)


class TestDotOfMutants:
    # The reference is slow at m = 7, hence no deadline.
    @settings(deadline=None)
    @given(mutated_families())
    def test_equals_the_object_reference(self, fam):
        members = itertools.chain(itertools.chain.from_iterable(fam.chains), fam.excluded)
        assume(all(is_canonical_partition(fam.m, p.blocks) for p in members))
        assert family_to_dot(fam) == reference_family_to_dot(fam)


class TestBuiltFamilyViews:
    """A built family holds only its place table; its views walk the
    partitions when read and behave as the tuples of a hand-built family."""

    def test_len_expands_nothing(self, monkeypatch):
        fam = build_partition_chains(6)

        def refuse(*args):
            raise AssertionError("len expanded a partition")

        for name in ("_partitions", "_expand"):
            monkeypatch.setattr(partitions, name, refuse)
        # Reading the chains walks their starts and expands none of them;
        # after that, no length walks anything.
        chains = tuple(fam.chains)
        monkeypatch.setattr(partitions, "_walk", refuse)
        assert sum(len(chain) for chain in chains) + len(fam.excluded) == bell_oracle(7)
        assert len(fam.chains) == 350

    def test_lengths_match_the_members(self):
        # The counts come from class sizes; the views walk what they count.
        for n in range(10):
            fam = family(n)
            assert len(fam.chains) == len(tuple(fam.chains)), n
            assert [len(c) for c in fam.chains] == [len(tuple(c)) for c in fam.chains]
            assert len(fam.excluded) == len(tuple(fam.excluded))
            assert list(fam.excluded) == sorted(fam.excluded, key=lambda p: p.blocks)

    def test_excluded_equals_the_split_back_rule(self):
        for n in range(9):
            assert tuple(family(n).excluded) == reference_excluded_by_rule(n), n

    def test_ordered_excluded_equals_the_sorted_stream(self):
        # The ordered read applies the split-back rule to the block-order
        # walk; the unordered stream walks the classes' runs instead.
        for n in range(11):
            excluded = family(n).excluded
            assert [p.blocks for p in excluded] == sorted(excluded.blocks()), n

    @staticmethod
    def walked(monkeypatch, run):
        """``run()``'s result and the types ``_partitions`` walked for it.
        A merge index at the last block is answered with no walk, as every
        member is an image (``test_births_walk_equals_the_filtered_class``
        checks the empty answer), so such a call is not counted."""
        types = []
        walk = partitions._partitions

        def spy(m, sizes, j=-1):
            if j < len(sizes) - 1:
                types.append(tuple(sizes))
            return walk(m, sizes, j)

        with monkeypatch.context() as patch:
            patch.setattr(partitions, "_partitions", spy)
            return run(), types

    def test_walks_only_classes_with_work(self, monkeypatch):
        # The builder walks no class.  The excluded view walks, once each,
        # the classes whose births run past what a chain keeps; the births
        # are counted here from the class sizes (inject is one-to-one, so a
        # class outnumbers the one below it by them).
        def size(s):
            e = encode(s).entries
            return prod(comb(i - 1, e[i - 1] - 1) for i in range(1, s.n + 2) if e[i - 1])

        counts = []
        for n in range(10):
            m = n + 1
            fam, built = self.walked(monkeypatch, lambda: build_partition_chains(n))
            assert built == [], n
            _, walked = self.walked(monkeypatch, lambda: list(fam.excluded.blocks()))
            expected = []
            for bchain in gk_decomposition(n).chains:
                sizes = [size(s) for s in bchain.sets]
                for t, s in enumerate(bchain.sets):
                    births = sizes[t] - (sizes[t - 1] if t else 0)
                    if births and len(sizes) - t > max(0, 2 * (m - len(s)) - m):
                        expected.append(tuple(reversed([e for e in encode(s).entries if e])))
            assert walked == expected, n
            counts.append(len(walked))
        assert counts == [0, 0, 0, 1, 3, 9, 21, 50, 108, 238]

    @pytest.mark.parametrize("how", [f"pickle-{p}" for p in range(6)] + ["copy", "deepcopy"])
    def test_pickle_and_copy_keep_the_views(self, how):
        # Protocols 0 and 1 refused the slotted views before they had a
        # __reduce__; every way must give back views over one chain table,
        # which the excluded view reads through the chains' ``places``.
        again = {"copy": copy.copy, "deepcopy": copy.deepcopy}.get(how) or (
            lambda v: pickle.loads(pickle.dumps(v, protocol=int(how[-1]))))
        for n in range(6):
            fam = family(n)
            got = again(fam)
            assert got == fam and verify_partition_chains(got).ok, (how, n)
            assert type(got.chains) is partitions._Chains and type(got.excluded) is partitions._Excluded
            assert got.excluded.places is got.chains.places, (how, n)
            for chain in (fam.chains[0], fam.chains[-1]):
                assert again(chain) == chain and type(again(chain)) is partitions._Chain, (how, n)
            assert again(fam.excluded) == fam.excluded and len(again(fam.excluded)) == len(fam.excluded)

    def test_neither_view_pickles_a_partition(self):
        # Each view holds the place table and a count, so it pickles within
        # twice the table, and its copy walks what it walked.
        for n in range(10):
            fam = family(n)
            for view, walk in ((fam.chains, fam.chains.blocks), (fam.excluded, fam.excluded.blocks)):
                got = pickle.loads(pickle.dumps(view))
                assert len(got) == len(view) and list(got.blocks()) == list(walk()), n
        places = len(pickle.dumps(fam.chains.places))
        assert len(pickle.dumps(fam.chains)) < 2 * places and len(pickle.dumps(fam.excluded)) < 2 * places

    def test_the_build_walks_no_partition(self, monkeypatch):
        assert partitions._Chains.__slots__ == ("m", "places", "length")

        def refuse(*args):
            raise AssertionError("the build walked partitions")

        for name in ("_partitions", "_walk"):
            monkeypatch.setattr(partitions, name, refuse)
        fam = build_partition_chains(6)
        assert len(fam.chains) == stirling_table(7).value(7, 4)
        assert len(fam.excluded) == len(reference_excluded_by_rule(6))

    def test_walked_starts_equal_the_stored_ones(self):
        # The builder once walked each class for its births and sorted
        # them; the block-order walk gives the same starts in the same order.
        for n in range(10):
            chains = family(n).chains
            starts = reference_chain_starts(n)
            assert list(chains.starts()) == starts, n
            assert [chain._start for chain in chains] == starts, n

    def test_reading_the_chains_holds_nothing(self):
        # Stored, the starts would hold about 100 bytes a chain.  A read
        # holds none of them: ten more reads grow the traced size by less
        # than a byte a chain, the churn of the tuple free lists, which are
        # filled first (as in ``test_boolean.traced_peak_ratio``).
        fam = family(8)

        def read():
            for chain in fam.chains:
                for _ in chain:
                    pass

        gc.collect()
        gc.disable()
        try:
            filler = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
            del filler
            read()
            tracemalloc.start()
            try:
                read()
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(10):
                    read()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()
        assert after - before < len(fam.chains), (before, after)

    def test_index_and_slices_walk_to_the_chains_picked(self):
        fam = family(5)
        chains = tuple(fam.chains)
        picks = [0, 1, -1, -len(chains), len(chains) - 1]
        cuts = [slice(None), slice(3, 9), slice(None, None, 4), slice(-2, None), slice(9, 3),
                slice(None, None, -1), slice(10, 2, -3), slice(-1, -5, -2), slice(2, 2)]
        for i in picks:
            assert fam.chains[i] == chains[i], i
        for cut in cuts:
            assert fam.chains[cut] == chains[cut] and type(fam.chains[cut]) is tuple, cut
        for i in (len(chains), -len(chains) - 1):
            with pytest.raises(IndexError):
                fam.chains[i]

    def test_reversed_and_index_walk_once(self, monkeypatch):
        # Sequence's own would walk the partitions once per position.
        fam = family(5)
        chains = tuple(fam.chains)
        excluded = tuple(fam.excluded)
        walks = []
        walk = partitions._walk

        def spy(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(partitions, "_walk", spy)
        assert tuple(reversed(fam.chains)) == chains[::-1] and len(walks) == 1
        for i in (0, 7, len(chains) - 1):
            assert fam.chains.index(chains[i]) == i
            assert fam.chains.index(tuple(chains[i]), i, i + 1) == i
        assert fam.chains.index(chains[-1], -3) == len(chains) - 1
        assert len(walks) == 8
        for start, stop in ((1, None), (0, 0), (-len(chains) + 1, None)):
            with pytest.raises(ValueError, match="is not a chain of the family"):
                fam.chains.index(chains[0], start, stop)
        with pytest.raises(ValueError):
            fam.chains.index(())
        walks.clear()
        assert tuple(reversed(fam.excluded)) == excluded[::-1] and len(walks) == 1
        for i in (0, 7, len(excluded) - 1):
            assert fam.excluded[i] == excluded[i] and fam.excluded.index(excluded[i]) == i
        assert fam.excluded.index(excluded[-1], -3) == len(excluded) - 1
        assert len(walks) == 8
        with pytest.raises(ValueError, match="is not an excluded partition of the family"):
            fam.excluded.index(excluded[0], 1)
        with pytest.raises(ValueError, match="is not an excluded partition of the family"):
            fam.excluded.index(fam.chains[0][0])

    def test_views_act_as_tuples(self):
        fam = build_partition_chains(3)
        chains = tuple(tuple(c) for c in fam.chains)
        excluded = tuple(fam.excluded)
        assert fam.chains == chains and chains == fam.chains
        assert fam.excluded == excluded and hash(fam.excluded) == hash(excluded)
        assert fam.chains[0] == chains[0] and hash(fam.chains[0]) == hash(chains[0])
        assert fam.chains[1:] == chains[1:] and type(fam.chains[1:]) is tuple
        assert fam.chains[0][:-1] == chains[0][:-1] and type(fam.chains[0][:-1]) is tuple
        assert fam.excluded + fam.chains[0] == excluded + chains[0]
        assert () + fam.excluded == excluded
        assert fam.chains[0] != chains[1] and fam.excluded != ()
        assert repr(fam.excluded) == repr(excluded)
        assert fam.excluded.count(excluded[0]) == 1 and fam.excluded.index(excluded[-1]) == len(excluded) - 1
        assert PartitionChainFamily(4, chains, excluded) == fam
