"""Set partitions, classes, the one-step coarsening, and the chain family.

The brute-force side throughout is enumerate_all_partitions, which walks
restricted-growth choices and never consults codes or classes; the class
and chain machinery is checked against it.
"""

import hashlib
import inspect
import itertools
import json
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from symchains import (
    CeilingExceeded,
    PartitionChainFamily,
    SetPartition,
    Subset,
    all_subsets,
    bell_oracle,
    build_partition_chains,
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
from symchains.partitions import (
    DEFAULT_PARTITION_CEILING,
    _is_image,
    _is_singleton_merge,
    _iter_partitions,
    _merge_index,
    _trusted,
)

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


@lru_cache(maxsize=None)
def family(n):
    return build_partition_chains(n)


def failure_kinds(m, chains, excluded):
    rep = verify_partition_chains(PartitionChainFamily(m, tuple(chains), tuple(excluded)))
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

    def test_link_check_on_all_pairs(self):
        # Partitions of every subset of {1..5}, so of {1..m} for each m <= 5.
        # Pairs over different sets also reach the singleton and minimum
        # tests, which pairs over one set never need.
        everything = [
            tuple(tuple(s.elements[e - 1] for e in block) for block in p.blocks)
            for s in all_subsets(5)
            for p in enumerate_all_partitions(len(s))
        ]
        assert len(everything) == bell_oracle(6)
        for lo in everything:
            for hi in everything:
                assert _is_singleton_merge(lo, hi) == reference_is_singleton_merge(lo, hi), (lo, hi)

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
            rep = verify_partition_chains(fam)
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
        rep = verify_partition_chains(PartitionChainFamily(4, chains, fam.excluded))
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
        rep = verify_partition_chains(PartitionChainFamily(4, chains, fam.excluded))
        assert not rep.ok
        assert "not_saturated" in {kind for kind, _ in rep.failures}
        assert "overlap" in {kind for kind, _ in rep.failures}

    def test_duplicated_excluded_is_overlap(self):
        fam = build_partition_chains(3)
        rep = verify_partition_chains(
            PartitionChainFamily(4, fam.chains, fam.excluded + fam.excluded))
        assert not rep.ok
        assert "overlap" in {kind for kind, _ in rep.failures}

    def test_outside_witness_only_for_outside_partitions(self):
        outside = ("missing", "family mentions partitions outside the lattice")
        fam = build_partition_chains(3)
        rep = verify_partition_chains(PartitionChainFamily(4, fam.chains[1:], fam.excluded))
        assert "missing" in {kind for kind, _ in rep.failures}
        assert outside not in rep.failures
        fam = build_partition_chains(2)
        extra = _trusted(3, ((1, 2), (4,)))
        rep = verify_partition_chains(PartitionChainFamily(3, fam.chains, fam.excluded + (extra,)))
        assert outside in rep.failures
        # one partition missing and one outside: the counts cancel, but the
        # outside one is still reported
        rep = verify_partition_chains(PartitionChainFamily(1, (), (_trusted(1, ((2,),)),)))
        assert ("missing", "1") in rep.failures and outside in rep.failures

    def test_wrong_chain_count_is_reported(self):
        fam = build_partition_chains(2)
        # drop a whole singleton-level chain and stash its members as excluded
        chains = fam.chains[:-1]
        extra = fam.chains[-1]
        rep = verify_partition_chains(PartitionChainFamily(3, chains, fam.excluded + extra))
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
        rep = verify_partition_chains(family_from_json({"m": 8, "chains": [], "excluded": []}))
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
        rep = verify_partition_chains(short)
        assert rep.failures == (("missing", fam.excluded[0].literal()),)

    def test_cap_boundary(self):
        # Excluded partitions have few blocks, so dropping them adds only
        # missing failures: 1000 are all listed, 1001 end in a count.
        fam = family(7)
        for dropped, tail in ((1000, ()), (1001, (("missing", "1 more"),))):
            rep = verify_partition_chains(
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

    def test_dot_output(self):
        dot = family_to_dot(build_partition_chains(3))
        assert dot.startswith("digraph")
        assert "1,3,4/2" in dot
        assert "dashed" in dot
