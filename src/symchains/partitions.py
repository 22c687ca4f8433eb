"""Partitions of {1..m} and the chain family induced on them.

Blocks are kept in canonical form: each block ascending, blocks ordered by
their minima.  The type of a partition is its tuple of block sizes in that
order; reversing the type gives the nonzero entries of a code, and the
decoded subset indexes the partition's class.  Injections between classes
along the subset chains yield a family of disjoint symmetric chains covering
every partition with many blocks.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from operator import getitem
from typing import Optional

from .boolean import _literal as _literal_mask, gk_decomposition
from .coding import _link_added, code_from_nonzeros, encode
from .identities import bell_oracle, stirling_table
from .reports import _WITNESS_CAP, VerificationReport
from .subsets import (
    DEFAULT_PARTITION_CEILING,
    Subset,
    _TupleView,
    _Value,
    _check_ceiling,
    _json_int,
    _unchecked,
)

# A partition's canonical blocks, as SetPartition.blocks holds them; the
# build and verify kernels work on these and key everything on them.
Block = tuple[int, ...]
Blocks = tuple[Block, ...]


class SetPartition(_Value):
    """A partition of {1..m} in canonical block order."""

    __slots__ = ("m", "blocks")
    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Checked first, so a wrong m fails before the table below is sized by it.
        if sum(map(len, self.blocks)) != _json_int(self.m):
            raise ValueError("blocks must cover the ground set exactly")
        seen = [False] * (self.m + 1)
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if _json_int(block[0]) <= prev_min:
                if block[0] < 1:
                    raise ValueError(f"element {block[0]} outside ground set 1..{self.m}")
                raise ValueError("blocks must be ordered by ascending minimum")
            prev_min = block[0]
            prev = 0
            for e in block:
                if _json_int(e) <= prev:
                    raise ValueError(f"block {block} is not strictly increasing")
                if not 1 <= e <= self.m:
                    raise ValueError(f"element {e} outside ground set 1..{self.m}")
                if seen[e]:
                    raise ValueError(f"element {e} appears twice")
                seen[e] = True
                prev = e

    @classmethod
    def of(cls, m: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = sorted(tuple(sorted(block)) for block in blocks)
        return cls(m, tuple(canon))

    @classmethod
    def from_literal(cls, m: int, text: str) -> "SetPartition":
        """Parse ``1,3,4/2`` style literals; all-digit block tokens such as
        ``134`` are read element-wise, which is unambiguous only for m <= 9."""
        blocks = []
        for token in text.strip().split("/"):
            token = token.strip()
            if not token:
                raise ValueError(f"malformed partition literal {text!r}")
            if "," in token:
                try:
                    blocks.append([int(t) for t in token.split(",")])
                except ValueError:
                    raise ValueError(f"malformed block {token!r}") from None
            elif token.isdigit() and len(token) > 1 and m <= 9:
                blocks.append([int(ch) for ch in token])
            else:
                try:
                    blocks.append([int(token)])
                except ValueError:
                    raise ValueError(f"malformed block {token!r}") from None
        return cls.of(m, blocks)

    def literal(self) -> str:
        return _literal(self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def rank(self) -> int:
        return self.m - len(self.blocks)


# A SetPartition around blocks a kernel built canonical.
_trusted = _unchecked(SetPartition)


def _literal(blocks: Blocks) -> str:
    return "/".join(",".join(map(str, block)) for block in blocks)


def type_of(p: SetPartition) -> tuple[int, ...]:
    """Block sizes in canonical block order."""
    return tuple(len(block) for block in p.blocks)


def class_of(p: SetPartition) -> Subset:
    """The subset of {1..m-1} indexing the class of ``p``: the reversed type
    is the nonzero sequence of exactly one code, whose nonzero entries sit at
    the running totals of that sequence, and the class index holds the other
    positions 1..m-1."""
    if not p.blocks:
        # The coding's refusal: no code has an empty nonzero sequence.
        raise ValueError("at least one nonzero entry is required")
    totals = set(itertools.accumulate(map(len, reversed(p.blocks))))
    return Subset(p.m - 1, tuple(i for i in range(1, p.m) if i not in totals))


def enumerate_class(s: Subset, ceiling: int = DEFAULT_PARTITION_CEILING) -> tuple[SetPartition, ...]:
    """All partitions of {1..n+1} in the class of ``s``, in ascending block
    order.

    The target type is read off the code of ``s``, and the block walk at
    that type (``_partitions``) builds exactly the class, already sorted.
    """
    m = s.n + 1
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    sizes = _type_of_code(encode(s).entries)
    return tuple(map(partial(_trusted, m), _partitions(m, sizes)))


def enumerate_all_partitions(m: int, ceiling: int = DEFAULT_PARTITION_CEILING) -> Iterator[SetPartition]:
    """Every partition of {1..m}, by recursive block placement.

    Element e joins each existing block in turn and then opens a new block,
    which is restricted-growth order: the single-block partition comes
    first, all singletons last.
    """
    if _json_int(m) < 0:
        raise ValueError(f"ground size must be nonnegative, got {m}")
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    return map(partial(_trusted, m), _iter_partitions(m))


def _iter_partitions(m: int) -> Iterator[Blocks]:
    """Block tuples of every partition of {1..m}, in restricted-growth order.

    A recursion places 1..m-1; each partition it reaches yields the
    placements of m as one batch, so no partition passes up through a
    generator per element.  The verifier walks this enumeration, never the
    builder's level-by-level one, so a fault in either cannot hide in the
    other.
    """
    if m == 0:
        return iter(((),))
    blocks: list[list[int]] = []
    last = (m,)

    def extend(e: int) -> Iterator[list[Blocks]]:
        if e == m:
            done = tuple(map(tuple, blocks))
            batch = [done[:j] + (block + last,) + done[j + 1:] for j, block in enumerate(done)]
            batch.append(done + (last,))
            yield batch
            return
        for block in blocks:
            block.append(e)
            yield from extend(e + 1)
            block.pop()
        blocks.append([e])
        yield from extend(e + 1)
        blocks.pop()

    return itertools.chain.from_iterable(extend(1))


def _partitions(m: int, sizes: Sequence[int], j: int = -1) -> list[Blocks]:
    """Block tuples of the partitions of {1..m} of type ``sizes``, in
    ascending block order; with a merge index ``j`` >= 0, only those that
    are no image across it (``_is_image``).

    The walk goes a block at a time, in block order (Knuth, TAOCP 4A,
    7.2.1.5): block i is the least free element and an (s_i - 1)-subset of
    the other free ones, and the last block is whatever is left, so each
    result is canonical as built and the class is listed sorted.  The
    blocks still to come depend only on the free set, not on how it was
    reached.  So a first pass collects the free sets each block meets and
    how each one splits, and a second pass, from the last block back,
    lists each free set's completions once and puts each split's block in
    front of the completions of its rest, a tuple concatenation in C for
    each.  The subsets come from ``combinations`` of the free elements,
    and their complements, in the same order, from the reversed
    ``combinations`` of the complement's size.  A run of singleton blocks
    takes the least free elements in one step.  Nothing is held beyond
    the class: the completions of two consecutive steps and the splits
    not yet used.  Equal blocks are one object within a call, so the
    partitions share at most 2^m - 1 blocks.

    A partition is no image across j when block j+1 exists and block j
    leaves out the second-least element free when it is taken: then block
    j's second element lies above block j+1's minimum.  So block j is
    chosen without that element, and no image is built.  With j the last
    block every member is an image, and the walk yields nothing.
    """
    if not sizes:
        return [] if m else [()]
    last = len(sizes) - 1
    if j == last:
        return []
    intern = {}.setdefault
    # Each step before the last block is (size, blocks taken, births rule):
    # one block, or a run of singletons.
    steps = []
    i = 0
    while i < last:
        start, size = i, sizes[i]
        i += 1
        while size == 1 and i < last and sizes[i] == 1:
            i += 1
        steps.append((size, i - start, start == j))
    frees: Iterable[Block] = [tuple(range(1, m + 1))]
    # Forward: the free sets each step meets, each with the blocks it can
    # take (as tuples to put in front) and the rest each leaves.
    tables = []
    for size, count, births in steps:
        table = {}
        for free in frees:
            if size == 1:
                heads = [tuple([intern((e,), (e,)) for e in free[:count]])]
                rests = [free[count:]]
            else:
                pool = free[2:] if births else free[1:]
                blocks = list(map((free[0],).__add__, itertools.combinations(pool, size - 1)))
                heads = list(zip(map(intern, blocks, blocks)))
                rests = list(itertools.combinations(pool, len(pool) + 1 - size))
                rests.reverse()
                if births:
                    rests = list(map((free[1],).__add__, rests))
            table[free] = heads, rests
        tables.append(table)
        frees = dict.fromkeys(itertools.chain.from_iterable([rests for _, rests in table.values()]))
    # Backward: each free set's completions, from the last block up; a
    # step's table is dropped once it is used.
    tails = {free: [(intern(free, free),)] for free in frees}
    while tables:
        done = {}
        for free, (heads, rests) in tables.pop().items():
            run = done[free] = []
            for head, rest in zip(heads, rests):
                run += map(head.__add__, tails[rest])
        tails = done
    return tails.popitem()[1]


def _type_of_code(entries: Sequence[int]) -> tuple[int, ...]:
    """The type of the class whose code has these entries."""
    return tuple(e for e in reversed(entries) if e)


def _merge_index(entries: Sequence[int], i: int) -> int:
    """Index j of the block the link adding ``i`` merges or splits.

    The type is the code's nonzeros reversed, so the nonzero at position i+1
    is block j.  The link rewrites (k, 1) at positions (i, i+1) to (0, k+1),
    so j is the same below, where the singleton merges into block j+1, and
    above, where the merged block splits.
    """
    return sum(1 for e in entries[i + 1:] if e)


def _merge(blocks: Blocks, j: int) -> Blocks:
    """Merge the singleton at index j into the block after it.  Its element
    is below that block's minimum, so the result stays canonical."""
    return blocks[:j] + (blocks[j] + blocks[j + 1],) + blocks[j + 2:]


def _is_image(blocks: Blocks, j: int) -> bool:
    """True when ``blocks`` is the image of a partition merged at index j:
    splitting block j into its minimum and the rest stays canonical, so j
    is the last block or the rest's minimum is below block j+1's."""
    return not (j + 1 < len(blocks) and blocks[j][1] > blocks[j + 1][0])


def _births(m: int, sizes: tuple[int, ...], j: int) -> list[Blocks]:
    """The members of the class of this type that start chains, in
    ascending block order: all of them at the bottom of a subset chain
    (``j`` < 0), otherwise those that are no image (``_is_image``) across
    the arriving link, whose merge index is ``j``.  The block walk
    (``_partitions`` with ``j``) takes block j without the second-least
    free element, so it builds only the births.  When block j is the last,
    every member is an image, and the class is not walked."""
    if j + 1 == len(sizes):
        return []
    return _partitions(m, sizes, j)


def inject(p: SetPartition, i: int) -> SetPartition:
    """Map ``p`` one class up along the link adding ``i``: the class code
    holds (k, 1) at positions (i, i+1), and the singleton block j (see
    ``_merge_index``) merges into the size-k block right after it."""
    entries = code_from_nonzeros(tuple(reversed(type_of(p)))).entries
    if _link_added(entries, _json_int(i)) == 0:
        raise ValueError(f"no chain link adds {i} to class {class_of(p).literal()}")
    return _trusted(p.m, _merge(p.blocks, _merge_index(entries, i)))


def inject_inverse(q: SetPartition, i: int) -> Optional[SetPartition]:
    """Undo ``inject(.., i)`` when possible.

    Splits the merged block j back into its minimum and the rest, in place.
    That split injects to ``q``, and no other partition does, so ``q`` has a
    preimage exactly when the split is canonical (``_is_image``).  Otherwise
    returns None (e.g. splitting 1,3/2 along the link adding 2 leaves 3
    before 2).
    """
    entries = code_from_nonzeros(tuple(reversed(type_of(q)))).entries
    # Range first: position i+1 is read.  Position i reads 0, so block j
    # (size entries[i]) has at least two elements.
    if not 1 <= _json_int(i) < len(entries) or entries[i - 1] != 0 or entries[i] == 0:
        raise ValueError(f"class {class_of(q).literal()} has no link arriving by adding {i}")
    j = _merge_index(entries, i)
    blocks = q.blocks
    if not _is_image(blocks, j):
        return None
    merged = blocks[j]
    return _trusted(q.m, blocks[:j] + ((merged[0],), merged[1:]) + blocks[j + 1:])


def _key(blocks: Blocks) -> bytes:
    """The blocks as one byte string, with a 0 byte between blocks.  Keys
    sort as the block tuples do: both compare the same elements in the
    same order, where one block ends first its 0 sorts below the element
    the other block goes on with, and no key is a prefix of another."""
    return b"\0".join(map(bytes, blocks))


def _unkey(key: bytes) -> Blocks:
    return tuple(map(tuple, key.split(b"\0")))


def _expand(p: Blocks, js: Sequence[int]) -> list[Blocks]:
    """``p`` and its merges at the indices ``js`` in turn."""
    run = [p]
    for j in js:
        p = _merge(p, j)
        run.append(p)
    return run


class _Chains(_TupleView):
    """The chains of a built family, held as their starts.

    ``starts`` holds the key of each chain's bottom, sorted.  ``places``
    maps a class's type to its place t in its subset chain and that chain's
    merge indices js: js[t] is the link arriving at the class (-1 at the
    bottom), and js[t + 1:] lead from it to the top.  A chain starting with
    b blocks keeps 2b - m partitions, so its length is read off the key's 0
    bytes, and its members are the start merged along the next 2b - m - 1
    indices.
    """

    __slots__ = ("m", "starts", "places")

    def __init__(self, m: int, starts: list[bytes], places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]]):
        self.m, self.starts, self.places = m, starts, places

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(_Chain(self, key) for key in self.starts[i])
        return _Chain(self, self.starts[i])

    def __iter__(self) -> Iterator["_Chain"]:
        return map(partial(_Chain, self), self.starts)

    def kept(self, key: bytes) -> list[Blocks]:
        p = _unkey(key)
        t, js = self.places[tuple(map(len, p))]
        return _expand(p, js[t + 1:t + 2 * len(p) - self.m])

    def blocks(self) -> Iterator[list[Blocks]]:
        """Each chain's block tuples, in chain order."""
        return map(self.kept, self.starts)


class _Chain(_TupleView):
    """One chain of a built family: its partitions are expanded from its
    start on access, and its length is not."""

    __slots__ = ("_chains", "_key")

    def __init__(self, chains: _Chains, key: bytes):
        self._chains, self._key = chains, key

    def __len__(self) -> int:
        return 2 * self._key.count(0) + 2 - self._chains.m

    def __iter__(self) -> Iterator[SetPartition]:
        return map(partial(_trusted, self._chains.m), self._chains.kept(self._key))


class _Excluded(_TupleView):
    """The partitions a built family leaves out, in ascending block order:
    the run of each chain up its subset chain past the 2b - m partitions
    it keeps, so the whole run of a chain born above the middle.  Nothing
    of them is stored: the classes whose births have such runs are read
    off the chain table and walked again for their births (``_births``).
    The length, Bell(m) less the kept partitions, is counted when built;
    the members are expanded, and sorted, on access.  ``blocks`` streams
    them unsorted: a class at the top of its subset chain gives its births
    as walked, and any other class merges each birth up the chain's
    remaining indices, sliced once per class, dropping the kept ones."""

    __slots__ = ("_chains", "_count")

    def __init__(self, chains: _Chains, count: int):
        self._chains, self._count = chains, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[SetPartition]:
        make = partial(_trusted, self._chains.m)
        return (make(_unkey(key)) for key in sorted(map(_key, self.blocks())))

    def blocks(self) -> Iterator[Blocks]:
        """The excluded block tuples, in no particular order."""
        m = self._chains.m
        for sizes, (t, js) in self._chains.places.items():
            keep = max(0, 2 * len(sizes) - m)
            up = js[t + 1:]
            if len(up) < keep:
                continue
            born = _births(m, sizes, js[t])
            if not up:
                yield from born
            elif keep:
                for p in born:
                    yield from _expand(p, up)[keep:]
            else:
                for p in born:
                    yield from _expand(p, up)


def _chain_blocks(chains: Sequence[Sequence[SetPartition]]) -> Iterable[list[Blocks]]:
    """Each chain as a list of block tuples; a built family's chains are
    expanded from their starts without a SetPartition per member."""
    if isinstance(chains, _Chains):
        return chains.blocks()
    return ([p.blocks for p in chain] for chain in chains)


def _excluded_blocks(excluded: Sequence[SetPartition]) -> Iterable[Blocks]:
    """The block tuples of the excluded partitions; a built family's come
    unsorted, straight from the runs that hold them."""
    if isinstance(excluded, _Excluded):
        return excluded.blocks()
    return (p.blocks for p in excluded)


class PartitionChainFamily(_Value):
    """Disjoint chains in the partition lattice of {1..m}, plus the
    partitions left out by pruning.

    ``chains`` and ``excluded`` are sequences of SetPartition tuples.  A
    hand-built or loaded family holds tuples; ``build_partition_chains``
    gives views that hold only the chain starts and expand on access."""

    __slots__ = ("m", "chains", "excluded")
    m: int
    chains: Sequence[Sequence[SetPartition]]
    excluded: Sequence[SetPartition]

    def __post_init__(self) -> None:
        if _json_int(self.m) < 0:
            raise ValueError(f"ground size must be nonnegative, got {self.m}")
        # The views of a built family hold partitions of {1..m} by construction.
        if not (isinstance(self.chains, _Chains) and self.chains.m == self.m):
            for chain in self.chains:
                if not chain:
                    raise ValueError("empty chain")
                for p in chain:
                    if p.m != self.m:
                        raise ValueError("ground size mismatch in chain family")
        if not (isinstance(self.excluded, _Excluded) and self.excluded._chains.m == self.m):
            for p in self.excluded:
                if p.m != self.m:
                    raise ValueError("ground size mismatch in excluded list")


def build_partition_chains(n: int, ceiling: int = DEFAULT_PARTITION_CEILING) -> PartitionChainFamily:
    """The chain family on partitions of {1..n+1}.

    Walk each subset chain bottom to top, one class at a time.  Every
    member of the bottom class starts a chain; across each link the chains
    move up by inject, and the members of the class above that are no
    image (``_is_image``) start new chains there.  A chain born at rank r
    keeps ranks r..n-r; the rest of it is excluded, and a chain born above
    the middle is excluded whole.

    Only the starts are kept, as keys (``_key``), with each class's place
    in its subset chain and that chain's merge indices; the family's views
    expand the chains from them.  A class at or below the middle is
    enumerated by the block walk at its type, read off the chain's code,
    which is rewritten link by link.  A class above it starts no kept
    chain, so it is not walked: the excluded count is Bell(m) less the
    kept partitions, and the excluded view walks those classes when read.
    """
    m = n + 1
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    boolean = gk_decomposition(n, ceiling)
    places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    starts: list[bytes] = []
    kept = 0
    for bchain in boolean.chains:
        code = list(encode(bchain.bottom).entries)
        # Class t of the chain has type types[t]; the link arriving there
        # merges at index js[t], and -1 marks the bottom.
        types = [_type_of_code(code)]
        js: list[int] = [-1]
        masks = bchain.masks
        for lo, hi in zip(masks, masks[1:]):
            added = (hi ^ lo).bit_length()
            k = _link_added(code, added)
            if k == 0:
                raise ValueError(f"no chain link adds {added} to class {_literal_mask(lo)}")
            js.append(_merge_index(code, added))
            code[added - 1], code[added] = 0, k + 1
            types.append(_type_of_code(code))
        chain_js = tuple(js)
        for t, sizes in enumerate(types):
            places[sizes] = (t, chain_js)
            keep = 2 * len(sizes) - m
            if keep > 0:
                born = _births(m, sizes, js[t])
                starts += map(_key, born)
                kept += keep * len(born)
    starts.sort()
    chains = _Chains(m, starts, places)
    return PartitionChainFamily(m, chains, _Excluded(chains, bell_oracle(m) - kept))


def _is_singleton_merge(lo: Blocks, hi: Blocks) -> bool:
    """True when ``hi`` merges exactly two blocks of ``lo``, one a singleton
    holding the merged block's minimum.

    One pass over canonical blocks: at the first index j where the two
    differ, lo holds the singleton (x,) and hi holds (x,) + B, where B is a
    later block of lo; every other block is the same on both sides.
    """
    for j, (a, b) in enumerate(zip(lo, hi)):
        if a != b:
            break
    else:
        return False
    if len(a) != 1 or b[0] != a[0]:
        return False
    rest = lo[j + 1:]
    try:
        k = rest.index(b[1:])
    except ValueError:
        return False
    return hi[j + 1:] == rest[:k] + rest[k + 1:]


def _rank_index(m: int) -> Callable[[Blocks], int]:
    """The rank of a partition of {1..m} in restricted-growth order, the
    order of ``_iter_partitions``; -1 for blocks that are no canonical
    partition of {1..m}.

    Element e's digit a_e is the index of its block, and k_e counts the
    blocks opened before e.  T(r, k) counts the ways to complete a string
    with r places left and k blocks open: T(0, k) = 1 and
    T(r, k) = k T(r-1, k) + T(r-1, k+1).  The rank is the sum over e of
    a_e T(m-e, k_e) (Knuth, TAOCP 4A, 7.2.1.5).

    The digits are packed into one integer, ``bits`` bits each, element 1
    highest, and below them sits a count of each element's blocks: a block
    adds its indicator (``weight``) times its index shifted above the
    counts, plus the indicator itself.  No count reaches ``1 << bits`` with
    at most m blocks, so the counts never carry, and they read one for
    every element exactly when the blocks cover {1..m} once; then each
    digit is a block index and nothing carries either.  That term is read
    whole from one table per block position j, ``placed[j]``, which maps
    each block whose minimum is above j (none lower can sit there in a
    canonical partition) to its indicator times ``(j << width) + 1``:
    2^(m+1) - m - 2 entries in all, 16,369 for m = 13.  So the packing
    costs one table read per block, and a block out of place misses its
    table.  The first h elements' digits are looked up for their part of
    the rank and the blocks they open; the rest's digits, with the counts,
    are looked up by that number of blocks.  So a rank costs two more
    dictionary lookups, and these two tables hold only restricted-growth
    digits over counts of one, so anything else misses them.  h minimises
    their sizes: 2,284 entries for m = 10, 49,035 for m = 13.
    """
    bits = max(1, m.bit_length())
    completions = [[1] * (m + 2)]
    for _ in range(m):
        prev = completions[-1]
        completions.append([k * prev[k] + prev[k + 1] for k in range(m + 1)] + [0])

    def strings(first: int, last: int, opened: int) -> list[tuple[int, int, int]]:
        """(digits, rank part, blocks open) of each restricted-growth
        placement of elements first..last after ``opened`` blocks."""
        level = [(0, 0, opened)]
        for e in range(first, last + 1):
            t, shift = completions[m - e], bits * (m - e)
            level = [(x | a << shift, r + a * t[k], k + (a == k))
                     for x, r, k in level for a in range(k + 1)]
        return level

    def table_size(h: int) -> int:
        """Entries in both tables when the first h elements make the first:
        Bell(h) = T(h-1, 1) strings, then T(m-h, k) for each k <= h."""
        return completions[h - 1][1] + sum(completions[m - h][1:h + 1])

    h = min(range(1, m + 1), key=table_size) if m else 0
    weight = {block: sum(1 << bits * (m - e) for e in block)
              for size in range(1, m + 1)
              for block in itertools.combinations(range(1, m + 1), size)}
    width = bits * m
    ones = sum(1 << bits * (m - e) for e in range(1, m + 1))
    placed = [{block: w * ((j << width) + 1) for block, w in weight.items() if block[0] > j}
              for j in range(m)]
    split = width + bits * (m - h)
    rest_mask = (1 << split) - 1
    tails = [{x << width | ones: r for x, r, _ in strings(h + 1, m, k)} for k in range(h + 1)]
    head = {(x << width) >> split: (r, tails[k]) for x, r, k in strings(1, h, 0)}

    def index(blocks: Blocks) -> int:
        if len(blocks) > m:
            return -1
        try:
            y = sum(map(getitem, placed, blocks))
        except KeyError:
            return -1
        part = head.get(y >> split)
        if part is None:
            return -1
        rest = part[1].get(y & rest_mask)
        return -1 if rest is None else part[0] + rest

    return index


def verify_partition_chains(fam: PartitionChainFamily,
                            ceiling: int = DEFAULT_PARTITION_CEILING) -> VerificationReport:
    """Check the family against everything claimed of it: disjointness,
    singleton-merge saturation, rank symmetry about n = m-1, the two
    coverage bounds (every partition with more than floor((n+1)/2) blocks,
    and every partition of rank at most floor((n-1)/2), sits in a chain),
    the full audit trail (chains plus excluded is the whole lattice), and
    the chain count matching the middle level size S(n+1, n+1-floor(n/2)).
    The block bound is rank at most floor(n/2), so the rank test follows
    from it; for even n the block bound is the stronger.

    Membership is one byte per partition of the lattice, indexed by its
    rank (``_rank_index``): 0 missing, 1 in a chain, 2 excluded.  Blocks
    the rank refuses are partitions outside the lattice and are kept
    apart.  Walking ``_iter_partitions`` beside the bytes names each
    missing or uncovered partition; it runs only when a byte is 0 or an
    excluded partition breaks a coverage bound, so a sound family builds no
    witness.  The walk spells out at most ``_WITNESS_CAP`` failures of each
    kind, ``missing`` and ``coverage``, and counts the rest in one
    ``(kind, "<N> more")``.  The audit takes a byte per Bell(m) partition
    however small the family is, so m past ``ceiling`` is refused first."""
    m = fam.m
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    n = m - 1
    stirling = stirling_table(m)
    index = _rank_index(m)
    status = bytearray(sum(stirling.row(m)))
    outside: dict[Blocks, int] = {}

    def mark_outside(p: Blocks, state: int) -> int:
        """Set the state of ``p``, which the rank refused, unless it has
        one; return the state it had."""
        was = outside.get(p, 0)
        if not was:
            outside[p] = state
        return was

    # Partitions in the lattice are ranked and marked inline, as this loop
    # and the next run once per partition.
    failures: list[tuple[str, str]] = []
    members = 0
    for chain in _chain_blocks(fam.chains):
        for p in chain:
            i = index(p)
            if i >= 0:
                was = status[i]
                if not was:
                    status[i] = 1
            else:
                was = mark_outside(p, 1)
            if was:
                failures.append(("overlap", _literal(p)))
            else:
                members += 1
        if 2 * m - len(chain[0]) - len(chain[-1]) != n:
            failures.append(("not_symmetric", f"{_literal(chain[0])} .. {_literal(chain[-1])}"))
        for lo, hi in zip(chain, chain[1:]):
            if len(hi) != len(lo) - 1 or not _is_singleton_merge(lo, hi):
                failures.append(("not_saturated", f"{_literal(lo)} -> {_literal(hi)}"))
    fresh = 0
    uncovered_excluded = False
    for p in _excluded_blocks(fam.excluded):
        i = index(p)
        if i >= 0:
            was = status[i]
            if not was:
                status[i] = 2
        else:
            was = mark_outside(p, 2)
        if was == 1:
            failures.append(("overlap", f"excluded {_literal(p)}"))
        elif not was:
            fresh += 1
            b = len(p)
            uncovered_excluded |= b > (n + 1) // 2 or m - b <= (n - 1) // 2
    if fresh != len(fam.excluded):
        failures.append(("overlap", "excluded list repeats a partition"))
    missing = uncovered = 0
    if uncovered_excluded or 0 in status:
        for p, state in zip(_iter_partitions(m), status):
            if state == 1:
                continue
            if not state:
                missing += 1
                if missing <= _WITNESS_CAP:
                    failures.append(("missing", _literal(p)))
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
    if outside:
        failures.append(("missing", "family mentions partitions outside the lattice"))
    expected = stirling.value(m, m - n // 2)
    if len(fam.chains) != expected:
        failures.append(("chain_count", f"{len(fam.chains)} chains, middle level has {expected}"))
    return VerificationReport(members, len(fam.chains), tuple(failures))


def family_to_json(fam: PartitionChainFamily) -> dict:
    doc = _json_view(fam)
    doc["chains"], doc["excluded"] = list(doc["chains"]), list(doc["excluded"])
    return doc


def _json_view(fam: PartitionChainFamily) -> dict:
    """The document of ``family_to_json`` with its two lists iterators, for
    a writer that streams it chain by chain."""
    def rows(blocks: Blocks) -> list[list[int]]:
        return [list(block) for block in blocks]

    return {"m": fam.m,
            "chains": ([rows(p) for p in chain] for chain in _chain_blocks(fam.chains)),
            "excluded": (rows(p.blocks) for p in fam.excluded)}


def family_from_json(obj: dict, ceiling: int = DEFAULT_PARTITION_CEILING) -> PartitionChainFamily:
    try:
        m = _json_int(obj["m"])
        # The verifier takes a byte per Bell(m) partition, however few are listed.
        _check_ceiling(m, ceiling, f"Bell({m}) partitions")

        def partition(p: list) -> SetPartition:
            return SetPartition(m, tuple(map(tuple, p)))

        chains = tuple(tuple(map(partition, chain)) for chain in obj["chains"])
        excluded = tuple(map(partition, obj["excluded"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain-family payload: {exc}") from exc
    return PartitionChainFamily(m, chains, excluded)


def family_to_dot(fam: PartitionChainFamily) -> str:
    """Hasse diagram of all partitions in the family; chain links solid,
    other covers dotted, excluded partitions dashed."""
    return "\n".join(_dot_lines(fam))


def _dot_lines(fam: PartitionChainFamily) -> Iterator[str]:
    """The lines of ``family_to_dot``, one at a time.

    Works on block tuples: a cover merges blocks a < b, and the merged
    block keeps block a's minimum and place, so the result is canonical.
    Nodes are numbered in block order, so sorting a node's covers by number
    puts the edges in order without holding them all.  Every node is held
    at once, so equal blocks are shared as the nodes are collected."""
    share = {}.setdefault
    chains = [[tuple(share(b, b) for b in p) for p in chain] for chain in _chain_blocks(fam.chains)]
    excluded = {tuple(share(b, b) for b in p) for p in _excluded_blocks(fam.excluded)}
    nodes = sorted({p for chain in chains for p in chain} | excluded)
    index = {blocks: i for i, blocks in enumerate(nodes)}
    literals = [_literal(blocks) for blocks in nodes]
    links = {(index[lo], index[hi]) for chain in chains for lo, hi in zip(chain, chain[1:])}
    del chains  # not held while the lines are written
    yield from ("digraph partition_chains {", "  rankdir=BT;", "  node [shape=box];")
    for blocks, lo in zip(nodes, literals):
        yield f'  "{lo}"{" [style=dashed]" if blocks in excluded else ""};'
    for i, blocks in enumerate(nodes):
        ups = []
        for a, b in itertools.combinations(range(len(blocks)), 2):
            merged = tuple(sorted(blocks[a] + blocks[b]))
            j = index.get(blocks[:a] + (merged,) + blocks[a + 1:b] + blocks[b + 1:])
            if j is not None:
                ups.append(j)
        lo = literals[i]
        for j in sorted(ups):
            yield f'  "{lo}" -> "{literals[j]}" [style={"solid" if (i, j) in links else "dotted"}];'
    yield "}"
