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
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from math import comb
from operator import getitem, ne

from .boolean import _literal as _literal_mask, gk_decomposition
from .coding import _link_added, code_from_nonzeros, encode
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


def _split(blocks: Blocks, j: int) -> Blocks:
    """Undo a merge at index j (``_expand``): split block j into its
    minimum and the rest."""
    return blocks[:j] + ((blocks[j][0],), blocks[j][1:]) + blocks[j + 1:]


def _is_image(blocks: Blocks, j: int) -> bool:
    """True when ``blocks`` is the image of a partition merged at index j:
    splitting block j into its minimum and the rest stays canonical, so j
    is the last block or the rest's minimum is below block j+1's."""
    return not (j + 1 < len(blocks) and blocks[j][1] > blocks[j + 1][0])


def inject(p: SetPartition, i: int) -> SetPartition:
    """Map ``p`` one class up along the link adding ``i``: the class code
    holds (k, 1) at positions (i, i+1), and the singleton block j (see
    ``_merge_index``) merges into the size-k block right after it."""
    entries = code_from_nonzeros(tuple(reversed(type_of(p)))).entries
    if _link_added(entries, _json_int(i)) == 0:
        raise ValueError(f"no chain link adds {i} to class {class_of(p).literal()}")
    return _trusted(p.m, _expand(p.blocks, (_merge_index(entries, i),))[1])


def inject_inverse(q: SetPartition, i: int) -> SetPartition | None:
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
    if not _is_image(q.blocks, j):
        return None
    return _trusted(q.m, _split(q.blocks, j))


def _expand(p: Blocks, js: Sequence[int]) -> list[Blocks]:
    """``p`` and its merges at the indices ``js`` in turn: each merges the
    singleton at index j into the block after it.  Its element is below
    that block's minimum, so each result stays canonical."""
    run = [p]
    for j in js:
        p = p[:j] + (p[j] + p[j + 1],) + p[j + 2:]
        run.append(p)
    return run


# Free sets of at most this many elements have their completions listed
# once per walk (``_completions``), and longer ones are walked again for
# each way they are reached (``_batches``).
_MEMO_FREE = 5


def _walk(m: int, least: int) -> Iterator[Blocks]:
    """Block tuples of the partitions of {1..m} with at least ``least``
    blocks, in ascending block order.

    Block order is ascending tuple order, so the first block comes first:
    the least free element and a subset of the other free ones, subsets in
    depth-first preorder (``_firsts``), each capped so that what it leaves
    can still make the blocks wanted.  The walk then goes on with the rest
    of the free set.  A free set of at most ``_MEMO_FREE`` elements has its
    completions listed once per walk, in a memo this call makes and drops,
    and each prefix is put in front of them in C (``map(prefix.__add__,
    ...)``); the recursion passes them up as such batches, not a partition
    at a time.  The memo is passed down, not closed over: a self-recursive
    closure is a reference cycle, which would keep each walk's memo alive
    until a full collection."""
    free = tuple(range(1, m + 1))
    memo: dict[tuple[Block, int], list[Blocks]] = {}
    if m <= _MEMO_FREE:
        return iter(_completions(free, least, memo))
    return itertools.chain.from_iterable(_batches((), free, least, memo))


def _firsts(free: Block, least: int) -> list[tuple[Block, Block]]:
    """Each first block of a partition of ``free`` into at least ``least``
    blocks, with the free set it leaves, in ascending order of the block.
    The subsets of the other free elements come from ``combinations`` and
    their complements, in the same order, from the reversed
    ``combinations`` of the complement's size, as in ``_partitions``."""
    head, pool = free[:1], free[1:]
    size = len(pool)
    pairs: list[tuple[Block, Block]] = []
    # A block of r + 1 elements leaves size - r, which must make least - 1 blocks.
    for r in range(min(size, size + 1 - least) + 1):
        rests = list(itertools.combinations(pool, size - r))
        rests.reverse()
        pairs += zip(itertools.combinations(pool, r), rests)
    pairs.sort()
    return [(head + sub, rest) for sub, rest in pairs]


def _completions(free: Block, least: int, memo: dict[tuple[Block, int], list[Blocks]]) -> list[Blocks]:
    """The partitions of ``free`` into at least ``least`` blocks, in
    ascending block order, listed once per ``memo``."""
    least = max(least, 0)
    done = memo.get((free, least))
    if done is None:
        if not free:
            done = [] if least else [()]
        else:
            done = []
            for block, rest in _firsts(free, least):
                done += map((block,).__add__, _completions(rest, least - 1, memo))
        memo[free, least] = done
    return done


def _batches(prefix: Blocks, free: Block, least: int,
             memo: dict[tuple[Block, int], list[Blocks]]) -> Iterator[Iterable[Blocks]]:
    """``prefix`` followed by each partition of ``free`` into at least
    ``least`` blocks, in ascending block order, one batch for each free
    set small enough for the memo."""
    for block, rest in _firsts(free, least):
        head = prefix + (block,)
        if len(rest) > _MEMO_FREE:
            yield from _batches(head, rest, least - 1, memo)
        else:
            yield map(head.__add__, _completions(rest, least - 1, memo))


class _FamilyView(_TupleView):
    """A built family's view: its place table and ``length`` (not ``count``,
    which would hide Sequence's), walked in block order on every read.
    ``places`` maps a class's type to its place t in its subset chain and
    that chain's merge indices js: js[t] arrives at the class (-1 at the
    bottom), and js[t + 1:] lead on to the top.  Each view names the slots,
    as ``_TupleView.__reduce__`` reads those of its class."""

    __slots__ = ()

    def __init__(self, m: int, places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]], length: int):
        self.m, self.places, self.length = m, places, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        # Walked to the last member picked; a downward slice is walked up.
        picked = range(self.length)[i]
        if isinstance(picked, int):
            return next(itertools.islice(self, picked, None))
        if not picked:
            return ()
        up = picked if picked.step > 0 else picked[::-1]
        got = tuple(itertools.islice(self, up.start, up.stop, up.step))
        return got if up is picked else got[::-1]

    # Sequence's own two read self[i] once per position, a walk each.
    def __reversed__(self) -> Iterator:
        return reversed(tuple(self))

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        picked = range(self.length)[start:stop]
        for i, member in zip(picked, itertools.islice(self, picked.start, picked.stop)):
            if member is value or member == value:
                return i
        raise ValueError(f"{value!r} is not {self._member} of the family")


class _Chains(_FamilyView):
    """The chains of a built family.  A chain starts at each partition with
    more than m/2 blocks that is the bottom class's or no image across
    js[t] (``_is_image``), so ``starts`` walks those partitions and keeps
    the starts, and nothing is stored or sorted.  ``length`` is the number
    of chains, counted when built.  A chain starting with b blocks keeps
    2b - m partitions: the start merged along the next 2b - m - 1 indices."""

    __slots__ = ("m", "places", "length")
    _member = "a chain"

    def __iter__(self) -> Iterator["_Chain"]:
        return map(partial(_Chain, self), self.starts())

    def starts(self) -> Iterator[Blocks]:
        """Each chain's first partition, in block order."""
        # Each type's arriving merge index js[t], -1 at the bottom class.
        arriving = {sizes: js[t] for sizes, (t, js) in self.places.items()}
        for p in _walk(self.m, self.m // 2 + 1):
            j = arriving[tuple(map(len, p))]
            if j < 0 or not _is_image(p, j):
                yield p

    def kept(self, start: Blocks) -> list[Blocks]:
        t, js = self.places[tuple(map(len, start))]
        return _expand(start, js[t + 1:t + 2 * len(start) - self.m])

    def blocks(self) -> Iterator[list[Blocks]]:
        """Each chain's block tuples, in chain order."""
        return map(self.kept, self.starts())


class _Chain(_TupleView):
    """One chain of a built family, held as its first partition: the rest
    is expanded on access, and its length, 2b - m for a start of b blocks,
    is not."""

    __slots__ = ("_chains", "_start")

    def __init__(self, chains: _Chains, start: Blocks):
        self._chains, self._start = chains, start

    def __len__(self) -> int:
        return 2 * len(self._start) - self._chains.m

    def __iter__(self) -> Iterator[SetPartition]:
        return map(partial(_trusted, self._chains.m), self._chains.kept(self._start))


class _Excluded(_FamilyView):
    """The partitions a built family leaves out, each chain's run past the
    2b - m it keeps; ``length`` is Bell(m) less those.  Read in order, the
    walk keeps what the split-back rule excludes: p, of b blocks in class
    t, splits back across js[t], js[t - 1], ... while ``_is_image`` allows,
    to its chain's start, which keeps 2(b + splits) - m partitions.  So p
    is excluded exactly when it splits back at most m - 2b times, never
    past m/2 blocks.  ``blocks`` streams them unordered: each class's
    births (``_partitions`` across the arriving link) merged up the chain's
    remaining indices, the kept ones dropped."""

    __slots__ = ("m", "places", "length")
    _member = "an excluded partition"

    def __iter__(self) -> Iterator[SetPartition]:
        m = self.m
        # The m - 2b + 1 indices each type splits back across, None if fewer.
        downs = {sizes: js[t:t + 2 * len(sizes) - m - 1:-1] if t + 2 * len(sizes) > m else None
                 for sizes, (t, js) in self.places.items()}
        for p in _walk(m, 0):
            if 2 * len(p) > m:
                continue
            q, down = p, downs[tuple(map(len, p))]
            if down is not None:
                for j in down:
                    if not _is_image(q, j):
                        break
                    q = _split(q, j)
                else:
                    continue
            yield _trusted(m, p)

    def blocks(self) -> Iterator[Blocks]:
        """The excluded block tuples, in no particular order: the tails of
        the class runs (``_class_runs``) of each class whose runs outgrow
        what a chain keeps."""
        m = self.m
        tailed = [sizes for sizes, (t, js) in self.places.items() if len(js) - t > max(0, 2 * len(sizes) - m)]
        for _, tail in _class_runs(m, self.places, tailed):
            yield from tail


def _class_runs(m: int, places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]],
                classes: Iterable[tuple[int, ...]]) -> Iterator[tuple[Sequence[Blocks], Sequence[Blocks]]]:
    """The runs of the given classes of a built family, each split into
    the chain it keeps and the tail the family excludes.  A run starts at
    each birth of the class (``_partitions`` across the arriving link) and
    is that birth merged up the chain's remaining indices, expanded once;
    a birth of b blocks keeps its first max(0, 2b - m) members.  A run
    kept whole or excluded whole comes as it is, beside ``()``; only a
    run that holds both is sliced."""
    for sizes in classes:
        t, js = places[sizes]
        keep = 2 * len(sizes) - m
        up = js[t + 1:]
        births = _partitions(m, sizes, js[t])
        # At the top of its chain a run is its birth alone.
        runs = map(_expand, births, itertools.repeat(up)) if up else zip(births)
        if keep <= 0:
            yield from zip(itertools.repeat(()), runs)
        elif keep > len(up):
            yield from zip(runs, itertools.repeat(()))
        else:
            for run in runs:
                yield run[:keep], run[keep:]


def _chain_blocks(chains: Sequence[Sequence[SetPartition]]) -> Iterable[list[Blocks]]:
    """Each chain as a list of block tuples; a built family's chains are
    walked and expanded from their starts without a SetPartition per
    member."""
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
    gives two views on one base that hold only the place table and their
    lengths, and walk the partitions in block order on access."""

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
        if not (isinstance(self.excluded, _Excluded) and self.excluded.m == self.m):
            for p in self.excluded:
                if p.m != self.m:
                    raise ValueError("ground size mismatch in excluded list")


def _class_size(m: int, sizes: Sequence[int]) -> int:
    """The number of partitions of {1..m} of type ``sizes``: block i is
    the least free element and s_i - 1 of the other free ones."""
    count = 1
    for size in sizes:
        count *= comb(m - 1, size - 1)
        m -= size
    return count


def build_partition_chains(n: int, ceiling: int = DEFAULT_PARTITION_CEILING) -> PartitionChainFamily:
    """The chain family on partitions of {1..n+1}.

    Walk each subset chain bottom to top, one class at a time.  Every
    member of the bottom class starts a chain; across each link the chains
    move up by inject, and the members of the class above that are no
    image (``_is_image``) start new chains there.  A chain born at rank r
    keeps ranks r..n-r; the rest of it is excluded, and a chain born above
    the middle is excluded whole.

    Only each class's place in its subset chain and that chain's merge
    indices are kept, read off the chain's code, which is rewritten link
    by link; the family's views walk the partitions from them when read.
    No partition is walked here.  inject is one-to-one, so a class's births
    are its size less the size of the class below it, and the sizes are
    binomial products (``_class_size``): the chain count is the number of
    births with more than m/2 blocks, and the excluded count is Bell(m)
    less the 2b - m partitions each such chain keeps.
    """
    from .identities import bell_oracle

    m = n + 1
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    boolean = gk_decomposition(n, ceiling)
    places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    chains = kept = 0
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
        below = 0
        for t, sizes in enumerate(types):
            places[sizes] = (t, chain_js)
            size = _class_size(m, sizes)
            keep = 2 * len(sizes) - m
            if keep > 0:
                chains += size - below
                kept += keep * (size - below)
            below = size
    return PartitionChainFamily(m, _Chains(m, places, chains), _Excluded(m, places, bell_oracle(m) - kept))


def _is_singleton_merge(lo: Blocks, hi: Blocks) -> bool:
    """True when ``hi`` merges exactly two blocks of ``lo``, one a singleton
    holding the merged block's minimum.

    The first index j where the two differ is found in C (``compress``
    over ``map(ne, ...)``).  There lo holds the singleton (x,) and hi
    holds (x,) + B, where B is a later block of lo; every other block is
    the same on both sides.  So a true answer also means ``hi`` has one
    block fewer than ``lo``.
    """
    j = next(itertools.compress(itertools.count(), map(ne, lo, hi)), None)
    if j is None:
        return False
    a, b = lo[j], hi[j]
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


# From this many partitions on, Bell(9), the verifier marks half of the
# family in a forked child when it may run on a second CPU.  With the
# halves of equal weight the split paid at Bell(9) in every fresh-process
# trial; below it, forking was not measured.
_WORKER_FROM = 21_147

# Bytes of each map that the merge reads as one integer.
_MERGE_SLICE = 1 << 16


def _class_weights(m: int, places: dict[tuple[int, ...], tuple[int, tuple[int, ...]]]
                   ) -> list[tuple[tuple[int, ...], int]]:
    """Each class of a built family with the number of partitions its runs
    hold (``_class_runs``): its births, its size less the size of the class
    below it (``inject`` is one-to-one), times the len(js) - t members of
    each run.  The class below has block js[t] split into a singleton and
    the rest.  Every partition lies in one run, so the weights sum to
    Bell(m)."""
    weights = []
    for sizes, (t, js) in places.items():
        births = _class_size(m, sizes)
        if t:
            j = js[t]
            births -= _class_size(m, sizes[:j] + (1, sizes[j] - 1) + sizes[j + 1:])
        weights.append((sizes, births * (len(js) - t)))
    return weights


def _halves(weights: list[tuple[tuple[int, ...], int]]) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The classes cut into a head and a tail where the running weight
    passes half, before or after the class that passes it, whichever leaves
    the halves closer; so they differ by at most that class's weight."""
    total = sum(w for _, w in weights)
    cut = run = 0
    for cut, (_, w) in enumerate(weights):
        if 2 * (run + w) >= total:
            if 2 * (run + w) - total <= total - 2 * run:
                cut += 1
            break
        run += w
    classes = [sizes for sizes, _ in weights]
    return classes[:cut], classes[cut:]


def _mark_runs(m: int, index: Callable[[Blocks], int], marks: bytearray,
               runs: Iterable[tuple[Sequence[Blocks], Iterable[Blocks]]]
               ) -> tuple[list[tuple[str, str]], list[tuple[int, int]], dict[Blocks, list[int]], int, bool]:
    """Mark ``runs`` on ``marks``, one byte per partition at its rank
    (``index``): bit 1 for a chain member, bit 2 for an excluded partition.
    Each run is a chain, whose symmetry and links are checked, and a tail
    of excluded partitions.  An occurrence whose byte is already marked
    ORs its bit in and is listed as (rank, its bit if the byte held it,
    else 0), so the map holds each partition once and the list the rest.
    Blocks the rank refuses are partitions outside the lattice, counted
    apart as [chain members, excluded entries].  Returns the link and
    symmetry failures, that list, those counts, the number of chains, and
    whether an excluded partition has more than floor(m/2) blocks.  Such a
    partition breaks a coverage bound (the rank bound follows from the
    block bound) unless the other half holds it in a chain, so the
    witness walk decides once both halves are in.  Knows nothing of the
    other half, so it runs in the verifier's process or in its worker
    alike."""
    n = m - 1
    wide = m // 2
    failures: list[tuple[str, str]] = []
    again: list[tuple[int, int]] = []
    outside: dict[Blocks, list[int]] = {}
    walked = 0
    uncovered = False
    # Partitions in the lattice are ranked and marked inline, as these
    # loops run once per partition.
    for chain, tail in runs:
        if chain:
            walked += 1
            for p in chain:
                i = index(p)
                if i < 0:
                    outside.setdefault(p, [0, 0])[0] += 1
                elif marks[i]:
                    again.append((i, marks[i] & 1))
                    marks[i] |= 1
                else:
                    marks[i] = 1
            if 2 * m - len(chain[0]) - len(chain[-1]) != n:
                failures.append(("not_symmetric", f"{_literal(chain[0])} .. {_literal(chain[-1])}"))
            for lo, hi in zip(chain, chain[1:]):
                if not _is_singleton_merge(lo, hi):
                    failures.append(("not_saturated", f"{_literal(lo)} -> {_literal(hi)}"))
        for p in tail:
            i = index(p)
            if i < 0:
                outside.setdefault(p, [0, 0])[1] += 1
            elif marks[i]:
                again.append((i, marks[i] & 2))
                marks[i] |= 2
            else:
                marks[i] = 2
            if len(p) > wide:
                uncovered = True
    return failures, again, outside, walked, uncovered


class _Worker:
    """A child forked to run ``mark`` on a second CPU while the verifier
    goes on.  It shares the verifier's memory as it was at the fork, the
    family, the rank index and the shared map it marks included, so it is
    sent nothing, and only what ``mark`` returns, a few counts and lists,
    comes back pickled through a pipe.  It leaves only through
    ``os._exit``, so it runs no ``atexit`` handler and flushes none of the
    buffers it shares.  ``reply`` reads the result from the pipe, reaps the
    child and raises ``RuntimeError`` if it failed; ``stop`` kills and
    reaps it."""

    def __init__(self, mark: Callable[[], object]):
        import pickle

        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if not self.pid:
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pickle.dump(mark(), pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            except BaseException:
                import traceback

                # Straight to the descriptor: sys.stderr's buffer is the verifier's.
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(write)
        self._pipe = open(read, "rb")

    def reply(self) -> object:
        import pickle

        with self._pipe:
            try:
                result = pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):
                result = None  # the child failed; its exit code says how
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        if code:
            raise RuntimeError(f"the worker marking half of the family exited with {code}")
        return result

    def stop(self) -> None:
        import signal

        self._pipe.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _merge_maps(status: bytearray, marks: bytes) -> dict[int, tuple[int, int]]:
    """OR the worker's map ``marks`` into ``status`` in place, so that each
    byte holds its partition's state: bit 1 in a chain, bit 2 excluded.
    The maps are read as integers (``int.from_bytes``) a slice at a time,
    so no copy of a whole map is held.  A byte nonzero in both maps is a
    partition that both halves hold: two bytes of 1, 2 or 3 share a bit
    unless they are 1 and 2, and then one shifted left shares the other's
    bit; no bit leaves its byte.  Only a slice holding such a byte is read
    byte by byte.  Returns those bytes by rank, with both values as they
    were."""
    both = {}
    size = len(status)
    for lo in range(0, size, _MERGE_SLICE):
        hi = min(lo + _MERGE_SLICE, size)
        a, b = int.from_bytes(status[lo:hi], "big"), int.from_bytes(marks[lo:hi], "big")
        if a & b or (a << 1) & b or (b << 1) & a:
            pairs = zip(status[lo:hi], marks[lo:hi])
            both.update((lo + k, pair) for k, pair in enumerate(pairs) if all(pair))
        status[lo:hi] = (a | b).to_bytes(hi - lo, "big")
    return both


def _overlaps(literal: str, chains: int, excluded: int) -> list[tuple[str, str]]:
    """The overlaps of a partition held by ``chains`` chain members and
    ``excluded`` entries of the excluded list: each chain member after the
    first, and each excluded entry once a chain holds it."""
    if not chains:
        return []
    return [("overlap", literal)] * (chains - 1) + [("overlap", f"excluded {literal}")] * excluded


def verify_partition_chains(fam: PartitionChainFamily,
                            ceiling: int = DEFAULT_PARTITION_CEILING) -> VerificationReport:
    """Check the family against everything claimed of it: disjointness,
    singleton-merge saturation, rank symmetry about n = m-1, the two
    coverage bounds (every partition with more than floor((n+1)/2) blocks,
    and every partition of rank at most floor((n-1)/2), sits in a chain),
    the full audit trail (chains plus excluded is the whole lattice), and
    the number of chains read matching the middle level size
    S(n+1, n+1-floor(n/2)); that number is the report's chain count, not
    the family's ``len``, which a built family counts when built.
    The block bound is rank at most floor(n/2), so the rank test follows
    from it; for even n the block bound is the stronger.

    Membership is one byte per partition of the lattice, indexed by its
    rank (``_rank_index``): bit 1 for a chain member, bit 2 for an
    excluded partition (``_mark_runs``).  A built family, whose two views
    read one place table, is read as class runs (``_class_runs``): each
    birth of a class expanded once up its subset chain, its first
    max(0, 2b - m) members a chain and the rest excluded.  Each class
    weighs the partitions its runs hold (``_class_weights``), and the class
    list is cut where the running weight passes half (``_halves``).  Any
    other family is read as two jobs, its chains and its excluded list.

    From Bell(9) partitions on, where ``os.sched_getaffinity`` gives a
    second CPU and this process runs one thread, a forked child marks the
    second half, or the excluded list, on an anonymous shared map while
    this process marks the first (``_Worker``); otherwise both halves mark
    one map here.  The maps are merged as integers (``_merge_maps``): their
    OR gives each partition's state, and a byte nonzero in both is a
    partition both halves hold.  Those, and each occurrence that found its
    byte marked, are named by one walk of ``_iter_partitions``, as a
    chain member held again or an excluded partition that a chain holds.
    Walking ``_iter_partitions`` beside the states names each missing or
    uncovered partition; it runs only when a state is 0 or an excluded
    partition breaks a coverage bound, so a sound family builds no
    witness.  The walk spells out at most ``_WITNESS_CAP`` failures of each
    kind, ``missing`` and ``coverage``, and counts the rest in one
    ``(kind, "<N> more")``.  The audit takes a byte per Bell(m) partition
    however small the family is, so m past ``ceiling`` is refused first."""
    from .identities import stirling_table

    m = fam.m
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    n = m - 1
    stirling = stirling_table(m)
    index = _rank_index(m)
    size = sum(stirling.row(m))
    chains, excluded = fam.chains, fam.excluded
    if isinstance(chains, _Chains) and isinstance(excluded, _Excluded) and chains.places == excluded.places:
        head, tail = (_class_runs(m, chains.places, half) for half in _halves(_class_weights(m, chains.places)))
    else:
        head = ((chain, ()) for chain in _chain_blocks(chains))
        tail = [((), _excluded_blocks(excluded))]
    status = bytearray(size)
    marks = worker = None
    try:
        if size >= _WORKER_FROM and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            import threading

            # A fork copies only this thread: a lock another thread holds
            # would stay held in the child.
            if threading.active_count() == 1:
                import mmap

                # Anonymous and shared: the child marks the pages this
                # process merges, so its map is never copied.
                marks = mmap.mmap(-1, size)
                worker = _Worker(partial(_mark_runs, m, index, marks, tail))
        halves = [_mark_runs(m, index, status, head), worker.reply() if worker else _mark_runs(m, index, status, tail)]
        both = _merge_maps(status, marks) if worker else {}
    except BaseException:
        if worker:
            worker.stop()
        raise
    finally:
        if marks is not None:
            marks.close()
    (failures, again, outside, walked, wide), (failures_b, again_b, outside_b, walked_b, wide_b) = halves
    failures += failures_b
    walked += walked_b
    # A partition held again is an overlap only once a chain holds it.
    repeats = Counter(again + again_b)
    named = sorted(i for i in {i for i, _ in repeats}.union(both) if status[i] & 1)
    if named:
        picks = bytearray(size)
        for i in named:
            picks[i] = 1
        for i, p in zip(named, itertools.compress(_iter_partitions(m), picks)):
            ours, theirs = both.get(i, (status[i], 0))
            failures += _overlaps(_literal(p), (ours & 1) + (theirs & 1) + repeats[i, 1],
                                  (ours >> 1) + (theirs >> 1) + repeats[i, 2])
    for p, (held, left) in outside_b.items():
        counts = outside.setdefault(p, [0, 0])
        counts[0] += held
        counts[1] += left
    outside_members = 0
    for p, (held, left) in outside.items():
        failures += _overlaps(_literal(p), held, left)
        outside_members += held > 0
    zeros, twos = status.count(0), status.count(2)
    # An excluded partition no chain holds is a fresh exclusion; any fewer
    # than the list's length means the list repeats one.
    if twos + len(outside) - outside_members != len(excluded):
        failures.append(("overlap", "excluded list repeats a partition"))
    missing = uncovered = 0
    if zeros or wide or wide_b:
        for p, state in zip(_iter_partitions(m), status):
            if state & 1:
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
    if walked != expected:
        failures.append(("chain_count", f"{walked} chains, middle level has {expected}"))
    return VerificationReport(size - zeros - twos + outside_members, walked, tuple(failures))


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
