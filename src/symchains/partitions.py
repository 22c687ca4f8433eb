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
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .boolean import _literal as _literal_mask, gk_decomposition
from .coding import _link_added, code_from_nonzeros, encode
from .identities import stirling_table
from .reports import _WITNESS_CAP, VerificationReport
from .subsets import Subset, _check_ceiling, _json_int, _unchecked

# Set by memory: building and verifying the family for m = 12 (4.2 million
# partitions) peaks at about 970 MB RSS, about 240 bytes per partition, so the
# 27.6 million of m = 13 would need about 6.2 GB, too close to what an 8 GB
# machine has to admit by default.  Past m = 12 needs an explicit ceiling
# override.
DEFAULT_PARTITION_CEILING = 12

# A partition's canonical blocks, as SetPartition.blocks holds them; the
# build and verify kernels work on these and key everything on them.
Block = tuple[int, ...]
Blocks = tuple[Block, ...]


@dataclass(frozen=True, slots=True)
class SetPartition:
    """A partition of {1..m} in canonical block order."""

    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Checked first, so a wrong m fails before the table below is sized by it.
        if sum(map(len, self.blocks)) != self.m:
            raise ValueError("blocks must cover the ground set exactly")
        seen = [False] * (self.m + 1)
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block[0] <= prev_min:
                if block[0] < 1:
                    raise ValueError(f"element {block[0]} outside ground set 1..{self.m}")
                raise ValueError("blocks must be ordered by ascending minimum")
            prev_min = block[0]
            prev = 0
            for e in block:
                if e <= prev:
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

    The target type is read off the code of ``s``, and the restricted-growth
    walk capped at that type (``_partitions``) builds exactly the class.
    """
    m = s.n + 1
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    sizes = _type_of_code(encode(s).entries)
    return tuple(map(partial(_trusted, m), sorted(_partitions(m, sizes, {}))))


def enumerate_all_partitions(m: int, ceiling: int = DEFAULT_PARTITION_CEILING) -> Iterator[SetPartition]:
    """Every partition of {1..m}, by recursive block placement.

    Element e joins each existing block in turn and then opens a new block,
    which is restricted-growth order: the single-block partition comes
    first, all singletons last.
    """
    if m < 0:
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


def _partitions(m: int, sizes: Sequence[int], canon: dict[Block, Block]) -> list[Blocks]:
    """Block tuples of the partitions of {1..m} whose block j holds at most
    ``sizes[j]`` elements, in restricted-growth order.

    Built level by level: element e joins each block of a partition of
    {1..e-1} that has room, or opens a new one while there are fewer than
    ``len(sizes)`` blocks.  e exceeds every element placed so far, so each
    result is canonical as built.  Caps ``(m,) * m`` never bind and give the
    whole lattice.  Sizes that sum to m give exactly the class of that type:
    every partial partition can still be completed, so the walk never hits a
    dead end and no level holds more entries than the class does.  Each new
    block is taken from ``canon`` when an equal one is there, so the
    partitions share at most 2^m - 1 block objects.
    """
    intern = canon.setdefault
    count = len(sizes)
    level: list[Blocks] = [()]
    for e in range(1, m + 1):
        new = (e,)
        nxt: list[Blocks] = []
        for p in level:
            for j, block in enumerate(p):
                if len(block) < sizes[j]:
                    block += new
                    nxt.append(p[:j] + (intern(block, block),) + p[j + 1:])
            if len(p) < count:
                nxt.append(p + (new,))
        level = nxt
    return level


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


def _merge(blocks: Blocks, j: int, canon: dict[Block, Block]) -> Blocks:
    """Merge the singleton at index j into the block after it.  Its element
    is below that block's minimum, so the result stays canonical.  The
    merged block is taken from ``canon`` when an equal one is there."""
    block = blocks[j] + blocks[j + 1]
    return blocks[:j] + (canon.setdefault(block, block),) + blocks[j + 2:]


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
    if _link_added(entries, i) == 0:
        raise ValueError(f"no chain link adds {i} to class {class_of(p).literal()}")
    return _trusted(p.m, _merge(p.blocks, _merge_index(entries, i), {}))


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
    if not 1 <= i < len(entries) or entries[i - 1] != 0 or entries[i] == 0:
        raise ValueError(f"class {class_of(q).literal()} has no link arriving by adding {i}")
    j = _merge_index(entries, i)
    blocks = q.blocks
    if not _is_image(blocks, j):
        return None
    merged = blocks[j]
    return _trusted(q.m, blocks[:j] + ((merged[0],), merged[1:]) + blocks[j + 1:])


@dataclass(frozen=True)
class PartitionChainFamily:
    """Disjoint chains in the partition lattice of {1..m}, plus the
    partitions left out by pruning."""

    m: int
    chains: tuple[tuple[SetPartition, ...], ...]
    excluded: tuple[SetPartition, ...]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"ground size must be nonnegative, got {self.m}")
        for chain in self.chains:
            if not chain:
                raise ValueError("empty chain")
            for p in chain:
                if p.m != self.m:
                    raise ValueError("ground size mismatch in chain family")
        for p in self.excluded:
            if p.m != self.m:
                raise ValueError("ground size mismatch in excluded list")


def build_partition_chains(n: int, ceiling: int = DEFAULT_PARTITION_CEILING) -> PartitionChainFamily:
    """The chain family on partitions of {1..n+1}.

    Walk each subset chain bottom to top.  Every member of the bottom class
    starts a chain; across each link the chain tips move by inject, and
    class members missed by the injection start new chains at that level.
    The tips are the whole class below, so a member is missed exactly when
    it is no image (``_is_image``), and no set of images is needed.
    A chain born at rank r keeps ranks r..n-r; the rest of it is excluded,
    and a chain born above the middle is excluded whole.

    Partitions are block tuples throughout, and equal blocks are one object;
    each class is the bucket of its type, read off the chain's code, which is
    rewritten link by link.
    """
    m = n + 1
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    boolean = gk_decomposition(n, ceiling)
    canon: dict[Block, Block] = {}
    buckets: dict[tuple[int, ...], list[Blocks]] = {}
    for p in _partitions(m, (m,) * m, canon):
        buckets.setdefault(tuple(map(len, p)), []).append(p)
    grown: list[list[Blocks]] = []
    excluded: list[Blocks] = []
    for bchain in boolean.chains:
        code = list(encode(bchain.bottom).entries)
        active = [[p] for p in buckets.pop(_type_of_code(code))]
        masks = bchain.masks
        for lo, hi in zip(masks, masks[1:]):
            added = (hi ^ lo).bit_length()
            k = _link_added(code, added)
            if k == 0:
                raise ValueError(f"no chain link adds {added} to class {_literal_mask(lo)}")
            j = _merge_index(code, added)
            code[added - 1], code[added] = 0, k + 1
            for chain in active:
                chain.append(_merge(chain[-1], j, canon))
            active.extend([p] for p in buckets.pop(_type_of_code(code)) if not _is_image(p, j))
        for chain in active:
            r = m - len(chain[0])
            if 2 * r > n:
                excluded.extend(chain)
                continue
            keep = (n - r) - r + 1
            grown.append(chain[:keep])
            excluded.extend(chain[keep:])
    grown.sort(key=itemgetter(0))
    excluded.sort()
    make = partial(_trusted, m)
    return PartitionChainFamily(m, tuple(tuple(map(make, c)) for c in grown),
                                tuple(map(make, excluded)))


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


def verify_partition_chains(fam: PartitionChainFamily,
                            ceiling: int = DEFAULT_PARTITION_CEILING) -> VerificationReport:
    """Check the family against everything claimed of it: disjointness,
    singleton-merge saturation, rank symmetry about n = m-1, the two
    coverage bounds (every partition with more than floor((n+1)/2) blocks,
    and every partition of rank at most floor((n-1)/2), sits in a chain),
    the full audit trail (chains plus excluded is the whole lattice), and
    the chain count matching the middle level size S(n+1, n+1-floor(n/2)).
    The block bound is rank at most floor(n/2), so the rank test follows
    from it; for even n the block bound is the stronger.  The walk spells
    out at most ``_WITNESS_CAP`` failures of each kind, ``missing`` and
    ``coverage``, and counts the rest in one ``(kind, "<N> more")``.
    The audit walks all Bell(m) partitions however small the family is, so
    m past ``ceiling`` is refused first."""
    m = fam.m
    _check_ceiling(m, ceiling, f"Bell({m}) partitions")
    n = m - 1
    failures: list[tuple[str, str]] = []
    # Every partition the family names: True in a chain, False excluded.
    # A partition's rank is m minus its block count.
    status: dict[Blocks, bool] = {}
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


def family_to_json(fam: PartitionChainFamily) -> dict:
    doc = _json_view(fam)
    doc["chains"], doc["excluded"] = list(doc["chains"]), list(doc["excluded"])
    return doc


def _json_view(fam: PartitionChainFamily) -> dict:
    """The document of ``family_to_json`` with its two lists iterators, for
    a writer that streams it chain by chain."""
    def rows(p: SetPartition) -> list[list[int]]:
        return [list(block) for block in p.blocks]

    return {"m": fam.m,
            "chains": ([rows(p) for p in chain] for chain in fam.chains),
            "excluded": map(rows, fam.excluded)}


def family_from_json(obj: dict) -> PartitionChainFamily:
    try:
        m = _json_int(obj["m"])
        # The verifier walks all Bell(m) partitions, however few are listed.
        _check_ceiling(m, DEFAULT_PARTITION_CEILING, f"Bell({m}) partitions")

        def partition(p: list) -> SetPartition:
            return SetPartition(m, tuple(tuple(map(_json_int, block)) for block in p))

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
    puts the edges in order without holding them all."""
    excluded = {p.blocks for p in fam.excluded}
    nodes = sorted({p.blocks for chain in fam.chains for p in chain} | excluded)
    index = {blocks: i for i, blocks in enumerate(nodes)}
    literals = [_literal(blocks) for blocks in nodes]
    # Chains are disjoint, so a partition has at most one chain successor.
    succ = {index[lo.blocks]: index[hi.blocks]
            for chain in fam.chains for lo, hi in zip(chain, chain[1:])}
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
        lo, nxt = literals[i], succ.get(i)
        for j in sorted(ups):
            yield f'  "{lo}" -> "{literals[j]}" [style={"solid" if j == nxt else "dotted"}];'
    yield "}"
