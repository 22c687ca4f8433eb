"""Symmetric chain decompositions of the subset lattice of {1..n}.

Three constructions are provided: bracket matching (each chain grows from
its bottom, a subset whose parenthesis word has every right matched), the
append/lift recursion on n, and iterated products of two-element chains
decomposed into hooks.  All three produce the same chains in the same
order; tests establish that rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator

from .reports import _WITNESS_CAP, VerificationReport
from .subsets import (
    DEFAULT_ENUM_CEILING,
    MAX_GROUND_SIZE,
    Subset,
    _check_ceiling,
    _json_int,
    _members,
    _set_literal,
    _trusted as _subset,
    _unchecked,
    check_ground_size,
    match_parens,
    word_of,
)


@dataclass(frozen=True, slots=True, init=False)
class BooleanChain:
    """A chain of subsets, bottom first, stored as integer masks (bit i-1
    for element i).  Structure beyond consistent ground sizes is the
    verifier's business, so malformed chains can be built and then reported
    on.  ``sets``, ``bottom`` and ``top`` build their ``Subset``s on each
    access; nothing holds them, so a decomposition costs one int per set."""

    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, sets: Iterable[Subset]) -> None:
        sets = tuple(sets)
        if not sets:
            raise ValueError("a chain needs at least one set")
        for s in sets:
            if s.n != n:
                raise ValueError(f"ground size mismatch: chain has {n}, set has {s.n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(s.mask() for s in sets))

    @property
    def sets(self) -> tuple[Subset, ...]:
        n = self.n
        return tuple([_subset(n, _members(m)) for m in self.masks])

    @property
    def bottom(self) -> Subset:
        return _subset(self.n, _members(self.masks[0]))

    @property
    def top(self) -> Subset:
        return _subset(self.n, _members(self.masks[-1]))


# A BooleanChain around masks a kernel built, nonempty and below 2^n.
_chain = _unchecked(BooleanChain)


def _literal(mask: int) -> str:
    """``Subset.literal`` of the set ``mask`` stands for."""
    return _set_literal(_members(mask))


@dataclass(frozen=True)
class BooleanDecomposition:
    n: int
    chains: tuple[BooleanChain, ...]

    def __post_init__(self) -> None:
        check_ground_size(self.n)
        for chain in self.chains:
            if chain.n != self.n:
                raise ValueError("ground size mismatch between decomposition and chain")


def chain_of(s: Subset) -> BooleanChain:
    """The full chain through ``s``.

    Matched right positions stay put along the chain; the unmatched
    positions (rights first, then lefts, both ascending) toggle on one at a
    time from the bottom.
    """
    ms = match_parens(word_of(s))
    bottom = sum(1 << (close - 1) for _, close in ms.matched_pairs)
    toggles = (1 << (t - 1) for t in ms.unmatched_rights + ms.unmatched_lefts)
    return _chain(s.n, tuple(accumulate(toggles, or_, initial=bottom)))


def gk_decomposition(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition by bracket matching, emitted chain by chain from the
    bottoms.

    A bottom is a subset whose parenthesis word has every RIGHT matched; there
    are C(n, n//2) of them.  One pass over the positions grows every such word
    with its stack of open LEFTs: a LEFT is pushed, a RIGHT pops the stack and
    may only be placed on a nonempty one.  The LEFTs still open at the end are
    the unmatched ones, u_1 < ... < u_k, and the chain is bottom plus
    {u_1..u_t} for t = 0..k: the bottom's mask, then cumulative ORs of the
    unmatched bits.
    """
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    masks: list[int] = [0]
    stacks: list[tuple[int, ...]] = [()]
    for i in range(n):
        bit = 1 << i
        # Words that place a RIGHT here gain the new highest bit, so they
        # follow all the others and the bottoms stay in ascending mask order.
        masks += [m | bit for m, stack in zip(masks, stacks) if stack]
        stacks = [stack + (bit,) for stack in stacks] + [stack[:-1] for stack in stacks if stack]
    return BooleanDecomposition(n, tuple([_chain(n, tuple(accumulate(stack, or_, initial=m)))
                                          for m, stack in zip(masks, stacks)]))


def _grow(n: int, ceiling: int, extend: Callable, lift: Callable) -> BooleanDecomposition:
    """Chains grown from [0] one element at a time: each ``extend(chain, bit)``
    keeps its bottom and precedes every ``lift(chain, bit)`` of a chain past
    one set, whose bottom gains ``bit``, the highest so far, so bottoms ascend."""
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    chains: list[list[int]] = [[0]]
    for bit in (1 << k for k in range(n)):
        step = [extend(chain, bit) for chain in chains]
        step += (lift(chain, bit) for chain in chains if len(chain) > 1)
        chains = step
    return BooleanDecomposition(n, tuple([_chain(n, tuple(chain)) for chain in chains]))


def debruijn_decomposition(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition by recursion on the ground size.

    Each chain c_1 < ... < c_k over {1..m} yields two chains over {1..m+1}:
    the chain extended by c_k with m+1 added, and the whole chain lifted by
    adding m+1 to every set with its top dropped (dropping keeps the lifted
    chain disjoint from the extended one; a one-set chain yields nothing).
    """
    return _grow(n, ceiling, lambda chain, bit: chain + [chain[-1] | bit],
                 lambda chain, bit: [x | bit for x in chain[:-1]])


def product_scd(k: int, l: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Hook chains decomposing the product of a k-chain and an l-chain, each
    cell a (row, col) pair, both 1-based.

    Hook j runs down column j from row 1 to row k-j+1 and then right along
    that row to column l, for j = 1..min(k, l).  Hooks are disjoint, cover
    the grid, and are symmetric about the middle rank.
    """
    if k < 1 or l < 1:
        raise ValueError("grid sides must be positive")
    chains = []
    for j in range(1, min(k, l) + 1):
        vertical = [(r, j) for r in range(1, k - j + 2)]
        horizontal = [(k - j + 1, c) for c in range(j + 1, l + 1)]
        chains.append(tuple(vertical + horizontal))
    return tuple(chains)


def _two_hooks(k: int) -> list[tuple[tuple[int, bool], ...]]:
    """``product_scd(k, 2)`` with each cell (row, col) read as (row - 1,
    col == 2): the index of a set in a k-set chain, and whether the new
    element joins it."""
    return [tuple((row - 1, col == 2) for row, col in hook) for hook in product_scd(k, 2)]


def iterated_product_scd(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition built as an n-fold product of two-element chains.

    Each element of {1..n} contributes the chain (absent, present); hooks
    from product_scd knit the accumulated chains together one element at a
    time.  Row r picks the r-th set of the old chain, column 2 adds the new
    element.  The hooks of each chain length are computed once per call.
    """
    # Chains have at most n sets; _grow refuses n past MAX_GROUND_SIZE.
    hooks = [_two_hooks(size) for size in range(1, min(n, MAX_GROUND_SIZE) + 1)]

    def hook(j: int) -> Callable:
        return lambda chain, bit: [chain[row] | bit if add else chain[row]
                                   for row, add in hooks[len(chain) - 1][j]]

    return _grow(n, ceiling, hook(0), hook(1))


def verify_scd(d: BooleanDecomposition, ceiling: int = DEFAULT_ENUM_CEILING) -> VerificationReport:
    """Check cover, disjointness, saturation, rank symmetry, and the three
    structural facts every bracket-matching chain satisfies: elements are
    added in increasing order, n sits in every chain's top, and a link
    adding i requires i+1 absent and (i = 1 or i-1 present).

    Every test is arithmetic on the chains' masks (bit i-1 for element i),
    coverage is one byte per subset, and a set is spelled out only in the
    witness of a failure, and at most ``_WITNESS_CAP`` missing sets are
    spelled out before one ``("missing", "<N> more")``.  Coverage grows as
    2^n however few chains there are, so n past ``ceiling`` is refused
    first."""
    n = d.n
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    failures: list[tuple[str, str]] = []
    covered = bytearray(1 << n)
    for chain in d.chains:
        masks = chain.masks
        for m in masks:
            if covered[m]:
                failures.append(("overlap", _literal(m)))
            covered[m] = 1
        bottom, top = masks[0], masks[-1]
        if bottom.bit_count() + top.bit_count() != n:
            failures.append(("not_symmetric", f"{_literal(bottom)} .. {_literal(top)}"))
        if n >= 1 and not top >> (n - 1):
            failures.append(("link_rule", f"top {_literal(top)} lacks {n}"))
        prev_added = 0
        for j in range(1, len(masks)):
            lo, hi = masks[j - 1], masks[j]
            added = hi ^ lo
            if hi & lo != lo or not added or added & (added - 1):
                failures.append(("not_saturated", f"{_literal(lo)} -> {_literal(hi)}"))
                continue
            i = added.bit_length()
            if i <= prev_added:
                failures.append(("link_rule",
                                 f"added {i} after {prev_added} in chain from {_literal(bottom)}"))
            if lo & added << 1 or (added > 1 and not lo & added >> 1):
                failures.append(("link_rule", f"link {_literal(lo)} -> add {i}"))
            prev_added = i
    seen = covered.count(1)
    missing = len(covered) - seen
    mask = -1
    for _ in range(min(missing, _WITNESS_CAP)):
        mask = covered.find(0, mask + 1)
        failures.append(("missing", _literal(mask)))
    if missing > _WITNESS_CAP:
        failures.append(("missing", f"{missing - _WITNESS_CAP} more"))
    return VerificationReport(seen, len(d.chains), tuple(failures))


def decomposition_to_json(d: BooleanDecomposition) -> dict:
    doc = _json_view(d)
    doc["chains"] = list(doc["chains"])
    return doc


def _json_view(d: BooleanDecomposition) -> dict:
    """The document of ``decomposition_to_json`` with its chain list an
    iterator, for a writer that streams it chain by chain."""
    return {"n": d.n,
            "chains": ([list(_members(m)) for m in chain.masks] for chain in d.chains)}


def decomposition_from_json(obj: dict) -> BooleanDecomposition:
    try:
        n = _json_int(obj["n"])
        # verify_scd allocates 2^n bytes of coverage, however few sets are listed.
        _check_ceiling(n, DEFAULT_ENUM_CEILING, f"2^{n} subsets")
        chains = [BooleanChain(n, tuple(Subset(n, tuple(map(_json_int, els))) for els in chain))
                  for chain in obj["chains"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed decomposition payload: {exc}") from exc
    return BooleanDecomposition(n, tuple(chains))


def decomposition_to_dot(d: BooleanDecomposition) -> str:
    """Hasse diagram of the covered subsets; chain links solid, other covers
    dotted."""
    return "\n".join(_dot_lines(d))


def _dot_lines(d: BooleanDecomposition) -> Iterator[str]:
    """The lines of ``decomposition_to_dot``, one at a time."""
    literals = {m: _literal(m) for chain in d.chains for m in chain.masks}
    links = {(lo, hi) for chain in d.chains for lo, hi in zip(chain.masks, chain.masks[1:])}
    masks = sorted(literals)
    yield from ("digraph scd {", "  rankdir=BT;", "  node [shape=box];")
    for mask in masks:
        yield f'  "{literals[mask]}";'
    for mask in masks:
        for i in range(d.n):
            hi = mask | 1 << i
            if hi == mask or hi not in literals:
                continue
            style = "solid" if (mask, hi) in links else "dotted"
            yield f'  "{literals[mask]}" -> "{literals[hi]}" [style={style}];'
    yield "}"
