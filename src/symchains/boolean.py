"""Symmetric chain decompositions of the subset lattice of {1..n}.

Three constructions are provided: bracket matching (each chain grows from
its bottom, a subset whose parenthesis word has every right matched), the
append/lift recursion on n, and iterated products of two-element chains
decomposed into hooks.  All three produce the same set of chains; tests
establish that rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .reports import VerificationReport, report
from .subsets import (
    DEFAULT_ENUM_CEILING,
    Subset,
    _check_ceiling,
    _json_int,
    check_ground_size,
    match_parens,
    word_of,
)


@dataclass(frozen=True, slots=True)
class BooleanChain:
    """A chain of subsets, bottom first.  Structure beyond consistent ground
    sizes is the verifier's business, so malformed chains can be built and
    then reported on."""

    n: int
    sets: tuple[Subset, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("a chain needs at least one set")
        for s in self.sets:
            if s.n != self.n:
                raise ValueError(f"ground size mismatch: chain has {self.n}, set has {s.n}")

    @property
    def bottom(self) -> Subset:
        return self.sets[0]

    @property
    def top(self) -> Subset:
        return self.sets[-1]


@dataclass(frozen=True)
class BooleanDecomposition:
    n: int
    chains: tuple[BooleanChain, ...]

    def __post_init__(self) -> None:
        check_ground_size(self.n)
        for chain in self.chains:
            if chain.n != self.n:
                raise ValueError("ground size mismatch between decomposition and chain")

    @classmethod
    def of(cls, n: int, chains: Iterable[BooleanChain]) -> "BooleanDecomposition":
        ordered = sorted(chains, key=lambda c: c.bottom.mask())
        return cls(n, tuple(ordered))


def chain_key(s: Subset) -> Subset:
    """The bottom of the chain through ``s``: its matched right positions."""
    ms = match_parens(word_of(s))
    return Subset(s.n, tuple(sorted(close for _, close in ms.matched_pairs)))


def chain_of(s: Subset) -> BooleanChain:
    """The full chain through ``s``.

    Matched right positions stay put along the chain; the unmatched
    positions (rights first, then lefts, both ascending) toggle on one at a
    time from the bottom.
    """
    ms = match_parens(word_of(s))
    fixed = sorted(close for _, close in ms.matched_pairs)
    toggles = list(ms.unmatched_rights) + list(ms.unmatched_lefts)
    sets = [Subset(s.n, tuple(sorted(fixed + toggles[:t])))
            for t in range(len(toggles) + 1)]
    return BooleanChain(s.n, tuple(sets))


def gk_decomposition(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition by bracket matching, emitted chain by chain from the
    bottoms.

    A bottom is a subset whose parenthesis word has every RIGHT matched; there
    are C(n, n//2) of them.  One pass over the positions grows every such word
    with its stack of open LEFTs: a LEFT is pushed, a RIGHT pops the stack and
    may only be placed on a nonempty one.  The LEFTs still open at the end are
    the unmatched ones, u_1 < ... < u_k, and the chain is bottom plus
    {u_1..u_t} for t = 0..k.
    """
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    level: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), ())]
    for i in range(1, n + 1):
        bit, pos = 1 << (i - 1), (i,)
        step = []
        for mask, members, lefts in level:
            step.append((mask, members, lefts + pos))
            if lefts:
                step.append((mask | bit, members + pos, lefts[:-1]))
        level = step
    level.sort()
    chains = []
    for _, members, lefts in level:
        sets = [Subset(n, members)]
        for t in range(1, len(lefts) + 1):
            sets.append(Subset(n, tuple(sorted(members + lefts[:t]))))
        chains.append(BooleanChain(n, tuple(sets)))
    return BooleanDecomposition(n, tuple(chains))


def debruijn_decomposition(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition by recursion on the ground size.

    Each chain c_1 < ... < c_k over {1..m} yields two chains over {1..m+1}:
    the chain extended by c_k with m+1 added, and the whole chain lifted by
    adding m+1 to every set with its top dropped (dropping keeps the lifted
    chain disjoint from the extended one; a one-set chain yields nothing).
    """
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    chains: list[list[tuple[int, ...]]] = [[()]]
    for k in range(1, n + 1):
        step: list[list[tuple[int, ...]]] = []
        for chain in chains:
            step.append(chain + [chain[-1] + (k,)])
            if len(chain) > 1:
                step.append([els + (k,) for els in chain[:-1]])
        chains = step
    built = [BooleanChain(n, tuple(Subset(n, els) for els in chain)) for chain in chains]
    return BooleanDecomposition.of(n, built)


class GridElement(NamedTuple):
    """A cell of the k x l grid poset, both coordinates 1-based."""

    row: int
    col: int


def product_scd(k: int, l: int) -> tuple[tuple[GridElement, ...], ...]:
    """Hook chains decomposing the product of a k-chain and an l-chain.

    Hook j runs down column j from row 1 to row k-j+1 and then right along
    that row to column l, for j = 1..min(k, l).  Hooks are disjoint, cover
    the grid, and are symmetric about the middle rank.
    """
    if k < 1 or l < 1:
        raise ValueError("grid sides must be positive")
    chains = []
    for j in range(1, min(k, l) + 1):
        vertical = [GridElement(r, j) for r in range(1, k - j + 2)]
        horizontal = [GridElement(k - j + 1, c) for c in range(j + 1, l + 1)]
        chains.append(tuple(vertical + horizontal))
    return tuple(chains)


def iterated_product_scd(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> BooleanDecomposition:
    """Decomposition built as an n-fold product of two-element chains.

    Each element of {1..n} contributes the chain (absent, present); hooks
    from product_scd knit the accumulated chains together one element at a
    time.  Row r picks the r-th set of the old chain, column 2 adds the new
    element.
    """
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    chains: list[list[tuple[int, ...]]] = [[()]]
    for k in range(1, n + 1):
        step: list[list[tuple[int, ...]]] = []
        for chain in chains:
            for hook in product_scd(len(chain), 2):
                step.append([chain[row - 1] + ((k,) if col == 2 else ())
                             for row, col in hook])
        chains = step
    built = [BooleanChain(n, tuple(Subset(n, els) for els in chain)) for chain in chains]
    return BooleanDecomposition.of(n, built)


def verify_scd(d: BooleanDecomposition) -> VerificationReport:
    """Check cover, disjointness, saturation, rank symmetry, and the three
    structural facts every bracket-matching chain satisfies: elements are
    added in increasing order, n sits in every chain's top, and a link
    adding i requires i+1 absent and (i = 1 or i-1 present).

    Each set is read once into its integer mask (bit i-1 for element i);
    every test after that is arithmetic on masks."""
    n = d.n
    bit = [0, *(1 << i for i in range(n))].__getitem__
    failures: list[tuple[str, str]] = []
    seen: set[int] = set()
    for chain in d.chains:
        sets = chain.sets
        masks = [sum(map(bit, s.elements)) for s in sets]
        for s, m in zip(sets, masks):
            if m in seen:
                failures.append(("overlap", s.literal()))
            seen.add(m)
        bottom, top = sets[0], sets[-1]
        if len(bottom.elements) + len(top.elements) != n:
            failures.append(("not_symmetric", f"{bottom.literal()} .. {top.literal()}"))
        if n >= 1 and not masks[-1] >> (n - 1):
            failures.append(("link_rule", f"top {top.literal()} lacks {n}"))
        prev_added = 0
        for j in range(1, len(sets)):
            lo, hi = masks[j - 1], masks[j]
            added = hi ^ lo
            if hi & lo != lo or not added or added & (added - 1):
                failures.append(("not_saturated",
                                 f"{sets[j - 1].literal()} -> {sets[j].literal()}"))
                continue
            i = added.bit_length()
            if i <= prev_added:
                failures.append(("link_rule",
                                 f"added {i} after {prev_added} in chain from {bottom.literal()}"))
            if lo & added << 1 or (added > 1 and not lo & added >> 1):
                failures.append(("link_rule", f"link {sets[j - 1].literal()} -> add {i}"))
            prev_added = i
    if len(seen) != 1 << n:
        for mask in range(1 << n):
            if mask not in seen:
                failures.append(("missing", Subset.from_mask(n, mask).literal()))
    return report(len(seen), len(d.chains), failures)


def decomposition_to_json(d: BooleanDecomposition) -> dict:
    return {
        "n": d.n,
        "chains": [[list(s.elements) for s in chain.sets] for chain in d.chains],
    }


def decomposition_from_json(obj: dict) -> BooleanDecomposition:
    try:
        n = _json_int(obj["n"])
        # verify_scd lists every missing subset, however few are listed.
        _check_ceiling(n, DEFAULT_ENUM_CEILING, f"2^{n} subsets")
        chains = [BooleanChain(n, tuple(Subset(n, tuple(map(_json_int, els))) for els in chain))
                  for chain in obj["chains"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed decomposition payload: {exc}") from exc
    return BooleanDecomposition(n, tuple(chains))


def decomposition_to_dot(d: BooleanDecomposition) -> str:
    """Hasse diagram of the covered subsets; chain links solid, other covers
    dotted."""
    by_mask = {s.mask(): s for chain in d.chains for s in chain.sets}
    links = {(lo.mask(), hi.mask())
             for chain in d.chains
             for lo, hi in zip(chain.sets, chain.sets[1:])}
    lines = ["digraph scd {", "  rankdir=BT;", "  node [shape=box];"]
    for mask in sorted(by_mask):
        lines.append(f'  "{by_mask[mask].literal()}";')
    for mask in sorted(by_mask):
        s = by_mask[mask]
        for i in range(1, d.n + 1):
            if i in s:
                continue
            hi_mask = mask | 1 << (i - 1)
            if hi_mask not in by_mask:
                continue
            style = "solid" if (mask, hi_mask) in links else "dotted"
            lines.append(f'  "{s.literal()}" -> "{by_mask[hi_mask].literal()}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
