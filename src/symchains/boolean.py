"""Symmetric chain decompositions of the subset lattice of {1..n}.

Three constructions are provided: bracket matching (each subset's chain is
read off its parenthesis word), the append/lift recursion on n, and iterated
products of two-element chains decomposed into hooks.  All three produce the
same set of chains; tests establish that rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .reports import VerificationReport, report
from .subsets import (
    DEFAULT_ENUM_CEILING,
    Subset,
    _check_ceiling,
    all_subsets,
    check_ground_size,
    match_parens,
    word_of,
)


@dataclass(frozen=True)
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
    """Decomposition by bracket matching: group subsets sharing a chain key."""
    groups: dict[tuple[int, ...], list[Subset]] = {}
    for s in all_subsets(n, ceiling):
        groups.setdefault(chain_key(s).elements, []).append(s)
    chains = []
    for members in groups.values():
        members.sort(key=len)
        chains.append(BooleanChain(n, tuple(members)))
    return BooleanDecomposition.of(n, chains)


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
    adding i requires i+1 absent and (i = 1 or i-1 present)."""
    n = d.n
    failures: list[tuple[str, str]] = []
    seen: set[int] = set()
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
    return report(len(seen), len(d.chains), failures)


def decomposition_to_json(d: BooleanDecomposition) -> dict:
    return {
        "n": d.n,
        "chains": [[list(s.elements) for s in chain.sets] for chain in d.chains],
    }


def decomposition_from_json(obj: dict) -> BooleanDecomposition:
    try:
        n = obj["n"]
        chains = [BooleanChain(n, tuple(Subset(n, tuple(els)) for els in chain))
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
