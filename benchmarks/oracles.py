"""Reference values the benchmark checks the package against.

Everything here is computed from first principles or frozen, never by
calling the package, so a wrong answer from the package cannot also make
its own check pass.
"""

from __future__ import annotations

from math import comb


class GateFailure(AssertionError):
    """A job's output disagreed with its oracle or a frozen count."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise GateFailure(what)


def stirling_row(n: int) -> list[int]:
    """S(n, 0..n) by S(n,k) = S(n-1,k-1) + k S(n-1,k)."""
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [row[k - 1] + (k * row[k] if k < i else 0) for k in range(1, i + 1)]
    return row


def stirling(n: int, k: int) -> int:
    return stirling_row(n)[k] if 0 <= k <= n else 0


def bell(n: int) -> int:
    """Bell number by the Bell triangle, independent of Stirling numbers."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def integer_partitions(n: int) -> int:
    """p(n), the number of monomials of degree n in a1, a2, ..."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def compositions(n: int) -> int:
    """Compositions of n, by c(m) = c(m-1) + ... + c(0).  The nonzero
    entries of the code of a subset of {1..n-1} form a composition of n,
    and every composition arises once, so this counts the terms of a code
    sum over those subsets."""
    counts = [1]
    for _ in range(n):
        counts.append(sum(counts))
    return counts[n]


def code_terms(n: int, order: int) -> int:
    """Terms of bell_via_codes(n), complete_from_elementary(n) and
    derivative_formula at ``order`` together."""
    return 2 * compositions(n) + compositions(order)


def members(n: int, mask: int) -> list[int]:
    return [i for i in range(1, n + 1) if mask >> (i - 1) & 1]


def code(n: int, mask: int) -> tuple[int, ...]:
    """Length n+1 code of a subset: 0 at members, else the gap to the
    previous non-member."""
    entries, last = [], 0
    for i in range(1, n + 2):
        if i <= n and mask >> (i - 1) & 1:
            entries.append(0)
        else:
            entries.append(i - last)
            last = i
    return tuple(entries)


def word(n: int, mask: int) -> str:
    return "".join(")" if mask >> i & 1 else "(" for i in range(n))


def matching(n: int, mask: int) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Matched (open, close) pairs sorted by opener, unmatched rights,
    unmatched lefts of the parenthesis word of a subset."""
    pairs, rights, stack = [], [], []
    for pos in range(1, n + 1):
        if mask >> (pos - 1) & 1:
            if stack:
                pairs.append((stack.pop(), pos))
            else:
                rights.append(pos)
        else:
            stack.append(pos)
    return sorted(pairs), rights, stack


def chain_through(n: int, mask: int) -> list[list[int]]:
    """The bracket-matching chain through a subset, bottom first."""
    pairs, rights, lefts = matching(n, mask)
    fixed = sorted(close for _, close in pairs)
    toggles = rights + lefts
    return [sorted(fixed + toggles[:t]) for t in range(len(toggles) + 1)]


def class_size(sizes: list[int]) -> int:
    """Partitions whose blocks, ordered by their minima, have these sizes:
    each block's minimum is forced, its other members are free."""
    remaining = sum(sizes)
    count = 1
    for s in sizes:
        count *= comb(remaining - 1, s - 1)
        remaining -= s
    return count


def link_positions(entries: tuple[int, ...]) -> list[int]:
    """Positions i with entries (k, 1), k >= 1, at (i, i+1): the chain links
    leaving the class of this code."""
    return [i for i in range(1, len(entries))
            if entries[i - 1] >= 1 and entries[i] == 1]


# Frozen at the commit that introduced the benchmark; keyed by the subset
# ground size n of the partition family on {1..n+1}.  ``excluded`` is the
# number of partitions pruned from build_partition_chains(n); ``injections``
# is the number of (partition, link) pairs the inject probe visits.
FROZEN_PARTITIONS = {
    4: {"excluded": 5, "injections": 44},
    6: {"excluded": 203, "injections": 898},
    9: {"excluded": 56969, "injections": 142309},
}
