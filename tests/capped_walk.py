"""The element-by-element capped walk, kept as the oracle of the block walk.

``capped_walk`` is the class walk the package used before it went a block
at a time: element e joins each block of a partition of {1..e-1} that is
below its cap, or opens a new block while there are fewer blocks than
caps.  ``check_block_walk(m)`` compares the package's walk with it for
every class of partitions of {1..m} and every arriving link.  The suite
runs it for m <= 9; for a larger m run

    PYTHONPATH=src:tests python -c 'from capped_walk import check_block_walk; check_block_walk(10)'
"""

from __future__ import annotations

from functools import partial

from symchains import all_subsets, encode, enumerate_class
from symchains.partitions import _partitions, _trusted, _type_of_code


def capped_walk(m, sizes, j=-1):
    """Block tuples of the partitions of {1..m} whose block i holds at most
    ``sizes[i]`` elements, in restricted-growth order; with a merge index
    ``j`` >= 0, only those that are no image across it.

    Built level by level, so each result is canonical as built.  While a
    partition holds just j+1 blocks, block j is capped at one element: a
    member is no image exactly when block j+1 opened while block j was a
    singleton.  Each new block is handed out once per call.
    """
    intern = {}.setdefault
    count = len(sizes)
    caps = [sizes] * (count + 1)
    if j >= 0:
        caps[j + 1] = [*sizes[:j], 1, *sizes[j + 1:]]
    level = [()]
    for e in range(1, m + 1):
        new = (e,)
        nxt = []
        for p in level:
            cap = caps[len(p)]
            for i, block in enumerate(p):
                if len(block) < cap[i]:
                    block += new
                    nxt.append(p[:i] + (intern(block, block),) + p[i + 1:])
            if len(p) < count:
                nxt.append(p + (new,))
        level = nxt
    return level


def check_block_walk(m):
    """Assert that for every class of partitions of {1..m}, whole and
    across each merge index j below its last block, the package's walk
    lists the capped walk's partitions sorted, and that ``enumerate_class``
    gives the tuple it gave when it sorted the capped walk.  Returns the
    number of (class, j) pairs checked."""
    make = partial(_trusted, m)
    pairs = 0
    for s in all_subsets(m - 1):
        sizes = _type_of_code(encode(s).entries)
        for j in range(-1, len(sizes) - 1):
            expected = sorted(capped_walk(m, sizes, j))
            assert _partitions(m, sizes, j) == expected, (m, sizes, j)
            if j < 0:
                assert enumerate_class(s, ceiling=max(m, 12)) == tuple(map(make, expected)), s
            pairs += 1
    return pairs
