"""The set coding: subsets of {1..n} as length n+1 integer vectors.

Entry i of the code of S is 0 when i is a member, and otherwise the value
that completes the prefix sum through i to exactly i.  The code determines
the subset (zeros mark members) and its nonzero entries, read in order,
determine the code back, which is what links subsets to partition types.
"""

from __future__ import annotations

from collections.abc import Sequence

from .subsets import Subset, _json_int, _unchecked, _Value, check_ground_size


def is_valid_code(entries: Sequence[int]) -> bool:
    """True when every entry is 0 or completes the prefix sum to its index,
    and the final entry is nonzero."""
    if len(entries) < 1 or entries[-1] == 0:
        return False
    total = 0
    for i, e in enumerate(entries, start=1):
        if e < 0:
            return False
        if e != 0:
            if total + e != i:
                return False
            total = i
    return True


class Code(_Value):
    """A valid code of length n+1; construction rejects invalid entries."""

    __slots__ = ("n", "entries")
    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground_size(self.n)
        if len(self.entries) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} entries, got {len(self.entries)}")
        if not is_valid_code(self.entries):
            raise ValueError(f"invalid code entries {self.entries}")

    def literal(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"

    def compact(self) -> str:
        """Digit-string form, defined only when every entry is a single digit."""
        if any(e > 9 for e in self.entries):
            raise ValueError(f"entries above 9 have no compact form: {self.entries}")
        return "".join(str(e) for e in self.entries)


# A Code around entries a kernel built valid.
_trusted = _unchecked(Code)


def encode(s: Subset) -> Code:
    """The code of ``s`` by carries over its members only.

    With no members every entry is 1.  Each member e, ascending, zeroes
    position e and carries its count onto position e+1, which is how far
    that position now reaches back to the last non-member.  The members
    ascend, so position e+1 still holds its initial 1 when e is reached,
    and the carry is one add: the count at e, plus 1.  The result is valid
    by construction, so it is built unchecked.
    """
    entries = [1] * (s.n + 1)
    for e in s.elements:
        entries[e] = entries[e - 1] + 1
        entries[e - 1] = 0
    return _trusted(s.n, tuple(entries))


def decode(c: Code) -> Subset:
    return Subset(c.n, tuple(i for i in range(1, c.n + 1) if c.entries[i - 1] == 0))


def nonzeros(c: Code) -> tuple[int, ...]:
    return tuple(e for e in c.entries if e)


def code_from_nonzeros(seq: Sequence[int]) -> Code:
    """Rebuild the unique code whose nonzero entries, in order, are ``seq``.

    Each nonzero value a sits right after the a-1 zeros it accounts for, so
    the code is the concatenation of blocks 0^(a-1) a.
    """
    entries: list[int] = []
    for a in seq:
        if a < 1:
            raise ValueError(f"nonzero entries must be positive, got {a}")
        entries.extend([0] * (a - 1))
        entries.append(a)
    if not entries:
        raise ValueError("at least one nonzero entry is required")
    return Code(len(entries) - 1, tuple(entries))


def _link_added(entries: Sequence[int], i: int) -> int:
    """The k with (k, 1) at positions (i, i+1), or 0 when no link adds i;
    the one link test, shared by ``link_rewrite`` and the partition kernel."""
    if not 1 <= i < len(entries):
        return 0
    k = entries[i - 1]
    return k if k >= 1 and entries[i] == 1 else 0


def link_rewrite(c: Code, i: int) -> Code:
    """Rewrite the adjacent entries (k, 1) at positions (i, i+1) to (0, k+1).

    This is how adding element i to the decoded subset acts on its code
    when position i+1 holds a 1.
    """
    if not 1 <= _json_int(i) <= c.n:
        raise ValueError(f"position {i} out of range 1..{c.n}")
    k = _link_added(c.entries, i)
    if k == 0:
        raise ValueError(f"positions ({i},{i + 1}) must hold (k,1) with k >= 1, "
                         f"got ({c.entries[i - 1]},{c.entries[i]})")
    entries = list(c.entries)
    entries[i - 1] = 0
    entries[i] = k + 1
    result = Code(c.n, tuple(entries))
    assert decode(result) == decode(c).with_element(i)
    return result
