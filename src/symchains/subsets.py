"""Subsets of {1..n} and their parenthesis words.

A subset S of the ground set {1..n} is written as a word of length n with a
right parenthesis at every member position and a left parenthesis elsewhere.
Stack matching of that word is what drives the chain structure used by the
rest of the package.  Positions are 1-based throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import attrgetter, ge, gt, le, lt

LEFT = "("
RIGHT = ")"

# The default ceilings of the four enumerations, all enforced by
# ``_check_ceiling``; each layer's signatures take theirs from here, so the
# CLI's parser reads them without loading a layer.  The CLI alone reads the
# lower dot ceiling below.
#
# Whole-lattice enumerations refuse to run past this many ground elements
# unless the caller raises the ceiling explicitly.  Set by memory when every
# chain was an object: gk_decomposition plus verify_scd at n = 24 then
# peaked at about 1.2 GB.  With the chains packed into one array of masks,
# 8 bytes a set, build plus verify_scd at n = 24 peaks at about 230 MB in
# about 9 s for gk and 276 MB in 14-17 s for the other two constructions,
# and at n = 26 at 802 MB in 38 s for gk and 935 MB in 51-54 s for the
# other two (Python 3.11, 2 cores).  The ceiling stays 24 until it is set
# again from such measurements.
DEFAULT_ENUM_CEILING = 24

# Set by memory.  The family holds only its place table, 2^(m-1) entries,
# and walks its partitions when read, and the verifier takes a byte per
# partition: for m = 13 (27.6 million partitions) building plus verifying
# peaks at about 95 MB RSS, inside the 1.2 GB that set the subset ceiling.
# The JSON and text writers stream both views in block order and hold
# neither, so they stay near that too.  The dot writer is the exception
# and has its own default below.
DEFAULT_PARTITION_CEILING = 12

# The partition ceiling of the dot writer, which indexes every partition
# as a node: 247 MB at m = 11 and 1,411 MB at m = 12, over the 1.2 GB
# budget.  So ``decompose-partition --format dot`` refuses m past 11
# unless --ceiling is given.  The library's ``family_to_dot`` takes a built
# family and does not check it: ``build_partition_chains`` admits m = 12.
DEFAULT_DOT_CEILING = 11

# 2^(n-1) terms per sum; past this the closed forms are refused by default.
DEFAULT_CODE_SUM_CEILING = 25

# Set by memory: the triangle through row n holds about n^2/2 integers of up
# to about n log2(n) bits each, so its peak RSS grows as n^3.  Measured peaks
# were 115 MB at n = 800 and 357 MB at n = 1200, so n = 2000 peaks near
# 1.6 GB, about what the partition ceiling admits.
DEFAULT_STIRLING_CEILING = 2000

# Per-set operations stay cheap far beyond enumeration range.
MAX_GROUND_SIZE = 64


class CeilingExceeded(ValueError):
    """An enumeration would exceed the configured size ceiling."""


def _check_ceiling(n: int, ceiling: int, work: str) -> None:
    """Refuse a job of size ``n`` past ``ceiling``; ``work`` names what the job
    would enumerate.  Every ceiling in the package is enforced here, and an
    internal call passes its caller's ceiling on unchanged."""
    if n > ceiling:
        raise CeilingExceeded(f"{work} exceed the ceiling: {n} > {ceiling}")


def _json_int(value: object) -> int:
    """An integer from outside the program: a ground size or an element,
    in a JSON payload or given to a public constructor, or a size given to
    a public function.  Floats and booleans are refused here, at the
    boundary: ``1.5`` would reach the verifiers as an element and ``true``
    would pass for 1."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class _Value:
    """The base of the package's value classes, which are frozen and slotted.

    A subclass names its fields in ``__slots__`` and may give defaults for
    its last fields in ``_defaults``.  Unless it defines its own, its
    constructor is compiled from its slots (``_field_init``): it takes the
    fields by position or keyword, then runs ``__post_init__``.  Equality
    holds only between values of one class with equal field tuples, and
    the hash is the hash of that tuple.  The repr spells out every field.
    A field cannot be set or deleted, though pickle and ``copy`` still
    restore one.  The other methods are written once here.  Nothing is
    generated by ``dataclasses``, which with the ``inspect`` it imports
    would take about half of the package's import time in every process.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = names = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        # The field tuple, which equality, hash, ordering and pickle use;
        # attrgetter of a single name gives the bare value.
        get = attrgetter(*names)
        cls._astuple = (lambda self: get(self)) if len(names) > 1 else (lambda self: (get(self),))
        if "__init__" not in vars(cls):
            cls.__init__ = _field_init(cls)

    def __post_init__(self) -> None:
        """Check the fields; a subclass that validates its input overrides this."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Pickle and ``copy`` restore the fields through these, not through the
    # frozen ``__setattr__``.
    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple) -> None:
        for set_field, value in zip(self._setters, state):
            set_field(self, value)


def _field_init(cls: type) -> Callable[..., None]:
    """The ``__init__`` of a value class: one parameter per field, in slot
    order, with the defaults of ``_defaults``.  It sets each field through
    its slot descriptor and runs ``__post_init__``.  Compiled once per
    class, so the interpreter binds the arguments by position and keyword
    and raises the ``TypeError`` for a missing, repeated or unknown field."""
    names = cls.__slots__
    namespace = {f"_set_{name}": set_field for name, set_field in zip(names, cls._setters)}
    namespace.update((f"_default_{name}", value) for name, value in cls._defaults.items())
    params = ", ".join(f"{name}=_default_{name}" if name in cls._defaults else name for name in names)
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {params}):{body}\n    self.__post_init__()", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _compare(op: Callable[[tuple, tuple], bool]) -> Callable[[_Value, object], bool]:
    """An ordering of the values of one class by their field tuples."""
    def compare(self: _Value, other: object) -> bool:
        if other.__class__ is self.__class__:
            return op(self._astuple(), other._astuple())
        return NotImplemented

    return compare


def _unchecked(cls: type) -> Callable[[object, object], object]:
    """A constructor for ``cls``, a value class of two fields, that sets
    them through their slot descriptors and runs no checks.  Only kernels
    call it, on values they built valid; input from callers and payloads
    goes through the public constructor and keeps every check."""
    first, second = cls._setters
    new = object.__new__

    def make(a: object, b: object) -> object:
        obj = new(cls)
        first(obj, a)
        second(obj, b)
        return obj

    return make


class _TupleView(Sequence):
    """A read-only sequence that compares, hashes, concatenates and prints
    as the tuple of its items, so a view over packed or derived data stands
    in for the tuple a hand-built value holds: the chains of a subset
    decomposition, and the chains and excluded partitions of a built
    partition family."""

    __slots__ = ()

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _TupleView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: object) -> tuple:
        if isinstance(other, (tuple, _TupleView)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other: object) -> tuple:
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        # Pickle and ``copy`` rebuild a view through its constructor, which
        # in every view takes the slots in slot order: the slots alone do not
        # pickle at protocols 0 and 1, and a read-only view refuses the slot
        # state they would restore.
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def check_ground_size(n: int) -> None:
    if not 0 <= _json_int(n) <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in 0..{MAX_GROUND_SIZE}, got {n}")


class Subset(_Value):
    """A subset of {1..n} with elements stored strictly ascending.  Subsets
    are ordered by ground size, then by their element tuples."""

    __slots__ = ("n", "elements")
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground_size(self.n)
        prev = 0
        for e in self.elements:
            if _json_int(e) <= prev:
                if e < 1:
                    raise ValueError(f"element {e} outside ground set 1..{self.n}")
                raise ValueError(f"elements must be strictly increasing, got {self.elements}")
            prev = e
        if prev > self.n:
            raise ValueError(f"element {prev} outside ground set 1..{self.n}")

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        return cls(n, tuple(sorted(elements)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Subset":
        check_ground_size(n)
        if not 0 <= _json_int(mask) < (1 << n):
            raise ValueError(f"mask {mask} out of range for ground size {n}")
        return cls(n, _members(mask))

    @classmethod
    def from_literal(cls, n: int, text: str) -> "Subset":
        """Parse a set literal such as ``1,3,4,8,9``; empty set is `` `` or ``-``."""
        text = text.strip()
        if text in ("", "-"):
            return cls(n, ())
        try:
            values = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(f"malformed set literal {text!r}") from None
        if len(set(values)) != len(values):
            raise ValueError(f"repeated element in set literal {text!r}")
        return cls(n, tuple(sorted(values)))

    def literal(self) -> str:
        return _set_literal(self.elements)

    def mask(self) -> int:
        out = 0
        for e in self.elements:
            out |= 1 << (e - 1)
        return out

    def with_element(self, i: int) -> "Subset":
        if i in self:
            raise ValueError(f"{i} already present")
        return Subset(self.n, tuple(sorted(self.elements + (i,))))

    def __contains__(self, item: object) -> bool:
        return item in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


class MatchStructure(_Value):
    """Result of stack-matching a parenthesis word.

    ``matched_pairs`` lists (open, close) positions sorted by the opener;
    unmatched positions come out ascending, and every unmatched right sits
    to the left of every unmatched left.
    """

    __slots__ = ("matched_pairs", "unmatched_rights", "unmatched_lefts")
    matched_pairs: tuple[tuple[int, int], ...]
    unmatched_rights: tuple[int, ...]
    unmatched_lefts: tuple[int, ...]


def word_of(s: Subset) -> str:
    """The parenthesis word of ``s``: position i holds RIGHT iff i is a member."""
    symbols = [LEFT] * s.n
    for e in s.elements:
        symbols[e - 1] = RIGHT
    return "".join(symbols)


def match_parens(word: str) -> MatchStructure:
    """Match LEFT symbols to the nearest following unmatched RIGHT."""
    pairs: list[tuple[int, int]] = []
    rights: list[int] = []
    stack: list[int] = []
    for pos, ch in enumerate(word, start=1):
        if ch == LEFT:
            stack.append(pos)
        elif ch == RIGHT:
            if stack:
                pairs.append((stack.pop(), pos))
            else:
                rights.append(pos)
        else:
            raise ValueError(f"unexpected symbol {ch!r} at position {pos}")
    pairs.sort()
    return MatchStructure(tuple(pairs), tuple(rights), tuple(stack))


def all_subsets(n: int, ceiling: int = DEFAULT_ENUM_CEILING) -> Iterator[Subset]:
    """All subsets of {1..n}, ascending by integer mask (bit i-1 encodes i)."""
    check_ground_size(n)
    _check_ceiling(n, ceiling, f"2^{n} subsets")
    return _iter_subsets(n)


# A Subset around members a kernel built ascending and inside 1..n.
_trusted = _unchecked(Subset)


def _set_literal(elements: tuple[int, ...]) -> str:
    """The set literal of these members, as ``from_literal`` reads it:
    comma-separated, ``-`` for the empty set."""
    return ",".join(map(str, elements)) or "-"


def _member_table(first: int, last: int) -> list[tuple[int, ...]]:
    """Member tuples of every subset of {first..last}, ascending by mask
    (bit i-first encodes i): each element doubles the table."""
    table: list[tuple[int, ...]] = [()]
    for i in range(first, last + 1):
        table += [t + (i,) for t in table]
    return table


# Table k holds the member tuples of every value of byte k of a mask, the
# elements 8k+1..8k+8; the eight tables cover MAX_GROUND_SIZE.  They are
# built at import, in about half a millisecond, so that ``_members`` reads
# each byte without a call.
_BYTE_TABLES = tuple(tuple(_member_table(8 * k + 1, 8 * k + 8)) for k in range(MAX_GROUND_SIZE // 8))


def _members(mask: int) -> tuple[int, ...]:
    """The members of ``mask`` (bit i-1 for element i), ascending: one table
    lookup per byte, so masks of any ground size up to MAX_GROUND_SIZE are
    served by tables of 256 entries."""
    out = _BYTE_TABLES[0][mask & 255]
    k = 0
    while mask > 255:
        mask >>= 8
        k += 1
        out += _BYTE_TABLES[k][mask & 255]
    return out


def _iter_subsets(n: int) -> Iterator[Subset]:
    """Ascending-mask order from two split tables: the high positions'
    subsets in the outer loop, the low positions' in the inner, each subset
    their concatenation.  Memory is O(2^(n/2)), never a 2^n list."""
    h = n // 2
    low = _member_table(1, h)
    for high in _member_table(h + 1, n):
        for members in low:
            yield _trusted(n, members + high)
