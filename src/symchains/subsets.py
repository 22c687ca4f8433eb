"""Subsets of {1..n} and their parenthesis words.

A subset S of the ground set {1..n} is written as a word of length n with a
right parenthesis at every member position and a left parenthesis elsewhere.
Stack matching of that word is what drives the chain structure used by the
rest of the package.  Positions are 1-based throughout.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter, ge, gt, le, lt
from typing import Any, Callable, Iterable, Iterator

LEFT = "("
RIGHT = ")"

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
    its last fields in ``_defaults``.  The constructor takes the fields by
    position or keyword, then runs ``__post_init__``.  Equality holds only
    between values of one class with equal field tuples, and the hash is
    the hash of that tuple.  The repr spells out every field.  A field
    cannot be set or deleted, though pickle and ``copy`` still restore
    one.  These methods are written once here, not generated per class by
    ``dataclasses``, which with the ``inspect`` it imports would take about
    half of the package's import time in every process.
    """

    __slots__ = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = names = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        # The field tuple, which equality, hash, ordering and pickle use;
        # attrgetter of a single name gives the bare value.
        get = attrgetter(*names)
        cls._astuple = (lambda self: get(self)) if len(names) > 1 else (lambda self: (get(self),))
        if len(names) in (2, 3) and "__init__" not in vars(cls):
            cls.__init__ = (_two_field_init if len(names) == 2 else _three_field_init)(*cls._setters)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """The field values of a call that does not give every field by
        position, defaults filled."""
        names = cls.__slots__
        given = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or given.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes each of its fields {names} once, by position or "
                            f"keyword; got {len(args)} by position and {sorted(kwargs)} by keyword")
        return tuple([given[name] for name in names])

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


# A default no caller passes: the field was not given by position.
_UNSET = object()


def _two_field_init(first: Callable, second: Callable) -> Callable[..., None]:
    """``_Value.__init__`` for a class of two fields, which are the ones the
    loaders and ``class_of`` build in bulk: it takes the fields as named
    parameters, not packed into a tuple and set in a loop, which makes the
    constructor about 0.3 us faster, on a par with the dataclass one
    (Python 3.11, 2 cores)."""
    def __init__(self: _Value, a: Any = _UNSET, b: Any = _UNSET, /, **kwargs: Any) -> None:
        if kwargs or b is _UNSET:
            a, b = self._bind(tuple(v for v in (a, b) if v is not _UNSET), kwargs)
        first(self, a)
        second(self, b)
        self.__post_init__()

    return __init__


def _three_field_init(first: Callable, second: Callable, third: Callable) -> Callable[..., None]:
    """``_two_field_init`` for a class of three fields, among them the
    ``MatchStructure`` that ``match_parens`` makes on every call, which
    this makes about 15% faster (Python 3.11, 2 cores)."""
    def __init__(self: _Value, a: Any = _UNSET, b: Any = _UNSET, c: Any = _UNSET, /, **kwargs: Any) -> None:
        if kwargs or c is _UNSET:
            a, b, c = self._bind(tuple(v for v in (a, b, c) if v is not _UNSET), kwargs)
        first(self, a)
        second(self, b)
        third(self, c)
        self.__post_init__()

    return __init__


def _compare(op: Callable[[tuple, tuple], bool]) -> Callable[[_Value, object], bool]:
    """An ordering of the values of one class by their field tuples."""
    def compare(self: _Value, other: object) -> bool:
        if other.__class__ is self.__class__:
            return op(self._astuple(), other._astuple())
        return NotImplemented

    return compare


def _unchecked(cls: type) -> Callable[[Any, Any], Any]:
    """A constructor for ``cls``, a value class of two fields, that sets
    them through their slot descriptors and runs no checks.  Only kernels
    call it, on values they built valid; input from callers and payloads
    goes through the public constructor and keeps every check."""
    first, second = cls._setters
    new = object.__new__

    def make(a: Any, b: Any) -> Any:
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
        if not 0 <= mask < (1 << n):
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
