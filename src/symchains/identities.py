"""Counting and algebraic identities driven by the set coding.

Every identity here is evaluated two ways: a closed form summing over codes
of subsets, and an independent oracle (a recurrence or an exact truncated
power series).  All arithmetic is exact; floats never appear.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import getitem
from typing import Callable, Iterable, Iterator, Mapping

from .coding import encode
from .reports import VerificationReport
from .subsets import (
    DEFAULT_CODE_SUM_CEILING,
    DEFAULT_STIRLING_CEILING,
    _check_ceiling,
    _json_int,
    _Value,
    all_subsets,
)

# Seeds for the reproducible random series used by the derivative check.
SERIES_SEEDS = (1101, 1202, 1303, 1404, 1505)


class StirlingTable(_Value):
    """Rows 0..n_max of the Stirling set-number triangle."""

    __slots__ = ("n_max", "rows")
    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table range 0..{self.n_max}")
        if not 0 <= k <= n:
            return 0
        return self.rows[n][k]

    def row(self, n: int) -> tuple[int, ...]:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table range 0..{self.n_max}")
        return self.rows[n]


def stirling_table(n_max: int, ceiling: int = DEFAULT_STIRLING_CEILING) -> StirlingTable:
    """Build the triangle from S(n,k) = S(n-1,k-1) + k*S(n-1,k), S(0,0) = 1."""
    if _json_int(n_max) < 0:
        raise ValueError("n_max must be nonnegative")
    _check_ceiling(n_max, ceiling, f"rows 0..{n_max} of the Stirling triangle")
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] + (k * prev[k] if k < n else 0)
        rows.append(tuple(row))
    return StirlingTable(n_max, tuple(rows))


def bell_oracle(n: int, ceiling: int = DEFAULT_STIRLING_CEILING) -> int:
    """Bell number as the row sum of the Stirling triangle."""
    if _json_int(n) < 0:
        raise ValueError("n must be nonnegative")
    return sum(stirling_table(n, ceiling).row(n))


def _codes(n: int, ceiling: int) -> Iterator[tuple[int, ...]]:
    """The entries of the code of every subset of {1..n-1}: one term each of
    a code sum of order n.  The ceiling is on n and is checked here, eagerly,
    for all three sums."""
    _check_ceiling(n, ceiling, f"2^{n - 1} code terms")
    return (encode(s).entries for s in all_subsets(n - 1, ceiling))


def _weighted_code_sum(n: int, ceiling: int, weight: Callable[[int], Fraction | int]) -> Fraction:
    """Sum over the codes of order n of the product, over nonzero entries e at
    position i, of C(i-1, e-1) * weight(e).

    The factors are tabulated once per (i, e).  Each is scaled by the common
    denominator d of the weights and a zero entry stands for d itself, so
    every term is a product of n integers equal to d^n times the true term,
    and the only division is the last one."""
    codes = _codes(n, ceiling)  # first: refuse before the O(n^2) table is built
    weights = [Fraction(weight(e)) for e in range(1, n + 1)]
    d = lcm(*(w.denominator for w in weights))
    scaled = [(w * d).numerator for w in weights]
    table = [[d] + [comb(i - 1, e - 1) * scaled[e - 1] for e in range(1, i + 1)]
             for i in range(1, n + 1)]
    return Fraction(sum(prod(map(getitem, table, c)) for c in codes), d ** n)


def bell_via_codes(n: int, ceiling: int = DEFAULT_CODE_SUM_CEILING) -> int:
    """Bell number as the code sum over subsets of {1..n-1}: each subset
    contributes the product of C(i-1, e_i - 1) over the nonzero code
    entries, which counts the partitions in its class.  B(0) is 1."""
    if _json_int(n) < 0:
        raise ValueError("n must be nonnegative")
    return _weighted_code_sum(n, ceiling, lambda e: 1).numerator if n else 1


def check_stirling_monotone(n: int,
                            ceiling: int = DEFAULT_STIRLING_CEILING) -> VerificationReport:
    """Verify S(n,n) <= S(n,n-1) <= ... <= S(n, floor((n+1)/2))."""
    return _monotone_report(stirling_table(n, ceiling), n)


def _monotone_report(table: StirlingTable, n: int) -> VerificationReport:
    failures = []
    low = (n + 1) // 2
    checked = 0
    for k in range(n, low, -1):
        checked += 1
        lhs, rhs = table.value(n, k), table.value(n, k - 1)
        if lhs > rhs:
            failures.append(("monotone", f"S({n},{k})={lhs} > S({n},{k - 1})={rhs}"))
    return VerificationReport(checked, 1, tuple(failures))


class SymmetryAudit(_Value):
    """Two reflection inequalities on a Stirling row, judged separately.

    The plain reflection compares S(n,k) with S(n,n-k) for 1 <= k <= n/2;
    the shifted reflection compares S(n,k) with S(n,n-k+1) for
    1 <= k <= ceil(n/2).  Counterexamples are (k, lhs, rhs) triples.
    """

    __slots__ = ("n", "reflection_ok", "reflection_counterexamples", "shifted_ok",
                 "shifted_counterexamples")
    n: int
    reflection_ok: bool
    reflection_counterexamples: tuple[tuple[int, int, int], ...]
    shifted_ok: bool
    shifted_counterexamples: tuple[tuple[int, int, int], ...]


def check_stirling_symmetry(n: int, ceiling: int = DEFAULT_STIRLING_CEILING) -> SymmetryAudit:
    return _symmetry_audit(stirling_table(n, ceiling), n)


def _symmetry_audit(table: StirlingTable, n: int) -> SymmetryAudit:
    plain = []
    for k in range(1, n // 2 + 1):
        lhs, rhs = table.value(n, k), table.value(n, n - k)
        if lhs < rhs:
            plain.append((k, lhs, rhs))
    shifted = []
    for k in range(1, (n + 1) // 2 + 1):
        lhs, rhs = table.value(n, k), table.value(n, n - k + 1)
        if lhs < rhs:
            shifted.append((k, lhs, rhs))
    return SymmetryAudit(n, not plain, tuple(plain), not shifted, tuple(shifted))


class GeneratorPolynomial:
    """An integer polynomial in formal generators a1, a2, ...

    A monomial is the sorted tuple of its generator indices with
    multiplicity, so a1^2*a2 is (1, 1, 2).  Instances are immutable in use;
    arithmetic returns fresh objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        for mono, coeff in (terms or {}).items():
            key = tuple(sorted(mono))
            clean[key] = clean.get(key, 0) + coeff
        self._terms = {mono: coeff for mono, coeff in clean.items() if coeff}

    @classmethod
    def zero(cls) -> "GeneratorPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "GeneratorPolynomial":
        return cls({(): 1})

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff: int = 1) -> "GeneratorPolynomial":
        return cls({tuple(sorted(indices)): coeff})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "GeneratorPolynomial") -> "GeneratorPolynomial":
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return GeneratorPolynomial(out)

    def __sub__(self, other: "GeneratorPolynomial") -> "GeneratorPolynomial":
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) - coeff
        return GeneratorPolynomial(out)

    def __mul__(self, other: "GeneratorPolynomial") -> "GeneratorPolynomial":
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return GeneratorPolynomial(out)

    def scaled(self, factor: int) -> "GeneratorPolynomial":
        return GeneratorPolynomial({m: factor * c for m, c in self._terms.items()})

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = Fraction(coeff)
            for idx in mono:
                term *= values[idx]
            total += term
        return total

    def __repr__(self) -> str:
        return f"GeneratorPolynomial({self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda item: (-len(item[0]), item[0]))
        pieces = []
        for mono, coeff in ordered:
            body = _monomial_str(mono)
            mag = abs(coeff)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)


def _monomial_str(mono: tuple[int, ...]) -> str:
    if not mono:
        return "1"
    factors = []
    for idx in sorted(set(mono)):
        power = mono.count(idx)
        factors.append(f"a{idx}" if power == 1 else f"a{idx}^{power}")
    return "*".join(factors)


def complete_from_elementary(n: int, ceiling: int = DEFAULT_CODE_SUM_CEILING) -> GeneratorPolynomial:
    """The degree-n complete homogeneous symmetric function written in the
    elementary ones, summed over codes: subset S of {1..n-1} contributes
    sign (-1)^|S| and one generator factor per nonzero code entry."""
    if _json_int(n) < 1:
        raise ValueError("n must be positive")
    acc: dict[tuple[int, ...], int] = {}
    for entries in _codes(n, ceiling):
        mono = tuple(sorted(filter(None, entries)))
        # The n entries have a zero at each member of S, so |S| = n - len(mono).
        sign = -1 if (n - len(mono)) % 2 else 1
        acc[mono] = acc.get(mono, 0) + sign
    return GeneratorPolynomial(acc)


def complete_from_elementary_oracle(n: int) -> GeneratorPolynomial:
    """Same polynomial by the alternating recurrence
    h_m = a1*h_{m-1} - a2*h_{m-2} + ... +- am*h_0, h_0 = 1."""
    if _json_int(n) < 1:
        raise ValueError("n must be positive")
    h = [GeneratorPolynomial.one()]
    for m in range(1, n + 1):
        acc = GeneratorPolynomial.zero()
        for i in range(1, m + 1):
            sign = 1 if i % 2 else -1
            acc = acc + GeneratorPolynomial.monomial((i,), sign) * h[m - i]
        h.append(acc)
    return h[n]


class TruncatedSeries(_Value):
    """A power series around a fixed point, kept to finite order with exact
    rational coefficients: coefficient k is the k-th derivative over k!."""

    __slots__ = ("coefficients",)
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a series needs at least its constant term")

    @classmethod
    def of(cls, coefficients: Iterable[Fraction | int]) -> "TruncatedSeries":
        return cls(tuple(Fraction(c) for c in coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def derivative_at_center(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise ValueError(f"derivative order {i} beyond truncation order {self.order}")
        return factorial(i) * self.coefficients[i]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coefficients[k] + other.coefficients[k]
                                     for k in range(order + 1)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coefficients[:order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] += a * other.coefficients[j]
        return TruncatedSeries(tuple(out))

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries((Fraction(0),))
        return TruncatedSeries(tuple((k + 1) * c
                                     for k, c in enumerate(self.coefficients[1:])))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, to the same order, via
        E' = u'E taken coefficient by coefficient."""
        if self.coefficients[0] != 0:
            raise ValueError("exp needs a zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for k in range(self.order):
            acc = Fraction(0)
            for i in range(k + 1):
                acc += (i + 1) * self.coefficients[i + 1] * out[k - i]
            out[k + 1] = acc / (k + 1)
        return TruncatedSeries(tuple(out))


def _series_order(order: object) -> int:
    """``order`` as the truncation order of a series: an integer, at least 0."""
    if _json_int(order) < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    return order


def exp_minus_one_series(order: int) -> TruncatedSeries:
    """e^x - 1 around 0, truncated: the generator whose exp collects Bell
    numbers."""
    return TruncatedSeries.of([0] + [Fraction(1, factorial(k)) for k in range(1, _series_order(order) + 1)])


def seeded_rational_series(seed: int, order: int) -> TruncatedSeries:
    """A reproducible random series with small rational coefficients."""
    rng = random.Random(seed)
    return TruncatedSeries.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(_series_order(order) + 1)])


def derivative_oracle(g: TruncatedSeries, n: int) -> Fraction:
    """F^(n)/F at the expansion point for F = exp(g), computed by exact
    series exponentiation followed by n termwise differentiations.  The
    constant term of g cancels in the ratio, so it is dropped before
    exponentiating."""
    if _json_int(n) < 0:
        raise ValueError("n must be nonnegative")
    if n > g.order:
        raise ValueError(f"series order {g.order} too small for derivative {n}")
    centered = TruncatedSeries((Fraction(0),) + g.coefficients[1:])
    f = centered.exp()
    value = f.coefficients[0]
    diffed = f
    for _ in range(n):
        diffed = diffed.derivative()
    return diffed.coefficients[0] / value


def derivative_formula(g: TruncatedSeries, n: int,
                       ceiling: int = DEFAULT_CODE_SUM_CEILING) -> Fraction:
    """F^(n)/F at the expansion point for F = exp(g) as a code sum: subset S
    of {1..n-1} contributes the product over nonzero code entries e_i of
    C(i-1, e_i - 1) times the derivative of g of order e_i."""
    if _json_int(n) < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n > g.order:
        raise ValueError(f"series order {g.order} too small for derivative {n}")
    return _weighted_code_sum(n, ceiling, g.derivative_at_center)
