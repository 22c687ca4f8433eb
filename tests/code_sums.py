"""The per-term code-sum kernels, kept as the oracles of the memoised ones.

``reference_weighted_code_sum`` multiplies all n table factors of every
term afresh, where the package splits each code into a head and a tail
whose products it memoises.  ``reference_complete_from_elementary``
sorts, signs and adds one term's monomial at a time, where the package
counts one integer key per term in a ``Counter``, the sum of (n+1)^e over
the term's entries e, and decodes each distinct key to its sign and
monomial once.  ``check_code_sums(n, m)`` compares Bell and a seeded
derivative of order n, and h_m in the e_i, with them.  The suite runs it
for n, m <= 14; for larger sizes run

    PYTHONPATH=src:tests python -c 'from code_sums import check_code_sums; check_code_sums(20, 18)'
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import getitem

from symchains import (
    GeneratorPolynomial,
    all_subsets,
    bell_via_codes,
    complete_from_elementary,
    derivative_formula,
    encode,
    seeded_rational_series,
)

# The seed of the derivative's series, the first of the CLI's.
SEED = 1101


def _codes(n):
    """The entries of the code of every subset of {1..n-1}."""
    return (encode(s).entries for s in all_subsets(n - 1))


def reference_weighted_code_sum(n, weight):
    """Sum over the codes of order n >= 1 of the product, over nonzero
    entries e at position i, of C(i-1, e-1) * weight(e): every term the
    product of its n factors from a table scaled to a common denominator."""
    weights = [Fraction(weight(e)) for e in range(1, n + 1)]
    d = lcm(*(w.denominator for w in weights))
    scaled = [(w * d).numerator for w in weights]
    table = [[d] + [comb(i - 1, e - 1) * scaled[e - 1] for e in range(1, i + 1)]
             for i in range(1, n + 1)]
    return Fraction(sum(prod(map(getitem, table, c)) for c in _codes(n)), d ** n)


def reference_complete_from_elementary(n):
    """h_n in the e_i, one code term at a time: the monomial of its sorted
    nonzero entries, signed by the parity of its zeros."""
    acc = {}
    for entries in _codes(n):
        mono = tuple(sorted(filter(None, entries)))
        sign = -1 if (n - len(mono)) % 2 else 1
        acc[mono] = acc.get(mono, 0) + sign
    return GeneratorPolynomial(acc)


def check_code_sums(n, m):
    """Assert that Bell and the derivative of the seeded series at order
    n >= 1, and h_m in the e_i, equal their per-term references."""
    assert bell_via_codes(n) == reference_weighted_code_sum(n, lambda e: 1), n
    g = seeded_rational_series(SEED, n)
    assert derivative_formula(g, n) == reference_weighted_code_sum(n, g.derivative_at_center), n
    # By repr, so that the monomials' order, the order in which the terms
    # first meet them, must match too.
    assert repr(complete_from_elementary(m)) == repr(reference_complete_from_elementary(m)), m
