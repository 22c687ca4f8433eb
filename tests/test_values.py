"""The contract every value class keeps: equality and hash over its field
tuple, the field-by-field repr, construction by keyword, frozen fields,
pickle and copy round trips, and ordering on ``Subset`` alone.

``CASES`` gives each class by name a value factory, the value's exact repr
and the keyword arguments that build the same value.  A value of another
class whose fields are equal must not compare equal; ``TWINS`` makes one.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import pytest

from symchains import (
    BooleanChain,
    BooleanDecomposition,
    Code,
    MatchStructure,
    PartitionChainFamily,
    SetPartition,
    StirlingTable,
    Subset,
    SymmetryAudit,
    TruncatedSeries,
    VerificationReport,
    build_partition_chains,
    check_stirling_symmetry,
    gk_decomposition,
    match_parens,
    stirling_table,
)
from symchains import subsets


def _chain():
    return BooleanChain(3, (Subset(3, (1,)), Subset(3, (1, 3))))


def _family():
    return build_partition_chains(2)


CASES = {
    "Subset": (
        lambda: Subset(3, (1, 3)),
        "Subset(n=3, elements=(1, 3))",
        {"n": 3, "elements": (1, 3)},
    ),
    "MatchStructure": (
        lambda: match_parens("(()"),
        "MatchStructure(matched_pairs=((2, 3),), unmatched_rights=(), unmatched_lefts=(1,))",
        {"matched_pairs": ((2, 3),), "unmatched_rights": (), "unmatched_lefts": (1,)},
    ),
    "Code": (
        lambda: Code(3, (0, 2, 0, 2)),
        "Code(n=3, entries=(0, 2, 0, 2))",
        {"n": 3, "entries": (0, 2, 0, 2)},
    ),
    "BooleanChain": (
        _chain,
        "BooleanChain(n=3, masks=(1, 5))",
        {"n": 3, "sets": (Subset(3, (1,)), Subset(3, (1, 3)))},
    ),
    "BooleanDecomposition": (
        lambda: gk_decomposition(2),
        "BooleanDecomposition(n=2, chains=(BooleanChain(n=2, masks=(0, 1, 3)), "
        "BooleanChain(n=2, masks=(2,))))",
        {"n": 2, "chains": tuple(gk_decomposition(2).chains)},
    ),
    "SetPartition": (
        lambda: SetPartition(3, ((1, 3), (2,))),
        "SetPartition(m=3, blocks=((1, 3), (2,)))",
        {"m": 3, "blocks": ((1, 3), (2,))},
    ),
    "PartitionChainFamily": (
        _family,
        "PartitionChainFamily(m=3, chains=((SetPartition(m=3, blocks=((1,), (2,), (3,))), "
        "SetPartition(m=3, blocks=((1,), (2, 3))), SetPartition(m=3, blocks=((1, 2, 3),))), "
        "(SetPartition(m=3, blocks=((1, 2), (3,))),), (SetPartition(m=3, blocks=((1, 3), (2,))),)), "
        "excluded=())",
        {"m": 3, "chains": tuple(map(tuple, _family().chains)), "excluded": ()},
    ),
    "VerificationReport": (
        lambda: VerificationReport(4, 2, (("missing", "1,2"),)),
        "VerificationReport(element_count=4, chain_count=2, failures=(('missing', '1,2'),))",
        {"element_count": 4, "chain_count": 2, "failures": (("missing", "1,2"),)},
    ),
    "StirlingTable": (
        lambda: stirling_table(2),
        "StirlingTable(n_max=2, rows=((1,), (0, 1), (0, 1, 1)))",
        {"n_max": 2, "rows": ((1,), (0, 1), (0, 1, 1))},
    ),
    "SymmetryAudit": (
        lambda: check_stirling_symmetry(4),
        "SymmetryAudit(n=4, reflection_ok=False, reflection_counterexamples=((1, 1, 6),), "
        "shifted_ok=True, shifted_counterexamples=())",
        {"n": 4, "reflection_ok": False, "reflection_counterexamples": ((1, 1, 6),),
         "shifted_ok": True, "shifted_counterexamples": ()},
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries.of([0, 1, Fraction(1, 2)]),
        "TruncatedSeries(coefficients=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)))",
        {"coefficients": (Fraction(0), Fraction(1), Fraction(1, 2))},
    ),
}

CLASSES = {cls.__name__: cls for cls in (
    Subset, MatchStructure, Code, BooleanChain, BooleanDecomposition, SetPartition,
    PartitionChainFamily, VerificationReport, StirlingTable, SymmetryAudit, TruncatedSeries)}


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


# A value of another class with the same field tuple.  StirlingTable and
# VerificationReport check nothing, so they take any fields; a Subset is
# built unchecked to twin a StirlingTable.  SymmetryAudit and
# TruncatedSeries share their arity with no other class, so their twin is
# the plain tuple of their fields.
TWINS = {
    **dict.fromkeys(("Subset", "Code", "BooleanChain", "BooleanDecomposition", "SetPartition"),
                    lambda f: StirlingTable(*f)),
    "StirlingTable": lambda f: subsets._trusted(*f),
    "MatchStructure": lambda f: VerificationReport(*f),
    "PartitionChainFamily": lambda f: VerificationReport(*f),
    "VerificationReport": lambda f: MatchStructure(*f),
    "SymmetryAudit": tuple,
    "TruncatedSeries": tuple,
}

NAMES = list(CASES)


@pytest.mark.parametrize("name", NAMES)
class TestValueContract:
    def test_equal_values_compare_equal(self, name):
        make = CASES[name][0]
        a, b = make(), make()
        assert a is not b and a == b and not a != b

    def test_another_class_with_equal_fields_is_unequal(self, name):
        value = CASES[name][0]()
        twin = TWINS[name](fields(value))
        assert type(twin) is not type(value)
        assert (twin if type(twin) is tuple else fields(twin)) == fields(value)
        assert value != twin and twin != value and not value == twin

    def test_hash_is_the_hash_of_the_field_tuple(self, name):
        value = CASES[name][0]()
        assert hash(value) == hash(fields(value))

    def test_repr(self, name):
        assert repr(CASES[name][0]()) == CASES[name][1]

    def test_keyword_construction(self, name):
        make, _, kwargs = CASES[name]
        assert CLASSES[name](**kwargs) == make()

    def test_match_args_are_the_fields(self, name):
        value, kwargs = CASES[name][0](), CASES[name][2]
        # BooleanChain's constructor takes sets; its fields are n and masks.
        assert type(value).__match_args__ == (("n", "masks") if name == "BooleanChain" else tuple(kwargs))
        ns = SimpleNamespace(cls=CLASSES[name])
        match value:
            case ns.cls(first):
                assert first == fields(value)[0]
            case _:
                pytest.fail("class pattern did not match")

    def test_fields_are_frozen(self, name):
        value = CASES[name][0]()
        for field, current in zip(type(value).__match_args__, fields(value)):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field, current)
            with pytest.raises(FrozenInstanceError):
                delattr(value, field)
        assert fields(value) == fields(CASES[name][0]())

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_round_trip(self, name, how):
        value = CASES[name][0]()
        again = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
                 "copy": copy.copy, "deepcopy": copy.deepcopy}[how](value)
        assert type(again) is type(value) and again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)


def test_subsets_sort_by_ground_size_then_elements():
    values = [Subset(3, (2,)), Subset(3, (1, 3)), Subset(2, (1,)), Subset(3, ()), Subset(3, (1,))]
    assert sorted(values) == [Subset(2, (1,)), Subset(3, ()), Subset(3, (1,)), Subset(3, (1, 3)),
                              Subset(3, (2,))]
    assert Subset(3, (1,)) < Subset(3, (2,)) <= Subset(3, (2,)) and Subset(4, ()) > Subset(3, (3,))
    with pytest.raises(TypeError):
        Subset(3, (1,)) < (3, (2,))


@pytest.mark.parametrize("name", [name for name in NAMES if name != "Subset"])
def test_only_subsets_are_ordered(name):
    make = CASES[name][0]
    with pytest.raises(TypeError):
        make() < make()
    with pytest.raises(TypeError):
        make() >= make()


# Each case calls the class that opens ``args`` with the rest of them.
@pytest.mark.parametrize("args, kwargs", [
    ((Subset, 3), {}),
    ((Subset, 3, (1,), ()), {}),
    ((Subset, 3, (1,)), {"n": 3}),
    ((Subset,), {"n": 3, "elements": (1,), "k": 2}),
    ((Subset,), {"elements": (1,)}),
    ((TruncatedSeries,), {}),
    ((TruncatedSeries, (1,), (1,)), {}),
    ((TruncatedSeries, (1,)), {"coefficients": (1,)}),
    ((TruncatedSeries,), {"coefficients": (1,), "order": 1}),
    ((VerificationReport, 4), {}),
    ((VerificationReport, 4, 2, (), ()), {}),
    ((VerificationReport, 4, 2), {"element_count": 4}),
    ((VerificationReport,), {"element_count": 4, "chain_count": 2, "ok": True}),
    ((VerificationReport,), {"chain_count": 2, "failures": ()}),
    ((SymmetryAudit, 4, True, (), True), {}),
    ((SymmetryAudit, 4, True, (), True, (), ()), {}),
    ((SymmetryAudit, 4, True, (), True, ()), {"n": 4}),
    ((SymmetryAudit, 4, True, (), True), {"shifted_counterexamples": (), "k": 1}),
])
def test_constructor_takes_each_field_once(args, kwargs):
    cls, *fields = args
    with pytest.raises(TypeError):
        cls(*fields, **kwargs)


# BooleanChain's constructor takes sets, not its fields.
@pytest.mark.parametrize("name", [name for name in NAMES if name != "BooleanChain"])
def test_signature_lists_the_fields(name):
    cls = CLASSES[name]
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__match_args__
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {p.name: p.default for p in params.values() if p.default is not inspect.Parameter.empty}
    assert defaults == ({"failures": ()} if cls is VerificationReport else {})


def test_report_failures_default_to_empty():
    assert VerificationReport(element_count=4, chain_count=2) == VerificationReport(4, 2, ())
    assert VerificationReport(4, 2).ok
