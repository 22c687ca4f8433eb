"""The JSON loaders, which are the API boundary for stored decompositions
and chain families.

Whatever a payload holds, a loader either raises ValueError or returns an
object its verifier can report on.  Ground sizes in the generated payloads
stay small: a verifier lists every subset or partition a payload misses.
"""

import inspect
import time

import pytest
from hypothesis import given, settings, strategies as st

from symchains import (
    DEFAULT_ENUM_CEILING,
    CeilingExceeded,
    VerificationReport,
    build_partition_chains,
    decomposition_from_json,
    decomposition_to_json,
    family_from_json,
    family_to_json,
    gk_decomposition,
    verify_partition_chains,
    verify_scd,
)
from symchains.partitions import DEFAULT_PARTITION_CEILING

SCALARS = (st.none() | st.booleans() | st.integers(-2, 7)
           | st.floats(-2, 7, allow_nan=False) | st.text(max_size=2))
KEYS = st.sampled_from(["n", "m", "chains", "excluded"])
ANY_JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4)
                        | st.dictionaries(KEYS, kids, max_size=4), max_leaves=24)


def leaf_paths(obj, path=()):
    """Paths to every scalar and empty container in a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    found = [p for key, value in items for p in leaf_paths(value, path + (key,))]
    return found or [path]


def corrupt(obj, data):
    """A copy of ``obj`` with one to three leaves replaced by random scalars."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(leaf_paths(obj)))
        value = data.draw(SCALARS)
        if not path:
            return value
        obj = _replace(obj, path, value)
    return obj


def _replace(obj, path, value):
    head, rest = path[0], path[1:]
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[head] = _replace(obj[head], rest, value) if rest else value
    return copy


def loads_or_refuses(load, verify, payload):
    try:
        obj = load(payload)
    except ValueError:
        return
    assert isinstance(verify(obj), VerificationReport)


class TestDecompositionLoader:
    @pytest.mark.parametrize("payload", [
        {"n": 3, "chains": [[[1.5]]]},
        {"n": 3.0, "chains": []},
        {"n": True, "chains": [[[]]]},
        {"n": 3, "chains": [[[True]]]},
        {"n": 3, "chains": [[[1, 2.0]]]},
        {"n": "3", "chains": []},
    ])
    def test_rejects_non_integers(self, payload):
        with pytest.raises(ValueError):
            decomposition_from_json(payload)

    @pytest.mark.parametrize("n", [-1, 65])
    def test_rejects_ground_size_out_of_range_without_chains(self, n):
        with pytest.raises(ValueError):
            decomposition_from_json({"n": n, "chains": []})

    @settings(max_examples=200)
    @given(ANY_JSON)
    def test_fuzz_arbitrary(self, payload):
        loads_or_refuses(decomposition_from_json, verify_scd, payload)

    @settings(max_examples=200)
    @given(st.integers(0, 4), st.data())
    def test_fuzz_corrupted(self, n, data):
        payload = corrupt(decomposition_to_json(gk_decomposition(n)), data)
        loads_or_refuses(decomposition_from_json, verify_scd, payload)


class TestFamilyLoader:
    @pytest.mark.parametrize("payload", [
        {"m": 1, "chains": [[[[1.0]]]], "excluded": []},
        {"m": 1.0, "chains": [[[[1]]]], "excluded": []},
        {"m": True, "chains": [[[[1]]]], "excluded": []},
        {"m": 1, "chains": [[[[True]]]], "excluded": []},
        {"m": 1, "chains": [], "excluded": [[[True]]]},
    ])
    def test_rejects_non_integers(self, payload):
        with pytest.raises(ValueError):
            family_from_json(payload)

    def test_rejects_negative_ground_size_without_chains(self):
        with pytest.raises(ValueError):
            family_from_json({"m": -1, "chains": [], "excluded": []})

    @pytest.mark.parametrize("e", [0, -1])
    def test_element_below_one_is_outside_the_ground_set(self, e):
        message = f"^element {e} outside ground set 1..3$"
        with pytest.raises(ValueError, match=message):
            family_from_json({"m": 3, "chains": [[[[e], [1, 2]]]], "excluded": []})
        with pytest.raises(ValueError, match=message):
            family_from_json({"m": 3, "chains": [], "excluded": [[[1, 2], [e]]]})

    @settings(max_examples=200)
    @given(ANY_JSON)
    def test_fuzz_arbitrary(self, payload):
        loads_or_refuses(family_from_json, verify_partition_chains, payload)

    @settings(max_examples=200)
    @given(st.integers(0, 3), st.data())
    def test_fuzz_corrupted(self, n, data):
        payload = corrupt(family_to_json(build_partition_chains(n)), data)
        loads_or_refuses(family_from_json, verify_partition_chains, payload)


class TestLoaderCeilings:
    """A verifier walks the whole lattice a payload names, however few sets
    it lists, so the loaders refuse a ground size past the default
    ceilings of the constructions before building anything."""

    @pytest.mark.parametrize("load, payload", [
        (decomposition_from_json, {"n": 40, "chains": []}),
        (family_from_json, {"m": 30, "chains": [], "excluded": []}),
    ])
    def test_refuses_past_the_default_ceiling(self, load, payload):
        start = time.perf_counter()
        with pytest.raises(CeilingExceeded):
            load(payload)
        assert time.perf_counter() - start < 1.0

    def test_admits_the_default_ceiling(self):
        assert decomposition_from_json({"n": DEFAULT_ENUM_CEILING, "chains": []}).n == DEFAULT_ENUM_CEILING
        fam = family_from_json({"m": DEFAULT_PARTITION_CEILING, "chains": [], "excluded": []})
        assert fam.m == DEFAULT_PARTITION_CEILING

    def test_loaders_default_to_the_construction_ceilings(self):
        for load, default in ((decomposition_from_json, DEFAULT_ENUM_CEILING),
                              (family_from_json, DEFAULT_PARTITION_CEILING)):
            assert inspect.signature(load).parameters["ceiling"].default == default

    @pytest.mark.parametrize("load, payload", [
        (decomposition_from_json, {"n": 9, "chains": [[["not a subset"]]]}),
        (family_from_json, {"m": 9, "chains": [[["not a partition"]]], "excluded": []}),
    ])
    def test_caller_ceiling_refuses_before_any_chain_is_parsed(self, load, payload):
        # A malformed chain would raise ValueError; the ceiling comes first.
        with pytest.raises(CeilingExceeded):
            load(payload, ceiling=8)
        with pytest.raises(ValueError):
            load(payload, ceiling=9)

    def test_caller_ceiling_admits_its_own_size(self):
        d = gk_decomposition(9)
        payload = decomposition_to_json(d)
        with pytest.raises(CeilingExceeded):
            decomposition_from_json(payload, ceiling=8)
        assert decomposition_from_json(payload, ceiling=9) == d
        fam = build_partition_chains(8)
        payload = family_to_json(fam)
        with pytest.raises(CeilingExceeded):
            family_from_json(payload, ceiling=8)
        assert family_from_json(payload, ceiling=9) == fam
