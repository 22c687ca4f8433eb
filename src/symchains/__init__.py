"""Symmetric chain decompositions of the subset lattice, the induced chain
family on set partitions, and the identities both support.

Importing the package loads none of its modules: each public name loads
the module that defines it on its first read (PEP 562) and is then bound
here, so a CLI process pays only for the layer its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The module that defines each public name.
_LAYERS = {
    "boolean": (
        "BooleanChain",
        "BooleanDecomposition",
        "chain_of",
        "debruijn_decomposition",
        "decomposition_from_json",
        "decomposition_to_dot",
        "decomposition_to_json",
        "gk_decomposition",
        "iterated_product_scd",
        "product_scd",
        "verify_scd",
    ),
    "coding": (
        "Code",
        "code_from_nonzeros",
        "decode",
        "encode",
        "is_valid_code",
        "link_rewrite",
        "nonzeros",
    ),
    "identities": (
        "GeneratorPolynomial",
        "StirlingTable",
        "SymmetryAudit",
        "TruncatedSeries",
        "bell_oracle",
        "bell_via_codes",
        "check_stirling_monotone",
        "check_stirling_symmetry",
        "complete_from_elementary",
        "complete_from_elementary_oracle",
        "derivative_formula",
        "derivative_oracle",
        "exp_minus_one_series",
        "seeded_rational_series",
        "stirling_table",
    ),
    "partitions": (
        "PartitionChainFamily",
        "SetPartition",
        "build_partition_chains",
        "class_of",
        "enumerate_all_partitions",
        "enumerate_class",
        "family_from_json",
        "family_to_dot",
        "family_to_json",
        "inject",
        "inject_inverse",
        "type_of",
        "verify_partition_chains",
    ),
    "reports": ("VerificationReport",),
    "subsets": (
        "DEFAULT_ENUM_CEILING",
        "MAX_GROUND_SIZE",
        "CeilingExceeded",
        "MatchStructure",
        "Subset",
        "all_subsets",
        "match_parens",
        "word_of",
    ),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """A public name, read from its module on first access and bound here,
    so later reads are plain attribute reads.  The six modules themselves
    stay readable as attributes, as when the package imported them all."""
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
