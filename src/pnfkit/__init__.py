"""pnfkit: prefix normal forms of binary words, constant-time binary
jumbled pattern matching, and an exhaustive enumeration lab.

The names below load on first use: `import pnfkit` loads none of its
modules, and `pnfkit.census` loads combinatorics (and what it imports)
when it is first read.
"""

import importlib

__version__ = "0.1.0"

# Each exported name under the module that defines it.
_EXPORTS = {
    "bitword": (
        "BinaryWord",
        "RankDirectory",
        "max_ones_profile",
        "max_zeros_profile",
        "min_ones_profile",
        "parse_word",
    ),
    "combinatorics": (
        "Census",
        "ClassStatistics",
        "Separation",
        "bound_check",
        "census",
        "class_statistics",
        "count_ecrit",
        "count_pnw",
        "count_pnw_density",
        "enumerate_pn",
        "expand_gf",
        "ext_bijection_check",
        "ext_count",
        "ratio_series",
        "separating_suffix",
        "upper_bound_threshold",
    ),
    "errors": ("ContractError", "IndexFormatError", "PnfkitError", "ScaleError", "WordParseError"),
    "jumbled": ("JumbledIndex", "build_index", "dump_index", "load_index", "query_bruteforce"),
    "lyndon": ("count_prenecklaces", "is_lyndon", "is_prenecklace", "lyndon_extension_check"),
    "normality": (
        "GapDecomposition",
        "can_append_one",
        "check_factor_pos_char",
        "check_gap_inequalities",
        "check_pos_superadditive_char",
        "check_subadditive_char",
        "is_prefix_normal",
    ),
    "pnf": (
        "ParikhVector",
        "PnfPair",
        "parikh_set",
        "parikh_set_bruteforce",
        "parikh_set_equal",
        "pnf0",
        "pnf1",
        "pnf_pair",
        "prefix_equivalent",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
