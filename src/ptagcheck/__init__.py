"""Consistency toolkit for probabilistic tree adjoining grammars.

The names below are loaded from their submodule on first use (PEP 562), so
``import ptagcheck`` loads no submodule and a command loads only what it runs.
"""

import importlib

# submodule: the public names it gives the package
_EXPORTS = {
    "branching": ("ExtinctionVector", "adjunction_gf", "constant_split", "death_by_level",
                  "extinction", "level_gf", "m_from_partials", "start_termination"),
    "consistency": ("ConsistencyReport", "check_consistency"),
    "expectation": ("DenseCapExceeded", "LabelledMatrix", "SiteIndex", "build_M", "build_N",
                    "build_P", "matrix_json_doc", "matrix_tsv", "start_law", "start_mixture"),
    "grammar": ("Diagnostic", "ElementaryTree", "Grammar", "GrammarError",
                "GrammarParseError", "TreeNode", "detect_empty_yield_loops", "from_document",
                "load_grammar", "parse_grammar", "to_document", "validate"),
    "polynomials": ("SparsePolynomial", "TermCapExceeded"),
    "simulate": ("Derivation", "DerivationNode", "EnumerationBudgetExceeded",
                 "SimulationStats", "anchor_multiset", "derived_tree",
                 "enumerate_derivations", "estimate_termination", "sample_derivation",
                 "yield_string"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
