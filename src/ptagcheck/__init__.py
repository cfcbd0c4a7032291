"""Consistency toolkit for probabilistic tree adjoining grammars."""

from .branching import (ExtinctionVector, adjunction_gf, constant_split,
                        death_by_level, extinction, level_gf, m_from_partials,
                        start_termination)
from .consistency import (ConsistencyReport, InvalidGrammarError, ScaledPower,
                          check_consistency, row_sum_test,
                          spectral_radius_estimate)
from .expectation import (LabelledMatrix, SiteIndex, build_M, build_N,
                          build_P, matrix_json_doc, matrix_tsv, start_law)
from .grammar import (Diagnostic, ElementaryTree, Grammar, GrammarError,
                      GrammarParseError, TreeNode, detect_empty_yield_loops,
                      detect_unreachable, from_document, load_grammar,
                      parse_grammar, serialize_grammar, to_document, validate)
from .polynomials import SparsePolynomial, TermCapExceeded
from .simulate import (Derivation, DerivationNode, EnumerationBudgetExceeded,
                       SimulationStats, anchor_multiset, derivation_depth,
                       derived_tree, enumerate_derivations,
                       estimate_termination, sample_derivation, yield_string)

__version__ = "0.1.0"
