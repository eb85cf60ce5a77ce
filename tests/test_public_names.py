"""The names the ``wars`` package exports, pinned as a literal.

A name added to or removed from ``wars/__init__.py`` changes the public
contract, so it must show up here as a diff too.
"""

from __future__ import annotations

import inspect

import wars

PUBLIC_NAMES = [
    "ALL_WORDS", "ARCTIC", "AggregatorError", "ArityError", "BOOLEAN", "BOTTLENECK",
    "BOUNDED_CERTIFIED", "BOUNDED_SAMPLED", "BoundednessError", "BoundednessReport",
    "CANDIDATE", "CERTIFIED", "CONFIDENCE", "CarrierMismatch", "Const", "CountCapExceeded",
    "CountableSum", "DepthProfile", "Embedding", "EmbeddingDomainError", "Flags", "INF",
    "LOWER_BOUND", "Language", "LiteralError", "LoopWitness", "NAT_INF", "NEG_INF",
    "NotNormalFormError", "PreconditionError", "ProdNode", "Product", "REAL_INF",
    "ReductionTree", "RuleInstance", "STABILIZED", "Semiring", "SemiringError",
    "StructuralTreeError", "SumNode", "SystemFormatError", "SystemHandle", "TROPICAL",
    "UNBOUNDED", "UNKNOWN", "UnboundednessError", "UnboundednessReport",
    "UncertifiedWitnessError", "UnknownObjectError", "Var",
    "VisitCapExceeded", "WeightBound", "X", "XVar", "analyze_loop", "builtin",
    "builtin_embedding", "builtin_names", "certify_loop", "check_nf_top",
    "check_sufficient_extremal", "check_sufficient_selective", "conclude_unbounded",
    "cplx_wrap", "descriptor_from_spec", "enumerate_trees", "evaluate",
    "evaluate_to_fixpoint", "extract_affine", "find_loops", "format_expr",
    "induced_polynomial", "load_explicit", "max_var", "parse_expr",
    "substitute_x", "tree_weight", "verify_embedding",
    "weight_lower_bound",
]


def test_public_names_are_pinned():
    # Submodules are bound on the package by its own imports; they are not
    # exports.
    exported = sorted(
        name for name, value in vars(wars).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
