"""Semiring-weighted reduction systems.

Evaluate weights of reduction trees over complete-lattice semirings, compute
sound lower bounds by value iteration, certify boundedness via embeddings, and
prove unboundedness via increasing loops.
"""

from .semiring import (
    ALL_WORDS,
    ARCTIC,
    BOOLEAN,
    BOTTLENECK,
    CONFIDENCE,
    INF,
    NAT_INF,
    NEG_INF,
    REAL_INF,
    TROPICAL,
    CarrierMismatch,
    Language,
    LiteralError,
    Product,
    Semiring,
    SemiringError,
    descriptor_from_spec,
)
from .aggregator import (
    AggregatorError,
    ArityError,
    Const,
    CountableSum,
    ProdNode,
    SumNode,
    Var,
    X,
    XVar,
    evaluate,
    extract_affine,
    format_expr,
    max_var,
    parse_expr,
    substitute_x,
)
from .system import (
    Flags,
    NotNormalFormError,
    RuleInstance,
    SystemFormatError,
    SystemHandle,
    UnknownObjectError,
    cplx_wrap,
    load_explicit,
)
from .builtins import builtin, builtin_names
from .boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    UNBOUNDED,
    UNKNOWN,
    BoundednessError,
    BoundednessReport,
    Embedding,
    EmbeddingDomainError,
    PreconditionError,
    builtin_embedding,
    check_nf_top,
    check_sufficient_extremal,
    check_sufficient_selective,
    verify_embedding,
)
from .unboundedness import (
    CANDIDATE,
    CERTIFIED,
    LoopWitness,
    UnboundednessError,
    UnboundednessReport,
    UncertifiedWitnessError,
    analyze_loop,
    certify_loop,
    conclude_unbounded,
    find_loops,
    induced_polynomial,
)
from .evaluator import (
    LOWER_BOUND,
    STABILIZED,
    CountCapExceeded,
    DepthProfile,
    ReductionTree,
    StructuralTreeError,
    VisitCapExceeded,
    WeightBound,
    enumerate_trees,
    evaluate_to_fixpoint,
    tree_weight,
    weight_lower_bound,
)
