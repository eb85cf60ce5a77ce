"""Boundedness provers: sufficient conditions and the interpretation method.

A system is bounded when no object's weight reaches the semiring maximum.
Three routes are implemented: a top-valued normal form disproves boundedness
outright; universally bounded normal forms with selective aggregators prove
it; terminating well-behaved systems over extremal semirings prove it; and an
embedding that dominates the normal forms and every rule step certifies an
explicit upper-bound map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import aggregator as agg
from .evaluator import STABILIZED, evaluate_to_fixpoint
from .semiring import INF, NatInf, Semiring, SemiringError
from .system import SystemError_, SystemHandle, _literal_text

BOUNDED_CERTIFIED = "bounded_certified"
BOUNDED_SAMPLED = "bounded_sampled"
UNBOUNDED = "unbounded"
UNKNOWN = "unknown"


class BoundednessError(Exception):
    pass


class PreconditionError(BoundednessError):
    pass


class EmbeddingDomainError(BoundednessError):
    """The embedding is undefined on a touched object."""


class UnsupportedAggregatorError(BoundednessError):
    pass


@dataclass
class BoundednessReport:
    verdict: str
    method: str
    details: dict = field(default_factory=dict)
    sample_count: int = 0
    witness: object = None
    bound_map: Optional[dict] = None

    def certified(self) -> bool:
        return self.verdict == BOUNDED_CERTIFIED


class Embedding:
    """A map from objects to non-maximal semiring values."""

    def __init__(self, fn: Callable[[object], object], name: str = "custom"):
        self._fn = fn
        self.name = name

    def __call__(self, obj):
        try:
            return self._fn(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingDomainError(
                f"embedding {self.name} undefined on {obj!r}: {exc}"
            ) from exc

    @staticmethod
    def from_table(table: dict, name: str = "table") -> "Embedding":
        values = dict(table)
        return Embedding(lambda obj: values[obj], name)

    @staticmethod
    def from_json(data, sys: SystemHandle, name: str = "file") -> "Embedding":
        """The table in a decoded JSON object mapping object labels to value
        literals; ``name`` (the file) is named in every error."""
        if not isinstance(data, dict):
            raise BoundednessError(
                f"embedding file {name} must hold a JSON object of object labels "
                f"to values, not a {type(data).__name__}"
            )
        table = {}
        for label, literal in data.items():
            try:
                table[sys.parse_object(label)] = sys.semiring.parse_literal(_literal_text(literal))
            except (ValueError, SemiringError, SystemError_) as exc:
                raise BoundednessError(
                    f"embedding file {name}: bad entry {label!r}: {exc}"
                ) from exc
        return Embedding.from_table(table, name)

    def __repr__(self) -> str:
        return f"<embedding {self.name}>"


def _trs_embedding(term):
    # Interpretation dominating the step-count weighting of the addition
    # rewrite system: successor adds one, addition doubles its first
    # argument's share and adds one.  So every non-zero node adds its share,
    # 2^k when it lies in the first argument of k additions above it.
    total, stack = 0, [(term, 1)]
    while stack:
        term, share = stack.pop()
        if term[0] == "s":
            total += share
            stack.append((term[1], share))
        elif term[0] == "plus":
            total += share
            stack += [(term[1], 2 * share), (term[2], share)]
    return total


def _zwalk_embedding(n: int):
    if n % 2 == 0:
        return (abs(n) // 2, True)
    return (INF, False)


_BUILTIN_EMBEDDINGS = {
    "walk3n": lambda: Embedding(lambda n: Fraction(3 * n), "walk3n"),
    "trs_add": lambda: Embedding(_trs_embedding, "trs_add"),
    "zwalk_case": lambda: Embedding(_zwalk_embedding, "zwalk_case"),
}


def builtin_embedding(name: str) -> Embedding:
    factory = _BUILTIN_EMBEDDINGS.get(name)
    if factory is None:
        raise BoundednessError(
            f"unknown embedding {name!r}; available: {', '.join(sorted(_BUILTIN_EMBEDDINGS))}"
        )
    return factory()


def check_nf_top(sys: SystemHandle, nfs: Optional[Iterable] = None) -> Optional[BoundednessReport]:
    """Report unboundedness if some normal form weighs the maximum."""
    desc = sys.semiring
    if nfs is None:
        enum = sys.enumerate_nfs()
        if enum is None:
            return None
        nfs = enum[0]
    for a in nfs:
        if sys.nf_weight(a) == desc.top:
            return BoundednessReport(
                verdict=UNBOUNDED,
                method="top-valued-normal-form",
                details={"normal_form": sys.format_object(a)},
                witness=a,
            )
    return None


def _syntactically_selective(expr, desc: Semiring) -> bool:
    """Whether every sum and product in the aggregator is selective and
    every leaf is a variable, so that it returns one of its arguments."""

    def selective(e, values):
        op = desc.plus_is_selective if isinstance(e, agg.SumNode) else desc.times_is_selective
        return op and all(values)

    return agg._reduce(expr, lambda e: isinstance(e, agg.Var), selective)


def check_sufficient_selective(sys: SystemHandle, bound) -> BoundednessReport:
    """Bounded when normal forms stay below a common non-top bound and every
    aggregator provably returns one of its arguments."""
    desc = sys.semiring
    if bound == desc.top:
        raise PreconditionError("the universal bound must not be the maximum")
    desc.require(bound)

    details = {}
    nf_enum = sys.enumerate_nfs()
    if nf_enum is None:
        return BoundednessReport(UNKNOWN, "selective-bounded", {"normal_forms": "not enumerable"})
    nfs, nfs_complete = nf_enum
    for a in nfs:
        if not desc.leq(sys.nf_weight(a), bound):
            return BoundednessReport(
                UNKNOWN,
                "selective-bounded",
                {"violating_normal_form": sys.format_object(a)},
                witness=a,
            )
    details["normal_forms_checked"] = len(nfs)

    obj_enum = sys.enumerate_objects()
    if obj_enum is not None:
        objects, objects_complete = obj_enum
    else:
        # No complete universe: probe the aggregators on sampled objects, or
        # on the normal forms when the system has no sampler.
        try:
            objects = sys.sample_objects(random.Random(0), 64)
        except SystemError_:
            objects = list(nfs)
        objects_complete = False

    checked_rules = 0
    for a in objects:
        rules, complete = sys.successors(a)
        if not complete:
            objects_complete = False
        for r in rules:
            checked_rules += 1
            if not _syntactically_selective(r.aggregator, desc):
                return BoundednessReport(
                    UNKNOWN,
                    "selective-bounded",
                    {"non_selective_rule": r.tag},
                    witness=r,
                )
    details["rules_checked"] = checked_rules

    complete = nfs_complete and objects_complete and obj_enum is not None
    count = len(nfs) + checked_rules
    return BoundednessReport(
        BOUNDED_CERTIFIED if complete else BOUNDED_SAMPLED,
        "selective-bounded",
        details,
        sample_count=0 if complete else count,
    )


def check_sufficient_extremal(sys: SystemHandle) -> BoundednessReport:
    """Bounded when the system is terminating, finitely non-deterministic and
    finitely branching, the semiring is extremal, no normal form weighs top,
    and every aggregator is finite without a top constant.  The last is read
    from ``sys.aggregators_finite_no_top``; ``None`` leaves it unknown."""
    desc = sys.semiring
    details = {}
    missing = []

    for label, flag in (
        ("terminating", sys.flags.terminating),
        ("finitely_nondeterministic", sys.flags.finitely_nondeterministic),
        ("finitely_branching", sys.flags.finitely_branching),
    ):
        if flag is True:
            details[label] = "asserted"
        else:
            details[label] = "refuted" if flag is False else "unknown"
            missing.append(label)

    if desc.has_extremal_property:
        details["extremal_semiring"] = "yes"
    else:
        details["extremal_semiring"] = "no"
        missing.append("extremal_semiring")

    nf_enum = sys.enumerate_nfs()
    if nf_enum is None or not nf_enum[1]:
        details["normal_form_weights"] = "not fully enumerable"
        missing.append("normal_form_weights")
    else:
        bad = [a for a in nf_enum[0] if sys.nf_weight(a) == desc.top]
        if bad:
            details["normal_form_weights"] = (
                f"top-valued: {sys.format_object(bad[0])}"
            )
            missing.append("normal_form_weights")
        else:
            details["normal_form_weights"] = f"checked {len(nf_enum[0])}, none top"

    # Walking every rule again would cost a pass over the objects, and a
    # rule budget could hide a rule; the system states the fact instead.
    agg_ok = sys.aggregators_finite_no_top
    if agg_ok is True:
        details["aggregators"] = "finite, no top constant"
    else:
        details["aggregators"] = "refuted" if agg_ok is False else "unknown"
        missing.append("aggregators")

    if missing:
        return BoundednessReport(
            UNKNOWN, "extremal-bounded", dict(details, missing=missing)
        )
    return BoundednessReport(BOUNDED_CERTIFIED, "extremal-bounded", details)


def verify_embedding(
    sys: SystemHandle,
    embedding: Embedding,
    instances="all",
    rule_budget: int = 64,
    branch_trunc: int = 64,
) -> BoundednessReport:
    """Check the interpretation-method inequalities on the given instances.

    For every supplied normal form the embedding must dominate its weight; for
    every rule of a supplied object it must dominate the aggregator applied to
    the embedded successors; and no touched object may embed to the maximum.
    ``instances="all"`` uses the complete object enumeration and yields a
    certificate; any other iterable yields a sampled verdict that reports how
    many instances were verified.
    """
    desc = sys.semiring
    exhaustive = isinstance(instances, str) and instances == "all"
    if exhaustive:
        enum = sys.enumerate_objects()
        if enum is None or not enum[1]:
            raise PreconditionError(
                f"system {sys.name} has no complete object enumeration; pass instances"
            )
        objects = enum[0]
    else:
        objects = list(instances)

    # Each touched object's embedding, called and checked on first use (None
    # is no carrier value), and each compiled closure, kept with its aggregator.
    bound_map = {}
    compiled = {}  # (id(aggregator), arity) -> (aggregator, closure)

    def embed(obj):
        """The embedding of obj, or None when it is the maximum."""
        value = bound_map.get(obj)
        if value is None:
            value = embedding(obj)
            desc.require(value)
            if value == desc.top:
                return None
            bound_map[obj] = value
        return value

    def top_valued(obj) -> BoundednessReport:
        details = {"top_valued_embedding": sys.format_object(obj)}
        return BoundednessReport(UNKNOWN, "interpretation-method", details, witness=obj)

    checked = 0
    for a in objects:
        ea = embed(a)
        if ea is None:
            return top_valued(a)
        rules, complete = sys.successors(a, rule_budget)
        if not rules and complete:
            checked += 1
            if not desc.leq(sys.nf_weight(a), ea):
                return BoundednessReport(
                    UNKNOWN,
                    "interpretation-method",
                    {
                        "violated_normal_form": sys.format_object(a),
                        "weight": desc.format_literal(sys.nf_weight(a)),
                        "embedding": desc.format_literal(ea),
                    },
                    witness=a,
                )
            continue
        if exhaustive and not complete:
            raise PreconditionError(
                f"rule enumeration for {sys.format_object(a)} is not complete"
            )
        for r in rules:
            checked += 1
            args = []
            for b in r.rhs:
                eb = embed(b)
                if eb is None:
                    return top_valued(b)
                args.append(eb)
            key = id(r.aggregator), len(args)
            if key not in compiled:
                compiled[key] = r.aggregator, agg._compiled(r.aggregator, desc, len(args))
            step = compiled[key][1](args, branch_trunc, None)
            if not desc.leq(step, ea):
                return BoundednessReport(
                    UNKNOWN,
                    "interpretation-method",
                    {
                        "violated_rule": r.tag,
                        "lhs": sys.format_object(a),
                        "aggregated": desc.format_literal(step),
                        "embedding": desc.format_literal(ea),
                    },
                    witness=r,
                )

    if exhaustive:
        return BoundednessReport(
            BOUNDED_CERTIFIED,
            "interpretation-method",
            {"instances_checked": checked},
            bound_map=bound_map,
        )
    return BoundednessReport(
        BOUNDED_SAMPLED,
        "interpretation-method",
        {"instances_checked": checked, "note": "verified on supplied instances only"},
        sample_count=checked,
        bound_map=bound_map,
    )


def search_affine_embedding(
    sys: SystemHandle, coeff_cap: int, rule_budget: int = 64
) -> Optional[Embedding]:
    """The least table of values up to ``coeff_cap`` that verifies
    exhaustively over ``nat_inf``; None when no table within the cap works.

    Valid tables are the pre-fixpoints of the rule operator and are closed
    under pointwise minimum, so the least one is the least fixpoint, which
    settling each object finds.  Each non-normal-form value is an integer up
    to the cap, so n objects settle within n * (coeff_cap + 1) levels unless
    the least fixpoint exceeds the cap.
    """
    desc = sys.semiring
    if not isinstance(desc, NatInf):
        raise PreconditionError("affine embedding search works over the counting carrier")
    enum = sys.enumerate_objects()
    if enum is None or not enum[1]:
        raise PreconditionError("affine embedding search needs a finite explicit system")
    objects = sorted(enum[0], key=str)

    for a in objects:
        rules, complete = sys.successors(a, rule_budget)
        if not complete:
            raise PreconditionError("affine embedding search needs complete rule lists")
        for r in rules:
            if agg.affine_form(r.aggregator, desc, len(r.rhs)) is None:
                raise UnsupportedAggregatorError(
                    f"rule {r.tag}: aggregator is not affine in its variables"
                )

    table = {}
    for a in objects:
        result = evaluate_to_fixpoint(sys, a, len(objects) * (coeff_cap + 1), rule_budget)
        # inf is above every cap.
        if result.status != STABILIZED or result.value > coeff_cap:
            return None
        table[a] = result.value
    embedding = Embedding.from_table(table, f"affine<={coeff_cap}")
    if verify_embedding(sys, embedding, rule_budget=rule_budget).certified():
        return embedding
    return None
