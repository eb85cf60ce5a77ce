"""Boundedness provers: sufficient conditions and the interpretation method.

A system is bounded when no object's weight reaches the semiring maximum.
Three routes are implemented: a top-valued normal form disproves boundedness
outright; universally bounded normal forms with selective aggregators prove
it; terminating well-behaved systems over extremal semirings prove it; and an
embedding that dominates the normal forms and every rule step certifies an
explicit upper-bound map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import aggregator as agg
from .evaluator import DEFAULT_BRANCH_TRUNC
from .semiring import INF, RealInf, Semiring, SemiringError
from .system import DEFAULT_RULE_BUDGET, RuleInstance, SystemError_, SystemHandle, _literal_text

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


@dataclass
class BoundednessReport:
    verdict: str
    method: str
    details: dict = field(default_factory=dict)
    sample_count: int = 0
    witness: object = None
    bound_map: Optional[dict] = None


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
        return Embedding(dict(table).__getitem__, name)

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


def check_nf_top(sys: SystemHandle) -> Optional[BoundednessReport]:
    """Report unboundedness if some normal form weighs the maximum."""
    desc = sys.semiring
    nfs = sys.enumerate_nfs()
    if nfs is None:
        return None
    for a in nfs:
        if desc.top == sys.nf_weight(a):
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


def _universal_bound(desc: Semiring, bound):
    """Refuse ``bound`` unless it is a value of ``desc`` below the maximum."""
    if desc.top == bound:
        raise PreconditionError("the universal bound must not be the maximum")
    desc.require(bound)


def check_sufficient_selective(sys: SystemHandle, bound) -> BoundednessReport:
    """Bounded when normal forms stay below a common non-top bound and every
    aggregator provably returns one of its arguments.  The aggregators are
    read on every object, or on sampled ones; a system with neither gets
    ``unknown``."""
    desc = sys.semiring
    _universal_bound(desc, bound)

    details = {}
    nfs = sys.enumerate_nfs()
    if nfs is None:
        return BoundednessReport(UNKNOWN, "selective-bounded", {"normal_forms": "not enumerable"})
    for a in nfs:
        if not desc.leq(sys.nf_weight(a), bound):
            return BoundednessReport(
                UNKNOWN,
                "selective-bounded",
                {"violating_normal_form": sys.format_object(a)},
                witness=a,
            )
    details["normal_forms_checked"] = len(nfs)

    # Certified when every object is listed and every rule list read whole.
    objects = sys.enumerate_objects()
    complete = objects is not None
    if not complete:
        # No object list: probe the aggregators on sampled objects.
        try:
            objects = sys.sample_objects(64)
        except SystemError_:
            return BoundednessReport(UNKNOWN, "selective-bounded", {"objects": "not enumerable"})

    checked_rules = 0
    for a in objects:
        rules, whole = sys._rows(a, DEFAULT_RULE_BUDGET)
        complete = complete and whole
        for r in rules:
            checked_rules += 1
            if not _syntactically_selective(r[2], desc):
                return BoundednessReport(
                    UNKNOWN,
                    "selective-bounded",
                    {"non_selective_rule": r[3]},
                    witness=RuleInstance._make(r),
                )
    details["rules_checked"] = checked_rules

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
    and every aggregator is finite without a top constant.  The first three
    and the last are read from ``sys.flags``; ``None`` leaves one unknown."""
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

    nfs = sys.enumerate_nfs()
    if nfs is None:
        details["normal_form_weights"] = "not fully enumerable"
        missing.append("normal_form_weights")
    else:
        bad = [a for a in nfs if desc.top == sys.nf_weight(a)]
        if bad:
            details["normal_form_weights"] = (
                f"top-valued: {sys.format_object(bad[0])}"
            )
            missing.append("normal_form_weights")
        else:
            details["normal_form_weights"] = f"checked {len(nfs)}, none top"

    # Walking every rule again would cost a pass over the objects, and a
    # rule budget could hide a rule; the system states the fact instead.
    agg_ok = sys.flags.aggregators_finite_no_top
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
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
) -> BoundednessReport:
    """Check the interpretation-method inequalities on the given instances.

    For every supplied normal form the embedding must dominate its weight; for
    every rule of a supplied object it must dominate the aggregator applied to
    the embedded successors; and no touched object may embed to the maximum.
    ``instances="all"`` uses the complete object enumeration and yields a
    certificate, refused for a rule list, successor sequence or countable
    sum cut short; any other iterable yields a sampled verdict that reports
    how many instances were verified.  Affine ``real_inf`` steps are compared
    on integers; a step's value is built only for a violation's message.
    ``branch_trunc`` must be at least 1.
    """
    if branch_trunc < 1:
        raise ValueError("branch_trunc must be >= 1")
    desc = sys.semiring
    exhaustive = isinstance(instances, str) and instances == "all"
    if exhaustive:
        objects = sys.enumerate_objects()
        if objects is None:
            raise PreconditionError(
                f"system {sys.name} has no complete object enumeration; pass instances"
            )
    else:
        objects = list(instances)

    # Each touched object's embedding, called and checked on first use (None
    # is no carrier value).
    bound_map = {}

    def embed(obj):
        """The embedding of obj, or None when it is the maximum."""
        value = bound_map.get(obj)
        if value is None:
            value = embedding(obj)
            desc.require(value)
            if desc.top == value:
                return None
            bound_map[obj] = value
        return value

    def top_valued(obj) -> BoundednessReport:
        details = {"top_valued_embedding": sys.format_object(obj)}
        return BoundednessReport(UNKNOWN, "interpretation-method", details, witness=obj)

    checked = 0
    # (id, arity) -> (aggregator, which keeps the id unique, and its test).
    integer_tests = {} if isinstance(desc, RealInf) else None
    for a in objects:
        ea = embed(a)
        if ea is None:
            return top_valued(a)
        rules, complete = sys._rows(a, rule_budget)
        if not rules:
            checked += 1
            weight = sys._nf_weight(a)
            if not desc.leq(weight, ea):
                return BoundednessReport(
                    UNKNOWN,
                    "interpretation-method",
                    {
                        "violated_normal_form": sys.format_object(a),
                        "weight": desc.format_literal(weight),
                        "embedding": desc.format_literal(ea),
                    },
                    witness=a,
                )
            continue
        if exhaustive and not complete:
            raise PreconditionError(f"rule enumeration for {sys.format_object(a)} is not complete")
        for r in rules:
            _, rhs, aggregator, tag, whole = r
            if exhaustive and (not whole or agg._cut(aggregator, desc, len(rhs), branch_trunc)[1]):
                raise PreconditionError(f"rule {tag} for {sys.format_object(a)} is not read in full")
            checked += 1
            args = []
            for b in rhs:
                eb = embed(b)
                if eb is None:
                    return top_valued(b)
                args.append(eb)
            if integer_tests is not None:
                key = id(aggregator), len(args)
                if key not in integer_tests:
                    integer_tests[key] = aggregator, _integer_leq(aggregator, desc, len(args), branch_trunc)
                if integer_tests[key][1](args, ea):
                    continue
            step = agg._compiled(aggregator, desc, len(args), branch_trunc)(args)
            if not desc.leq(step, ea):
                return BoundednessReport(
                    UNKNOWN,
                    "interpretation-method",
                    {
                        "violated_rule": tag,
                        "lhs": sys.format_object(a),
                        "aggregated": desc.format_literal(step),
                        "embedding": desc.format_literal(ea),
                    },
                    witness=RuleInstance._make(r),
                )

    details = {"instances_checked": checked}
    if exhaustive:
        return BoundednessReport(BOUNDED_CERTIFIED, "interpretation-method", details,
                                 bound_map=bound_map)
    details["note"] = "verified on supplied instances only"
    return BoundednessReport(BOUNDED_SAMPLED, "interpretation-method", details,
                             sample_count=checked, bound_map=bound_map)


def _integer_leq(aggregator, desc: RealInf, arity: int, truncation: int):
    """A test whether the step at finite arguments is at most a finite bound,
    on integers, from the affine cut form with finite constants; else always False."""
    cut = agg._cut(aggregator, desc, arity, truncation)[0]
    form = agg.affine_form(cut, desc, arity, lambda v: v is not INF and desc.contains(v))
    if form is None:
        return lambda args, bound: False
    b, terms = form[1], [(i, c.numerator, c.denominator) for i, c in enumerate(form[0]) if c]

    def leq(args, bound) -> bool:
        n, d = b.numerator, b.denominator
        for i, cn, cd in terms:
            en, ed = cn * args[i].numerator, cd * args[i].denominator
            n, d = n * ed + en * d, d * ed
        return n * bound.denominator <= bound.numerator * d

    return leq
