"""Weighted sequence reduction systems: rules, handles, and the file loader.

A system maps each object to the reduction rules that apply to it; each rule
carries an ordered successor sequence and the aggregator that combines the
successor weights.  Normal forms (objects without rules) carry their own
weight.  Handles are immutable; successor enumeration is deterministic.
"""

from __future__ import annotations

import copy
import functools
import json
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

from . import aggregator as agg
from .semiring import Semiring, descriptor_from_spec


class SystemError_(Exception):
    """Base class for system-level failures."""


class UnknownObjectError(SystemError_):
    pass


class NotNormalFormError(SystemError_):
    pass


class SystemFormatError(SystemError_):
    """The explicit-system file is malformed."""


class RuleInstance(namedtuple("RuleInstance", "lhs rhs aggregator tag rhs_complete")):
    """One reduction step: lhs rewrites to the ordered sequence rhs.

    ``rhs_complete`` is False when rhs is a finite prefix of an infinite
    successor sequence.  The aggregator may not mention X, nor more than
    ``len(rhs)`` variables when the sequence is complete; both are read from
    its facts, walked once however many rules share it.  A tuple equal only
    to another record; ``_make`` builds one without these checks.
    """

    __slots__ = ()

    def __new__(cls, lhs, rhs, aggregator, tag, rhs_complete=True):
        if not rhs:
            raise SystemError_(f"rule {tag}: empty successor sequence")
        mentions_x, mv = agg._facts(aggregator)
        if mentions_x:
            raise SystemError_(f"rule {tag}: rule aggregators cannot mention X")
        if rhs_complete and isinstance(mv, int) and mv > len(rhs):
            raise SystemError_(
                f"rule {tag}: aggregator mentions v{mv} but rhs has {len(rhs)} entries"
            )
        return tuple.__new__(cls, (lhs, rhs, aggregator, tag, rhs_complete))

    def __eq__(self, other):
        return type(other) is RuleInstance and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _finite_no_top(expr, desc) -> bool:
    """Whether an aggregator has no countable sum and no constant ``top``."""

    def leaf(e):
        if isinstance(e, agg.Const):
            return e.value != desc.top
        return not isinstance(e, agg.CountableSum)

    return agg._reduce(expr, leaf, lambda e, values: all(values))


# The deepest aggregator the loader accepts, in levels (a leaf is one).
# Compiled aggregators still nest a frame per level when they are called, so
# deeper input would exhaust the recursion limit.
MAX_AGGREGATOR_DEPTH = 400


@dataclass
class Flags:
    """Three-valued structural metadata: True asserted, False refuted, None unknown."""

    finitely_nondeterministic: Optional[bool] = None
    finitely_branching: Optional[bool] = None
    terminating: Optional[bool] = None


class _ExplicitFlags(Flags):
    """An explicit system's flags.  ``terminating`` costs a quarter to a third
    of a load and only the extremal check reads it, so it is computed on read."""

    def __init__(self, rules_by_lhs: dict):
        super().__init__(finitely_nondeterministic=True, finitely_branching=True)
        del self.terminating  # the property below computes it
        self._rules_by_lhs = rules_by_lhs

    @functools.cached_property
    def terminating(self) -> bool:
        # No component is a cycle; normal forms (-1) cannot be on one.
        number = {lhs: i for i, lhs in enumerate(self._rules_by_lhs)}
        succs = [[number.get(b, -1) for r in rs for b in r.rhs] for rs in self._rules_by_lhs.values()]
        return not any(len(c) > 1 or c[0] in succs[c[0]] for c in _components(succs))


class SystemHandle:
    """A weighted sequence reduction system.

    ``successors_fn(a, budget)`` returns up to ``budget`` rules for ``a`` in a
    fixed enumeration order together with a completeness flag.  ``nf_weight_fn``
    is defined exactly on the normal forms.
    """

    def __init__(
        self,
        name: str,
        semiring: Semiring,
        successors_fn: Callable[[object, int], tuple],
        nf_weight_fn: Callable[[object], object],
        flags: Flags | None = None,
        parse_object_fn: Callable[[str], object] | None = None,
        format_object_fn: Callable[[object], str] | None = None,
        enumerate_objects_fn: Callable[[], tuple] | None = None,
        enumerate_nfs_fn: Callable[[], tuple] | None = None,
        sample_objects_fn: Callable[[object, int], list] | None = None,
        aggregators_finite_no_top: Optional[bool] = None,
    ):
        self.name = name
        self.semiring = semiring
        self._successors = successors_fn
        self._nf_weight = nf_weight_fn
        self.flags = flags or Flags()
        self._parse_object = parse_object_fn
        self._format_object = format_object_fn
        self._enumerate_objects = enumerate_objects_fn
        self._enumerate_nfs = enumerate_nfs_fn
        self._sample_objects = sample_objects_fn
        self.aggregators_finite_no_top = aggregators_finite_no_top

    def successors(self, a, rule_budget: int = 64) -> tuple[list[RuleInstance], bool]:
        """Up to ``rule_budget`` rules applicable to ``a``, plus completeness."""
        if rule_budget < 1:
            raise ValueError("rule_budget must be >= 1")
        rules, complete = self._successors(a, rule_budget)
        return list(rules), complete

    def is_normal_form(self, a) -> bool:
        rules, complete = self.successors(a, 1)
        return not rules and complete

    def nf_weight(self, a):
        if not self.is_normal_form(a):
            raise NotNormalFormError(f"{self.format_object(a)} is not a normal form")
        return self._nf_weight(a)

    def find_rule(self, a, tag: str, max_budget: int = 65536) -> RuleInstance:
        budget = 64
        while True:
            rules, complete = self.successors(a, budget)
            for r in rules:
                if r.tag == tag:
                    return r
            if complete or budget >= max_budget:
                raise SystemError_(
                    f"no rule tagged {tag!r} for {self.format_object(a)}"
                )
            budget *= 8

    def enumerate_objects(self) -> Optional[tuple[list, bool]]:
        """All objects plus a completeness flag, or None for open families."""
        if self._enumerate_objects is None:
            return None
        objs, complete = self._enumerate_objects()
        return list(objs), complete

    def enumerate_nfs(self) -> Optional[tuple[list, bool]]:
        if self._enumerate_nfs is not None:
            nfs, complete = self._enumerate_nfs()
            return list(nfs), complete
        enum = self.enumerate_objects()
        if enum is None:
            return None
        objs, complete = enum
        return [a for a in objs if self.is_normal_form(a)], complete

    def sample_objects(self, rng, count: int) -> list:
        if self._sample_objects is not None:
            return self._sample_objects(rng, count)
        enum = self.enumerate_objects()
        if enum is not None:
            return enum[0][:count]
        raise SystemError_(f"system {self.name} has no object sampler")

    def parse_object(self, text: str):
        if self._parse_object is None:
            raise SystemError_(f"system {self.name} has no object syntax")
        return self._parse_object(text)

    def format_object(self, a) -> str:
        if self._format_object is not None:
            return self._format_object(a)
        return str(a)

    def __repr__(self) -> str:
        return f"<system {self.name} over {self.semiring.kind}>"


def cplx_wrap(base: SystemHandle) -> SystemHandle:
    """Reweigh a system so that weights count reduction steps.

    Every rule keeps its successor sequence but aggregates as one plus the sum
    of the successor weights; every normal form weighs zero.  The weight of an
    object is then the supremum of the step counts reachable from it.
    """
    from .semiring import NAT_INF

    # Per successor count, one plus the sum of that many successors.
    step = functools.cache(
        lambda n: agg.SumNode((agg.Const(1),) + tuple(agg.Var(i + 1) for i in range(n)))
    )

    def successors(a, budget):
        rules, complete = base._successors(a, budget)
        # The base rule passed the checks, which the step cannot fail.
        return [RuleInstance._make((r.lhs, r.rhs, step(len(r.rhs)), r.tag, r.rhs_complete))
                for r in rules], complete

    return SystemHandle(
        name=f"cplx({base.name})",
        semiring=NAT_INF,
        successors_fn=successors,
        nf_weight_fn=lambda a: 0,
        flags=copy.copy(base.flags),
        parse_object_fn=base._parse_object,
        format_object_fn=base._format_object,
        enumerate_objects_fn=base._enumerate_objects,
        enumerate_nfs_fn=base._enumerate_nfs,
        sample_objects_fn=base._sample_objects,
        aggregators_finite_no_top=base.flags.finitely_branching,
    )


def _literal_text(value) -> str:
    """The literal text of a decoded JSON value: a string is the text itself,
    any other value its JSON text (``true``, not Python's ``True``)."""
    return value if isinstance(value, str) else json.dumps(value)


def load_explicit(source: str) -> SystemHandle:
    """Load a finite explicit system from JSON text or a file path.

    Format: ``{"semiring": {...}, "rules": [{"lhs", "rhs", "agg", "tag"}],
    "nf": {label: literal}}``.  Objects are implicit (every mentioned label);
    a label with a normal-form weight must have no rules, and every rule-less
    label must have one.
    """
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise SystemFormatError(f"system file not found: {source}") from exc
        except OSError as exc:
            raise SystemFormatError(f"cannot read system file {source}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise SystemFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SystemFormatError("invalid JSON: nested too deeply") from exc

    if not isinstance(data, dict):
        raise SystemFormatError("a system must be a JSON object")
    if "semiring" not in data:
        raise SystemFormatError("missing 'semiring' entry")
    desc = descriptor_from_spec(data["semiring"])

    rules_by_lhs: dict[str, list[RuleInstance]] = defaultdict(list)
    objects: set[str] = set()
    tags: set = set()  # (lhs, tag) of every rule so far
    rule_specs, nf_specs = data.get("rules", []), data.get("nf", {})
    if not isinstance(rule_specs, list) or not isinstance(nf_specs, dict):
        raise SystemFormatError("'rules' must be a JSON array and 'nf' a JSON object")
    # Aggregator text -> expression: each text is parsed once per load.
    parsed: dict = {}
    # One pass, each rule's checks in order (JSON gives exact types).
    for i, spec in enumerate(rule_specs):
        spec = spec if type(spec) is dict else {}
        lhs, rhs = spec.get("lhs"), spec.get("rhs")
        if type(lhs) is not str or type(rhs) is not list or not rhs or not all(type(b) is str for b in rhs):
            raise SystemFormatError(f"rule {i}: needs a string lhs and a non-empty rhs")
        tag = spec.get("tag", f"r{i}")
        if type(tag) is not str:
            raise SystemFormatError(f"rule {i}: 'tag' must be a string")
        text = spec.get("agg", "")
        if type(text) is not str:
            raise SystemFormatError(f"rule {tag}: 'agg' must be a string")
        expr = parsed.get(text)
        if expr is None:
            try:
                expr = agg.parse_expr(text, desc)
            except agg.AggregatorError as exc:
                raise SystemFormatError(f"rule {tag}: {exc}") from exc
            if agg.nesting_depth(expr) > MAX_AGGREGATOR_DEPTH:
                raise SystemFormatError(
                    f"rule {tag}: aggregator nested deeper than "
                    f"{MAX_AGGREGATOR_DEPTH} levels"
                )
            parsed[text] = expr
        try:
            rule = RuleInstance(lhs, tuple(rhs), expr, tag)
        except SystemError_ as exc:
            raise SystemFormatError(str(exc)) from exc
        if (lhs, tag) in tags:
            raise SystemFormatError(f"duplicate rule tag {tag!r} for {lhs!r}")
        tags.add((lhs, tag))
        rules_by_lhs[lhs].append(rule)
        objects.update(rhs)
    objects.update(rules_by_lhs)

    nf_weights = {}
    for label, literal in nf_specs.items():
        if label in rules_by_lhs:
            raise SystemFormatError(
                f"{label!r} has rules but also a normal-form weight"
            )
        nf_weights[label] = desc.parse_literal(_literal_text(literal))
        objects.add(label)

    unweighted = objects.difference(rules_by_lhs, nf_weights)
    if unweighted:
        raise SystemFormatError(
            f"{min(unweighted)!r} is a normal form but has no weight in 'nf'"
        )

    def successors(a, budget):
        if a not in objects:
            raise UnknownObjectError(f"unknown object {a!r}")
        rules = rules_by_lhs.get(a, [])
        return rules[:budget], budget >= len(rules)

    def parse_object(textual: str):
        label = textual.strip()
        if label not in objects:
            raise UnknownObjectError(f"unknown object {label!r}")
        return label

    return SystemHandle(
        name="explicit",
        semiring=desc,
        successors_fn=successors,
        nf_weight_fn=lambda a: nf_weights[a],
        flags=_ExplicitFlags(rules_by_lhs),
        parse_object_fn=parse_object,
        format_object_fn=str,
        enumerate_objects_fn=lambda: (sorted(objects), True),
        enumerate_nfs_fn=lambda: (sorted(nf_weights), True),
        aggregators_finite_no_top=all(
            _finite_no_top(expr, desc) for expr in parsed.values()
        ),
    )


def _components(succs: list) -> list:
    """The strongly connected components of the graph ``i -> succs[i]``,
    sinks first: Tarjan's algorithm with an explicit stack.  Negative
    successors stand for objects outside the graph and are skipped."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    edge = [0] * n  # per object on the walk, the next successor to follow
    on_stack = [False] * n
    stack: list = []
    components: list = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        walk = [root]
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        while walk:
            v = walk[-1]
            succ = succs[v]
            if edge[v] < len(succ):
                w = succ[edge[v]]
                edge[v] += 1
                if w < 0:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    walk.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            walk.pop()
            if walk and low[v] < low[walk[-1]]:
                low[walk[-1]] = low[v]
            if low[v] == index[v]:
                component = []
                while not component or component[-1] != v:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                components.append(component)
    return components
