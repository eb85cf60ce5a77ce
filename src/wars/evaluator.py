"""Weight evaluation: reduction trees, monotone value iteration, fixpoints.

The weight of an object is the supremum of the weights of all finite-depth
reduction trees rooted at it.  The value iteration below computes, per depth,
a weight that never exceeds that supremum: unexplored successors count as the
semiring minimum, so every budget cut only lowers the result.  A value is
reported as stabilized only when the visited object set is closed under
successors, every enumeration was complete, and one more iteration changes
nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .aggregator import _compiled
from .system import SystemHandle

LOWER_BOUND = "lower_bound"
STABILIZED = "stabilized"

DEFAULT_RULE_BUDGET = 64
DEFAULT_BRANCH_TRUNC = 64
DEFAULT_VISIT_CAP = 100_000


class EvaluatorError(Exception):
    pass


class StructuralTreeError(EvaluatorError):
    """A tree node does not correspond to any rule of the system."""


class VisitCapExceeded(EvaluatorError):
    """Exploration hit the distinct-object cap; carries the sound partial bound."""

    def __init__(self, partial: "WeightBound"):
        super().__init__(
            f"visit cap hit after {partial.visited} objects; "
            f"partial lower bound {partial.value!r}"
        )
        self.partial = partial


class CountCapExceeded(EvaluatorError):
    pass


@dataclass(frozen=True)
class ReductionTree:
    """A labeled ordered tree; inner nodes name the rule that produced them."""

    label: object
    rule_tag: Optional[str] = None
    children: tuple = ()

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


@dataclass
class WeightBound:
    """A computed weight plus how trustworthy it is.

    ``lower_bound`` values never exceed the true weight; ``stabilized`` values
    are genuine fixpoints of the iteration on a successor-closed object set.
    """

    value: object
    status: str
    depth_explored: int
    budgets: dict = field(default_factory=dict)
    visited: int = 0


def tree_weight(sys: SystemHandle, tree: ReductionTree, branch_trunc: int = DEFAULT_BRANCH_TRUNC):
    """Bottom-up weight of a finite reduction tree.

    Normal-form nodes weigh their interpretation, other leaves weigh the
    semiring minimum, and each inner node applies its rule's aggregator to the
    child weights in order.
    """
    desc = sys.semiring
    if not tree.children:
        if tree.rule_tag is not None:
            raise StructuralTreeError(
                f"leaf {sys.format_object(tree.label)} carries rule {tree.rule_tag!r}"
            )
        if sys.is_normal_form(tree.label):
            weight = sys.nf_weight(tree.label)
            desc.require(weight)
            return weight
        return desc.zero
    if sys.is_normal_form(tree.label):
        raise StructuralTreeError(
            f"normal form {sys.format_object(tree.label)} has children"
        )
    if tree.rule_tag is None:
        raise StructuralTreeError(
            f"inner node {sys.format_object(tree.label)} names no rule"
        )
    rule = sys.find_rule(tree.label, tree.rule_tag)
    child_labels = tuple(c.label for c in tree.children)
    if child_labels != rule.rhs:
        raise StructuralTreeError(
            f"children of {sys.format_object(tree.label)} do not match rule "
            f"{tree.rule_tag!r}"
        )
    args = [tree_weight(sys, c, branch_trunc) for c in tree.children]
    return _compiled(rule.aggregator, desc, len(args))(args, branch_trunc, None)


def truncate(tree: ReductionTree, n: int) -> ReductionTree:
    """Drop all nodes deeper than ``n``; cut nodes become plain leaves."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n == 0 or not tree.children:
        return ReductionTree(tree.label)
    return ReductionTree(
        tree.label, tree.rule_tag, tuple(truncate(c, n - 1) for c in tree.children)
    )


class _Exploration:
    """The object ball reachable from a start within a depth radius and budgets."""

    def __init__(self, sys, start, depth, rule_budget, visit_cap):
        if visit_cap < 1:
            raise ValueError("visit_cap must be >= 1")
        self.sys = sys
        desc = sys.semiring
        self.objects: list = []
        # Per object, its rules as (rhs, compiled aggregator, aggregator).
        # Holding the aggregator keeps its compilation shared with equal
        # aggregators that later objects' rules bring.
        self.rules: dict = {}
        self.nf: dict = {}
        self.cap_hit = False
        self.enumeration_complete = True

        seen = set()

        def admit(obj) -> bool:
            if obj in seen:
                return False
            if len(seen) >= visit_cap:
                self.cap_hit = True
                return False
            seen.add(obj)
            self.objects.append(obj)
            rules, complete = sys.successors(obj, rule_budget)
            if not complete:
                self.enumeration_complete = False
            for r in rules:
                if not r.rhs_complete:
                    self.enumeration_complete = False
            if not rules and complete:
                weight = sys._nf_weight(obj)
                desc.require(weight)
                self.nf[obj] = weight
            else:
                self.rules[obj] = [
                    (r.rhs, _compiled(r.aggregator, desc, len(r.rhs)), r.aggregator)
                    for r in rules
                ]
            return True

        admit(start)
        frontier = [start]
        level = 0
        while frontier and level < depth:
            nxt = []
            for a in frontier:
                for rhs, _, _ in self.rules.get(a, ()):
                    for b in rhs:
                        if admit(b):
                            nxt.append(b)
            frontier = nxt
            level += 1
        self.frontier = frontier
        self._seen = seen

    def closed(self) -> bool:
        """True when every successor of every visited object was visited."""
        if self.cap_hit:
            return False
        for a in self.frontier:
            for rhs, _, _ in self.rules.get(a, ()):
                if any(b not in self._seen for b in rhs):
                    return False
        return True

    def step(self, prev: dict, branch_trunc: int) -> dict:
        desc = self.sys.semiring
        zero = desc.zero
        cur = {}
        for a in self.objects:
            if a in self.nf:
                cur[a] = self.nf[a]
                continue
            vals = [zero]
            for rhs, fn, _ in self.rules[a]:
                vals.append(fn([prev.get(b, zero) for b in rhs], branch_trunc, None))
            cur[a] = vals[0] if len(vals) == 1 else desc._join(vals)
        return cur

    def initial(self) -> dict:
        zero = self.sys.semiring.zero
        return {a: self.nf.get(a, zero) for a in self.objects}


def _iterate(exploration: _Exploration, depth: int, branch_trunc: int) -> list:
    levels = [exploration.initial()]
    for _ in range(depth):
        levels.append(exploration.step(levels[-1], branch_trunc))
    return levels


def weight_lower_bound(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
    visit_cap: int = DEFAULT_VISIT_CAP,
) -> WeightBound:
    """Depth-indexed sound lower bound on the weight of ``a``.

    Level zero weighs normal forms by their interpretation and everything else
    by the semiring minimum; each further level joins, over the enumerated
    rules, the aggregator applied to the previous level's successor weights.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ex = _Exploration(sys, a, depth, rule_budget, visit_cap)
    levels = _iterate(ex, depth, branch_trunc)
    bound = WeightBound(
        value=levels[-1][a],
        status=LOWER_BOUND,
        depth_explored=depth,
        budgets={
            "rule_budget": rule_budget,
            "branch_trunc": branch_trunc,
            "visit_cap": visit_cap,
        },
        visited=len(ex.objects),
    )
    if ex.cap_hit:
        raise VisitCapExceeded(bound)
    return bound


def weight_profile(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
    visit_cap: int = DEFAULT_VISIT_CAP,
) -> list:
    """The lower-bound values at ``a`` for every level 0..depth."""
    ex = _Exploration(sys, a, depth, rule_budget, visit_cap)
    levels = _iterate(ex, depth, branch_trunc)
    if ex.cap_hit:
        raise VisitCapExceeded(
            WeightBound(levels[-1][a], LOWER_BOUND, depth, visited=len(ex.objects))
        )
    return [lvl[a] for lvl in levels]


def iterate_lower_bounds(
    sys: SystemHandle,
    a,
    max_depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
    visit_cap: int = DEFAULT_VISIT_CAP,
) -> Iterator:
    """Yield the depth-indexed lower bounds at ``a`` lazily, level by level.

    Produces up to ``max_depth + 1`` values; consumers may stop early once a
    threshold is crossed, skipping the remaining iteration work.
    """
    ex = _Exploration(sys, a, max_depth, rule_budget, visit_cap)
    current = ex.initial()
    yield current[a]
    for _ in range(max_depth):
        current = ex.step(current, branch_trunc)
        yield current[a]


def evaluate_to_fixpoint(
    sys: SystemHandle,
    a,
    max_depth: int = 256,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
    visit_cap: int = DEFAULT_VISIT_CAP,
) -> WeightBound:
    """Iterate the lower bound until it stops changing or the depth runs out.

    The result is stabilized only when the explored set is successor-closed,
    every rule enumeration and successor sequence was complete, and an extra
    iteration reproduces the same values everywhere; otherwise it is a plain
    lower bound at the explored depth.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    ex = _Exploration(sys, a, max_depth, rule_budget, visit_cap)
    budgets = {
        "rule_budget": rule_budget,
        "branch_trunc": branch_trunc,
        "visit_cap": visit_cap,
    }

    current = ex.initial()
    depth_explored = 0
    stable = False
    while depth_explored < max(max_depth, 1):
        nxt = ex.step(current, branch_trunc)
        if nxt == current:
            stable = True
            break
        if depth_explored >= max_depth:
            break
        current = nxt
        depth_explored += 1

    certified = stable and ex.closed() and ex.enumeration_complete
    bound = WeightBound(
        value=current[a],
        status=STABILIZED if certified else LOWER_BOUND,
        depth_explored=depth_explored,
        budgets=budgets,
        visited=len(ex.objects),
    )
    if ex.cap_hit:
        raise VisitCapExceeded(bound)
    return bound


def enumerate_trees(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = 8,
    count_cap: int = 200_000,
) -> Iterator[ReductionTree]:
    """Every reduction tree rooted at ``a`` of depth at most ``depth``.

    Includes trees that stop early at non-normal-form leaves.  Exponential;
    meant as an oracle for small systems, guarded by ``count_cap``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    memo: dict = {}
    built = [0]

    def trees(obj, d) -> list:
        key = (obj, d)
        if key in memo:
            return memo[key]
        out = [ReductionTree(obj)]
        if d > 0:
            rules, _ = sys.successors(obj, rule_budget)
            for r in rules:
                child_options = [trees(b, d - 1) for b in r.rhs]
                for combo in itertools.product(*child_options):
                    built[0] += 1
                    if built[0] > count_cap:
                        raise CountCapExceeded(
                            f"more than {count_cap} trees at depth {depth}"
                        )
                    out.append(ReductionTree(obj, r.tag, combo))
        memo[key] = out
        return out

    return iter(trees(a, depth))
