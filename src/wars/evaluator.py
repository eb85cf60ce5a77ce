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

import bisect
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
        deepest, stack = 0, [(self, 0)]
        while stack:
            node, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((c, d + 1) for c in node.children)
        return deepest

    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count


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
    """Bottom-up weight of a finite reduction tree; see ``tree_weights``."""
    return tree_weights(sys, [tree], branch_trunc)[0]


def tree_weights(sys: SystemHandle, trees, branch_trunc: int = DEFAULT_BRANCH_TRUNC) -> list:
    """The bottom-up weight of each finite reduction tree in ``trees``.

    Normal-form leaves weigh their interpretation, other leaves weigh the
    semiring minimum, and each inner node applies its rule's aggregator to the
    child weights in order.  Each distinct node object is checked and weighed
    once per call, so a subtree shared within or across trees (as
    ``enumerate_trees`` shares them) costs one weighing.  The walk is
    depth-first and left to right, with a node's structural checks before its
    children and its aggregator after them, so a malformed tree raises its
    first fault in that order.
    """
    desc = sys.semiring
    # id(node) -> (node, weight).  Holding the node keeps its id from being
    # reused by a later object, even when ``trees`` drops each tree.
    memo: dict = {}
    weights = []
    for tree in trees:
        # Entries are (node, None) before its children, (node, rule) after.
        stack = [(tree, None)]
        while stack:
            node, rule = stack.pop()
            if rule is not None:
                args = [memo[id(c)][1] for c in node.children]
                fn = _compiled(rule.aggregator, desc, len(args))
                memo[id(node)] = node, fn(args, branch_trunc, None)
                continue
            if id(node) in memo:
                continue
            label = node.label
            if not node.children:
                if node.rule_tag is not None:
                    raise StructuralTreeError(
                        f"leaf {sys.format_object(label)} carries rule {node.rule_tag!r}"
                    )
                if sys.is_normal_form(label):
                    weight = sys._nf_weight(label)
                    desc.require(weight)
                else:
                    weight = desc.zero
                memo[id(node)] = node, weight
                continue
            if sys.is_normal_form(label):
                raise StructuralTreeError(
                    f"normal form {sys.format_object(label)} has children"
                )
            if node.rule_tag is None:
                raise StructuralTreeError(
                    f"inner node {sys.format_object(label)} names no rule"
                )
            rule = sys.find_rule(label, node.rule_tag)
            if tuple(c.label for c in node.children) != rule.rhs:
                raise StructuralTreeError(
                    f"children of {sys.format_object(label)} do not match rule "
                    f"{node.rule_tag!r}"
                )
            stack.append((node, rule))
            stack.extend((c, None) for c in reversed(node.children))
        weights.append(memo[id(tree)][1])
    return weights


def truncate(tree: ReductionTree, n: int) -> ReductionTree:
    """Drop all nodes deeper than ``n``; cut nodes become plain leaves."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    # Entries are (node, depth left, False) before the node's children and
    # (node, depth left, True) after them; ``built`` holds finished subtrees.
    built: list = []
    stack = [(tree, n, False)]
    while stack:
        node, left, expanded = stack.pop()
        if expanded:
            k = len(node.children)
            children = tuple(built[-k:])
            del built[-k:]
            built.append(ReductionTree(node.label, node.rule_tag, children))
        elif left == 0 or not node.children:
            built.append(ReductionTree(node.label))
        else:
            stack.append((node, left, True))
            stack.extend((c, left - 1, False) for c in reversed(node.children))
    return built[0]


class _Ball:
    """The objects reachable from a start within a radius and budgets.

    Objects are numbered in the breadth-first order they were admitted, so
    the objects within distance ``r`` of the start are ``objects[:ends[r]]``.
    Per object, ``rules`` holds ``None`` for a normal form, else its rules as
    (successor numbers, compiled aggregator, aggregator); a successor outside
    the ball is numbered -1.  Holding the aggregator keeps its compilation
    shared with equal aggregators that later objects' rules bring.
    """

    def __init__(self, sys, start, radius, rule_budget, visit_cap):
        if visit_cap < 1:
            raise ValueError("visit_cap must be >= 1")
        desc = sys.semiring
        self.semiring = desc
        self.objects: list = []
        self.rules: list = []
        # Level-zero values: normal forms weigh their interpretation.
        self.initial: list = []
        # The radius whose admission the visit cap cut short, if any.
        self.cap_radius: Optional[int] = None
        self.enumeration_complete = True
        index: dict = {}

        def admit(obj, distance) -> None:
            if obj in index:
                return
            if len(index) >= visit_cap:
                if self.cap_radius is None:
                    self.cap_radius = distance
                return
            index[obj] = len(self.objects)
            self.objects.append(obj)
            rules, complete = sys.successors(obj, rule_budget)
            if not complete or not all(r.rhs_complete for r in rules):
                self.enumeration_complete = False
            if not rules and complete:
                weight = sys._nf_weight(obj)
                desc.require(weight)
                self.rules.append(None)
                self.initial.append(weight)
            else:
                self.rules.append(
                    [
                        (r.rhs, _compiled(r.aggregator, desc, len(r.rhs)), r.aggregator)
                        for r in rules
                    ]
                )
                self.initial.append(desc.zero)

        admit(start, 0)
        ends = [1]
        first = 0  # the first object at the outermost distance
        while len(ends) <= radius and first < ends[-1]:
            distance = len(ends)
            for i in range(first, ends[-1]):
                for rhs, _, _ in self.rules[i] or ():
                    for b in rhs:
                        admit(b, distance)
            first = ends[-1]
            ends.append(len(self.objects))
        ends.extend([len(self.objects)] * (radius + 1 - len(ends)))
        self.ends = ends

        # Successor-closed: no rule leads outside the ball.
        self.closed = self.cap_radius is None
        for i, rules in enumerate(self.rules):
            if rules:
                numbered = []
                for rhs, fn, aggregator in rules:
                    succ = tuple(index.get(b, -1) for b in rhs)
                    if -1 in succ:
                        self.closed = False
                    numbered.append((succ, fn, aggregator))
                self.rules[i] = numbered


def _levels(ball: _Ball, branch_trunc: int, depth: Optional[int] = None) -> Iterator:
    """Value iteration over ``ball``, one level per step.

    Yields ``(values, changed)`` for level 0, 1, ...: ``values`` is a single
    list, updated in place, indexed like ``ball.objects`` plus one last slot
    holding zero, where successors outside the ball point; ``changed`` counts
    the objects whose value differs from the level before (at level 0, all).

    Level j recomputes only the objects with a successor that changed at
    level j-1 (at level 1, every object with rules).  Any other object would
    get its level j-1 value back, so this is exactly the level-by-level
    (Jacobi) iteration.  Given ``depth``, level j also skips the objects
    farther than ``depth - j`` from the start: they cannot reach the start's
    value at level ``depth``.  Their entries go stale, and the iteration ends
    after level ``depth``.
    """
    desc = ball.semiring
    join = desc._join
    rules = ball.rules
    ends = ball.ends
    n = len(rules)
    values = ball.initial + [desc.zero]
    yield values, n

    # Objects that level 1 recomputes; no later level recomputes others.
    reach = n if depth is None else (ends[depth - 1] if depth > 0 else 0)
    pending = [i for i in range(reach) if rules[i]]
    preds: list = [[] for _ in range(n)]
    for i in pending:
        for succ, _, _ in rules[i]:
            for s in succ:
                if s >= 0:
                    preds[s].append(i)

    level = 1
    while depth is None or level <= depth:
        if depth is not None:
            pending = pending[: bisect.bisect_left(pending, ends[depth - level])]
        changed = []
        for i in pending:
            rs = rules[i]
            if len(rs) == 1:
                succ, fn, _ = rs[0]
                v = fn([values[s] for s in succ], branch_trunc, None)
            else:
                v = join(
                    [fn([values[s] for s in succ], branch_trunc, None) for succ, fn, _ in rs]
                )
            if v != values[i]:
                changed.append((i, v))
        for i, v in changed:
            values[i] = v
        yield values, len(changed)
        marked: set = set()
        for i, _ in changed:
            marked.update(preds[i])
        pending = sorted(marked)
        level += 1


def _budgets(rule_budget: int, branch_trunc: int, visit_cap: int) -> dict:
    return {
        "rule_budget": rule_budget,
        "branch_trunc": branch_trunc,
        "visit_cap": visit_cap,
    }


class DepthProfile:
    """The lower bounds at ``a`` for every level 0..depth, from one exploration.

    ``bound(level)`` returns or raises exactly what ``weight_lower_bound`` at
    that depth would: the objects within ``level`` of ``a`` are explored the
    same way, so the value, the visited count and whether the visit cap was
    hit all agree.
    """

    def __init__(
        self,
        sys: SystemHandle,
        a,
        depth: int,
        rule_budget: int = DEFAULT_RULE_BUDGET,
        branch_trunc: int = DEFAULT_BRANCH_TRUNC,
        visit_cap: int = DEFAULT_VISIT_CAP,
    ):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        ball = _Ball(sys, a, depth, rule_budget, visit_cap)
        self.values = [values[0] for values, _ in _levels(ball, branch_trunc, depth)]
        self.budgets = _budgets(rule_budget, branch_trunc, visit_cap)
        self._ends = ball.ends
        self._cap_radius = ball.cap_radius

    def bound(self, level: int) -> WeightBound:
        bound = WeightBound(
            value=self.values[level],
            status=LOWER_BOUND,
            depth_explored=level,
            budgets=dict(self.budgets),
            visited=self._ends[level],
        )
        if self._cap_radius is not None and level >= self._cap_radius:
            raise VisitCapExceeded(bound)
        return bound


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
    return DepthProfile(sys, a, depth, rule_budget, branch_trunc, visit_cap).bound(depth)


def weight_profile(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
    visit_cap: int = DEFAULT_VISIT_CAP,
) -> list:
    """The lower-bound values at ``a`` for every level 0..depth."""
    profile = DepthProfile(sys, a, depth, rule_budget, branch_trunc, visit_cap)
    profile.bound(depth)  # raises VisitCapExceeded as weight_lower_bound would
    return profile.values


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
    ball = _Ball(sys, a, max_depth, rule_budget, visit_cap)
    for values, _ in _levels(ball, branch_trunc, max_depth):
        yield values[0]


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
    ball = _Ball(sys, a, max_depth, rule_budget, visit_cap)
    levels = _levels(ball, branch_trunc)
    values, _ = next(levels)
    value, depth_explored, stable = values[0], 0, False
    # The extra level that can show stability is within the step budget,
    # except at max_depth 0, which still gets one level to compare.
    for values, changed in itertools.islice(levels, max(max_depth, 1)):
        if not changed:
            stable = True
            break
        if depth_explored == max_depth:
            break
        depth_explored += 1
        value = values[0]

    certified = stable and ball.closed and ball.enumeration_complete
    bound = WeightBound(
        value=value,
        status=STABILIZED if certified else LOWER_BOUND,
        depth_explored=depth_explored,
        budgets=_budgets(rule_budget, branch_trunc, visit_cap),
        visited=len(ball.objects),
    )
    if ball.cap_radius is not None:
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
