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
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .aggregator import _compiled, affine_form
from .semiring import RealInf
from .system import SystemHandle, _components

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
    """The bottom-up weight of a finite reduction tree.

    Normal-form leaves weigh their interpretation, other leaves weigh the
    semiring minimum, and each inner node applies its rule's aggregator to the
    child weights in order.  Each distinct node object is checked and weighed
    once, so a subtree shared within the tree (as ``enumerate_trees`` shares
    them) costs one weighing.  The walk is depth-first and left to right, with
    a node's structural checks before its children and its aggregator after
    them, so a malformed tree raises its first fault in that order.
    """
    desc = sys.semiring
    # id(node) -> weight.  The tree holds its nodes, so no id is reused.
    memo: dict = {}
    # Whether a label is a normal form, and the rule per (label, tag).
    normal: dict = {}
    found: dict = {}
    # Entries are (node, None) before its children, (node, its rule) after
    # them.
    stack = [(tree, None)]
    while stack:
        node, rule = stack.pop()
        if rule is not None:
            args = [memo[id(c)] for c in node.children]
            memo[id(node)] = _compiled(rule.aggregator, desc, len(args))(args, branch_trunc, None)
            continue
        if id(node) in memo:
            continue
        label = node.label
        if not node.children and node.rule_tag is not None:
            raise StructuralTreeError(
                f"leaf {sys.format_object(label)} carries rule {node.rule_tag!r}"
            )
        if label not in normal:
            normal[label] = sys.is_normal_form(label)
        if not node.children:
            if normal[label]:
                weight = sys._nf_weight(label)
                desc.require(weight)
            else:
                weight = desc.zero
            memo[id(node)] = weight
            continue
        if normal[label]:
            raise StructuralTreeError(
                f"normal form {sys.format_object(label)} has children"
            )
        if node.rule_tag is None:
            raise StructuralTreeError(
                f"inner node {sys.format_object(label)} names no rule"
            )
        key = (label, node.rule_tag)
        if key not in found:
            found[key] = sys.find_rule(label, node.rule_tag)
        rule = found[key]
        if tuple(c.label for c in node.children) != rule.rhs:
            raise StructuralTreeError(
                f"children of {sys.format_object(label)} do not match rule "
                f"{node.rule_tag!r}"
            )
        stack.append((node, rule))
        stack.extend((c, None) for c in reversed(node.children))
    return memo[id(tree)]


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
    the objects within distance ``r`` of the start are ``objects[:ends[r]]``;
    one pass numbers each successor as it is admitted, and the rules of the
    last distance after it.  Per object, ``rules`` holds ``None`` for a normal
    form, else its rules as (successor numbers, compiled aggregator,
    aggregator); a successor outside the ball is numbered -1.  ``succs``
    holds each object's distinct successor numbers, in order.  Each
    (aggregator, arity) is looked up once per ball.

    Without ``ring``, the objects at distance ``radius`` get no rules, only
    their normal-form status and weight: a depth query never recomputes
    them.  With it, the ball also knows if it is ``closed`` (no rule leads
    outside it) and its ``enumeration_complete``.

    An affine rational ball stores every value as an integer numerator over
    one denominator ``scale``, and ``kernels`` holds, per object with rules,
    one closure from the values to its numerator; a value leaves the core
    through ``out``.
    """

    def __init__(self, sys, start, radius, rule_budget, visit_cap, ring=True):
        if visit_cap < 1:
            raise ValueError("visit_cap must be >= 1")
        if rule_budget < 1:
            raise ValueError("rule_budget must be >= 1")
        desc = sys.semiring
        self.semiring = desc
        self.objects = objects = []
        # Until numbered, an object's rules as the system enumerated them.
        self.rules = rules_of = []
        self.succs = succs = []
        # Level-zero values: normal forms weigh their interpretation.
        self.initial = initial = []
        # The radius whose admission the visit cap cut short, if any.
        self.cap_radius: Optional[int] = None
        complete = True
        index: dict = {}
        forms: dict = {}  # (aggregator id, arity) -> compiled form
        distance = 0

        def admit(obj) -> int:
            """``obj``'s number, admitting it at ``distance``; -1 if refused."""
            nonlocal complete
            i = index.get(obj)
            if i is not None:
                return i
            i = len(objects)
            if i >= visit_cap:
                if self.cap_radius is None:
                    self.cap_radius = distance
                return -1
            index[obj] = i
            objects.append(obj)
            if ring or distance < radius:
                rules, done = sys.successors(obj, rule_budget)
                complete = complete and done
            else:
                rules, done = [], sys.is_normal_form(obj)
            if not rules and done:
                weight = sys._nf_weight(obj)
                desc.require(weight)
                rules_of.append(None)
                initial.append(weight)
            else:
                rules_of.append(rules)
                initial.append(desc.zero)
            return i

        def number(i, find) -> None:
            """Number object ``i``'s rules, ``find`` numbering each successor."""
            nonlocal complete
            rules = rules_of[i]
            if not rules:
                succs.append(())
                return
            numbered, flat = [], []
            for _, rhs, aggregator, _, whole in rules:
                key = id(aggregator), len(rhs)
                fn = forms.get(key)
                if fn is None:
                    fn = forms[key] = _compiled(aggregator, desc, len(rhs))
                succ = tuple(map(find, rhs))
                numbered.append((succ, fn, aggregator))
                flat += succ
                complete = complete and whole
            rules_of[i] = numbered
            succs.append(tuple(dict.fromkeys(flat)) if len(flat) > 1 else succ)

        admit(start)
        ends = [1]
        first = 0  # the first object at the outermost distance
        while len(ends) <= radius and first < ends[-1]:
            distance = len(ends)
            for i in range(first, ends[-1]):
                number(i, admit)
            first = ends[-1]
            ends.append(len(objects))
        for i in range(first, len(objects)):
            number(i, lambda b: index.get(b, -1))
        ends.extend([len(objects)] * (radius + 1 - len(ends)))
        self.ends = ends
        self.scale = self.kernels = None
        if ring:
            self.closed = self.cap_radius is None and all(-1 not in s for s in succs[first:])
            self.enumeration_complete = complete
        if isinstance(desc, RealInf):
            self._scale(max(radius, 1))

    def _scale(self, levels: int) -> None:
        """Switch to integer numerators if the ball is an affine rational
        system: finite ``Fraction`` normal-form weights and constants, and
        aggregators affine in their variables.

        Every value at level j <= ``levels`` is then a multiple of 1/D_j,
        D_j = L^j * d, where L is the lcm of the coefficient denominators and
        d that of the constant and normal-form denominators.  So over the
        fixed denominator D = D_levels, a rule with affine form
        ``sum(c_k * v_k) + b`` maps numerators exactly to
        ``sum(P_k * n_k) // L + B``, with ``P_k = c_k * L`` and ``B = b * D``.
        An object's kernel reads each successor's numerator straight from
        the values (one numbered -1 from the zero slot) and joins its rules
        with ``max``, the join of ``_Numeric``.
        """
        weights = [w for w, rs in zip(self.initial, self.rules) if rs is None]
        if not all(map(_is_fraction, weights)):
            return
        desc = self.semiring
        forms: dict = {}  # (aggregator id, arity) -> affine form
        for rs in self.rules:
            for succ, _, aggregator in rs or ():
                key = id(aggregator), len(succ)
                if key not in forms:
                    form = affine_form(aggregator, desc, len(succ), _is_fraction)
                    if form is None:
                        return
                    forms[key] = form
        coeffs = [c for cs, _ in forms.values() for c in cs]
        consts = [b for _, b in forms.values()] + weights
        L = math.lcm(*(c.denominator for c in coeffs))
        D = L ** levels * math.lcm(*(b.denominator for b in consts))
        # Per form, the argument positions with their nonzero P_k, and B.
        ints = {key: ([(k, c.numerator * (L // c.denominator)) for k, c in enumerate(cs) if c],
                      b.numerator * (D // b.denominator))
                for key, (cs, b) in forms.items()}
        self.kernels = [
            rs and _kernel([(succ, *ints[id(agg), len(succ)]) for succ, _, agg in rs], L)
            for rs in self.rules
        ]
        self.weights, self.scale = self.initial, D
        self.initial = [w.numerator * (D // w.denominator) if rs is None else 0
                        for w, rs in zip(self.initial, self.rules)]

    def out(self, i, v):
        """Object ``i``'s stored value ``v`` as the carrier value: itself,
        unless values are scaled; then a normal form's own weight, a zero as
        the zero first stored, and any other numerator as a ``Fraction``."""
        if self.scale is None:
            return v
        if self.rules[i] is None:
            return self.weights[i]
        return Fraction(v, self.scale) if v else v


def _is_fraction(value) -> bool:
    return type(value) is Fraction


def _kernel(rules, L):
    """An object's kernel on numerators: the ``max`` over its rules
    ``(succ, terms, B)`` of ``sum(P_k * values[succ[k]] for k, P_k in terms)
    // L + B``; see ``_Ball._scale``."""
    kernels = [_rule_kernel([(succ[k], p) for k, p in terms], b, L) for succ, terms, b in rules]
    if len(kernels) == 1:
        return kernels[0]
    return lambda values: max([kernel(values) for kernel in kernels])


def _rule_kernel(terms, b, L):
    """``sum(P * values[s] for s, P in terms) // L + b``."""
    if len(terms) == 1:
        (s, p), = terms
        return lambda values: p * values[s] // L + b
    if len(terms) == 2:
        (s, p), (t, q) = terms
        return lambda values: (p * values[s] + q * values[t]) // L + b
    return lambda values: sum(p * values[s] for s, p in terms) // L + b


def _value(ball, i, values, branch_trunc):
    """Object ``i``'s value from the ``values`` of its successors."""
    if ball.kernels is not None:
        return ball.kernels[i](values)
    rs, join = ball.rules[i], ball.semiring._join
    if len(rs) == 1:
        succ, fn, _ = rs[0]
        return fn([values[s] for s in succ], branch_trunc, None)
    return join([fn([values[s] for s in succ], branch_trunc, None) for succ, fn, _ in rs])


def _recompute(pending, ball, values, branch_trunc) -> list:
    """``(object, value)`` for each object in ``pending`` whose value differs
    from its entry in ``values``."""
    kernels = ball.kernels
    if kernels is not None:
        return [(i, v) for i in pending if (v := kernels[i](values)) != values[i]]
    rules, join = ball.rules, ball.semiring._join
    changed = []
    for i in pending:
        # ``_value``, inlined: this loop runs every level of every sweep.
        rs = rules[i]
        if len(rs) == 1:
            succ, fn, _ = rs[0]
            v = fn([values[s] for s in succ], branch_trunc, None)
        else:
            v = join([fn([values[s] for s in succ], branch_trunc, None) for succ, fn, _ in rs])
        if v != values[i]:
            changed.append((i, v))
    return changed


def _at(levels: list, level: int) -> int:
    """The index of the newest change at or below ``level`` in a history's
    levels, which run newest first."""
    if levels[0] <= level:
        return 0
    return bisect.bisect_left(levels, -level, key=operator.neg)


def _cone(pending: list, ends: list, radius: int) -> list:
    """The objects of the sorted ``pending`` within ``radius`` of the start."""
    return pending[: bisect.bisect_left(pending, ends[min(radius, len(ends) - 1)])]


def _levels(ball: _Ball, branch_trunc: int, depth: int) -> Iterator:
    """Value iteration towards the start's value at ``depth``, one level per step.

    Yields, for level 0..depth, a single list updated in place, indexed like
    ``ball.objects`` plus one last slot holding zero, where successors outside
    the ball point.

    Level j recomputes only the objects with a successor that changed at
    level j-1 (at level 1, every object with rules).  Any other object would
    get its level j-1 value back, so this is exactly the level-by-level
    (Jacobi) iteration.  Level j also skips the objects farther than
    ``depth - j`` from the start: they cannot reach the start's value at
    level ``depth``.  Their entries go stale.
    """
    rules = ball.rules
    ends = ball.ends
    values = ball.initial + [ball.semiring.zero]
    yield values

    # Objects that level 1 recomputes; no later level recomputes others.
    pending = [i for i in range(ends[depth - 1] if depth > 0 else 0) if rules[i]]
    preds: list = [[] for _ in rules]
    for i in pending:
        for s in ball.succs[i]:
            if s >= 0:
                preds[s].append(i)

    for level in range(1, depth + 1):
        pending = _cone(pending, ends, depth - level)
        changed = _recompute(pending, ball, values, branch_trunc)
        for i, v in changed:
            values[i] = v
        yield values
        pending = sorted({p for i, _ in changed for p in preds[i]})


class _Settled:
    """The full level-by-level sweep of a ball, settled component by component.

    The strongly connected components of the ball are solved sinks first.  An
    object outside every cycle is settled from its successors' histories, the
    levels at which a value changes under the sweep and the values it takes
    there: it can only change one level after a successor does, so its value
    is final one level after the last change among its successors (the top
    level ``t``), and comparing its values at ``t`` and ``t - 1`` tells
    whether ``t`` is its last change.  That takes two evaluations.  Only when
    the two agree (an absorbing aggregator, such as a minimum) does it look
    further down, and then only at levels where some successor changed,
    extending the histories it reads on demand, newest first.  A cyclic
    component runs the delta-driven sweep on its own members, with the values
    of the objects it reads below written in level by level.

    The sweep stops at level ``steps``.  ``depth`` is the last level at which
    any object changes; if some object still changes at level ``steps``,
    ``stable`` is false, and ``value`` is the start's value at that level when
    the start's own cyclic component was the one cut, else None.  That
    component comes last and no other reads it, so it sweeps only the start's
    cone plus one ring, and again in full if that cannot tell its stability.
    """

    def __init__(self, ball: _Ball, branch_trunc: int, steps: int):
        desc = ball.semiring
        n = len(ball.rules)
        self.ball = ball
        self.initial = ball.initial
        self.branch_trunc = branch_trunc
        # Scratch values, indexed like ``ball.objects`` plus the zero that
        # successors outside the ball (numbered -1) read.  Each evaluation
        # writes in the successor values it reads.
        self.values = ball.initial + [desc.zero]
        self.succs = ball.succs
        # An object's history, newest first: the levels at which its value
        # changes and the values it takes there, down to level 0 and its
        # initial value.  A history may stop short of level 0; ``cursor``
        # then holds ``(h, v, inexact)``: at every level from ``h`` to the
        # one before the oldest known change the value equals ``v``, which
        # is exactly the value computed at ``h`` unless ``inexact`` lists
        # (successor, value) pairs it was computed from that may differ in
        # type from the successor's own value there.
        self.levels: list = [None] * n + [[0]]
        self.taken: list = [None] * n + [[desc.zero]]
        self.cursor: list = [None] * n
        self.depth = 0
        self.stable = False
        self.value = None

        components = _components(self.succs)
        component_of = [0] * n
        for k, component in enumerate(components):
            for i in component:
                component_of[i] = k
        # Members of a cyclic component keep a history only if a higher
        # component reads them.
        read = [False] * n
        for i, succ in enumerate(self.succs):
            for s in succ:
                if s >= 0 and component_of[s] != component_of[i]:
                    read[s] = True

        for component in components:
            x = component[0]
            if len(component) == 1 and x not in self.succs[x]:
                last = self._acyclic(x)
            else:
                start = component_of[0] == component_of[x]
                last = self._cyclic(component, read, steps, ball.ends if start else None)
                if last is None:
                    last = self._cyclic(component, read, steps)
                if last >= steps and start:
                    self.value = ball.out(0, self.values[0])
            if last >= steps:
                return
            self.depth = max(self.depth, last)
        self.stable = True
        self.value = ball.out(0, self.values[0] if self.levels[0] is None else self.taken[0][0])

    def _evaluate(self, x, level):
        """Object ``x``'s value computed at ``level``, from its successors'
        values at ``level - 1``; their histories must reach that far down."""
        values, levels, taken = self.values, self.levels, self.taken
        for s in self.succs[x]:
            values[s] = taken[s][_at(levels[s], level - 1)]
        return _value(self.ball, x, values, self.branch_trunc)

    def _acyclic(self, x) -> int:
        """Settle an object on no cycle; return its last change level."""
        initial = self.initial[x]
        if not self.ball.rules[x]:
            self.levels[x], self.taken[x] = [0], [initial]
            return 0
        values, levels, taken = self.values, self.levels, self.taken
        succ = self.succs[x]
        top = 1
        for s in succ:
            values[s] = taken[s][0]
            if levels[s][0] >= top:
                top = levels[s][0] + 1
        v = _value(self.ball, x, values, self.branch_trunc)
        if top == 1:
            levels[x], taken[x] = ([1, 0], [v, initial]) if v != initial else ([0], [initial])
            return levels[x][0]
        inexact: tuple = ()
        for s in succ:
            if levels[s][0] == top - 1:
                if len(levels[s]) > 1:
                    values[s] = taken[s][1]
                else:
                    values[s] = self.cursor[s][1]
                    inexact += ((s, values[s]),)
        below = _value(self.ball, x, values, self.branch_trunc)
        self.cursor[x] = (top - 1, below, inexact)
        if v != below:
            levels[x], taken[x] = [top], [v]
        else:
            levels[x], taken[x] = [], []
            self._extend(x, top)
        return levels[x][0]

    def _extend(self, x, level) -> None:
        """Extend ``x``'s history down to a change at or below ``level``."""
        levels = self.levels
        stack = [(x, level)]
        while stack:
            y, level = stack[-1]
            if levels[y] and levels[y][-1] <= level:
                stack.pop()
            else:
                stack.extend(self._step(y))

    def _step(self, x) -> list:
        """Move ``x``'s cursor down one run of equal successor values.

        Returns the (successor, level) histories that must be extended first,
        or an empty list once the cursor has moved."""
        levels, taken = self.levels, self.taken
        h, v, inexact = self.cursor[x]
        succ = self.succs[x]
        # The successor values read at h last changed at level q, so x reads
        # the same values at every level from q + 1 to h.
        q = 0
        for s in succ:
            lv = levels[s]
            if lv[-1] > h - 1:
                return [(s, h - 1) for s in succ if levels[s][-1] > h - 1]
            q = max(q, lv[_at(lv, h - 1)])
        if q == 0:
            if v != self.initial[x]:
                levels[x].append(1)
                taken[x].append(self._exact(x, h, v, inexact))
            levels[x].append(0)
            taken[x].append(self.initial[x])
            self.cursor[x] = None
            return []
        missing = [(s, q - 1) for s in succ if levels[s][-1] > q - 1]
        if missing:
            return missing
        w = self._evaluate(x, q)
        if w != v:
            levels[x].append(q + 1)
            taken[x].append(self._exact(x, h, v, inexact))
        self.cursor[x] = (q, w, ())
        return []

    def _exact(self, x, h, v, inexact):
        """The value computed at ``h``, given ``v`` computed from possibly
        inexact inputs: recomputed only if an input was not the exact one."""
        levels, taken = self.levels, self.taken
        if all(taken[s][_at(levels[s], h - 1)] is u for s, u in inexact):
            return v
        return self._evaluate(x, h)

    def _cyclic(self, component, read, steps, ends=None) -> Optional[int]:
        """Run the sweep on one cyclic component; return its last change
        level, at most ``steps``.

        Given the ball's ``ends`` (for the start's component, which no other
        component reads), level j recomputes only the members within
        ``steps - j + 1`` of the start, so the start and its successors keep
        their exact values.  If that left out a member and nothing changed at
        level ``steps``, the stability of the rest is unknown: return None.
        """
        values, levels, taken = self.values, self.levels, self.taken
        members = sorted(component)
        inside = set(component)
        preds: dict = {m: [] for m in members}
        readers: dict = {}
        for m in members:
            values[m] = self.initial[m]
            for s in self.succs[m]:
                (preds[s] if s in inside else readers.setdefault(s, [])).append(m)
        # The changes of the objects read below, latest first.
        inputs = []
        for s in readers:
            self._extend(s, 0)
            values[s] = taken[s][-1]
            inputs.extend(zip(levels[s][:-1], itertools.repeat(s), taken[s][:-1]))
        inputs.sort(key=lambda change: change[0], reverse=True)
        history = {m: ([], []) for m in members if read[m]}

        last, level, pending, pruned = 0, 1, members, False
        while True:
            if ends is not None:
                cone = _cone(pending, ends, steps - level + 1)
                pruned = pruned or len(cone) < len(pending)
                pending = cone
            changed = _recompute(pending, self.ball, values, self.branch_trunc)
            for i, u in changed:
                values[i] = u
                if i in history:
                    history[i][0].append(level)
                    history[i][1].append(u)
            marked = {p for i, _ in changed for p in preds[i]}
            if changed:
                last = level
            if level >= steps:
                break
            if not marked and inputs:
                level = inputs[-1][0]  # nothing moves before the next input does
            while inputs and inputs[-1][0] == level:
                _, s, u = inputs.pop()
                values[s] = u
                marked.update(readers[s])
            if not marked:
                break
            pending = sorted(marked)
            level += 1
        for m, (lv, vs) in history.items():
            levels[m] = lv[::-1] + [0]
            taken[m] = vs[::-1] + [self.initial[m]]
        return None if pruned and last < steps else last


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
        ball = _Ball(sys, a, depth, rule_budget, visit_cap, ring=False)
        self.values = [ball.out(0, values[0]) for values in _levels(ball, branch_trunc, depth)]
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
    ball = _Ball(sys, a, max_depth, rule_budget, visit_cap, ring=False)
    for values in _levels(ball, branch_trunc, max_depth):
        yield ball.out(0, values[0])


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
    lower bound at the explored depth.  The explored depth is the last level
    at which the level-by-level iteration of the whole explored set changes
    any value, or ``max_depth`` if some value still changes there.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    ball = _Ball(sys, a, max_depth, rule_budget, visit_cap)
    # The extra level that can show stability is within the step budget,
    # except at max_depth 0, which still gets one level to compare.
    settled = _Settled(ball, branch_trunc, max(max_depth, 1))
    if settled.stable:
        value, depth_explored = settled.value, settled.depth
    else:
        depth_explored = max_depth
        if settled.value is not None and max_depth > 0:
            value = settled.value
        else:
            for values in _levels(ball, branch_trunc, max_depth):
                value = ball.out(0, values[0])

    certified = settled.stable and ball.closed and ball.enumeration_complete
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
    trees = _enumerate(
        sys, a, depth, rule_budget, count_cap,
        ReductionTree, lambda obj, rule: functools.partial(ReductionTree, obj, rule.tag),
    )
    return iter(trees)


def enumerate_tree_weights(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = 8,
    count_cap: int = 200_000,
    branch_trunc: int = DEFAULT_BRANCH_TRUNC,
) -> list:
    """The weight of each tree of ``enumerate_trees``, in its order.

    Equal to ``tree_weight(sys, t, branch_trunc)`` for each ``t`` of
    ``enumerate_trees(sys, a, depth, rule_budget, count_cap)``, but no tree is
    built: a tree that stops at an object weighs its normal-form weight or
    zero, and a rule applies its compiled aggregator to its children's
    weights.  Weights are neither deduplicated nor joined.  The trees are
    counted first, so ``CountCapExceeded`` comes before any aggregator runs.
    """
    desc = sys.semiring

    def leaf(obj):
        if not sys.is_normal_form(obj):
            return desc.zero
        weight = sys._nf_weight(obj)
        desc.require(weight)
        return weight

    def node(obj, rule):
        fn = _compiled(rule.aggregator, desc, len(rule.rhs))
        return lambda args: fn(args, branch_trunc, None)

    return _enumerate(sys, a, depth, rule_budget, count_cap, leaf, node)


def _enumerate(sys, a, depth, rule_budget, count_cap, leaf, node) -> list:
    """One output per reduction tree rooted at ``a`` of depth at most
    ``depth``, in enumeration order: ``leaf(obj)`` for the tree that stops at
    ``obj``, and ``node(obj, rule)(combo)`` for ``rule`` applied at ``obj`` to
    a combination of its children's outputs.

    Every tree is counted before any output is made, so more than
    ``count_cap`` trees raise ``CountCapExceeded`` before the builders run.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # (object, (rule, child positions) of its rules) and the tree count of
    # each finished frame, each after those of its children.
    done: list = []
    counts: list = []
    # (object, depth) -> position of its finished frame.
    position: dict = {}
    built = 0

    def frame(obj, d) -> list:
        # [object, depth, its rules, next rule, the next rule's child
        # positions so far, (rule, child positions) of the rules done, trees
        # counted so far]
        rules = sys.successors(obj, rule_budget)[0] if d > 0 else []
        return [obj, d, rules, 0, [], [], 1]

    # Depth first with an explicit stack: each rule's children are counted,
    # in order, before that rule's trees are.
    stack = [frame(a, depth)]
    while stack:
        top = stack[-1]
        obj, d, rules, i, children, applied, count = top
        if i < len(rules):
            rhs = rules[i].rhs
            if len(children) < len(rhs):
                key = (rhs[len(children)], d - 1)
                if key in position:
                    children.append(position[key])
                else:
                    stack.append(frame(*key))
                continue
            combos = math.prod(map(counts.__getitem__, children))
            built += combos
            if built > count_cap:
                raise CountCapExceeded(f"more than {count_cap} trees at depth {depth}")
            applied.append((rules[i], children))
            top[3], top[4], top[6] = i + 1, [], count + combos
            continue
        position[obj, d] = len(done)
        done.append((obj, applied))
        counts.append(count)
        stack.pop()

    outputs: list = []
    for obj, applied in done:
        out = [leaf(obj)]
        for rule, children in applied:
            combos = itertools.product(*map(outputs.__getitem__, children))
            out.extend(map(node(obj, rule), combos))
        outputs.append(out)
    return outputs[-1]
