"""Weight evaluation: reduction trees, monotone value iteration, fixpoints.

The weight of an object is the supremum of the weights of all finite-depth
reduction trees rooted at it.  The value iteration below computes, per depth,
a weight in which unexplored successors count as the semiring minimum, so
every budget cut only lowers it.  It can exceed that supremum where the join
is not selective and an aggregator reads a variable twice: ``v1 * v1`` over
languages multiplies the weights of different trees.  A value is reported as
stabilized only when the visited object set is closed under successors,
every enumeration was complete, and one more iteration changes nothing.
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

from .aggregator import DEFAULT_TRUNCATION, _compiled, _cut, affine_form
from .semiring import RealInf
from .system import DEFAULT_RULE_BUDGET, SystemHandle, _components

LOWER_BOUND = "lower_bound"
STABILIZED = "stabilized"

DEFAULT_BRANCH_TRUNC = DEFAULT_TRUNCATION
DEFAULT_VISIT_CAP = 100_000
DEFAULT_COUNT_CAP = 200_000


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
    ``branch_trunc`` must be at least 1.
    """
    if branch_trunc < 1:
        raise ValueError("branch_trunc must be >= 1")
    return _weigher(sys, branch_trunc)(tree)


def _weigher(sys: SystemHandle, branch_trunc: int):
    """``tree_weight`` over tables kept across the trees it is handed: the
    weight per node id, whether a label is a normal form and the rule per
    (label, tag).  So a tree that holds an earlier one weighs only its new
    nodes.  It keeps every tree, so no id is reused while the tables live."""
    desc, memo, normal, found, held = sys.semiring, {}, {}, {}, []

    def weigh(tree: ReductionTree):
        held.append(tree)
        # Entries are (node, None) before its children, (node, its rule)
        # after them.
        stack = [(tree, None)]
        while stack:
            node, rule = stack.pop()
            if rule is not None:
                args = [memo[id(c)] for c in node.children]
                memo[id(node)] = _compiled(rule.aggregator, desc, len(args), branch_trunc)(args)
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

    return weigh


class _Ball:
    """The objects reachable from some starts within a radius and budgets.

    Objects are numbered in the order admitted: the starts, in order and at
    distance 0, then breadth first, so the objects within distance ``r`` of
    the starts are ``objects[:ends[r]]``; one pass numbers each successor as
    it is admitted, and the rules of the last distance after it, admitting
    nothing.  Per object, ``rules`` holds ``None`` for a normal form, else its
    rules as (successor numbers, compiled aggregator, form cut at
    ``truncation`` terms); a successor outside the ball is numbered -1.
    ``succs`` holds each object's distinct successor numbers, in order.
    Each (aggregator, arity) is looked up once per ball.  The ball knows if
    it is ``closed`` (no rule leads outside it) and if no rule list,
    successor sequence or form was cut short (``enumeration_complete``).

    An affine rational ball stores every value as an integer numerator over
    one denominator ``scale``, and ``kernels`` holds, per object with rules,
    one function from the values to its numerator, bound by its forms'
    makers; a value leaves the core through ``out``.
    """

    def __init__(self, sys, starts, radius, rule_budget, truncation, visit_cap):
        if visit_cap < 1:
            raise ValueError("visit_cap must be >= 1")
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
        forms: dict = {}  # (aggregator id, arity) -> compiled form, cut form, cut short
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
            rules, done = sys._rows(obj, rule_budget)
            complete = complete and done
            if not rules:
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
                if key not in forms:
                    forms[key] = (_compiled(aggregator, desc, len(rhs), truncation),
                                  *_cut(aggregator, desc, len(rhs), truncation))
                fn, form, short = forms[key]
                succ = tuple(map(find, rhs))
                numbered.append((succ, fn, form))
                flat += succ
                complete = complete and whole and not short
            rules_of[i] = numbered
            succs.append(tuple(dict.fromkeys(flat)) if len(flat) > 1 else succ)

        for start in starts:
            admit(start)
        ends = [len(objects)]
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
        Each (aggregator, arity) gets one maker, which binds a rule's
        successors at its nonzero P_k to a kernel whose body is generated
        once per shape; the kernel reads each numerator straight from the
        values (one numbered -1 from the zero slot).  An object's kernel
        joins its rules' with ``max``, the join of ``_Numeric``.
        """
        weights = [w for w, rs in zip(self.initial, self.rules) if rs is None]
        if not all(map(_is_fraction, weights)):
            return
        desc = self.semiring
        forms: dict = {}  # (aggregator id, arity) -> affine form
        for rs in self.rules:
            for succ, _, cut in rs or ():
                key = id(cut), len(succ)
                if key not in forms:
                    form = affine_form(cut, desc, len(succ), _is_fraction)
                    if form is None:
                        return
                    forms[key] = form
        coeffs = [c for cs, _ in forms.values() for c in cs]
        consts = [b for _, b in forms.values()] + weights
        L = math.lcm(*(c.denominator for c in coeffs))
        D = L ** levels * math.lcm(*(b.denominator for b in consts))
        makers = {key: _maker([c.numerator * (L // c.denominator) for c in cs],
                              b.numerator * (D // b.denominator), L)
                  for key, (cs, b) in forms.items()}
        self.kernels = [
            rs and _join([makers[id(cut), len(succ)](succ) for succ, _, cut in rs])
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


def _maker(ps, b, L):
    """The maker ``succ -> (values -> sum(P_k * values[succ[k]] for P_k in
    ps if P_k) // L + b)`` of one affine form's kernels; see ``_Ball._scale``."""
    ks = [k for k, p in enumerate(ps) if p]
    return _shaped(tuple(ps[k] == 1 for k in ks), L != 1, b != 0)(ks, L, b, *[ps[k] for k in ks])


_FORM = """\
def form(ks, L, B, {ps}):
    def make(succ):
        [{ss}] = [succ[k] for k in ks]
        def kernel(values):
            return {body}
        return kernel
    return make
"""


@functools.cache
def _shaped(units: tuple, scaled: bool, offset: bool):
    """The maker factory ``form(ks, L, B, *P)`` of one shape of affine form:
    which nonzero P_k are 1, whether L is not 1 and B is not 0.  A unit
    costs no multiply, L = 1 no ``//`` and B = 0 no ``+``."""
    terms = [f"values[s{k}]" if unit else f"p{k} * values[s{k}]" for k, unit in enumerate(units)]
    body = " + ".join(terms) or "0"
    if scaled and terms:
        body = f"({body}) // L"
    if offset:
        body += " + B"
    namespace: dict = {}
    exec(_FORM.format(ps="".join(f"p{k}, " for k in range(len(units))),
                      ss="".join(f"s{k}, " for k in range(len(units))), body=body), namespace)
    return namespace["form"]


def _join(kernels):
    """An object's kernel: the ``max`` of its rules', the join of ``_Numeric``."""
    return kernels[0] if len(kernels) == 1 else lambda values: max([k(values) for k in kernels])


def _value(ball, i, values):
    """Object ``i``'s value from the ``values`` of its successors."""
    if ball.kernels is not None:
        return ball.kernels[i](values)
    rs, join = ball.rules[i], ball.semiring._join
    if len(rs) == 1:
        succ, fn, _ = rs[0]
        return fn([values[s] for s in succ])
    return join([fn([values[s] for s in succ]) for succ, fn, _ in rs])


def _recompute(pending, ball, values) -> list:
    """``(object, value)`` for each object in ``pending`` whose value differs
    from its entry in ``values``."""
    kernels = ball.kernels
    if kernels is not None:
        return [(i, v) for i in pending if (v := kernels[i](values)) != values[i]]
    return [(i, v) for i in pending if (v := _value(ball, i, values)) != values[i]]


def _at(levels: list, level: int) -> int:
    """The index of the newest change at or below ``level`` in a history's
    levels, which run newest first."""
    if levels[0] <= level:
        return 0
    return bisect.bisect_left(levels, -level, key=operator.neg)


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

    No object is evaluated above level ``steps``, and every component is
    settled even after one is still changing there: a value at a level up to
    ``steps`` never depends on any value above it, so those values are exact
    everywhere.  ``stable`` tells whether every object has
    stopped changing below ``steps``; then ``depth`` is the last level at
    which any object changes, and otherwise it is ``steps`` or more.
    ``certified`` adds that the ball is closed and its enumeration complete.
    ``value(i, level)`` reads start ``i``'s value at a level up to ``steps``
    from its history.  If cyclic, the component of object 0 sweeps only the
    starts' cone plus one ring, and again in full if that cannot tell its
    stability; no other component reads it unless every object is a start,
    and then the cone is the whole ball.  After a level that changed every
    member it could recompute, all members are pending, with no set built.
    """

    def __init__(self, ball: _Ball, steps: int):
        desc = ball.semiring
        n = len(ball.rules)
        self.ball = ball
        self.initial = ball.initial
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

        components = _components(self.succs)
        component_of = [0] * n
        for k, component in enumerate(components):
            for i in component:
                component_of[i] = k
        # Members of a cyclic component keep a history only if a higher
        # component reads them, or if they are starts.
        read = [i < ball.ends[0] for i in range(n)]
        for i, succ in enumerate(self.succs):
            for s in succ:
                if s >= 0 and component_of[s] != component_of[i]:
                    read[s] = True

        for component in components:
            x = component[0]
            if len(component) == 1 and x not in self.succs[x]:
                last = self._acyclic(x, steps)
            else:
                start = component_of[0] == component_of[x]
                last = self._cyclic(component, read, steps, ball.ends if start else None)
                if last is None:
                    last = self._cyclic(component, read, steps)
            self.depth = max(self.depth, last)
        self.stable = self.depth < steps
        self.certified = self.stable and ball.closed and ball.enumeration_complete

    def value(self, i, level):
        """Start ``i``'s value at ``level``, which is at most ``steps``."""
        self._extend(i, level)
        return self.ball.out(i, self.taken[i][_at(self.levels[i], level)])

    def _evaluate(self, x, level):
        """Object ``x``'s value computed at ``level``, from its successors'
        values at ``level - 1``; their histories must reach that far down."""
        values, levels, taken = self.values, self.levels, self.taken
        for s in self.succs[x]:
            values[s] = taken[s][_at(levels[s], level - 1)]
        return _value(self.ball, x, values)

    def _acyclic(self, x, steps) -> int:
        """Settle an object on no cycle; return its last change level."""
        initial = self.initial[x]
        if not (steps and self.ball.rules[x]):
            self.levels[x], self.taken[x] = [0], [initial]
            return 0
        values, levels, taken = self.values, self.levels, self.taken
        succ = self.succs[x]
        top = 1
        for s in succ:
            values[s] = taken[s][0]
            if levels[s][0] >= top:
                top = levels[s][0] + 1
        # Levels above steps are never read, and a change at steps is unstable.
        v = _value(self.ball, x, values) if top <= steps else None
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
        below = _value(self.ball, x, values)
        self.cursor[x] = (top - 1, below, inexact)
        if v is not None and v != below:
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

        Level j + 1 recomputes the members that read a change at level j.
        After a dense level, which changed all it could recompute, those are
        all members, cut as usual: each reads a member, and the next cone
        reads only this one.  So it builds no set if there is no cone or it
        has cut, where ``pruned`` comes out as the set would set it.
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
        while level <= steps:
            reach = len(members)  # how many members this level can recompute
            if ends is not None:
                bound = ends[min(steps - level + 1, len(ends) - 1)]
                cone = pending[: bisect.bisect_left(pending, bound)]
                pruned = pruned or len(cone) < len(pending)
                pending, reach = cone, bisect.bisect_left(members, bound)
            changed = _recompute(pending, self.ball, values)
            for i, u in changed:
                values[i] = u
                if i in history:
                    history[i][0].append(level)
                    history[i][1].append(u)
            if changed:
                last = level
            dense = len(changed) == reach and (pruned or ends is None)
            marked = set() if dense else {p for i, _ in changed for p in preds[i]}
            if not (dense or marked) and inputs:
                level = inputs[-1][0]  # nothing moves before the next input does
            if level >= steps:
                break
            while inputs and inputs[-1][0] == level:
                _, s, u = inputs.pop()
                values[s] = u
                marked.update(readers[s])
            if not (dense or marked):
                break
            pending = members if dense else sorted(marked)
            level += 1
        for m, (lv, vs) in history.items():
            levels[m] = lv[::-1] + [0]
            taken[m] = vs[::-1] + [self.initial[m]]
        return None if pruned and last < steps else last


def _settle(sys, starts, radius, steps, rule_budget, branch_trunc, visit_cap) -> _Settled:
    """The ball of ``radius`` around ``starts``, settled to ``steps`` levels,
    none above them evaluated."""
    if branch_trunc < 1:
        raise ValueError("branch_trunc must be >= 1")
    ball = _Ball(sys, starts, radius, rule_budget, branch_trunc, visit_cap)
    return _Settled(ball, steps)


def _budgets(rule_budget: int, branch_trunc: int, visit_cap: int) -> dict:
    return {"rule_budget": rule_budget, "branch_trunc": branch_trunc, "visit_cap": visit_cap}


class DepthProfile:
    """The lower bounds at ``a`` for every level 0..depth, from one exploration.

    It settles the ball ``evaluate_to_fixpoint`` explores, ``a`` its one start,
    to ``depth`` levels, and reads a level's value from ``a``'s history when
    asked.  ``bound(level)`` returns the bound at that depth, or raises
    ``VisitCapExceeded`` with it when the visit cap cut the ball within
    ``level`` of ``a``; a level outside 0..depth raises ``ValueError``.  The
    value, the visited count and whether the cap was hit agree with a ball of
    radius ``level``.
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
        self._settled = _settle(sys, [a], depth, depth, rule_budget, branch_trunc, visit_cap)
        self._depth = depth
        self.budgets = _budgets(rule_budget, branch_trunc, visit_cap)

    def bound(self, level: int) -> WeightBound:
        if not 0 <= level <= self._depth:
            raise ValueError(f"level must be in 0..{self._depth}, got {level}")
        ball = self._settled.ball
        bound = WeightBound(
            value=self._settled.value(0, level),
            status=LOWER_BOUND,
            depth_explored=level,
            budgets=dict(self.budgets),
            visited=ball.ends[level],
        )
        if ball.cap_radius is not None and level >= ball.cap_radius:
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
    Short for ``DepthProfile(...).bound(depth)``.
    """
    return DepthProfile(sys, a, depth, rule_budget, branch_trunc, visit_cap).bound(depth)


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
    no rule list, successor sequence or countable sum (at ``branch_trunc``
    terms) was cut short, and an extra iteration reproduces the same values
    everywhere; otherwise it is a plain lower bound at the explored depth.
    The explored depth is the last level at which the level-by-level
    iteration of the whole explored set changes any value, or ``max_depth``
    if some value still changes there, and the value is the start's at that
    level, read from its one settle, as a ``DepthProfile`` reads its levels;
    ``branch_trunc`` must be at least 1.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    settled = _settle(sys, [a], max_depth, max(max_depth, 1), rule_budget, branch_trunc, visit_cap)
    depth_explored = settled.depth if settled.stable else max_depth
    bound = WeightBound(
        value=settled.value(0, depth_explored),
        status=STABILIZED if settled.certified else LOWER_BOUND,
        depth_explored=depth_explored,
        budgets=_budgets(rule_budget, branch_trunc, visit_cap),
        visited=len(settled.ball.objects),
    )
    if settled.ball.cap_radius is not None:
        raise VisitCapExceeded(bound)
    return bound


def enumerate_trees(
    sys: SystemHandle,
    a,
    depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    count_cap: int = DEFAULT_COUNT_CAP,
) -> Iterator[ReductionTree]:
    """Every reduction tree rooted at ``a`` of depth at most ``depth``.

    Includes trees that stop early at non-normal-form leaves.  Exponential;
    meant as an oracle for small systems, guarded by ``count_cap``.
    """
    return next(_enumerate(sys, [(a, depth)], rule_budget, count_cap, ReductionTree,
                           lambda obj, row: functools.partial(ReductionTree, obj, row[3]), iter))


def _tree_weights(sys, roots, rule_budget, count_cap, finish):
    """``_enumerate`` weighing trees: a stop weighs its normal-form weight or
    zero, a rule applies its compiled aggregator, at the default truncation,
    to its children's weights.
    A key keeps each distinct weight once, so ``finish`` sees the first of
    each (type, value) of its trees' weights, in order: enough for a caller
    that only joins them."""
    desc = sys.semiring

    def leaf(obj):
        if not sys.is_normal_form(obj):
            return desc.zero
        weight = sys._nf_weight(obj)
        desc.require(weight)
        return weight

    def node(obj, row):
        return _compiled(row[2], desc, len(row[1]), DEFAULT_BRANCH_TRUNC)

    return _enumerate(sys, roots, rule_budget, count_cap, leaf, node, finish, True)


def _enumerate(sys, roots, rule_budget, count_cap, leaf, node, finish, distinct=False) -> Iterator:
    """For each (object, depth) of ``roots`` in turn, ``finish`` of its
    trees' outputs in enumeration order: ``leaf(obj)`` for the tree that
    stops at ``obj``, then per rule (a row) ``node(obj, row)`` mapped over
    ``itertools.product`` of its children's outputs.

    A key (object, remaining depth) takes its outputs from the keys one level
    down, so they are built a level at a time, each key once, holding at most
    two levels; a root is finished when its level is done.  Each object's
    rows, ``leaf`` and ``node`` per row are read once.  The keys are found
    top down and their trees counted bottom up, as integers capped just
    above ``count_cap``.  Past it in all, each root sums the trees applying a
    rule in its keys and, if that passes ``count_cap``, raises
    ``CountCapExceeded`` in its turn; what only it and later roots reach is
    never built.  A lone root stops looking once more of its keys than that
    apply a rule.  A key whose build raises keeps the exception, and a key
    above takes its first child's: a root raises it in its turn, as a
    depth-first build, children first, would.  With ``distinct``, a key keeps
    the first output of each (type, value), in order; tree counts stay.  A
    ``finish`` that joins sees no change: joins are idempotent and pick the
    first of equal values, and ``node`` depends on types and values, so a
    dropped output or error repeats an earlier one.
    """
    rows: dict = {}  # object -> its rows, read once
    top = max(depth for _, depth in roots) + 1
    counts: list = [{} for _ in range(top)]  # per remaining depth: object -> its key's trees
    for a, depth in roots:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        counts[depth][a] = None
    cap, failed, ruled = max(count_cap, 0), len(roots), 0
    for j in range(top - 1, 0, -1):
        level = counts[j]
        rows.update((b, sys._rows(b, rule_budget)[0]) for b in level if b not in rows)
        ruled += sum(1 for b in level if rows[b])  # keys applying a rule, each to a tree
        if ruled > cap and len(roots) == 1:
            failed = 0
            break
        counts[j - 1].update(dict.fromkeys(c for b in level for row in rows[b] for c in row[1]))
    needed = counts
    if failed:
        counts[0] = dict.fromkeys(counts[0], 1)
        for j in range(1, top):
            below, level = counts[j - 1], counts[j]
            for b in level:
                level[b] = min(cap + 2, 1 + sum(math.prod(map(below.__getitem__, row[1])) for row in rows[b]))
        if sum(sum(level.values()) - len(level) for level in counts) > cap:
            needed = [{} for _ in range(top)]
            for r, (a, depth) in enumerate(roots):
                reach = [(a,)]  # the distinct objects k rule steps from a, per k
                for _ in range(depth):
                    reach.append(tuple(dict.fromkeys(c for b in reach[-1] for row in rows[b] for c in row[1])))
                if sum(counts[depth - k][b] - 1 for k, fr in enumerate(reach) for b in fr) > cap:
                    failed = r
                    break
                for k, fr in enumerate(reach):
                    needed[depth - k].update(dict.fromkeys(fr))

    keys = set(roots[:failed])
    leaves, fns, finished, outputs = {}, {}, {}, {}
    errors: dict = {}  # key -> the exception its build raised
    built = 0  # levels built
    for r, (a, depth) in enumerate(roots):
        if r == failed:
            raise CountCapExceeded(f"more than {count_cap} trees at depth {depth}")
        while built <= depth:
            below, outputs = outputs, {}
            for b in needed[built]:
                rules = rows[b] if built else ()
                failed_below = next((errors[c, built - 1] for row in rules for c in row[1]
                                     if (c, built - 1) in errors), None) if errors else None
                if failed_below is not None:
                    errors[b, built] = failed_below
                    continue
                try:
                    out = [leaves[b] if b in leaves else leaves.setdefault(b, leaf(b))]
                    for row in rules:
                        fn = fns[id(row)] if id(row) in fns else fns.setdefault(id(row), node(b, row))
                        out.extend(map(fn, itertools.product(*map(below.__getitem__, row[1]))))
                except Exception as exc:  # kept, and raised unchanged at its root's turn
                    errors[b, built] = exc
                    continue
                if distinct:
                    typed: dict = {}
                    for v in out:
                        typed.setdefault((type(v), v), v)
                    out = list(typed.values())
                outputs[b] = out
                if (b, built) in keys:
                    finished[b, built] = finish(out)
            built += 1
        if (a, depth) in errors:
            raise errors[a, depth]
        yield finished[a, depth]
