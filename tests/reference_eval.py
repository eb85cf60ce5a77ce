"""Deliberately naive references for the fast paths of the library.

``reference_evaluate`` is the reference for compiled aggregator evaluation.
It re-walks the expression on every call and uses only the checked public
carrier operations.  The checks run in the order the library promises:
truncation, the expression's constants, the arguments, the arity, then the
evaluation itself, where a countable-sum term has its constants checked just
before its first use.

``reference_weight_lower_bound`` and its siblings are the references for the
evaluator's level core.  Each call explores the whole ball around its start
from scratch and recomputes every explored object at every level.

``reference_tree_weight`` is the reference for ``tree_weights``.  It recurses
over one tree and checks and weighs every node it meets, shared or not.
"""

from __future__ import annotations

from wars.aggregator import (
    ArityError,
    Const,
    CountableSum,
    ProdNode,
    SumNode,
    Var,
    _compiled,
    max_var,
)
from wars.evaluator import (
    LOWER_BOUND,
    STABILIZED,
    StructuralTreeError,
    VisitCapExceeded,
    WeightBound,
)
from wars.semiring import INF


def reference_evaluate(expr, desc, args, truncation: int = 64):
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    _check_constants(expr, desc)
    for v in args:
        desc.require(v)
    mv = max_var(expr)
    if mv is not INF and mv > len(args) and not isinstance(expr, CountableSum):
        raise ArityError(_arity_message(mv, args))
    return _value(expr, desc, args, truncation)


def _arity_message(index, args) -> str:
    return f"aggregator mentions v{index} but only {len(args)} arguments were supplied"


def _check_constants(expr, desc) -> None:
    if isinstance(expr, Const):
        desc.require(expr.value)
    elif isinstance(expr, SumNode):
        for e in expr.terms:
            _check_constants(e, desc)
    elif isinstance(expr, ProdNode):
        for e in expr.factors:
            _check_constants(e, desc)


def _value(expr, desc, args, truncation):
    if isinstance(expr, Const):
        return expr.value, True
    if isinstance(expr, Var):
        if expr.index > len(args):
            raise ArityError(_arity_message(expr.index, args))
        return args[expr.index - 1], True
    if isinstance(expr, (SumNode, ProdNode)):
        op = desc.plus if isinstance(expr, SumNode) else desc.times
        children = expr.terms if isinstance(expr, SumNode) else expr.factors
        acc, exact = _value(children[0], desc, args, truncation)
        for child in children[1:]:
            v, e = _value(child, desc, args, truncation)
            acc = op(acc, v)
            exact = exact and e
        return acc, exact
    if isinstance(expr, CountableSum):
        acc, clean = desc.zero, True
        for i in range(truncation):
            term = expr.term(i)
            if term is None:
                return acc, clean
            mv = max_var(term)
            if mv is not INF and mv > len(args):
                clean = False
                continue
            _check_constants(term, desc)
            v, e = _value(term, desc, args, truncation)
            acc = desc.plus(acc, v)
            clean = clean and e
            if acc == desc.top:
                return acc, True
        return acc, False
    raise TypeError(f"not an aggregator expression: {expr!r}")


# --------------------------------------------------------------------------
# Weight evaluation: the full level-by-level (Jacobi) sweep.


class _Exploration:
    """The object ball reachable from a start within a depth radius and budgets."""

    def __init__(self, sys, start, depth, rule_budget, visit_cap):
        if visit_cap < 1:
            raise ValueError("visit_cap must be >= 1")
        self.sys = sys
        desc = sys.semiring
        self.objects: list = []
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
            value = vals[0] if len(vals) == 1 else desc._join(vals)
            # An equal value does not replace the stored one, so of two equal
            # values of different types an object keeps the older.
            cur[a] = prev[a] if value == prev[a] else value
        return cur

    def initial(self) -> dict:
        zero = self.sys.semiring.zero
        return {a: self.nf.get(a, zero) for a in self.objects}


def _iterate(exploration: _Exploration, depth: int, branch_trunc: int) -> list:
    levels = [exploration.initial()]
    for _ in range(depth):
        levels.append(exploration.step(levels[-1], branch_trunc))
    return levels


def _budgets(rule_budget, branch_trunc, visit_cap) -> dict:
    return {"rule_budget": rule_budget, "branch_trunc": branch_trunc, "visit_cap": visit_cap}


def reference_weight_lower_bound(
    sys, a, depth, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ex = _Exploration(sys, a, depth, rule_budget, visit_cap)
    levels = _iterate(ex, depth, branch_trunc)
    bound = WeightBound(
        levels[-1][a],
        LOWER_BOUND,
        depth,
        _budgets(rule_budget, branch_trunc, visit_cap),
        len(ex.objects),
    )
    if ex.cap_hit:
        raise VisitCapExceeded(bound)
    return bound


def reference_weight_profile(
    sys, a, depth, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    ex = _Exploration(sys, a, depth, rule_budget, visit_cap)
    levels = _iterate(ex, depth, branch_trunc)
    if ex.cap_hit:
        raise VisitCapExceeded(
            WeightBound(levels[-1][a], LOWER_BOUND, depth, visited=len(ex.objects))
        )
    return [lvl[a] for lvl in levels]


def reference_iterate_lower_bounds(
    sys, a, max_depth, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    ex = _Exploration(sys, a, max_depth, rule_budget, visit_cap)
    current = ex.initial()
    yield current[a]
    for _ in range(max_depth):
        current = ex.step(current, branch_trunc)
        yield current[a]


def reference_evaluate_to_fixpoint(
    sys, a, max_depth=256, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    ex = _Exploration(sys, a, max_depth, rule_budget, visit_cap)
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
        current[a],
        STABILIZED if certified else LOWER_BOUND,
        depth_explored,
        _budgets(rule_budget, branch_trunc, visit_cap),
        len(ex.objects),
    )
    if ex.cap_hit:
        raise VisitCapExceeded(bound)
    return bound


class ReferenceProfile:
    """Stands in for ``DepthProfile``: every ``bound(level)`` is a separate,
    full ``reference_weight_lower_bound`` run, so a command that uses it
    explores and iterates every depth on its own."""

    def __init__(self, sys, a, depth, rule_budget=64, branch_trunc=64, visit_cap=100_000):
        self._args = (sys, a)
        self._budgets = (rule_budget, branch_trunc, visit_cap)

    def bound(self, level):
        return reference_weight_lower_bound(*self._args, level, *self._budgets)


# --------------------------------------------------------------------------
# Tree weighing: one recursive call per node, nothing shared.


def reference_tree_weight(sys, tree, branch_trunc=64):
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
    args = [reference_tree_weight(sys, c, branch_trunc) for c in tree.children]
    return _compiled(rule.aggregator, desc, len(args))(args, branch_trunc, None)
