"""Deliberately naive references for the fast paths of the library.

``reference_evaluate`` is the reference for compiled aggregator evaluation.
It reads the expression as its finite form (``reference_cut``, built from
the generated terms), re-walks that form on every call and uses only the
checked public carrier operations.  The checks run in the order the library
promises: truncation, the form's constants, the arguments, the arity, then
the evaluation itself.  The result is exact unless some countable sum is cut
short (``reference_cut_short``): its stream runs past the truncation, it
skips a term, or a term it keeps is cut short.

``reference_weight_lower_bound`` and its siblings are the references for the
evaluator's level core.  Each call explores the whole ball around its start
from scratch and recomputes every explored object at every level.

``reference_tree_weight`` is the reference for ``tree_weight``.  It recurses
over the tree and checks and weighs every node it meets, shared or not.
``cut_tree`` is no reference but a tool: it cuts a tree at a depth, for
the tests that weigh cut trees.  So are ``numeral``, ``term_size`` and
``term_value``, which build and measure the ground terms of
``addition_trs``.

``reference_verify_embedding`` is the reference for ``verify_embedding``.
It builds every rule step with the compiled aggregator and compares it in
the carrier's order, on every carrier, as the check did before affine
``real_inf`` steps were decided on integers.

``reference_induced_polynomial`` is the reference for
``induced_polynomial``.  It rebuilds the whole loop tree symbolically,
off-path subtrees included, recursing once per node, and folds the constants
afterwards.  ``reference_affine_form`` is the reference for ``affine_form``:
it walks an explicit stack and folds each child into its parent as soon as
the child is done.

``reference_leq`` is the natural order as ``Boolean``, ``Language`` and
``Product`` spelled it before they read it off the join.

``reference_parse``, the ``reference_*`` expression walkers and
``reference_enumerate_trees`` are the references for the iterative parser,
the fold-based walkers and the iterative tree enumeration.  They recurse
once per level, so they only take shallow input.

``reference_find_loops`` is the reference for ``find_loops``.  It enumerates
every reduction tree from the start up to the depth with ``enumerate_trees``,
finds the leaves that repeat the root with ``reference_loop_leaves``, and
only then keeps one tree per rule-tag path.

``reference_load_explicit`` is the reference for ``load_explicit`` on JSON
text.  It reads each rule as the loader once did: a global set of (lhs, tag)
pairs, and the rule checks once per (text, successor count) pair, spelled
with the reference walkers.  It returns the rows, normal-form weights and
objects it read, whether every aggregator is finite and free of the maximum,
and termination, found by peeling off objects whose successors are all
peeled.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple

from wars import aggregator as agg
from wars.aggregator import (
    _TOKEN,
    AggregatorError,
    ArityError,
    Const,
    CountableSum,
    ParseError,
    ProdNode,
    SumNode,
    Var,
    X,
    XVar,
    _compiled,
    _fold,
)
from wars.boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    UNKNOWN,
    BoundednessReport,
    Embedding,
    PreconditionError,
)
from wars.builtins import ZERO_TERM, s_term
from wars.evaluator import (
    LOWER_BOUND,
    STABILIZED,
    CountCapExceeded,
    ReductionTree,
    StructuralTreeError,
    VisitCapExceeded,
    WeightBound,
    enumerate_trees,
)
from wars.semiring import ALL_WORDS, INF, Boolean, Language, LiteralError, Product, descriptor_from_spec
from wars.system import DEFAULT_RULE_BUDGET, MAX_AGGREGATOR_DEPTH, SystemFormatError, SystemHandle
from wars.unboundedness import UnboundednessError, _apply_aggregator


def reference_evaluate(expr, desc, args, truncation: int = 64):
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    form = reference_cut(expr, desc, len(args), truncation)
    reference_check_constants(form, desc)
    for v in args:
        desc.require(v)
    mv = reference_max_var(form)
    if mv > len(args):
        raise ArityError(_arity_message(mv, args))
    return _value(form, desc, args), not reference_cut_short(expr, len(args), truncation)


def reference_cut(expr, desc, arity, truncation):
    """``expr`` with each countable sum replaced by the plain sum of its
    first ``truncation`` generated terms that name no variable beyond
    ``arity`` (or whose largest variable is unbounded), each cut the same
    way, or by zero when it keeps none."""
    if isinstance(expr, SumNode):
        return SumNode(tuple(reference_cut(e, desc, arity, truncation) for e in expr.terms))
    if isinstance(expr, ProdNode):
        return ProdNode(tuple(reference_cut(e, desc, arity, truncation) for e in expr.factors))
    if not isinstance(expr, CountableSum):
        return expr
    kept = []
    for i in range(truncation):
        term = expr.term(i)
        if term is None:
            break
        mv = reference_max_var(term)
        if mv is INF or mv <= arity:
            kept.append(reference_cut(term, desc, arity, truncation))
    return SumNode(tuple(kept)) if kept else Const(desc.zero)


def reference_cut_short(expr, arity, truncation) -> bool:
    """Whether a countable sum in ``expr`` over ``arity`` arguments is cut
    short at ``truncation`` generated terms."""
    if isinstance(expr, SumNode):
        return any(reference_cut_short(e, arity, truncation) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return any(reference_cut_short(e, arity, truncation) for e in expr.factors)
    if not isinstance(expr, CountableSum):
        return False
    for i in range(truncation):
        term = expr.term(i)
        if term is None:
            return False
        mv = reference_max_var(term)
        if (mv is not INF and mv > arity) or reference_cut_short(term, arity, truncation):
            return True
    return True


def _arity_message(index, args) -> str:
    return f"aggregator mentions v{index} but only {len(args)} arguments were supplied"


def reference_check_constants(expr, desc) -> None:
    if isinstance(expr, Const):
        desc.require(expr.value)
    elif isinstance(expr, SumNode):
        for e in expr.terms:
            reference_check_constants(e, desc)
    elif isinstance(expr, ProdNode):
        for e in expr.factors:
            reference_check_constants(e, desc)


def _value(expr, desc, args):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return args[expr.index - 1]
    if isinstance(expr, (SumNode, ProdNode)):
        op = desc.plus if isinstance(expr, SumNode) else desc.times
        children = expr.terms if isinstance(expr, SumNode) else expr.factors
        acc = _value(children[0], desc, args)
        for child in children[1:]:
            acc = op(acc, _value(child, desc, args))
        return acc
    raise TypeError(f"not an aggregator expression: {expr!r}")


# --------------------------------------------------------------------------
# Weight evaluation: the full level-by-level (Jacobi) sweep.


class _Exploration:
    """The object ball reachable from a start within a depth radius and budgets."""

    def __init__(self, sys, start, depth, rule_budget, branch_trunc, visit_cap):
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
            if not rules and complete:
                weight = sys._nf_weight(obj)
                desc.require(weight)
                self.nf[obj] = weight
            else:
                self.rules[obj] = [
                    (r.rhs, _compiled(r.aggregator, desc, len(r.rhs), branch_trunc), r.aggregator)
                    for r in rules
                ]
            for r in rules:
                if not r.rhs_complete or reference_cut_short(r.aggregator, len(r.rhs), branch_trunc):
                    self.enumeration_complete = False
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

    def step(self, prev: dict) -> dict:
        desc = self.sys.semiring
        zero = desc.zero
        cur = {}
        for a in self.objects:
            if a in self.nf:
                cur[a] = self.nf[a]
                continue
            vals = [zero]
            for rhs, fn, _ in self.rules[a]:
                vals.append(fn([prev.get(b, zero) for b in rhs]))
            value = vals[0] if len(vals) == 1 else desc._join(vals)
            # An equal value does not replace the stored one, so of two equal
            # values of different types an object keeps the older.
            cur[a] = prev[a] if value == prev[a] else value
        return cur

    def initial(self) -> dict:
        zero = self.sys.semiring.zero
        return {a: self.nf.get(a, zero) for a in self.objects}


def _iterate(exploration: _Exploration, depth: int) -> list:
    levels = [exploration.initial()]
    for _ in range(depth):
        levels.append(exploration.step(levels[-1]))
    return levels


def _budgets(rule_budget, branch_trunc, visit_cap) -> dict:
    return {"rule_budget": rule_budget, "branch_trunc": branch_trunc, "visit_cap": visit_cap}


def reference_weight_lower_bound(
    sys, a, depth, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ex = _Exploration(sys, a, depth, rule_budget, branch_trunc, visit_cap)
    levels = _iterate(ex, depth)
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
    ex = _Exploration(sys, a, depth, rule_budget, branch_trunc, visit_cap)
    levels = _iterate(ex, depth)
    if ex.cap_hit:
        raise VisitCapExceeded(
            WeightBound(levels[-1][a], LOWER_BOUND, depth, visited=len(ex.objects))
        )
    return [lvl[a] for lvl in levels]


def reference_evaluate_to_fixpoint(
    sys, a, max_depth=256, rule_budget=64, branch_trunc=64, visit_cap=100_000
):
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    ex = _Exploration(sys, a, max_depth, rule_budget, branch_trunc, visit_cap)
    current = ex.initial()
    depth_explored = 0
    stable = False
    while depth_explored < max(max_depth, 1):
        nxt = ex.step(current)
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


class ReferenceSettle:
    """Stands in for the evaluator's ``_settle``, by which ``wars oracle``
    settles every object at once: object ``i``'s value at a level is read
    from a ``ReferenceProfile`` of its own, which raises ``VisitCapExceeded``
    if the cap cuts that object's ball."""

    def __init__(self, sys, objects, radius, steps, rule_budget, branch_trunc, visit_cap):
        self._profiles = [ReferenceProfile(sys, a, radius, rule_budget, branch_trunc, visit_cap)
                          for a in objects]

    def value(self, i, level):
        return self._profiles[i].bound(level).value


# --------------------------------------------------------------------------
# The natural order as the carriers that now read it off the join spelled it.


def reference_leq(desc, a, b) -> bool:
    desc.require(a)
    desc.require(b)
    if isinstance(desc, Product):
        return all(reference_leq(c, x, y) for c, x, y in zip(desc.components, a, b))
    if isinstance(desc, Language):
        if b is ALL_WORDS:
            return True
        if a is ALL_WORDS:
            return False
        return a <= b
    if isinstance(desc, Boolean):
        return (not a) or b
    return desc.leq(a, b)


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
    return _compiled(rule.aggregator, desc, len(args), branch_trunc)(args)


def cut_tree(tree, n):
    """``tree`` without its nodes deeper than ``n``; a cut node becomes a
    plain leaf.  It walks an explicit stack, so it cuts trees deeper than
    the recursion limit."""
    # Entries are (node, depth left, False) before the node's children and
    # (node, depth left, True) after them; ``built`` holds finished subtrees.
    built: list = []
    stack = [(tree, n, False)]
    while stack:
        node, left, expanded = stack.pop()
        if expanded:
            k = len(node.children)
            built[-k:] = [ReductionTree(node.label, node.rule_tag, tuple(built[-k:]))]
        elif left == 0 or not node.children:
            built.append(ReductionTree(node.label))
        else:
            stack.append((node, left, True))
            stack.extend((c, left - 1, False) for c in reversed(node.children))
    return built[0]


# --------------------------------------------------------------------------
# Ground terms of ``addition_trs``: tools, not references.


def numeral(n: int):
    """The ground term s(...s(0)...) with ``n`` successors."""
    t = ZERO_TERM
    for _ in range(n):
        t = s_term(t)
    return t


def term_size(t) -> int:
    size, stack = 0, [t]
    while stack:
        t = stack.pop()
        size += 1
        stack.extend(t[1:])
    return size


def term_value(t) -> int:
    """The natural number a ground term denotes (plus is addition): its
    number of ``s`` nodes."""
    value, stack = 0, [t]
    while stack:
        t = stack.pop()
        value += t[0] == "s"
        stack.extend(t[1:])
    return value


# --------------------------------------------------------------------------
# Aggregator walkers: one recursive call per node.


def reference_max_var(expr):
    if isinstance(expr, (Const, XVar)):
        return 0
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, SumNode):
        return max(reference_max_var(e) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return max(reference_max_var(e) for e in expr.factors)
    if isinstance(expr, CountableSum):
        return expr.var_bound
    raise AggregatorError(f"not an aggregator expression: {expr!r}")


def reference_holds_countable(expr) -> bool:
    if isinstance(expr, CountableSum):
        return True
    if isinstance(expr, SumNode):
        return any(reference_holds_countable(e) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return any(reference_holds_countable(e) for e in expr.factors)
    return False


def reference_nesting_depth(expr) -> int:
    """Levels of an expression: one for a leaf, one more per sum or product."""
    if isinstance(expr, SumNode):
        return 1 + max(map(reference_nesting_depth, expr.terms))
    if isinstance(expr, ProdNode):
        return 1 + max(map(reference_nesting_depth, expr.factors))
    return 1


def reference_mentions_x(expr) -> bool:
    if isinstance(expr, XVar):
        return True
    if isinstance(expr, SumNode):
        return any(reference_mentions_x(e) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return any(reference_mentions_x(e) for e in expr.factors)
    return False


def reference_compile_node(expr, desc, arity, truncation):
    """(fn, max_var) of the finite form, ``fn`` taking ``arity`` arguments
    and reading each variable unchecked; a countable sum compiles its
    ``reference_cut`` form."""
    if isinstance(expr, Const):
        desc.require(expr.value)
        value = expr.value
        return (lambda args: value), 0
    if isinstance(expr, Var):
        i = expr.index - 1
        return (lambda args: args[i]), expr.index
    if isinstance(expr, (SumNode, ProdNode)):
        op = desc._plus if isinstance(expr, SumNode) else desc._times
        children = expr.terms if isinstance(expr, SumNode) else expr.factors
        parts = [reference_compile_node(e, desc, arity, truncation) for e in children]
        return _fold(op, [fn for fn, _ in parts]), max(mv for _, mv in parts)
    if isinstance(expr, CountableSum):
        return reference_compile_node(reference_cut(expr, desc, arity, truncation), desc, arity,
                                      truncation)
    if isinstance(expr, XVar):
        raise AggregatorError("X is only meaningful inside loop polynomials")
    raise AggregatorError(f"not an aggregator expression: {expr!r}")


def reference_substitute_x(expr, inner):
    if isinstance(expr, XVar):
        return inner
    if isinstance(expr, SumNode):
        return SumNode(tuple(reference_substitute_x(e, inner) for e in expr.terms))
    if isinstance(expr, ProdNode):
        return ProdNode(tuple(reference_substitute_x(e, inner) for e in expr.factors))
    return expr


def reference_fold_constants(expr, desc):
    if isinstance(expr, SumNode):
        kids = [reference_fold_constants(e, desc) for e in expr.terms]
        if all(isinstance(k, Const) for k in kids):
            acc = kids[0].value
            for k in kids[1:]:
                acc = desc.plus(acc, k.value)
            return Const(acc)
        return SumNode(tuple(kids))
    if isinstance(expr, ProdNode):
        kids = [reference_fold_constants(e, desc) for e in expr.factors]
        if all(isinstance(k, Const) for k in kids):
            acc = kids[0].value
            for k in kids[1:]:
                acc = desc.times(acc, k.value)
            return Const(acc)
        return ProdNode(tuple(kids))
    return expr


def reference_format_expr(expr, desc) -> str:
    if isinstance(expr, Const):
        return desc.format_literal(expr.value)
    if isinstance(expr, Var):
        return f"v{expr.index}"
    if isinstance(expr, XVar):
        return "X"
    if isinstance(expr, SumNode):
        return " + ".join(_reference_wrap(t, desc, True) for t in expr.terms)
    if isinstance(expr, ProdNode):
        return " * ".join(_reference_wrap(f, desc, False) for f in expr.factors)
    if isinstance(expr, CountableSum):
        return "<countable sum>"
    raise AggregatorError(f"not an aggregator expression: {expr!r}")


def _reference_wrap(expr, desc, in_sum: bool) -> str:
    text = reference_format_expr(expr, desc)
    if isinstance(expr, SumNode) or (isinstance(expr, ProdNode) and not in_sum):
        return f"({text})"
    return text


def reference_mentions_top(expr, desc) -> bool:
    if isinstance(expr, Const):
        return expr.value == desc.top
    if isinstance(expr, SumNode):
        return any(reference_mentions_top(e, desc) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return any(reference_mentions_top(e, desc) for e in expr.factors)
    return False


def reference_finite_no_top(expr, desc) -> bool:
    if isinstance(expr, CountableSum):
        return False
    if isinstance(expr, Const):
        return expr.value != desc.top
    if isinstance(expr, SumNode):
        return all(reference_finite_no_top(e, desc) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return all(reference_finite_no_top(e, desc) for e in expr.factors)
    return True


def reference_syntactically_selective(expr, desc) -> bool:
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Const):
        return False
    if isinstance(expr, SumNode):
        return desc.plus_is_selective and all(
            reference_syntactically_selective(e, desc) for e in expr.terms
        )
    if isinstance(expr, ProdNode):
        return desc.times_is_selective and all(
            reference_syntactically_selective(e, desc) for e in expr.factors
        )
    return False


def reference_apply_aggregator(expr, child_exprs, desc, truncation: int = 64):
    """Substitution into the ``reference_cut`` form, which raises the
    ``ArityError`` that ``reference_evaluate`` raises, up front, when the
    form names a variable beyond the children."""
    form = reference_cut(expr, desc, len(child_exprs), truncation)
    mv = reference_max_var(form)
    if mv > len(child_exprs):
        raise ArityError(_arity_message(mv, child_exprs))
    return _reference_substitute(form, child_exprs)


def _reference_substitute(expr, child_exprs):
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return child_exprs[expr.index - 1]
    if isinstance(expr, SumNode):
        return SumNode(tuple(_reference_substitute(e, child_exprs) for e in expr.terms))
    if isinstance(expr, ProdNode):
        return ProdNode(tuple(_reference_substitute(e, child_exprs) for e in expr.factors))
    raise UnboundednessError(f"cannot substitute into {expr!r}")


def reference_affine_form(expr, desc, arity, const=None):
    """The affine form with an explicit stack that folds each child into its
    parent as soon as the child is done, left to right."""
    zero, one = desc.zero, desc.one

    def frame(node) -> list:
        # [node, next child, form so far]; a product has no form before its
        # first factor, a sum starts from zero.
        return [node, 0, ([zero] * arity, zero) if isinstance(node, SumNode) else None]

    stack = [frame(expr)]
    while True:
        top = stack[-1]
        node = top[0]
        if isinstance(node, (SumNode, ProdNode)):
            children = node.terms if isinstance(node, SumNode) else node.factors
            if top[1] < len(children):
                top[1] += 1
                stack.append(frame(children[top[1] - 1]))
                continue
            form = top[2]
        elif isinstance(node, Const) and (const is None or const(node.value)):
            form = [zero] * arity, node.value
        elif isinstance(node, Var) and node.index <= arity:
            form = [zero] * arity, zero
            form[0][node.index - 1] = one
        else:
            return None
        stack.pop()
        if not stack:
            return form
        parent = stack[-1]
        acc = parent[2]
        if isinstance(parent[0], SumNode):
            parent[2] = [desc.plus(a, b) for a, b in zip(acc[0], form[0])], desc.plus(acc[1], form[1])
        elif acc is None:
            parent[2] = form
        elif any(c != zero for c in acc[0]):
            if any(c != zero for c in form[0]):
                return None
            parent[2] = [desc.times(c, form[1]) for c in acc[0]], desc.times(acc[1], form[1])
        else:
            parent[2] = [desc.times(acc[1], c) for c in form[0]], desc.times(acc[1], form[1])


# --------------------------------------------------------------------------
# Loop polynomials: the whole loop tree rebuilt symbolically, one recursive
# call per node, off-path subtrees included.

_OFF_PATH = ("off",)


def reference_induced_polynomial(sys, tree, leaf_path):
    desc = sys.semiring
    node = tree
    for idx in leaf_path:
        node = node.children[idx]
    if node.children:
        raise UnboundednessError("the designated node is not a leaf")

    def build(node, remaining):
        if remaining == ():
            return X
        if not node.children:
            if sys.is_normal_form(node.label):
                return Const(sys.nf_weight(node.label))
            return Const(desc.zero)
        rule = sys.find_rule(node.label, node.rule_tag)
        child_exprs = []
        for i, child in enumerate(node.children):
            sub = remaining[1:] if remaining and remaining[0] == i else None
            child_exprs.append(build(child, sub if sub is not None else _OFF_PATH))
        return _apply_aggregator(rule.aggregator, child_exprs, desc)

    polynomial = agg.fold_constants(build(tree, leaf_path), desc)
    if reference_nesting_depth(polynomial) > MAX_AGGREGATOR_DEPTH:
        raise UnboundednessError(
            f"the loop polynomial nests deeper than {MAX_AGGREGATOR_DEPTH} levels"
        )
    return polynomial


# --------------------------------------------------------------------------
# The recursive-descent parser.


class _ReferenceParser:
    """expr := term ('+' term)* ; term := factor ('*' factor)* ;
    factor := literal | vN | X | '(' expr ')'.  Parenthesized groups that
    contain a top-level comma are tuple literals instead of grouping."""

    def __init__(self, text: str, desc):
        self.text = text
        self.desc = desc
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        expr = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return expr

    def expr(self):
        terms = [self.term()]
        while self._peek() == "+":
            self.pos += 1
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else SumNode(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self._peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ProdNode(tuple(factors))

    def factor(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            end = self._matching_paren(self.pos)
            inner = self.text[self.pos + 1 : end]
            if self._has_top_level_comma(inner):
                literal = self.text[self.pos : end + 1]
                self.pos = end + 1
                return self._const(literal)
            self.pos += 1
            expr = self.expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return expr
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", self.pos)
        self.pos = m.end()
        if m.group("var"):
            return Var(int(m.group("var")[1:]))
        if m.group("x"):
            return X
        if m.group("op"):
            raise ParseError(f"unexpected operator {m.group('op')!r}", m.start())
        return self._const(m.group(0).strip())

    def _const(self, literal: str):
        try:
            return Const(self.desc.parse_literal(literal))
        except LiteralError as exc:
            raise ParseError(str(exc), self.pos) from exc

    def _matching_paren(self, start: int) -> int:
        depth = 0
        for i in range(start, len(self.text)):
            if self.text[i] == "(":
                depth += 1
            elif self.text[i] == ")":
                depth -= 1
                if depth == 0:
                    return i
        raise ParseError("unbalanced '('", start)

    @staticmethod
    def _has_top_level_comma(inner: str) -> bool:
        depth = 0
        for ch in inner:
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
            elif ch == "," and depth == 0:
                return True
        return False


def reference_parse(text: str, desc):
    return _ReferenceParser(text, desc).parse()


# --------------------------------------------------------------------------
# Tree enumeration and loop leaves, one recursive call per level, and the
# loop search that weighed every tree.


def reference_enumerate_trees(sys, a, depth, rule_budget=DEFAULT_RULE_BUDGET, count_cap=200_000):
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


def reference_loop_leaves(tree):
    root_label = tree.label

    def walk(node, path):
        if not node.children:
            if path and node.label == root_label:
                yield path
            return
        for i, child in enumerate(node.children):
            yield from walk(child, path + (i,))

    yield from walk(tree, ())


def reference_find_loops(sys, start, max_depth, rule_budget=DEFAULT_RULE_BUDGET,
                         count_cap=200_000, max_witnesses=16):
    """Every reduction tree from ``start`` up to ``max_depth`` with each of
    its loop leaves, sorted by (tree depth, enumeration index, leaf path),
    then the first per rule-tag path."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    candidates = []
    for index, tree in enumerate(
        enumerate_trees(sys, start, max_depth, rule_budget, count_cap)
    ):
        for path in reference_loop_leaves(tree):
            candidates.append((tree.depth(), index, tree, path))

    candidates.sort(key=lambda item: (item[0], item[1], item[3]))
    out, seen = [], set()
    for _, _, tree, path in candidates:
        key = reference_tag_path(tree, path)
        if key in seen:
            continue
        seen.add(key)
        out.append((tree, path))
        if len(out) >= max_witnesses:
            break
    return out


def reference_tag_path(tree, path) -> tuple:
    """The rule tags from the root down to the node at ``path``."""
    tags = []
    for idx in path:
        tags.append(tree.rule_tag)
        tree = tree.children[idx]
    return tuple(tags)


# --------------------------------------------------------------------------
# Embedding check: every rule step built by its compiled aggregator.


def reference_verify_embedding(
    sys: SystemHandle, embedding: Embedding, instances="all", rule_budget: int = 64,
    branch_trunc: int = 64,
) -> BoundednessReport:
    """The interpretation-method inequalities on the given instances, each
    rule step evaluated by its compiled aggregator and compared with
    ``desc.leq``; each touched object is embedded and checked once.  An
    exhaustive check refuses a rule whose successors or countable sum are
    cut short."""
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
    bound_map = {}

    def embed(obj):
        if obj not in bound_map:
            value = embedding(obj)
            desc.require(value)
            if value == desc.top:
                return None
            bound_map[obj] = value
        return bound_map[obj]

    def top_valued(obj):
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
            weight = sys.nf_weight(a)
            if not desc.leq(weight, ea):
                details = {
                    "violated_normal_form": sys.format_object(a),
                    "weight": desc.format_literal(weight),
                    "embedding": desc.format_literal(ea),
                }
                return BoundednessReport(UNKNOWN, "interpretation-method", details, witness=a)
            continue
        if exhaustive and not complete:
            raise PreconditionError(f"rule enumeration for {sys.format_object(a)} is not complete")
        for r in rules:
            if exhaustive and (not r.rhs_complete
                               or reference_cut_short(r.aggregator, len(r.rhs), branch_trunc)):
                raise PreconditionError(f"rule {r.tag} for {sys.format_object(a)} is not read in full")
            checked += 1
            args = []
            for b in r.rhs:
                eb = embed(b)
                if eb is None:
                    return top_valued(b)
                args.append(eb)
            step = _compiled(r.aggregator, desc, len(args), branch_trunc)(args)
            if not desc.leq(step, ea):
                details = {
                    "violated_rule": r.tag,
                    "lhs": sys.format_object(a),
                    "aggregated": desc.format_literal(step),
                    "embedding": desc.format_literal(ea),
                }
                return BoundednessReport(UNKNOWN, "interpretation-method", details, witness=r)

    if exhaustive:
        return BoundednessReport(
            BOUNDED_CERTIFIED, "interpretation-method", {"instances_checked": checked},
            bound_map=bound_map,
        )
    details = {"instances_checked": checked, "note": "verified on supplied instances only"}
    return BoundednessReport(
        BOUNDED_SAMPLED, "interpretation-method", details, sample_count=checked,
        bound_map=bound_map,
    )


ReferenceLoad = namedtuple("ReferenceLoad", "rows nf objects finite_no_top terminating")


def reference_load_explicit(text: str) -> ReferenceLoad:
    """What ``load_explicit`` reads from the JSON text of a system, or the
    error it raises first."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise SystemFormatError("a system must be a JSON object")
    if "semiring" not in data:
        raise SystemFormatError("missing 'semiring' entry")
    desc = descriptor_from_spec(data["semiring"])
    rule_specs, nf_specs = data.get("rules", []), data.get("nf", {})
    if not isinstance(rule_specs, list) or not isinstance(nf_specs, dict):
        raise SystemFormatError("'rules' must be a JSON array and 'nf' a JSON object")
    rows, parsed, checked, tags = {}, {}, set(), set()
    for i, spec in enumerate(rule_specs):
        if not isinstance(spec, dict):
            spec = {}
        lhs, rhs = spec.get("lhs"), spec.get("rhs")
        if not (isinstance(lhs, str) and isinstance(rhs, list) and rhs
                and all(isinstance(b, str) for b in rhs)):
            raise SystemFormatError(f"rule {i}: needs a string lhs and a non-empty rhs")
        tag = spec["tag"] if "tag" in spec else f"r{i}"
        if not isinstance(tag, str):
            raise SystemFormatError(f"rule {i}: 'tag' must be a string")
        agg_text = spec.get("agg", "")
        if not isinstance(agg_text, str):
            raise SystemFormatError(f"rule {tag}: 'agg' must be a string")
        if agg_text not in parsed:
            try:
                parsed[agg_text] = agg.parse_expr(agg_text, desc)
            except AggregatorError as exc:
                raise SystemFormatError(f"rule {tag}: {exc}") from exc
            if reference_nesting_depth(parsed[agg_text]) > MAX_AGGREGATOR_DEPTH:
                raise SystemFormatError(
                    f"rule {tag}: aggregator nested deeper than {MAX_AGGREGATOR_DEPTH} levels")
        expr = parsed[agg_text]
        if (agg_text, len(rhs)) not in checked:
            if reference_mentions_x(expr):
                raise SystemFormatError(f"rule {tag}: rule aggregators cannot mention X")
            mv = reference_max_var(expr)
            if isinstance(mv, int) and mv > len(rhs):
                raise SystemFormatError(
                    f"rule {tag}: aggregator mentions v{mv} but rhs has {len(rhs)} entries")
            checked.add((agg_text, len(rhs)))
        if (lhs, tag) in tags:
            raise SystemFormatError(f"duplicate rule tag {tag!r} for {lhs!r}")
        tags.add((lhs, tag))
        rows.setdefault(lhs, []).append((lhs, tuple(rhs), expr, tag, True))
    objects = set(rows).union(*(r[1] for rs in rows.values() for r in rs))
    nf = {}
    for label, literal in nf_specs.items():
        if label in rows:
            raise SystemFormatError(f"{label!r} has rules but also a normal-form weight")
        nf[label] = desc.parse_literal(literal if isinstance(literal, str) else json.dumps(literal))
        objects.add(label)
    unweighted = objects - set(rows) - set(nf)
    if unweighted:
        raise SystemFormatError(f"{min(unweighted)!r} is a normal form but has no weight in 'nf'")
    left = set(rows)
    while True:
        peeled = {a for a in left if not any(b in left for r in rows[a] for b in r[1])}
        if not peeled:
            break
        left -= peeled
    finite_no_top = all(reference_finite_no_top(e, desc) for e in parsed.values())
    return ReferenceLoad(rows, nf, objects, finite_no_top, not left)
