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

``reference_tree_weight`` is the reference for ``tree_weight``.  It recurses
over the tree and checks and weighs every node it meets, shared or not.

``reference_search_affine_embedding`` is the reference for
``search_affine_embedding``.  It tries every table of values up to the cap in
lexicographic order and checks each with its own copy of the embedding
inequalities, so its cost grows exponentially with the number of objects.

``reference_parse``, the ``reference_*`` expression walkers,
``reference_enumerate_trees`` and ``reference_loop_leaves`` are the references
for the iterative parser, the fold-based walkers and the iterative tree
walks.  They recurse once per level, so they only take shallow input.
"""

from __future__ import annotations

import itertools
from typing import Optional

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
    _compile_countable,
    _compiled,
    _fold,
)
from wars.boundedness import (
    Embedding,
    PreconditionError,
    UnsupportedAggregatorError,
)
from wars.evaluator import (
    LOWER_BOUND,
    STABILIZED,
    CountCapExceeded,
    ReductionTree,
    StructuralTreeError,
    VisitCapExceeded,
    WeightBound,
)
from wars.semiring import INF, LiteralError, NatInf, Tropical
from wars.system import SystemHandle
from wars.unboundedness import UnboundednessError


def reference_evaluate(expr, desc, args, truncation: int = 64):
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    reference_check_constants(expr, desc)
    for v in args:
        desc.require(v)
    mv = reference_max_var(expr)
    if mv is not INF and mv > len(args) and not isinstance(expr, CountableSum):
        raise ArityError(_arity_message(mv, args))
    return _value(expr, desc, args, truncation)


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
            mv = reference_max_var(term)
            if mv is not INF and mv > len(args):
                clean = False
                continue
            reference_check_constants(term, desc)
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


def reference_mentions_x(expr) -> bool:
    if isinstance(expr, XVar):
        return True
    if isinstance(expr, SumNode):
        return any(reference_mentions_x(e) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return any(reference_mentions_x(e) for e in expr.factors)
    return False


def reference_compile_node(expr, desc, check_vars: bool):
    if isinstance(expr, Const):
        desc.require(expr.value)
        value = expr.value
        return (lambda args, truncation, exact: value), 0
    if isinstance(expr, Var):
        i = expr.index - 1
        if not check_vars:
            return (lambda args, truncation, exact: args[i]), expr.index

        def checked_var(args, truncation, exact):
            if i >= len(args):
                raise ArityError(_arity_message(i + 1, args))
            return args[i]

        return checked_var, expr.index
    if isinstance(expr, (SumNode, ProdNode)):
        op = desc._plus if isinstance(expr, SumNode) else desc._times
        children = expr.terms if isinstance(expr, SumNode) else expr.factors
        parts = [reference_compile_node(e, desc, check_vars) for e in children]
        return _fold(op, [fn for fn, _ in parts]), max(mv for _, mv in parts)
    if isinstance(expr, CountableSum):
        return _compile_countable(expr, desc), expr.var_bound
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


def reference_mentions_only_x(expr) -> bool:
    if isinstance(expr, (Const, XVar)):
        return True
    if isinstance(expr, SumNode):
        return all(reference_mentions_only_x(e) for e in expr.terms)
    if isinstance(expr, ProdNode):
        return all(reference_mentions_only_x(e) for e in expr.factors)
    return False


def reference_apply_aggregator(expr, child_exprs, desc, truncation: int = 64):
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        if expr.index > len(child_exprs):
            return Const(desc.zero)
        return child_exprs[expr.index - 1]
    if isinstance(expr, SumNode):
        return SumNode(
            tuple(reference_apply_aggregator(e, child_exprs, desc, truncation)
                  for e in expr.terms)
        )
    if isinstance(expr, ProdNode):
        return ProdNode(
            tuple(reference_apply_aggregator(e, child_exprs, desc, truncation)
                  for e in expr.factors)
        )
    if isinstance(expr, CountableSum):
        terms = []
        for i in range(truncation):
            term = expr.term(i)
            if term is None:
                break
            mv = reference_max_var(term)
            if isinstance(mv, int) and mv <= len(child_exprs):
                terms.append(reference_apply_aggregator(term, child_exprs, desc, truncation))
        if not terms:
            return Const(desc.zero)
        return SumNode(tuple(terms))
    raise UnboundednessError(f"cannot substitute into {expr!r}")


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
# Tree enumeration and loop leaves: one recursive call per level.


def reference_enumerate_trees(sys, a, depth, rule_budget=8, count_cap=200_000):
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


# --------------------------------------------------------------------------
# Embedding search: every table up to the cap, in lexicographic order.


def reference_search_affine_embedding(
    sys: SystemHandle, coeff_cap: int, rule_budget: int = 64
) -> Optional[Embedding]:
    """Enumerate finite value tables up to ``coeff_cap`` and return the first
    that verifies exhaustively; None when no table within the cap works."""
    desc = sys.semiring
    if not isinstance(desc, (NatInf, Tropical)):
        raise PreconditionError(
            "affine embedding search works over the counting or tropical carriers"
        )
    enum = sys.enumerate_objects()
    if enum is None or not enum[1]:
        raise PreconditionError("affine embedding search needs a finite explicit system")
    objects = sorted(enum[0], key=str)

    rules_of = {}
    for a in objects:
        rules, complete = sys.successors(a, rule_budget)
        if not complete:
            raise PreconditionError("affine embedding search needs complete rule lists")
        for r in rules:
            if agg.affine_form(r.aggregator, desc, len(r.rhs)) is None:
                raise UnsupportedAggregatorError(
                    f"rule {r.tag}: aggregator is not affine in its variables"
                )
        rules_of[a] = [
            (r.rhs, agg._compiled(r.aggregator, desc, len(r.rhs))) for r in rules
        ]

    nf_weight = {
        a: sys.nf_weight(a) for a in objects if not rules_of[a]
    }

    for combo in itertools.product(range(coeff_cap + 1), repeat=len(objects)):
        table = dict(zip(objects, combo))
        ok = True
        for a in objects:
            ea = table[a]
            if ea == desc.top:
                ok = False
                break
            if not rules_of[a]:
                if not desc.leq(nf_weight[a], ea):
                    ok = False
                    break
                continue
            for rhs, step_fn in rules_of[a]:
                step = step_fn([table[b] for b in rhs], agg.DEFAULT_TRUNCATION, None)
                if not desc.leq(step, ea):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Embedding.from_table(table, f"affine<={coeff_cap}")
    return None
