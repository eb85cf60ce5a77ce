"""Aggregator expressions: terms built from constants, variables, sums, products.

An aggregator combines the weights of a reduction step's successors into the
weight of the step.  Expressions are immutable trees; evaluation is pure.  The
distinguished variable ``X`` only occurs in loop polynomials, never in rule
aggregators.

Each expression object remembers what the analyses ask of it: its facts
(whether it mentions X, its largest variable) and its compiled form per
carrier and arity, each computed on first use.  Expressions are found by
identity, never hashed, so equal expressions built apart are walked and
compiled apart.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .semiring import INF, LiteralError, NatInf, Product, RealInf, Semiring


class AggregatorError(Exception):
    pass


class ArityError(AggregatorError):
    """A variable index exceeds the number of supplied arguments."""


class _Expr:
    """An expression node.  Its memos live in its ``__dict__``, apart from the
    dataclass fields that ``==``, ``hash`` and ``repr`` read; a failed
    computation stores nothing, so it raises again on the next read."""

    @functools.cached_property
    def facts(self) -> tuple:
        """Whether the expression mentions X, and its largest variable index
        (INF when a countable sum's is unbounded)."""
        return _reduce(self, _leaf_facts, _node_facts)

    @functools.cached_property
    def _forms(self) -> dict:
        """(carrier, arity) -> compiled closure, filled by ``_compiled``."""
        return {}


@dataclass(frozen=True)
class Const(_Expr):
    value: object


@dataclass(frozen=True)
class Var(_Expr):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise AggregatorError("variable indices start at 1")


@dataclass(frozen=True)
class SumNode(_Expr):
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise AggregatorError("empty sum")


@dataclass(frozen=True)
class ProdNode(_Expr):
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise AggregatorError("empty product")


@dataclass(frozen=True)
class XVar(_Expr):
    """The distinguished polynomial variable of loop analysis."""


class CountableSum(_Expr):
    """A sum over countably many generated terms, available programmatically.

    ``term(i)`` yields the i-th summand expression (i from 0) or None once the
    stream is exhausted.  ``var_bound`` is the supremum of variable indices the
    generator can mention; INF when unbounded.
    """

    def __init__(self, term: Callable[[int], object], var_bound=INF):
        self.term = term
        self.var_bound = var_bound

    def __repr__(self) -> str:
        return "CountableSum(...)"


X = XVar()


def _reduce(expr, leaf, node):
    """Fold an expression bottom-up on an explicit stack.

    ``leaf(e)`` gives the value of every node that is neither a sum nor a
    product; ``node(e, values)`` gives that of a sum or product from its
    children's values, in order.  Children are folded left to right before
    their parent, as a recursive walk would, so the first exception raised
    is the same; depth is not bounded by the recursion limit.
    """
    if isinstance(expr, SumNode):
        children = expr.terms
    elif isinstance(expr, ProdNode):
        children = expr.factors
    else:
        return leaf(expr)
    # The node being folded, its children, their values so far and the next
    # child; the stack holds the same for each unfinished ancestor.
    values, i, stack = [], 0, []
    while True:
        while i < len(children):
            child = children[i]
            i += 1
            if isinstance(child, SumNode):
                stack.append((expr, children, values, i))
                expr, children, values, i = child, child.terms, [], 0
            elif isinstance(child, ProdNode):
                stack.append((expr, children, values, i))
                expr, children, values, i = child, child.factors, [], 0
            else:
                values.append(leaf(child))
        value = node(expr, values)
        if not stack:
            return value
        expr, children, values, i = stack.pop()
        values.append(value)


def nesting_depth(expr) -> int:
    """Levels of an expression: one for a leaf, one more per sum or product."""
    return _reduce(expr, lambda e: 1, lambda e, depths: 1 + max(depths))


def _children(expr) -> tuple:
    return expr.terms if isinstance(expr, SumNode) else expr.factors


def _rebuild(expr, children: list):
    """A sum or product like ``expr`` over new children."""
    return type(expr)(tuple(children))


def max_var(expr):
    """Supremum of variable indices mentioned; 0 when no variable occurs."""
    return _facts(expr)[1]


def _facts(expr) -> tuple:
    """``expr.facts``, also for a leaf that is no expression (which raises)."""
    return expr.facts if isinstance(expr, _Expr) else _leaf_facts(expr)


def _leaf_facts(expr) -> tuple:
    if isinstance(expr, (Const, XVar)):
        return isinstance(expr, XVar), 0
    if isinstance(expr, Var):
        return False, expr.index
    if isinstance(expr, CountableSum):
        return False, expr.var_bound
    raise AggregatorError(f"not an aggregator expression: {expr!r}")


def _node_facts(expr, facts: list) -> tuple:
    xs, mvs = zip(*facts)
    return any(xs), max(mvs)


def mentions_x(expr) -> bool:
    return _reduce(expr, lambda e: isinstance(e, XVar), lambda e, values: any(values))


DEFAULT_TRUNCATION = 64


def evaluate(expr, desc: Semiring, args: Sequence, truncation: int = DEFAULT_TRUNCATION):
    """Evaluate an aggregator over ``desc`` at the argument vector.

    Returns (value, exact).  Finite expressions evaluate exactly; a countable
    sum is cut off after ``truncation`` generated terms and any term whose
    variables exceed the argument vector is skipped, so the result is always
    below the untruncated value.  Constants are checked against the carrier
    when the expression is compiled, the arguments once here.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    fn = _compiled(expr, desc, len(args))
    for v in args:
        desc.require(v)
    exact = [True]
    value = fn(args, truncation, exact)
    return value, exact[0]


# Compiled aggregators.  ``_compiled`` turns an expression into a closure
# ``fn(args, truncation, exact)`` over the carrier's unchecked operations; the
# arguments must already be carrier values.  ``exact`` is a one-item list that
# a countable sum clears when it cuts its stream short, or None when the
# caller does not ask.


def _compiled(expr, desc: Semiring, arity: int):
    """The compiled form of ``expr`` over ``desc`` for ``arity`` arguments,
    built on first use and kept on the expression.

    An expression that mentions more variables than ``arity`` (and is not
    itself a countable sum) compiles to a function raising ArityError.
    """
    # A leaf that is no expression has nowhere to keep a form; compiling it
    # raises.
    forms = expr._forms if isinstance(expr, _Expr) else {}
    key = desc, arity
    fn = forms.get(key)
    if fn is None:
        fn, mv = _compile(expr, desc)
        if mv is not INF and mv > arity and not isinstance(expr, CountableSum):
            message = _arity_message(mv, arity)

            def arity_error(args, truncation, exact):
                raise ArityError(message)

            fn = arity_error
        forms[key] = fn
    return fn


def _arity_message(index: int, arity: int) -> str:
    return f"aggregator mentions v{index} but only {arity} arguments were supplied"


def _compile(expr, desc):
    """(fn, max_var) for an expression compiled as a whole."""
    fn, mv = _compile_node(expr, desc, False)
    if mv is INF and not isinstance(expr, CountableSum):
        # A countable sum inside hides how many arguments the rest needs, so
        # the variables outside it check their index on every call.
        fn, mv = _compile_node(expr, desc, True)
    return fn, mv


def _compile_node(expr, desc, check_vars: bool):
    def compile_leaf(e):
        if isinstance(e, Const):
            desc.require(e.value)
            value = e.value
            return (lambda args, truncation, exact: value), 0
        if isinstance(e, Var):
            i = e.index - 1
            if not check_vars:
                return (lambda args, truncation, exact: args[i]), e.index

            def checked_var(args, truncation, exact):
                if i >= len(args):
                    raise ArityError(_arity_message(i + 1, len(args)))
                return args[i]

            return checked_var, e.index
        if isinstance(e, CountableSum):
            return _compile_countable(e, desc), e.var_bound
        if isinstance(e, XVar):
            raise AggregatorError("X is only meaningful inside loop polynomials")
        raise AggregatorError(f"not an aggregator expression: {e!r}")

    def compile_op(e, parts):
        op = desc._plus if isinstance(e, SumNode) else desc._times
        return _fold(op, [fn for fn, _ in parts]), max(mv for _, mv in parts)

    return _reduce(expr, compile_leaf, compile_op)


def _fold(op, fns):
    """Left fold of ``op`` over the children's values, in order."""
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        f, g = fns
        return lambda args, truncation, exact: op(f(args, truncation, exact), g(args, truncation, exact))
    first, rest = fns[0], fns[1:]

    def fold(args, truncation, exact):
        acc = first(args, truncation, exact)
        for f in rest:
            acc = op(acc, f(args, truncation, exact))
        return acc

    return fold


def _compile_countable(expr: CountableSum, desc):
    plus, zero, top = desc._plus, desc.zero, desc.top
    # Generated terms, each as [max_var, expression, fn]: a term is compiled
    # on its first use, since a skipped term is never evaluated.  The lock
    # keeps the list in stream order when several threads extend it.
    terms: list = []
    ended = False
    lock = threading.Lock()

    def term_at(i):
        nonlocal ended
        if i >= len(terms) and not ended:
            with lock:
                while len(terms) <= i and not ended:
                    term = expr.term(len(terms))
                    if term is None:
                        ended = True
                    else:
                        terms.append([max_var(term), term, None])
        return terms[i] if i < len(terms) else None

    def countable(args, truncation, exact):
        n = len(args)
        clean = [True]  # no term skipped, every summand exact
        acc, done = zero, False
        for i in range(truncation):
            term = term_at(i)
            if term is None:
                done = clean[0]
                break
            mv, source, fn = term
            if mv is not INF and mv > n:
                clean[0] = False
                continue
            if fn is None:
                fn = term[2] = _compile(source, desc)[0]
            acc = plus(acc, fn(args, truncation, clean))
            if acc == top:
                # Everything that could follow is absorbed by the maximum.
                done = True
                break
        if not done and exact is not None:
            exact[0] = False
        return acc

    return countable


def substitute_x(expr, inner):
    """Replace every X leaf by ``inner``; all other nodes are unchanged."""
    return _reduce(expr, lambda e: inner if isinstance(e, XVar) else e, _rebuild)


def fold_constants(expr, desc: Semiring):
    """Collapse constant-only subtrees so the result mentions X and constants only."""

    def fold(e, kids):
        if not all(isinstance(k, Const) for k in kids):
            return _rebuild(e, kids)
        op = desc.plus if isinstance(e, SumNode) else desc.times
        acc = kids[0].value
        for k in kids[1:]:
            acc = op(acc, k.value)
        return Const(acc)

    return _reduce(expr, lambda e: e, fold)


_AFFINE_PROBES = (0, 1, 2, 5)


def _affine_capable(desc: Semiring) -> bool:
    if isinstance(desc, (NatInf, RealInf)):
        return True
    if isinstance(desc, Product):
        return all(_affine_capable(c) for c in desc.components)
    return False


def extract_affine(expr, desc: Semiring) -> Optional[tuple]:
    """Rewrite an X-polynomial to the form c*X + d if possible.

    Works for the additive counting carriers (and products of them), where
    distributivity lets sums and constant-scaled products of affine forms stay
    affine.  Returns (c, d) or None, also when a variable vN occurs; a
    successful extraction is re-checked by evaluating both forms on a few
    probe points.
    """
    if not _affine_capable(desc) or max_var(expr) != 0:
        return None
    in_v1 = substitute_x(expr, Var(1))
    form = affine_form(in_v1, desc, 1)
    if form is None:
        return None
    (c,), d = form
    direct = _compiled(in_v1, desc, 1)
    for n in _AFFINE_PROBES:
        x = desc.from_count(n)
        linear = desc.plus(desc.times(c, x), d)
        if direct([x], DEFAULT_TRUNCATION, None) != linear:
            return None
    return c, d


def affine_form(
    expr, desc: Semiring, arity: int, const: Optional[Callable[[object], bool]] = None
) -> Optional[tuple]:
    """The affine form ``(coefficient per variable, constant)`` of a rule
    aggregator over ``arity`` arguments, or None.

    None when a product has two factors that mention variables, when a node
    is neither a constant, a variable, a sum nor a product, when a variable
    exceeds ``arity``, or when a constant fails the test ``const``.  The walk
    uses an explicit stack and folds each child into its parent as soon as
    the child is done, left to right, as a recursive walk would.
    """
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
            children = _children(node)
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


_TOKEN = re.compile(
    r"\s*(?:(?P<var>v\d+)|(?P<x>X)|(?P<op>[+*()])"
    r"|(?P<braced>\{[^{}]*\})|(?P<sigma>SIGMA\*)"
    r"|(?P<word>true|false|-?inf)|(?P<num>-?\d+(?:\.\d+|/\d+)?))"
)


class ParseError(AggregatorError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_BRACKETS = re.compile(r"[(){},]")


def _groups(text: str) -> tuple:
    """Each '(' with its matching ')', and the set of '(' whose group holds a
    top-level comma, in one pass.  Parentheses match as a plain count of
    '(' and ')'; a comma is top-level when the '(', ')', '{' and '}' between
    the group's '(' and it balance."""
    closing, tuples = {}, set()
    open_groups, depth = [], 0
    # Per bracket depth, the open '(' whose content starts at that depth and
    # that have not met a top-level comma yet, innermost last.
    waiting: dict = {}
    for m in _BRACKETS.finditer(text):
        i, ch = m.start(), m.group()
        if ch == ",":
            tuples.update(waiting.pop(depth, ()))
        elif ch in "({":
            depth += 1
            if ch == "(":
                open_groups.append((i, depth))
                waiting.setdefault(depth, []).append(i)
        else:
            if ch == ")" and open_groups:
                start, base = open_groups.pop()
                closing[start] = i
                pending = waiting.get(base)
                if pending and pending[-1] == start:
                    pending.pop()
            depth -= 1
    return closing, tuples


def parse_expr(text: str, desc: Semiring):
    """Parse the textual aggregator syntax over the given carrier.

    expr := term ('+' term)* ; term := factor ('*' factor)* ;
    factor := literal | vN | X | '(' expr ')'.  Parenthesized groups that
    contain a top-level comma are tuple literals instead of grouping.  Open
    groups wait on an explicit stack, so nesting is not bounded by the
    recursion limit.
    """
    closing, tuples = _groups(text)
    n, pos = len(text), 0
    # Per open group: its finished terms and the factors of its current term.
    stack = [([], [])]
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        if text[pos] != "(":
            factor, pos = _token(text, pos, desc)
        elif pos not in closing:
            raise ParseError("unbalanced '('", pos)
        elif pos in tuples:
            literal, pos = text[pos : closing[pos] + 1], closing[pos] + 1
            factor = _const(literal, desc, pos)
        else:
            stack.append(([], []))
            pos += 1
            continue
        terms, factors = stack[-1]
        factors.append(factor)
        # Close terms and groups until an operator asks for another factor.
        while True:
            while pos < n and text[pos].isspace():
                pos += 1
            ch = text[pos] if pos < n else ""
            if ch == "*":
                break
            terms.append(factors[0] if len(factors) == 1 else ProdNode(tuple(factors)))
            factors.clear()
            if ch == "+":
                break
            stack.pop()
            expr = terms[0] if len(terms) == 1 else SumNode(tuple(terms))
            if not stack:
                if pos != n:
                    raise ParseError("trailing input", pos)
                return expr
            if ch != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            terms, factors = stack[-1]
            factors.append(expr)
        pos += 1


def _token(text: str, pos: int, desc: Semiring) -> tuple:
    """The factor that starts at ``pos`` with no parenthesis, and its end."""
    m = _TOKEN.match(text, pos)
    if not m:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    if m.group("var"):
        return Var(int(m.group("var")[1:])), m.end()
    if m.group("x"):
        return X, m.end()
    if m.group("op"):
        raise ParseError(f"unexpected operator {m.group('op')!r}", m.start())
    return _const(m.group(0).strip(), desc, m.end()), m.end()


def _const(literal: str, desc: Semiring, pos: int):
    try:
        return Const(desc.parse_literal(literal))
    except LiteralError as exc:
        raise ParseError(str(exc), pos) from exc


def format_expr(expr, desc: Semiring) -> str:
    """Print an expression so that parsing it back restores the same tree."""

    def leaf(e):
        if isinstance(e, Const):
            return desc.format_literal(e.value)
        if isinstance(e, Var):
            return f"v{e.index}"
        if isinstance(e, XVar):
            return "X"
        if isinstance(e, CountableSum):
            return "<countable sum>"
        raise AggregatorError(f"not an aggregator expression: {e!r}")

    return _reduce(expr, leaf, _join_texts)


def _join_texts(expr, texts: list) -> str:
    """A sum's or product's text from its children's; a child sum, or a
    product inside a product, is parenthesized."""
    in_sum = isinstance(expr, SumNode)
    for i, child in enumerate(_children(expr)):
        if isinstance(child, SumNode) or (isinstance(child, ProdNode) and not in_sum):
            texts[i] = f"({texts[i]})"
    return (" + " if in_sum else " * ").join(texts)
