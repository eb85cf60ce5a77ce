"""Aggregator expressions: terms built from constants, variables, sums, products.

An aggregator combines the weights of a reduction step's successors into the
weight of the step.  Expressions are immutable trees; evaluation is pure.  The
distinguished variable ``X`` only occurs in loop polynomials, never in rule
aggregators.

Each expression object remembers what the analyses ask of it: its facts
(whether it mentions X, its largest variable, whether it holds a countable
sum, how deeply it nests), its cut and compiled forms per carrier, arity
and truncation (``_cut`` alone decides which terms of a countable sum are
read) and, for a loop polynomial, itself with X as v1, each computed on
first use.  Expressions are found by identity, never hashed, so equal
expressions built apart are walked and compiled apart.
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
        """Whether the expression mentions X, its largest variable index
        (INF when a countable sum's is unbounded), whether it holds a
        countable sum, and its levels: one for a leaf, one more per sum or
        product."""
        return _reduce(self, _leaf_facts, _node_facts)

    @functools.cached_property
    def _forms(self) -> dict:
        """(carrier, arity, truncation) -> compiled closure, filled by ``_compiled``."""
        return {}

    @functools.cached_property
    def _cuts(self) -> dict:
        """(carrier, arity, truncation) -> (cut form, cut short), filled by ``_cut``."""
        return {}

    @functools.cached_property
    def _in_v1(self):
        """The expression with X as v1, as a loop polynomial's readers see it."""
        return substitute_x(self, Var(1))


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
        self._terms, self._ended, self._lock = [], False, threading.Lock()

    def _first(self, n: int) -> tuple:
        """The first ``n`` terms, each generated once, and whether the stream ended before."""
        terms = self._terms
        with self._lock:
            while len(terms) < n and not self._ended:
                term = self.term(len(terms))
                if term is None:
                    self._ended = True
                else:
                    terms.append(term)
            return terms[:n], self._ended and len(terms) < n

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


def _children(expr) -> tuple:
    return expr.terms if isinstance(expr, SumNode) else expr.factors


def _rebuild(expr, children: list):
    """A sum or product like ``expr`` over new children."""
    return (SumNode if isinstance(expr, SumNode) else ProdNode)(tuple(children))


def max_var(expr):
    """Supremum of variable indices mentioned; 0 when no variable occurs."""
    return _facts(expr)[1]


def _facts(expr) -> tuple:
    """``expr.facts``, also for a leaf that is no expression (which raises)."""
    return expr.facts if isinstance(expr, _Expr) else _leaf_facts(expr)


def _leaf_facts(expr) -> tuple:
    if isinstance(expr, (Const, XVar)):
        return isinstance(expr, XVar), 0, False, 1
    if isinstance(expr, Var):
        return False, expr.index, False, 1
    if isinstance(expr, CountableSum):
        return False, expr.var_bound, True, 1
    raise AggregatorError(f"not an aggregator expression: {expr!r}")


def _node_facts(expr, facts: list) -> tuple:
    xs, mvs, countable, depths = zip(*facts)
    return any(xs), max(mvs), any(countable), 1 + max(depths)


DEFAULT_TRUNCATION = 64


def evaluate(expr, desc: Semiring, args: Sequence, truncation: int = DEFAULT_TRUNCATION):
    """Evaluate an aggregator over ``desc`` at the argument vector.

    Returns (value, exact).  Countable sums are read as ``_cut`` cuts them,
    so the value is never above the untruncated one, and ``exact`` is False
    when one was cut short.  Constants are checked against the carrier when
    the expression is compiled, the arguments once here.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    fn = _compiled(expr, desc, len(args), truncation)
    for v in args:
        desc.require(v)
    value = fn(args)
    return value, not _cut(expr, desc, len(args), truncation)[1]


def _cut(expr, desc: Semiring, arity: int, truncation: int) -> tuple:
    """(form, cut short): ``expr`` over ``arity`` arguments with each
    countable sum replaced by the finite sum of the terms it reads.

    A countable sum reads its first ``truncation`` generated terms, skips
    each whose largest variable exceeds the arity (unless inf), and cuts
    each it keeps by the same rule, into a plain ``SumNode`` or, keeping
    none, ``Const(desc.zero)``.  The form holds no countable sum; it is cut
    short unless every stream ended within ``truncation`` terms and none was
    skipped."""
    if not _facts(expr)[2]:
        return expr, False
    key = desc, arity, truncation
    if key not in expr._cuts:
        short = False

        def leaf(e):
            nonlocal short
            if not isinstance(e, CountableSum):
                return e
            terms, ended = e._first(truncation)
            kept = [t for t in terms if (mv := max_var(t)) is INF or mv <= arity]
            forms = [_cut(t, desc, arity, truncation) for t in kept]
            short = short or not ended or len(kept) < len(terms) or any(s for _, s in forms)
            return SumNode(tuple(f for f, _ in forms)) if kept else Const(desc.zero)

        expr._cuts[key] = _reduce(expr, leaf, _rebuild), short
    return expr._cuts[key]


# Compiled aggregators.  ``_compiled`` turns an expression into a closure
# ``fn(args)`` over the carrier's unchecked operations; the arguments must
# already be carrier values.


def _compiled(expr, desc: Semiring, arity: int, truncation: int):
    """The compiled form of ``expr``'s cut form (see ``_cut``) over ``desc``
    for ``arity`` arguments, built on first use and kept on the expression.

    The walk checks every constant the cut form holds, in walk order; then,
    if the cut form names a variable beyond ``arity``, the form is a
    function raising ArityError for the largest one."""
    # A leaf that is no expression has nowhere to keep a form; compiling it
    # raises.
    forms = expr._forms if isinstance(expr, _Expr) else {}
    key = desc, arity, truncation
    fn = forms.get(key)
    if fn is None:
        fn, mv = _compile_node(expr, desc, arity, truncation)
        if mv > arity:
            fn = _raising(_arity_message(mv, arity))
        forms[key] = fn
    return fn


def _arity_message(index: int, arity: int) -> str:
    return f"aggregator mentions v{index} but only {arity} arguments were supplied"


def _raising(message: str):
    def arity_error(args):
        raise ArityError(message)

    return arity_error


def _compile_node(expr, desc, arity: int, truncation: int):
    """(fn, max_var) for ``expr`` compiled as its cut form, whose largest
    variable ``max_var`` is; ``fn`` reads each variable unchecked."""

    def compile_leaf(e):
        if isinstance(e, Const):
            desc.require(e.value)
            value = e.value
            return (lambda args: value), 0
        if isinstance(e, Var):
            i = e.index - 1
            return (lambda args: args[i]), e.index
        if isinstance(e, CountableSum):
            # The cut form holds no countable sum, so this recurses once.
            return _compile_node(_cut(e, desc, arity, truncation)[0], desc, arity, truncation)
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
        return lambda args: op(f(args), g(args))
    first, rest = fns[0], fns[1:]

    def fold(args):
        acc = first(args)
        for f in rest:
            acc = op(acc, f(args))
        return acc

    return fold


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
    form = affine_form(expr._in_v1, desc, 1)
    if form is None:
        return None
    (c,), d = form
    direct = _as_function(expr, desc)
    for n in _AFFINE_PROBES:
        x = desc.from_count(n)
        if direct(x) != desc.plus(desc.times(c, x), d):
            return None
    return c, d


def _as_function(expr, desc: Semiring):
    """An X-polynomial compiled as a function of X, which becomes its one
    variable.  The form is kept on the polynomial's ``_in_v1``, so a loop
    polynomial is substituted and compiled once however often it is read."""
    compiled = _compiled(expr._in_v1, desc, 1, DEFAULT_TRUNCATION)
    return lambda s: compiled([s])


def affine_form(
    expr, desc: Semiring, arity: int, const: Optional[Callable[[object], bool]] = None
) -> Optional[tuple]:
    """The affine form ``(coefficient per variable, constant)`` of a rule
    aggregator over ``arity`` arguments, or None.

    None when a product has two factors that mention variables, when a node
    is neither a constant, a variable, a sum nor a product, when a variable
    exceeds ``arity``, or when a constant fails the test ``const``.  Each
    sum or product folds its children's forms left to right.
    """
    zero, one = desc.zero, desc.one

    def leaf(e):
        if isinstance(e, Const) and (const is None or const(e.value)):
            return [zero] * arity, e.value
        if isinstance(e, Var) and e.index <= arity:
            return [one if i == e.index else zero for i in range(1, arity + 1)], zero
        return None

    def node(e, forms):
        if None in forms:
            return None
        if isinstance(e, SumNode):
            acc = [zero] * arity, zero
            for coeffs, d in forms:
                acc = [desc.plus(a, b) for a, b in zip(acc[0], coeffs)], desc.plus(acc[1], d)
            return acc
        acc = forms[0]
        for coeffs, d in forms[1:]:
            if any(c != zero for c in acc[0]):
                if any(c != zero for c in coeffs):
                    return None
                acc = [desc.times(c, d) for c in acc[0]], desc.times(acc[1], d)
            else:
                acc = [desc.times(acc[1], c) for c in coeffs], desc.times(acc[1], d)
        return acc

    return _reduce(expr, leaf, node)


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
