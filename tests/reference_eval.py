"""A deliberately naive aggregator evaluator: the reference for compiled evaluation.

It re-walks the expression on every call and uses only the checked public
carrier operations.  The checks run in the order the library promises:
truncation, the expression's constants, the arguments, the arity, then the
evaluation itself, where a countable-sum term has its constants checked just
before its first use.
"""

from __future__ import annotations

from wars.aggregator import ArityError, Const, CountableSum, ProdNode, SumNode, Var, max_var
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
