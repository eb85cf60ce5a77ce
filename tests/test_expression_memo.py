"""The memo on each expression: facts and compiled forms are kept on the
expression object, per carrier and arity, and found by identity.

Equal expressions built apart share nothing, a failed walk or compile is not
remembered, a dropped handle takes its carriers with it, and no expression
is hashed on the way through the CLI.
"""

from __future__ import annotations

import gc
import json
import weakref
from fractions import Fraction

import pytest

from wars.aggregator import (
    AggregatorError,
    ArityError,
    Const,
    ProdNode,
    SumNode,
    Var,
    _compiled,
    evaluate,
    parse_expr,
)
from wars.builtins import builtin
from wars.cli import main
from wars.evaluator import weight_lower_bound
from wars.semiring import NAT_INF, REAL_INF, TROPICAL, CarrierMismatch
from wars.system import RuleInstance, SystemError_
from wars.unboundedness import find_loops

from system_gen import random_system_json


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (AggregatorError, CarrierMismatch, SystemError_) as exc:
        return type(exc), str(exc)


def test_equal_expressions_with_differently_typed_constants_share_no_closure():
    first = parse_expr("1 + v1", REAL_INF)
    second = parse_expr("1/1 + v1", REAL_INF)
    assert first == second
    value, _ = evaluate(first, REAL_INF, [0])
    assert value == 1 and type(value) is int
    value, _ = evaluate(second, REAL_INF, [0])
    assert value == 1 and type(value) is Fraction


def test_one_expression_compiles_per_carrier_and_arity():
    expr = SumNode((Const(1), Var(1)))
    for _ in range(2):
        assert evaluate(expr, NAT_INF, [2]) == (3, True)
        assert evaluate(expr, TROPICAL, [2]) == (1, True)
        for desc in (NAT_INF, TROPICAL):
            with pytest.raises(ArityError, match="^aggregator mentions v1 but only 0 arguments"):
                evaluate(expr, desc, [])
    assert _compiled(expr, NAT_INF, 1) is _compiled(expr, NAT_INF, 1)
    assert _compiled(expr, NAT_INF, 1) is not _compiled(expr, TROPICAL, 1)
    assert _compiled(expr, NAT_INF, 1) is not _compiled(expr, NAT_INF, 0)


def test_a_failed_compile_or_facts_walk_raises_again():
    # The constant fails the carrier check before the walk meets the leaf
    # that is no expression, so compiling and walking fail differently.
    expr = SumNode((Const(-1), ProdNode((Var(1), "leaf"))))
    compile_error = (CarrierMismatch, str(_outcome(evaluate, expr, NAT_INF, [0])[1]))
    facts_error = (AggregatorError, "not an aggregator expression: 'leaf'")
    for _ in range(3):
        assert _outcome(evaluate, expr, NAT_INF, [0]) == compile_error
        assert _outcome(lambda: expr.facts) == facts_error
        assert _outcome(RuleInstance, "a", ("b",), expr, "r") == facts_error
    assert "-1" in compile_error[1]
    assert "facts" not in vars(expr) and not any(vars(expr).get("_forms", {}).values())


def test_dropped_handles_take_their_carriers_with_them():
    carriers = []
    for name in ["os_fair", "os_starv"] * 5:
        handle = builtin(name)
        start = handle.parse_object("idle()")
        weight_lower_bound(handle, start, 6)
        find_loops(handle, start, 4)
        carriers.append(weakref.ref(handle.semiring))
        del handle, start
    gc.collect()
    assert [ref() for ref in carriers] == [None] * 10


LOOP = {
    "semiring": {"kind": "nat_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["a"], "agg": "1 + v1", "tag": "stay"},
        {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "exit"},
    ],
    "nf": {"b": "0"},
}


class Hashed(BaseException):
    """Raised by a patched ``__hash__``; no ``except Exception`` catches it."""


def test_no_expression_is_hashed_through_the_cli(monkeypatch, tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(LOOP))
    random_file = tmp_path / "random.json"
    random_file.write_text(json.dumps(random_system_json(3)))
    runs = [
        (["eval", "--system", "builtin:walk_expected", "--start", "3", "--depth", "8"], 0),
        (["eval", "--system", f"file:{random_file}", "--start", "a0", "--depth", "5"], 0),
        (["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"], 0),
        (["loop", "--system", f"file:{loop_file}", "--start", "a", "--depth", "3"], 0),
        (["oracle", "--system", "builtin:bitstring_prefixes", "--depth", "3"], 0),
        (["oracle", "--system", f"file:{random_file}", "--depth", "3"], 0),
        (["bound", "--system", "builtin:walk_expected", "--mode", "embed:walk3n",
          "--samples", "20"], 3),
        (["bound", "--system", f"file:{random_file}", "--mode", "extremal"], 4),
    ]

    def refuse(self):
        raise Hashed(type(self).__name__)

    for cls in (SumNode, ProdNode, Const, Var):
        monkeypatch.setattr(cls, "__hash__", refuse)
    with pytest.raises(Hashed):
        hash(Var(1))
    for argv, code in runs:
        got = main(argv)
        assert got == code, argv
        assert "Traceback" not in capsys.readouterr().err
