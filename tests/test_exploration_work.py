"""Exploration work per object: rule checks and compilation happen once per
aggregator, not once per object, and the checks still raise as before."""

from __future__ import annotations

import sys

import pytest

from wars import aggregator, system
from wars.aggregator import X, SumNode, Var
from wars.cli import main
from wars.evaluator import weight_lower_bound
from wars.semiring import NAT_INF
from wars.system import RuleInstance, SystemError_, SystemHandle, _built_once, cplx_wrap


def _count_calls(monkeypatch, original) -> list:
    """Wrap ``original`` at every module binding of it in ``wars``; the
    returned one-item list counts its calls."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("wars.") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return count


def test_loop_walks_and_compiles_each_aggregator_once(monkeypatch, capsys):
    # The cross-check explores 4,093 objects; walking or looking up every
    # rule's aggregator per object made 7,191 walks and 7,166 lookups.
    walks = _count_calls(monkeypatch, system._facts)
    lookups = _count_calls(monkeypatch, aggregator._compiled)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert "=> weight of idle() is the maximum" in capsys.readouterr().out
    assert 0 < walks[0] <= 20
    assert 0 < lookups[0] <= 20


def test_built_once_builds_and_walks_each_key_once(monkeypatch):
    walks = _count_calls(monkeypatch, system._facts)
    made = []
    step = _built_once(lambda n: made.append(n) or SumNode((Var(1), Var(n))))
    first = [step(n) for n in (1, 2, 1, 2, 2)]
    assert made == [1, 2] and walks[0] == 2
    assert first[0] is first[2] and first[1] is first[3] is first[4]
    assert first[1][1] == (False, 2)


def _handle(expr, facts_given: bool) -> SystemHandle:
    """0 -> 1 by one rule with ``expr``, built like a built-in (its facts
    passed in) or plainly; 1 is a normal form."""
    build = _built_once(lambda key: expr)

    def successors(a, budget):
        if a == 1:
            return [], True
        if facts_given:
            rule_expr, facts = build("step")
            return [RuleInstance(a, (1,), rule_expr, "bad", facts=facts)], True
        return [RuleInstance(a, (1,), expr, "bad")], True

    return SystemHandle("bad", NAT_INF, successors, lambda a: 0)


@pytest.mark.parametrize(
    "expr, message",
    [
        (SumNode((X, Var(1))), "rule bad: rule aggregators cannot mention X"),
        (SumNode((Var(1), Var(3))), "rule bad: aggregator mentions v3 but rhs has 1 entries"),
    ],
    ids=["mentions X", "too many variables"],
)
def test_rules_built_once_are_checked_like_any_rule(expr, message):
    for handle in (_handle(expr, True), _handle(expr, False)):
        for wrapped in (handle, cplx_wrap(handle)):
            with pytest.raises(SystemError_) as error:
                weight_lower_bound(wrapped, 0, 3)
            assert str(error.value) == message
