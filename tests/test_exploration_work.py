"""Exploration work per object: each aggregator's facts are walked and its
compiled forms built once, not once per object, and the rule checks still
raise as before.  Loading and checking work: each rule is checked once, the
loader's component pass runs only when read, and an embedding is called once
per object.  Sweeping an affine rational ball runs its per-object kernels
only, never a compiled aggregator.  A depth query looks each compiled form
up once per ball and asks its outer ring for normal-form status only."""

from __future__ import annotations

import collections
import functools
import json
import sys

import pytest

from wars import aggregator, system
from wars import builtins as wars_builtins
from wars.boundedness import Embedding
from wars.aggregator import X, SumNode, Var
from wars.cli import main
from wars.evaluator import DepthProfile, evaluate_to_fixpoint, iterate_lower_bounds, weight_lower_bound
from wars.semiring import NAT_INF
from wars.system import RuleInstance, SystemError_, SystemHandle, cplx_wrap, load_explicit


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


def _count_facts_walks(monkeypatch) -> list:
    """Count the walks behind ``facts``: its reads that are not yet memoized."""
    count = [0]
    walk = aggregator._Expr.__dict__["facts"].func

    def counted(expr):
        count[0] += 1
        return walk(expr)

    memo = functools.cached_property(counted)
    memo.__set_name__(aggregator._Expr, "facts")
    monkeypatch.setattr(aggregator._Expr, "facts", memo)
    return count


def test_loop_walks_and_compiles_each_aggregator_once(monkeypatch, capsys):
    # The cross-check explores 4,093 objects; walking or looking up every
    # rule's aggregator per object made 7,191 walks and 7,166 lookups.
    walks = _count_facts_walks(monkeypatch)
    compiles = _count_calls(monkeypatch, aggregator._compile)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert "=> weight of idle() is the maximum" in capsys.readouterr().out
    assert 0 < walks[0] <= 20
    assert 0 < compiles[0] <= 20


def test_depth_profile_enumerates_no_rules_on_its_outer_ring(monkeypatch):
    # The ring at distance 20 holds 2,560 of the 7,677 objects.  Each object
    # was asked for its rules at the full budget, and each of the 12,794
    # rules looked up its compiled form.
    handle = wars_builtins.builtin("os_runtime")
    lookups = _count_calls(monkeypatch, aggregator._compiled)
    budgets = collections.Counter()
    successors = handle.successors

    def counted(a, rule_budget=64):
        budgets[rule_budget] += 1
        return successors(a, rule_budget)

    monkeypatch.setattr(handle, "successors", counted)
    profile = DepthProfile(handle, handle.parse_object("wait(P1)"), 20)
    assert lookups[0] == 1
    assert budgets == {64: 5_117, 1: 2_560}
    assert profile.values[4::4] == [4, 8, 12, 16, 20]


def test_each_expression_is_walked_once_however_many_rules_use_it(monkeypatch):
    walks = _count_facts_walks(monkeypatch)
    step = SumNode((Var(1), Var(2)))
    for n in range(5):
        RuleInstance(n, (n, n + 1), step, "step")
    assert walks[0] == 1 and step.facts == (False, 2)
    # An equal expression built apart is walked apart.
    RuleInstance(0, (0, 1), SumNode((Var(1), Var(2))), "step")
    assert walks[0] == 2


def _handle(expr, shared: bool) -> SystemHandle:
    """0 -> 1 by one rule with ``expr``, built like a built-in (one
    expression object for every rule) or anew per call; 1 is a normal form."""
    build = functools.cache(lambda key: expr)

    def successors(a, budget):
        if a == 1:
            return [], True
        rule_expr = build("step") if shared else SumNode(expr.terms)
        return [RuleInstance(a, (1,), rule_expr, "bad")], True

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


def test_cplx_wrap_adds_no_rule_checks(monkeypatch, capsys):
    # os_runtime is cplx_wrap(os_size): the wrapper rewraps each checked base
    # rule without checking it again, where it once built every rule twice.
    checks, base_rules = [0], [0]
    new = RuleInstance.__new__

    def checked(cls, *args, **kwargs):
        checks[0] += 1
        return new(cls, *args, **kwargs)

    def counting_wrap(base):
        inner = base._successors

        def successors(a, budget):
            rules, complete = inner(a, budget)
            base_rules[0] += len(rules)
            return rules, complete

        base._successors = successors
        return cplx_wrap(base)

    monkeypatch.setattr(RuleInstance, "__new__", checked)
    monkeypatch.setattr(wars_builtins, "cplx_wrap", counting_wrap)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "wait(P1)", "--depth", "6"]
    assert main(argv) == 0
    assert "is the maximum" in capsys.readouterr().out
    assert checks[0] == base_rules[0] > 0


def test_component_pass_runs_only_when_termination_is_read(monkeypatch, capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1"},
                  {"lhs": "b", "rhs": ["a"], "agg": "v1"},
                  {"lhs": "b", "rhs": ["c"], "agg": "v1"}],
        "nf": {"c": "0"},
    }))
    # Only the loader's binding: the evaluator runs its own component pass.
    passes = [0]
    components = system._components

    def counted(succs):
        passes[0] += 1
        return components(succs)

    monkeypatch.setattr(system, "_components", counted)
    assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "5"]) == 0
    assert passes[0] == 0
    assert main(["bound", "--system", f"file:{path}", "--mode", "extremal"]) == 4
    assert "terminating: refuted" in capsys.readouterr().out
    assert passes[0] == 1


@pytest.mark.parametrize("samples", [2, 20])
def test_embedding_is_called_once_per_object(monkeypatch, capsys, samples):
    # The samples are 0 .. N-1 (0 a normal form), and their rules touch N:
    # N + 1 objects, where every use embedded again (3N - 2 calls).
    calls = [0]
    call = Embedding.__call__

    def counted(self, obj):
        calls[0] += 1
        return call(self, obj)

    monkeypatch.setattr(Embedding, "__call__", counted)
    argv = ["bound", "--system", "builtin:walk_expected", "--mode", "embed:walk3n",
            "--samples", str(samples)]
    assert main(argv) == 3
    assert f"verified on {samples} instances" in capsys.readouterr().out
    assert calls[0] == samples + 1


def _closure_calls(run) -> int:
    """The calls ``run()`` makes to functions of the compiled-aggregator
    convention ``fn(args, truncation, exact)``, each given an argument list."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_varnames[:3] == ("args", "truncation", "exact"):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls[0]


def test_scaled_sweep_calls_no_compiled_closure():
    # Each recomputation built an argument list and called an integer
    # closure of that convention: 5,349 calls for the fixpoint sweep.
    walk = wars_builtins.builtin("walk_expected")
    assert _closure_calls(lambda: evaluate_to_fixpoint(walk, 3, 100)) == 0
    assert _closure_calls(lambda: weight_lower_bound(walk, 3, 100)) == 0
    assert _closure_calls(lambda: list(iterate_lower_bounds(walk, 3, 100))) == 0
    # A ball off the integer path still calls its compiled aggregators.
    chain = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1"}],
        "nf": {"b": "0"},
    }))
    assert _closure_calls(lambda: evaluate_to_fixpoint(chain, "a", 100)) > 0
