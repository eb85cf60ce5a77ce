"""Exploration work per object: each aggregator's facts are walked and its
compiled forms built once, not once per object, and the rule checks still
raise as before.  Loading and checking work: the loader parses and checks
each aggregator text once, however many rules of any length share it, and
checks again only a rule that then fails, walking each text once; the
loader's component pass and its walk for the finite-no-top flag run only
when read, and an embedding is called once per object.  Sweeping an affine rational ball runs its per-object kernels
only, never a compiled aggregator.  A depth query looks each compiled form
up once per ball and explores the ball that the fixpoint explores, and
both sweep a component that still changes at the depth limit once.  An
affine ``real_inf`` embedding check evaluates a compiled aggregator only for
a violated step.  ``wars loop`` explores no ball at all, and compiles,
prints and reads the facts of each certified loop's polynomial once.  Readers inside ``wars`` take rows: a
file system's or a built-in's rules become records only through public
``successors`` and ``find_rule``.  One ``wars oracle`` run reads each
(object, depth) key's rules once, applies each rule once per combination of
its children's distinct weights and holds two levels of them; it builds one
ball of every object and settles it once, weighing no level above its
depth.  Every object a
compiled sweep evaluates is one ``_value`` call."""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import math
import random
import sys

import pytest

from reference_eval import reference_enumerate_trees, reference_tree_weight
from system_gen import random_system_json
from test_fixpoint_components import CUT_BELOW_START
from wars import aggregator, cli, evaluator, system
from wars import builtins as wars_builtins
from wars.boundedness import Embedding
from wars.aggregator import X, SumNode, Var
from wars.cli import main
from wars.evaluator import (
    DepthProfile,
    ReductionTree,
    evaluate_to_fixpoint,
    tree_weight,
    weight_lower_bound,
)
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


def _count_built(monkeypatch, *classes) -> collections.Counter:
    """Count the objects built of each of ``classes``, by class name."""
    built = collections.Counter()
    for cls in classes:

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


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
    # A cross-check that explored 4,093 objects and walked or looked up every
    # rule's aggregator per object once made 7,191 walks and 7,166 lookups.
    walks = _count_facts_walks(monkeypatch)
    compiles = _count_calls(monkeypatch, aggregator._compile_node)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert "=> weight of idle() is the maximum" in capsys.readouterr().out
    assert 0 < walks[0] <= 20
    assert 0 < compiles[0] <= 20


def test_loop_asks_each_question_of_a_polynomial_once(monkeypatch, capsys):
    # Every walk of an aggregator is a _reduce call.  Per certified loop's
    # polynomial: 4 substitutions into the path's rules, 1 constant fold,
    # 1 facts walk (depth, X only and the largest variable), 1 substitution
    # of X by v1, 1 affine form, 1 compile and 1 print; plus the rule
    # aggregator's facts and compile.  There were 28: the depth and "X
    # only" had walks of their own, and the report printed each polynomial
    # again.
    walks = _count_calls(monkeypatch, aggregator._reduce)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("=> weight of idle() is the maximum") == 2
    assert walks[0] == 2 * 10 + 2


def test_loop_compiles_each_certified_polynomial_once(monkeypatch, capsys):
    # Two certified loops, both affine: certify_loop compiled each polynomial
    # for probes it never ran and conclude_unbounded compiled it again, 7 in
    # all; then the affine extraction still compiled its own probe form, 5.
    # Left: one form per polynomial, which the extraction probes and the
    # pumped witness reads, and the one rule aggregator.
    compiles = _count_calls(monkeypatch, aggregator._compile_node)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("=> weight of idle() is the maximum") == 2
    assert compiles[0] == 3


def test_loop_substitutes_each_certified_polynomial_once(monkeypatch, capsys):
    # The affine extraction and the compiled form each put v1 for X in the
    # polynomial, 4 in all; now both read one substituted expression.
    substituted = _count_calls(monkeypatch, aggregator.substitute_x)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("=> weight of idle() is the maximum") == 2
    assert substituted[0] == 2


def test_loop_weighs_each_path_rule_once_per_pass(monkeypatch, capsys):
    # Each of the five pumped copies of a certified loop was weighed from
    # scratch, copy k holding copy k - 1, and each subtree off the path by a
    # fresh tree_weight: 48 find_rule and 97 _rows calls for two depth-4
    # loops.  Now the polynomial and the cross-check each read a path rule
    # once, and each leaf's rows once; find_rule reads a rule list itself.
    counts = collections.Counter()
    for name in ("find_rule", "_rows"):

        def counted(self, *args, _original=getattr(SystemHandle, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SystemHandle, name, counted)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("=> weight of idle() is the maximum") == 2
    assert counts == {"find_rule": 16, "_rows": 17}


def test_one_weigher_keeps_every_tree_it_weighs():
    # The weigher keys its memo by node id.  Were a tree dropped, the nodes
    # of a later tree could take its nodes' ids and read their weights.
    chain = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1", "tag": "s"}
                  for i in range(200)],
        "nf": {"c200": "0"},
    }))
    weigh = evaluator._weigher(chain, evaluator.DEFAULT_BRANCH_TRUNC)
    rng = random.Random(30)
    for _ in range(100):
        length = rng.randint(1, 200)
        tree = ReductionTree("c200")
        for i in range(199, 199 - length, -1):
            tree = ReductionTree(f"c{i}", "s", (tree,))
        assert weigh(tree) == tree_weight(chain, tree) == length
        del tree


def test_loop_builds_no_exploration_ball(monkeypatch, capsys):
    # The cross-check once read a radius-20 DepthProfile of 7,677 objects
    # around wait(P1); the pumped witness is weighed on its own.
    built = _count_built(monkeypatch, evaluator._Ball, evaluator.DepthProfile)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "wait(P1)", "--depth", "6"]
    assert main(argv) == 0
    assert "is the maximum" in capsys.readouterr().out
    assert built == {}
    # The counters see a depth query.
    handle = wars_builtins.builtin("os_runtime")
    weight_lower_bound(handle, handle.parse_object("idle()"), 2)
    assert built == {"_Ball": 1, "DepthProfile": 1}


def test_depth_profile_asks_each_object_for_its_rules_once(monkeypatch):
    # The ring at distance 20 holds 2,560 of the 7,677 objects.  Each object,
    # the ring's too, is asked for its rules once at the full budget, as the
    # fixpoint asks; each of the 12,794 rules once looked up its compiled
    # form.  Counted at the row protocol, which every reader inside wars
    # takes.
    handle = wars_builtins.builtin("os_runtime")
    lookups = _count_calls(monkeypatch, aggregator._compiled)
    budgets = collections.Counter()
    rows = handle._rows

    def counted(a, budget):
        budgets[budget] += 1
        return rows(a, budget)

    monkeypatch.setattr(handle, "_rows", counted)
    profile = DepthProfile(handle, handle.parse_object("wait(P1)"), 20)
    assert lookups[0] == 1
    assert budgets == {64: 7_677}
    assert [profile.bound(level).value for level in range(4, 21, 4)] == [4, 8, 12, 16, 20]


def test_a_component_cut_below_the_start_is_swept_once(monkeypatch):
    # c and d (objects 2 and 3 of the ball) form the one cycle, below a and
    # b, and still change at every level.  Their sweep recomputes both at
    # levels 1 and 2, then one a level: 12 recomputations to depth 10.  The
    # depth limit once sent the fixpoint into a second, full sweep of a, b,
    # c and d as well, 35 in all.
    system = load_explicit(json.dumps({"semiring": {"kind": "nat_inf"}, "rules": [
        {"lhs": "a", "rhs": ["b"], "agg": "1 + v1"},
        {"lhs": "b", "rhs": ["c"], "agg": "1 + v1"},
        {"lhs": "c", "rhs": ["d"], "agg": "1 + v1"},
        {"lhs": "d", "rhs": ["c"], "agg": "v1"},
        {"lhs": "d", "rhs": ["n"], "agg": "v1"},
    ], "nf": {"n": "1"}}))
    recomputed = []
    recompute = evaluator._recompute

    def counted(pending, *args):
        recomputed.extend(pending)
        return recompute(pending, *args)

    monkeypatch.setattr(evaluator, "_recompute", counted)
    built = _count_built(monkeypatch, evaluator._Ball, evaluator._Settled)
    bound = evaluate_to_fixpoint(system, "a", 10)
    assert (bound.value, bound.status, bound.depth_explored) == (7, "lower_bound", 10)
    assert len(recomputed) == 12 and set(recomputed) == {2, 3}
    assert built == {"_Ball": 1, "_Settled": 1}
    recomputed.clear()
    built.clear()
    profile = DepthProfile(system, "a", 10)
    assert [profile.bound(level).value for level in range(11)] == [0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 7]
    assert len(recomputed) == 12 and set(recomputed) == {2, 3}
    assert built == {"_Ball": 1, "_Settled": 1}


# Three objects that each lead to a normal form of their own: no object's
# ball holds more than two of the six.
PAIRS = {
    "semiring": {"kind": "nat_inf"},
    "rules": [{"lhs": f"a{i}", "rhs": [f"n{i}"], "agg": "1 + v1"} for i in range(3)],
    "nf": {f"n{i}": "1" for i in range(3)},
}


@pytest.mark.parametrize("cap", [100_000, 6, 5, 2])
def test_oracle_settles_once_within_the_visit_cap(monkeypatch, capsys, tmp_path, cap):
    # One ball holds all six objects, settled once: no object gets a
    # DepthProfile of its own.  The finite system bounds its own ball, so a
    # default visit cap below its six objects does not cut it.
    monkeypatch.setattr(cli, "DEFAULT_VISIT_CAP", cap)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(PAIRS))
    built = _count_built(monkeypatch, evaluator._Ball, evaluator._Settled, DepthProfile)
    assert main(["oracle", "--system", f"file:{path}", "--depth", "3"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert built == {"_Ball": 1, "_Settled": 1}


def test_oracle_weighs_no_level_above_its_depth(monkeypatch, capsys, tmp_path):
    # Every object of a 24-object squaring chain is a start, so the shared
    # ball holds the whole chain at any depth.  Settled to its top, c00 would
    # reach 2^(2^23); read up to depth 2, no value exceeds 2^(2^2).
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i:02d}", "rhs": [f"c{i + 1:02d}"], "agg": "v1 * v1"}
                  for i in range(23)],
        "nf": {"c23": "2"},
    }))
    weighed = []
    value = evaluator._value

    def recorded(*args):
        weighed.append(value(*args))
        return weighed[-1]

    monkeypatch.setattr(evaluator, "_value", recorded)
    assert main(["oracle", "--system", f"file:{path}", "--depth", "2"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert 0 < len(weighed) and max(weighed) == 16


def test_each_expression_is_walked_once_however_many_rules_use_it(monkeypatch):
    walks = _count_facts_walks(monkeypatch)
    step = SumNode((Var(1), Var(2)))
    for n in range(5):
        RuleInstance(n, (n, n + 1), step, "step")
    assert walks[0] == 1 and step.facts == (False, 2, False, 2)
    # An equal expression built apart is walked apart.
    RuleInstance(0, (0, 1), SumNode((Var(1), Var(2))), "step")
    assert walks[0] == 2


def _handle(expr, shared: bool) -> SystemHandle:
    """0 -> 1 by one rule with ``expr``, built like a built-in (one
    expression object for every rule) or anew per call; 1 is a normal form."""
    build = functools.cache(lambda key: expr)

    def successors(a):
        if a == 1:
            return []
        rule_expr = build("step") if shared else SumNode(expr.terms)
        return [RuleInstance(a, (1,), rule_expr, "bad")]

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
    # os_runtime is cplx_wrap(os_size): the wrapper once built every rule
    # twice, then rewrapped each checked base record without checking it
    # again.  Now the base makes rows, and neither side checks a record.
    checks, base_rules = [0], [0]
    new = RuleInstance.__new__

    def checked(cls, *args, **kwargs):
        checks[0] += 1
        return new(cls, *args, **kwargs)

    def counting_wrap(base):
        inner = base._successors

        def successors(a):
            rules = inner(a)
            base_rules[0] += len(rules)
            return rules

        base._successors = successors
        return cplx_wrap(base)

    monkeypatch.setattr(RuleInstance, "__new__", checked)
    monkeypatch.setattr(wars_builtins, "cplx_wrap", counting_wrap)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "wait(P1)", "--depth", "6"]
    assert main(argv) == 0
    assert "is the maximum" in capsys.readouterr().out
    assert base_rules[0] > 0
    assert checks[0] == 0


def test_loader_parses_and_checks_each_text_once(monkeypatch):
    # (text, largest variable): 3,000 rules of one to three successors share
    # five texts.  Checks per (expression, arity) pair once made 11 here.
    texts = (("v1", 1), ("1 + v1", 1), ("v1 * v2", 2), ("v2 + v1 + 3", 2), ("v3", 3))
    rng = random.Random(0)
    rules = []
    for i in range(3000):
        arity = rng.randrange(1, 4)
        text = rng.choice([text for text, most in texts if most <= arity])
        rules.append({"lhs": f"a{i % 500}", "rhs": [f"b{j}" for j in range(arity)], "agg": text})
    data = {"semiring": {"kind": "nat_inf"}, "rules": rules, "nf": {f"b{j}": "0" for j in range(3)}}
    parses = _count_calls(monkeypatch, aggregator.parse_expr)
    checks = _count_calls(monkeypatch, system._check_rule)
    # One walk per text, its facts: the depth check reads them too, and the
    # finite-no-top flag waits until it is read.  There were three per text.
    walks = _count_calls(monkeypatch, aggregator._reduce)
    assert len(load_explicit(json.dumps(data)).enumerate_objects()) == 503
    assert parses[0] == checks[0] == walks[0] == len(texts)
    # A later rule with fewer successors than its text's variable is checked
    # again, and fails.
    parses[0] = checks[0] = 0
    rules.insert(2000, {"lhs": "z", "rhs": ["b0", "b1"], "agg": "v3"})
    with pytest.raises(SystemError_, match="rule r2000: aggregator mentions v3 but rhs has 2 entries"):
        load_explicit(json.dumps(data))
    assert parses[0] == len(texts) and checks[0] == len(texts) + 1


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


def test_finite_no_top_runs_only_when_the_flag_is_read(monkeypatch, capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1"},
                  {"lhs": "b", "rhs": ["c"], "agg": "v1"},
                  {"lhs": "b", "rhs": ["c", "c"], "agg": "v1"}],
        "nf": {"c": "0"},
    }))
    walks = _count_calls(monkeypatch, system._finite_no_top)
    assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "5"]) == 0
    assert main(["bound", "--system", f"file:{path}", "--mode", "selective", "--bound", "5"]) == 4
    assert walks[0] == 0
    # Once per distinct text, on the extremal check's read.
    assert main(["bound", "--system", f"file:{path}", "--mode", "extremal"]) == 0
    assert "aggregators: finite, no top constant" in capsys.readouterr().out
    assert walks[0] == 2
    handle = load_explicit(str(path))
    assert handle.flags.aggregators_finite_no_top and handle.flags.aggregators_finite_no_top
    assert walks[0] == 4


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


def test_affine_real_embedding_check_calls_no_compiled_aggregator(monkeypatch, capsys):
    # Each of the 300 steps was evaluated by the compiled closure in
    # Fractions, to compare 3n with the tie 1 + 2/3*3(n-1) + 1/3*3(n+1).
    lookups = _count_calls(monkeypatch, aggregator._compiled)
    argv = ["bound", "--system", "builtin:walk_expected", "--mode", "embed:walk3n",
            "--samples", "300"]
    assert main(argv) == 3
    assert "verified on 300 instances" in capsys.readouterr().out
    assert lookups[0] == 0


def _closure_calls(run) -> int:
    """The calls ``run()`` makes to compiled aggregators: the functions of
    ``wars.aggregator`` of the convention ``fn(args)``."""
    calls = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == aggregator.__file__
                and code.co_argcount == 1 and code.co_varnames[0] == "args"):
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
    assert _closure_calls(lambda: DepthProfile(walk, 3, 100)) == 0
    # A ball off the integer path still calls its compiled aggregators.
    chain = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1"}],
        "nf": {"b": "0"},
    }))
    assert _closure_calls(lambda: evaluate_to_fixpoint(chain, "a", 100)) > 0


def test_scaled_ball_builds_one_maker_per_form(monkeypatch):
    # Each object with rules built its own rule closures from the form's
    # integers: 302 kernels from scratch for one form.
    makers = _count_calls(monkeypatch, evaluator._maker)
    ball = evaluator._Ball(wars_builtins.builtin("walk_termprob"), [3], 299, 64, 64, 100_000)
    assert sum(rs is not None for rs in ball.rules) == 302
    assert makers[0] == 1


@pytest.mark.parametrize("name, start, depth, calls, objects, digest", [
    ("walk_expected", 5, 251, 251, 32_875, "b5e807b607ae3e1c"),
    ("walk_expected", 4, 170, 170, 15_212, "8d44ba2a16327142"),
    ("walk_termprob", 3, 299, 299, 11_774, "d7fc30f1726259a8"),
    ("walk_termprob", 5, 212, 212, 6_200, "1a26de9b23124b2d"),
    ("bottleneck", None, None, 318, 518, "82e60581a47c03eb"),
    ("nat_inf", None, None, 428, 572, "a8f5249bb5f08311"),
    ("real_inf mixed", None, None, 450, 614, "80be0bf0649ece4e"),
    ("real_inf scaled", None, None, 450, 614, "80be0bf0649ece4e"),
])
def test_sweeps_recompute_the_same_objects(monkeypatch, name, start, depth, calls, objects,
                                           digest):
    # The lists handed to _recompute, pinned by their count, their total
    # length and a hash of them all, as the sweep that marked every level's
    # predecessors produced them.  A walk query is evaluate_to_fixpoint; a
    # CUT_BELOW_START system is that and DepthProfile from a and from top at
    # every depth 0-12.
    pending = []
    recompute = evaluator._recompute

    def recorded(objects, *args):
        pending.append(list(objects))
        return recompute(objects, *args)

    monkeypatch.setattr(evaluator, "_recompute", recorded)
    if start is not None:
        evaluate_to_fixpoint(wars_builtins.builtin(name), start, depth)
    else:
        for root in ("a", "top"):
            for max_depth in range(13):
                evaluate_to_fixpoint(CUT_BELOW_START[name], root, max_depth)
                DepthProfile(CUT_BELOW_START[name], root, max_depth)
    got = hashlib.sha256(json.dumps(pending).encode()).hexdigest()[:16]
    assert (len(pending), sum(map(len, pending)), got) == (calls, objects, digest)


@pytest.mark.parametrize("name, values", [
    ("bottleneck", 510 + 518),
    ("nat_inf", 536 + 572),
    ("real_inf mixed", 578 + 614),
    # Integer kernels are called straight, never through _value.
    ("real_inf scaled", 578),
])
def test_every_evaluation_of_a_compiled_sweep_is_one_value_call(monkeypatch, name, values):
    # _value is the one place a compiled sweep evaluates an object, for
    # _recompute too: on the queries of test_sweeps_recompute_the_same_objects
    # it counts the settle's own evaluations plus the objects recomputed
    # there (518, 572 and 614).  A profile reads no level it is not asked
    # for, and these are asked for none; one of depth 0 evaluates no level
    # above 0 (each of the two from a and from top once evaluated level 1).
    # A chain of 100 1 + v1 steps takes 2n - 1.
    calls = _count_calls(monkeypatch, evaluator._value)
    chain = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1"} for i in range(100)],
        "nf": {"c100": "0"},
    }))
    bound = evaluate_to_fixpoint(chain, "c0", 200)
    assert (bound.value, bound.status, calls[0]) == (100, "stabilized", 199)
    calls[0] = 0
    for root in ("a", "top"):
        for max_depth in range(13):
            evaluate_to_fixpoint(CUT_BELOW_START[name], root, max_depth)
            DepthProfile(CUT_BELOW_START[name], root, max_depth)
    assert calls[0] == values


def test_dense_walk_levels_sort_no_predecessor_set(monkeypatch):
    # Each level built the predecessors of its changed objects and sorted
    # them: 250 sets for walk_expected from 5 at depth 251.  Once the cone
    # has cut, a level where every object of the cone changed marks the next
    # cone whole; only level 1, before the cut, still builds the set.  The
    # wavefront of walk_termprob never changes a whole cone.
    sets = [0]

    def counted(iterable, *args, **kwargs):
        sets[0] += isinstance(iterable, set)
        return sorted(iterable, *args, **kwargs)

    monkeypatch.setattr(evaluator, "sorted", counted, raising=False)
    for name, start, depth, built in (("walk_expected", 5, 251, 1), ("walk_expected", 4, 170, 1),
                                      ("walk_termprob", 3, 299, 298)):
        sets[0] = 0
        evaluate_to_fixpoint(wars_builtins.builtin(name), start, depth)
        assert sets[0] == built, name


def _count_records(monkeypatch) -> collections.Counter:
    """Count ``RuleInstance`` records as they are built, checked (``new``)
    or not (``make``), and the calls into public ``successors`` and
    ``find_rule``.  A record built during such a call counts as ``public``,
    any other as ``internal``."""
    counts = collections.Counter()
    public = [0]
    new, make = RuleInstance.__new__, RuleInstance._make.__func__

    def counted_new(cls, *args, **kwargs):
        counts["new", "public" if public[0] else "internal"] += 1
        return new(cls, *args, **kwargs)

    def counted_make(cls, iterable):
        counts["make", "public" if public[0] else "internal"] += 1
        return make(cls, iterable)

    monkeypatch.setattr(RuleInstance, "__new__", counted_new)
    monkeypatch.setattr(RuleInstance, "_make", classmethod(counted_make))
    for name in ("successors", "find_rule"):

        def entered(self, *args, _method=getattr(SystemHandle, name), _name=name, **kwargs):
            counts[_name] += 1
            public[0] += 1
            try:
                return _method(self, *args, **kwargs)
            finally:
                public[0] -= 1

        monkeypatch.setattr(SystemHandle, name, entered)
    return counts


FILE_SYSTEM = {
    "semiring": {"kind": "nat_inf"},
    "rules": [{"lhs": "a", "rhs": ["b", "c"], "agg": "1 + v1 + v2"},
              {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "skip"},
              {"lhs": "b", "rhs": ["c"], "agg": "1 + v1"},
              {"lhs": "b", "rhs": ["c"], "agg": "v1", "tag": "stay"}],
    "nf": {"c": "2"},
}


def test_file_system_commands_build_no_rule_record(monkeypatch, capsys, tmp_path):
    # Every rule was a checked record built by the loader, and every reader
    # asked public successors for records.
    path = tmp_path / "system.json"
    path.write_text(json.dumps(FILE_SYSTEM))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"a": "6", "b": "3", "c": "2"}))
    counts = _count_records(monkeypatch)
    system = ["--system", f"file:{path}"]
    assert main(["eval", *system, "--start", "a", "--depth", "5"]) == 0
    assert main(["bound", *system, "--mode", f"embed:{table}"]) == 0
    assert main(["oracle", *system, "--depth", "3"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert counts == {}


@pytest.mark.parametrize("name, start", [("walk_termprob", "3"),
                                         ("addition_trs", "plus(s(0), s(0))"),
                                         ("ski_rental(y=50)", "n0=60")])
def test_builtin_eval_builds_no_rule_record(monkeypatch, capsys, name, start):
    # Every built-in rule was a checked record, one per rule per object read.
    counts = _count_records(monkeypatch)
    assert main(["eval", "--system", f"builtin:{name}", "--start", start, "--depth", "6"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert counts == {}


@pytest.mark.parametrize("nf_bound, code", [("2", 0), ("1", 4)], ids=["holds", "violated"])
def test_embedding_check_asks_each_object_for_its_rules_once(monkeypatch, capsys, tmp_path,
                                                              nf_bound, code):
    # The normal form c was asked for its rules again to read its weight,
    # and a third time to report a violated weight.
    path = tmp_path / "system.json"
    path.write_text(json.dumps(FILE_SYSTEM))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"a": "6", "b": "3", "c": nf_bound}))
    budgets = collections.Counter()
    rows = SystemHandle._rows

    def counted(self, a, budget):
        budgets[a, budget] += 1
        return rows(self, a, budget)

    monkeypatch.setattr(SystemHandle, "_rows", counted)
    assert main(["bound", "--system", f"file:{path}", "--mode", f"embed:{table}"]) == code
    out = capsys.readouterr().out
    assert ("violated_normal_form: c" in out) == (code == 4)
    # One question for c's weight from the check for a top-valued normal
    # form, then one per object, in order, from the embedding check.
    assert budgets == {("c", 1): 1, ("a", 64): 1, ("b", 64): 1, ("c", 64): 1}


@pytest.mark.parametrize("kind, b, code, lookups", [
    ("real_inf", "3", 0, 0), ("real_inf", "2.999", 4, 1), ("nat_inf", "3", 0, 4),
], ids=["real-holds", "real-violated", "nat-holds"])
def test_embedding_check_evaluates_only_violated_real_steps(monkeypatch, capsys, tmp_path,
                                                            kind, b, code, lookups):
    # Over real_inf a violated step is still evaluated, for its message; over
    # any other carrier every step is.
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(FILE_SYSTEM, semiring={"kind": kind})))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"a": "6", "b": b, "c": "2"}))
    counted = _count_calls(monkeypatch, aggregator._compiled)
    assert main(["bound", "--system", f"file:{path}", "--mode", f"embed:{table}"]) == code
    assert ("aggregated: 3" in capsys.readouterr().out) == (code == 4)
    assert counted[0] == lookups


def test_loop_builds_records_only_in_public_calls(monkeypatch, capsys):
    # The loop search and the pumped check asked public successors for
    # records of every rule they read, cplx_wrap rewrapped each base rule
    # into a record, and os_size, the built-in under os_runtime, checked each
    # rule it made as a record.  Now all three make or read rows, and the
    # only records come from find_rule (the polynomial and the pumped witness
    # name rules by tag), unchecked.
    counts = _count_records(monkeypatch)
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "wait(P1)", "--depth", "6"]
    assert main(argv) == 0
    assert "is the maximum" in capsys.readouterr().out
    assert counts["successors"] == 0
    assert counts["find_rule"] > 0
    assert counts["make", "public"] == counts["find_rule"]
    assert counts["make", "internal"] == 0
    assert counts["new", "internal"] == 0
    assert set(counts) == {"find_rule", ("make", "public")}


def _oracle_work(monkeypatch, capsys, argv, code=0) -> tuple:
    """Run ``wars oracle``, which must exit with ``code``, and return what it
    printed and its enumeration's work: the rule reads per (object, budget),
    the aggregator applications, and, after each key's weights were joined,
    the weights of the keys whose lists the enumeration still holds."""
    inside = [0]
    reads = collections.Counter()
    applied = [0]
    lists: list = []
    held: list = []
    rows = SystemHandle._rows
    compiled = evaluator._compiled
    tree_weights = cli._tree_weights

    def counted_rows(self, a, budget):
        if inside[0]:
            reads[a, budget] += 1
        return rows(self, a, budget)

    def counted_compiled(expr, desc, arity, truncation):
        fn = compiled(expr, desc, arity, truncation)

        def apply(*args):
            applied[0] += inside[0]
            return fn(*args)
        return apply

    def watched(sys_, roots, rule_budget, count_cap, finish):
        def joined(weights):
            # Referred to only by ``lists``, ``w`` and getrefcount's
            # argument, a list was dropped by the enumeration.
            lists.append(weights)
            held.append(sum(len(w) for w in lists if sys.getrefcount(w) > 3))
            return finish(weights)

        checks = tree_weights(sys_, roots, rule_budget, count_cap, joined)
        while True:
            inside[0] = 1
            try:
                value = next(checks, checks)
            finally:
                inside[0] = 0
            if value is checks:
                return
            yield value

    monkeypatch.setattr(SystemHandle, "_rows", counted_rows)
    monkeypatch.setattr(evaluator, "_compiled", counted_compiled)
    monkeypatch.setattr(cli, "_tree_weights", watched)
    assert main(argv) == code
    return capsys.readouterr(), reads, applied[0], held


def _trees(data, checks) -> dict:
    """The number of trees of every key the checks reach, naively."""
    by_lhs = collections.defaultdict(list)
    for rule in data["rules"]:
        by_lhs[rule["lhs"]].append(rule["rhs"])
    trees: dict = {}

    def count(obj, d):
        if (obj, d) not in trees:
            trees[obj, d] = 1 + sum(
                math.prod(count(b, d - 1) for b in rhs) for rhs in (by_lhs[obj] if d else ())
            )
        return trees[obj, d]

    for check in checks:
        count(check["object"], check["depth"])
    return trees


def _distinct(data, keys) -> dict:
    """The distinct typed weights of each key's trees, naively: every tree
    of the reference enumeration weighed by the reference."""
    sys_ = load_explicit(json.dumps(data))
    distinct = {}
    for obj, d in keys:
        weights = (reference_tree_weight(sys_, t) for t in reference_enumerate_trees(sys_, obj, d, 64))
        distinct[obj, d] = {(type(w), w) for w in weights}
    return distinct


def _applications(data, distinct) -> int:
    """Rule applications when every key of ``distinct`` is built from its
    children's distinct weights: per key and rule, their product."""
    return sum(math.prod(len(distinct[c, d - 1]) for c in rule["rhs"])
               for obj, d in distinct for rule in data["rules"] if rule["lhs"] == obj and d)


def test_oracle_reads_and_weighs_each_key_once(monkeypatch, capsys, tmp_path):
    # Each check enumerated from scratch: a key was read and weighed again
    # by every check whose trees reach it.  Then each key was read once, and
    # each of its rules applied once per combination of its children's
    # distinct weights, not once per tree.
    data = random_system_json(33)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    argv = ["oracle", "--system", f"file:{path}", "--depth", "4", "--format", "json"]
    captured, reads, applied, _ = _oracle_work(monkeypatch, capsys, argv)
    # The checks' roots are every object at every depth up to 4, so every
    # object has a key of depth >= 1.
    trees = _trees(data, json.loads(captured.out)["checks"])
    # Rules at the full budget and normal-form status once per object.
    objects = {obj for obj, _ in trees}
    assert reads == {**{(obj, 64): 1 for obj in objects}, **{(obj, 1): 1 for obj in objects}}
    assert sum(n - 1 for n in trees.values()) == 6_406
    assert applied == _applications(data, _distinct(data, trees)) == 89


def test_oracle_holds_at_most_two_levels_of_weights(monkeypatch, capsys, tmp_path):
    # Each key holds its distinct weights; the enumeration builds a level
    # from the one below and then drops that, so it holds at most the
    # distinct weights of two adjacent levels, and exactly that once the
    # largest pair is built.
    data = random_system_json(33)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    argv = ["oracle", "--system", f"file:{path}", "--depth", "4", "--format", "json"]
    captured, _, applied, held = _oracle_work(monkeypatch, capsys, argv)
    distinct = _distinct(data, _trees(data, json.loads(captured.out)["checks"]))
    level = [sum(len(w) for (_, d), w in distinct.items() if d == j) for j in range(5)]
    assert max(held) == max(level[j - 1] + level[j] for j in range(1, 5)) < sum(level)
    assert applied == 89


def test_oracle_builds_nothing_only_a_capped_check_reaches(monkeypatch, capsys, tmp_path):
    # Under a cap of 1,000 the first checks pass and a later one has more
    # trees: the checks before it are weighed, each key they reach once, and
    # no key that only it and later checks reach.
    data = random_system_json(33)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    argv = ["oracle", "--system", f"file:{path}", "--depth", "4", "--count-cap", "1000"]
    checks = [{"object": obj, "depth": d}
              for obj in load_explicit(json.dumps(data)).enumerate_objects() for d in range(5)]
    reached: dict = {}
    for n, check in enumerate(checks):
        trees = _trees(data, [check])
        if sum(t - 1 for t in trees.values()) > 1000:
            break
        reached.update(trees)
    assert 0 < n < len(checks) - 1
    captured, _, applied, _ = _oracle_work(monkeypatch, capsys, argv, code=2)
    assert captured.out == "" and captured.err == f"error: more than 1000 trees at depth {checks[n]['depth']}\n"
    assert applied == _applications(data, _distinct(data, reached)) == 30
