"""Loop search, induced polynomials, increment certification, verdicts."""

from __future__ import annotations

import dataclasses
import json

import pytest

from reference_eval import (
    reference_find_loops,
    reference_induced_polynomial,
    reference_tag_path,
    reference_tree_weight,
    reference_weight_profile,
)
from system_gen import random_system_json
from test_level_core import LOOPS
from wars import aggregator as agg
from wars import unboundedness
from wars.aggregator import (
    Const, CountableSum, SumNode, Var, X, evaluate, format_expr, parse_expr, substitute_x,
)
from wars.builtins import builtin
from wars.cli import main
from wars.evaluator import ReductionTree, StructuralTreeError, tree_weight, weight_lower_bound
from wars.semiring import (
    ALL_WORDS, ARCTIC, BOOLEAN, NAT_INF, REAL_INF, TROPICAL, CarrierMismatch, Language, Product,
    SemiringError,
)
from wars.system import SystemHandle, load_explicit
from wars.unboundedness import (
    CANDIDATE,
    CERTIFIED,
    UnboundednessError,
    UncertifiedWitnessError,
    analyze_loop,
    certify_loop,
    conclude_unbounded,
    find_loops,
    induced_polynomial,
)


def explicit(spec: dict):
    return load_explicit(json.dumps(spec))


SELF_AND_EXIT = explicit(
    {
        "semiring": {"kind": "boolean"},
        "rules": [{"lhs": "a", "rhs": ["a", "b"], "agg": "v1 + v2", "tag": "spin"}],
        "nf": {"b": "true"},
    }
)


def poly_at(desc, polynomial, s):
    value, _ = evaluate(substitute_x(polynomial, Const(s)), desc, [])
    return value


class TestFindLoops:
    def test_scheduler_four_step_cycle(self):
        osr = builtin("os_runtime")
        start = osr.parse_object("idle()")
        loops = find_loops(osr, start, 4)
        traces = {tuple(analyze_loop(osr, t, p).trace()) for t, p in loops}
        assert ("idle_wait", "wait_P1", "idle_run", "run_P1") in traces

    def test_terminating_chain_has_none(self):
        chain = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                "nf": {"b": "0"},
            }
        )
        assert find_loops(chain, "a", 6) == []

    def test_immediate_self_loop(self):
        loops = find_loops(SELF_AND_EXIT, "a", 3)
        tree, path = loops[0]
        assert tree.depth() == 1
        assert path == (0,)

    def test_loops_come_smallest_first(self):
        osr = builtin("os_runtime")
        start = osr.parse_object("idle()")
        loops = find_loops(osr, start, 8, max_witnesses=32)
        depths = [tree.depth() for tree, _ in loops]
        assert depths == sorted(depths)

    def test_a_depth_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^max_depth must be >= 1$"):
            find_loops(SELF_AND_EXIT, "a", 0)

    @pytest.mark.parametrize("max_witnesses", [0, -1])
    def test_no_witness_asked_for_is_refused(self, max_witnesses):
        # Once each returned one loop.
        osr = builtin("os_runtime")
        with pytest.raises(ValueError, match="^max_witnesses must be >= 1$"):
            find_loops(osr, osr.parse_object("idle()"), 4, max_witnesses=max_witnesses)


def _bare_off_the_path(tree: ReductionTree, path: tuple) -> bool:
    """Whether every node off ``path`` is a leaf without a rule, and the
    node at ``path`` is a leaf."""
    for idx in path:
        if any(child.children or child.rule_tag is not None
               for i, child in enumerate(tree.children) if i != idx):
            return False
        tree = tree.children[idx]
    return not tree.children


class TestPathWalkAgainstTreeEnumeration:
    """The walk over rule paths against the search over every reduction tree
    that it replaced."""

    def test_same_loops_on_generated_systems(self):
        compared = 0
        for seed in range(400):
            system = load_explicit(json.dumps(random_system_json(seed)))
            for start in system.enumerate_objects():
                for depth in (1, 2, 3):
                    loops = find_loops(system, start, depth, max_witnesses=10**6)
                    expected = reference_find_loops(system, start, depth, max_witnesses=10**6)
                    keys = [(tree.label, reference_tag_path(tree, path)) for tree, path in loops]
                    assert len(keys) == len(set(keys)) == len(expected), (seed, start, depth)
                    assert set(keys) == {
                        (tree.label, reference_tag_path(tree, path)) for tree, path in expected
                    }, (seed, start, depth)
                    for tree, path in loops:
                        assert tree.label == start
                        assert tree.depth() == len(path)
                        assert _bare_off_the_path(tree, path), (seed, start, depth, path)
                    assert find_loops(system, start, depth) == loops[:16]
                    compared += len(loops)
        assert compared > 4000

    @pytest.mark.parametrize("name", ["os_runtime", "os_size", "os_fair", "os_starv"])
    def test_same_list_on_the_schedulers(self, name):
        system = builtin(name)
        for text in ("idle()", "wait(P1)", "run(P2P1)", "idle(P1P2)"):
            start = system.parse_object(text)
            for depth in range(1, 9):
                assert find_loops(system, start, depth) == (
                    reference_find_loops(system, start, depth)
                ), (text, depth)

    def test_each_tag_path_keeps_its_first_path_in_walk_order(self):
        # 0 is a normal form, so jump>jump first returns to 2 through 1.
        walk = builtin("geometric_walk")
        loops = find_loops(walk, 2, 2)
        assert [reference_tag_path(tree, path) for tree, path in loops] == [
            ("jump",), ("jump", "jump")
        ]
        assert [path for _, path in loops] == [(2,), (1, 2)]


class TestInducedPolynomial:
    def test_step_count_loop(self):
        osr = builtin("os_runtime")
        tree, path = find_loops(osr, osr.parse_object("idle()"), 4)[0]
        poly = induced_polynomial(osr, tree, path)
        for x in (0, 1, 2, 5, 100):
            assert poly_at(NAT_INF, poly, x) == x + 4

    def test_queue_size_loop(self):
        oss = builtin("os_size")
        tree, path = find_loops(oss, oss.parse_object("idle()"), 4)[0]
        poly = induced_polynomial(oss, tree, path)
        for x in (0, 1, 2, 5, 100):
            assert poly_at(ARCTIC, poly, x) == max(x, 1)

    def test_single_step_chain(self):
        chain = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": "step"}],
                "nf": {"b": "0"},
            }
        )
        from wars.evaluator import ReductionTree

        tree = ReductionTree("a", "step", (ReductionTree("b"),))
        poly = induced_polynomial(chain, tree, (0,))
        assert poly == SumNode((Const(1), X))

    def test_off_path_subtrees_fold_to_constants(self):
        loops = find_loops(SELF_AND_EXIT, "a", 2)
        deeper = [(t, p) for t, p in loops if t.depth() == 2]
        for tree, path in deeper:
            poly = induced_polynomial(SELF_AND_EXIT, tree, path)
            for s in (False, True):
                assert poly_at(BOOLEAN, poly, s) in (False, True)

    def test_rejects_inner_node(self):
        osr = builtin("os_runtime")
        tree, path = find_loops(osr, osr.parse_object("idle()"), 4)[0]
        with pytest.raises(Exception, match="not a leaf"):
            induced_polynomial(osr, tree, path[:1])


class TestCertifyLoop:
    def test_counting_offset_certifies(self):
        poly = parse_expr("X + 4", NAT_INF)
        assert certify_loop(NAT_INF, poly) == (4, CERTIFIED)

    def test_idempotent_maximum_does_not(self):
        poly = parse_expr("X + 1", ARCTIC)  # max(X, 1)
        assert certify_loop(ARCTIC, poly) is None

    def test_boolean_exhaustive(self):
        poly = SumNode((X, Const(True)))
        result = certify_loop(BOOLEAN, poly)
        assert result == (True, CERTIFIED)
        # The two-element check is genuinely exhaustive.
        for s in (False, True):
            assert BOOLEAN.leq(BOOLEAN.plus(s, True), poly_at(BOOLEAN, poly, s))

    def test_language_loop_stays_uncertified(self):
        lang = Language(("0", "1"))
        poly = parse_expr("({1} * X) + X", lang)
        result = certify_loop(lang, poly)
        assert result is None or result[1] == CANDIDATE

    def test_rational_offset_certifies(self):
        poly = parse_expr("X + 1/2", REAL_INF)
        from fractions import Fraction

        assert certify_loop(REAL_INF, poly) == (Fraction(1, 2), CERTIFIED)

    def test_tropical_has_no_usable_increment(self):
        # The only increment whose infinite self-sum reaches the tropical
        # maximum is the maximum itself, which the search excludes.
        from wars.semiring import TROPICAL

        poly = parse_expr("X * 1", TROPICAL)  # adds one step cost
        assert certify_loop(TROPICAL, poly) is None

    def test_nonaffine_counting_polynomial_is_candidate_at_best(self):
        poly = parse_expr("(X * X) + 2", NAT_INF)
        result = certify_loop(NAT_INF, poly)
        assert result == (1, CANDIDATE)

    @pytest.mark.parametrize("polynomial", [
        parse_expr("v1 + X", NAT_INF),
        SumNode((X, Const(1), CountableSum(lambda i: Const(1) if i < 2 else None, var_bound=0))),
        CountableSum(lambda i: X if i == 0 else None, var_bound=0),
    ], ids=["v1", "countable sum", "countable sum alone"])
    def test_polynomial_must_be_closed(self, polynomial):
        # The refusal reads the polynomial's facts: largest variable 0 and
        # no countable sum.
        with pytest.raises(UnboundednessError) as error:
            certify_loop(NAT_INF, polynomial)
        assert type(error.value) is UnboundednessError
        assert str(error.value) == "loop polynomials mention X and constants only"

    def test_leaf_that_is_no_expression_raises_the_facts_error(self):
        with pytest.raises(agg.AggregatorError, match="not an aggregator expression: 3"):
            certify_loop(NAT_INF, SumNode((X, 3)))


class TestConcludeUnbounded:
    def test_scheduler_runtime(self):
        osr = builtin("os_runtime")
        witness = analyze_loop(osr, *find_loops(osr, osr.parse_object("idle()"), 4)[0])
        assert witness.status == CERTIFIED and witness.t == 4
        report = conclude_unbounded(osr, witness)
        # The report holds what the witness does not: its root, increment,
        # polynomial and trace are the witness's own.
        assert [f.name for f in dataclasses.fields(report)] == ["method", "cross_check"]
        assert report.method == "increasing-loop"
        assert report.cross_check["loop_depth"] == witness.tree.depth() == 4
        assert osr.format_object(witness.root) == "idle()"
        assert len(witness.trace()) == 4

    def test_boolean_self_loop(self):
        witness = analyze_loop(SELF_AND_EXIT, *find_loops(SELF_AND_EXIT, "a", 2)[0])
        assert witness.status == CERTIFIED and witness.t is True
        report = conclude_unbounded(SELF_AND_EXIT, witness)
        # The weight is already the maximum after one level.
        assert weight_lower_bound(SELF_AND_EXIT, "a", 1).value is True
        assert report.cross_check["iteration_values"][0] == "true"

    def test_candidate_is_rejected(self):
        oss = builtin("os_size")
        witness = analyze_loop(oss, *find_loops(oss, oss.parse_object("idle()"), 4)[0])
        assert witness.status == CANDIDATE
        with pytest.raises(UncertifiedWitnessError):
            conclude_unbounded(oss, witness)

    def test_iteration_dominates_accumulated_increments(self):
        osr = builtin("os_runtime")
        witness = analyze_loop(osr, *find_loops(osr, osr.parse_object("idle()"), 4)[0])
        d = witness.tree.depth()
        for k in range(1, 6):
            bound = weight_lower_bound(osr, witness.root, k * d)
            assert bound.value >= k * witness.t


def _nested(tree: ReductionTree, path: tuple, k: int) -> ReductionTree:
    """k copies of the loop ``tree``, each put in the designated leaf of
    the one around it."""

    def graft(node, rest, scion):
        if not rest:
            return scion
        kids = list(node.children)
        kids[rest[0]] = graft(kids[rest[0]], rest[1:], scion)
        return ReductionTree(node.label, node.rule_tag, tuple(kids))

    pumped = tree
    for _ in range(k - 1):
        pumped = graft(tree, path, pumped)
    return pumped


SCHEDULERS = ("os_runtime", "os_size", "os_fair", "os_starv")
SCHEDULER_STARTS = ("idle()", "wait(P1)", "run(P2P1)")
# The reference explores the root's whole ball, which on the schedulers
# grows about fourfold every four levels (4,093 objects at 20 from idle()),
# so the bound is checked up to this depth.
REFERENCE_DEPTH = 16


def _loop_inputs():
    """(system, start, depth) of every ``loop`` input the property covers."""
    for name in SCHEDULERS:
        system = builtin(name)
        for start in SCHEDULER_STARTS:
            for depth in range(1, 9):
                yield system, system.parse_object(start), depth
    for data in [LOOPS, *map(random_system_json, range(400))]:
        system = explicit(data)
        for start in system.enumerate_objects():
            for depth in (1, 2, 3):
                yield system, start, depth


def test_pumped_witness_weighs_the_iterated_polynomial():
    checked, profiled, profiles = 0, None, {}
    for system, start, depth in _loop_inputs():
        if system is not profiled:
            profiled, profiles = system, {}
        desc = system.semiring
        for tree, path in find_loops(system, start, depth, rule_budget=64):
            witness = analyze_loop(system, tree, path)
            if witness.status != CERTIFIED:
                continue
            report = conclude_unbounded(system, witness)
            loop_depth = tree.depth()
            assert report.cross_check["loop_depth"] == loop_depth
            reach = min(5 * loop_depth, REFERENCE_DEPTH)
            if len(profiles.get(start, ())) <= reach:
                profiles[start] = reference_weight_profile(system, start, reach)
            value = desc.zero
            for k in range(1, 6):
                value = poly_at(desc, witness.polynomial, value)
                weight = reference_tree_weight(system, _nested(tree, path, k))
                assert (weight, type(weight)) == (value, type(value)), (system.name, start, k)
                assert report.cross_check["iteration_values"][k - 1] == desc.format_literal(value)
                if k * loop_depth <= REFERENCE_DEPTH:
                    assert desc.leq(value, profiles[start][k * loop_depth]), (system.name, start, k)
            checked += 1
    assert checked > 500


def test_a_term_of_unbounded_variables_stays_in_the_loop_polynomial():
    # The self-loop's one term is v1 + S, S a countable sum of the constant
    # 1 with the default bound inf.  The evaluator keeps a term whose bound
    # is inf; the polynomial dropped it and read 0, a candidate.
    inner = CountableSum(lambda i: Const(1) if i == 0 else None)
    body = CountableSum(lambda i: SumNode((Var(1), inner)) if i == 0 else None)
    system = SystemHandle("nested_sum", NAT_INF,
                          lambda a: [(a, ("a",), body, "step", True)],
                          lambda a: 0)
    tree, path = ReductionTree("a", "step", (ReductionTree("a"),)), (0,)
    witness = analyze_loop(system, tree, path)
    assert (format_expr(witness.polynomial, NAT_INF), witness.status, witness.t) == (
        "(X + 1)", CERTIFIED, 1)
    value, weights = NAT_INF.zero, []
    for k in range(1, 6):
        value = poly_at(NAT_INF, witness.polynomial, value)
        weights.append(tree_weight(system, _nested(tree, path, k)))
        assert weights[-1] == value
    assert weights == [1, 2, 3, 4, 5]


def _self_loop(body) -> tuple:
    """A nat_inf system whose one object a steps to itself under ``body``,
    with the loop tree and its leaf path."""
    system = SystemHandle("nested_sum", NAT_INF,
                          lambda a: [(a, ("a",), body, "step", True)],
                          lambda a: 0)
    return system, ReductionTree("a", "step", (ReductionTree("a"),)), (0,)


def test_a_variable_beyond_the_arity_raises_as_the_evaluator_does():
    # The one term v1 + v3 + S is kept, since S has bound inf; v3 names no
    # child.  The polynomial put 0 for v3 and certified X + 0 + 1 with t = 1,
    # while the loop tree raised.
    inner = CountableSum(lambda i: Const(1) if i == 0 else None)
    body = CountableSum(lambda i: SumNode((Var(1), Var(3), inner)) if i == 0 else None)
    system, tree, path = _self_loop(body)
    message = "aggregator mentions v3 but only 1 arguments were supplied"
    with pytest.raises(agg.ArityError) as weighed:
        tree_weight(system, tree)
    with pytest.raises(agg.ArityError) as analyzed:
        analyze_loop(system, tree, path)
    assert str(weighed.value) == str(analyzed.value) == message


def test_a_sum_at_the_top_reads_every_kept_term():
    # A cut sum is a plain finite sum: reaching inf does not stop it, so the
    # term that names v3 is read, and the loop tree and its polynomial both
    # raise.  Every kept term's constants are checked when the sum compiles,
    # so a -1 after inf fails the carrier check.
    inner = CountableSum(lambda i: Const(1) if i == 0 else None)
    terms = [Const(1), Const(NAT_INF.top), SumNode((Var(1), Var(3), inner))]
    system, tree, path = _self_loop(CountableSum(lambda i: terms[i] if i < len(terms) else None))
    with pytest.raises(agg.ArityError, match="mentions v3"):
        tree_weight(system, tree)
    with pytest.raises(agg.ArityError, match="mentions v3"):
        induced_polynomial(system, tree, path)
    past_top = [Const(NAT_INF.top), Const(-1)]
    with pytest.raises(CarrierMismatch):
        evaluate(CountableSum(lambda i: past_top[i] if i < 2 else None), NAT_INF, [])


def test_substitution_keeps_every_term_the_compiled_sum_reads():
    # The first term is the maximum, and both readers still read the second,
    # whose concatenation with SIGMA* leaves the finite-language carrier.
    desc = Product((TROPICAL, Language(("a",))))
    terms = [Const((0, ALL_WORDS)), agg.ProdNode((Const((1, frozenset({"a"}))), Var(1)))]
    body = CountableSum(lambda i: terms[i] if i < len(terms) else None)
    top = (0, ALL_WORDS)
    message = r"^concatenation with SIGMA\* leaves the finite-language carrier$"
    with pytest.raises(SemiringError, match=message):
        evaluate(body, desc, [top])
    applied = unboundedness._apply_aggregator(body, [Const(top)], desc)
    assert format_expr(applied, desc) == "(0,SIGMA*) + (1,{a}) * (0,SIGMA*)"
    with pytest.raises(SemiringError, match=message):
        evaluate(applied, desc, [])


# A nat_inf self-loop whose polynomial is 1 + X.
SPIN = {
    "semiring": {"kind": "nat_inf"},
    "rules": [{"lhs": "a", "rhs": ["a"], "agg": "1 + v1", "tag": "spin"}],
    "nf": {},
}


class TestPumpedWitnessMismatch:
    def test_changed_polynomial_is_refused(self):
        system = explicit(SPIN)
        witness = analyze_loop(system, *find_loops(system, "a", 1)[0])
        assert witness.status == CERTIFIED
        assert format_expr(witness.polynomial, NAT_INF) == "1 + X"
        witness.polynomial = parse_expr("2 + X", NAT_INF)
        with pytest.raises(UnboundednessError, match="weighs 1, but its polynomial gives 2"):
            conclude_unbounded(system, witness)

    def test_cli_prints_one_error_line(self, monkeypatch, capsys, tmp_path):
        derive = unboundedness.induced_polynomial
        monkeypatch.setattr(
            unboundedness,
            "induced_polynomial",
            lambda *args: SumNode((Const(1), derive(*args))),
        )
        path = tmp_path / "spin.json"
        path.write_text(json.dumps(SPIN))
        assert main(["loop", "--system", f"file:{path}", "--start", "a", "--depth", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: at k=1 the pumped loop weighs 1, but its polynomial gives 2"
        ]


class TestLanguageLoopStaysBounded:
    def test_growing_loop_without_certificate(self):
        sys_ = builtin("loop_language")
        loops = find_loops(sys_, "a", 3)
        assert loops, "the self loop must be found"
        for tree, path in loops:
            witness = analyze_loop(sys_, tree, path)
            assert witness.status == CANDIDATE


class TestServiceCountLoops:
    # Worst-case weights cannot separate per-process service guarantees: the
    # single-process loop gains nothing in the other slot, while the
    # alternating loop gains in both but the product carrier only supports
    # probing, so nothing is ever certified.

    def test_single_process_loop_has_no_increment(self):
        oss = builtin("os_starv")
        start = oss.parse_object("idle()")
        for tree, path in find_loops(oss, start, 4):
            witness = analyze_loop(oss, tree, path)
            assert witness.status == CANDIDATE and witness.t is None

    def test_alternating_loop_is_candidate_with_unit_gain(self):
        oss = builtin("os_starv")
        start = oss.parse_object("idle()")
        witnesses = [
            analyze_loop(oss, t, p)
            for t, p in find_loops(oss, start, 8, max_witnesses=64)
        ]
        both = [
            w
            for w in witnesses
            if "run_P1" in w.trace() and "run_P2" in w.trace()
        ]
        assert both
        assert any(w.t == (1, 1) and w.status == CANDIDATE for w in both)


def _typed_shape(expr) -> list:
    """An expression's nodes in order, each constant with its value's type,
    since ``==`` on constants takes ``1`` and ``Fraction(1)`` for equal."""
    return agg._reduce(
        expr,
        lambda e: [(type(e).__name__, type(getattr(e, "value", None)), getattr(e, "value", None))],
        lambda e, parts: [type(e).__name__] + [p for part in parts for p in part],
    )


def _polynomial_outcome(derive, system, tree, path):
    try:
        polynomial = derive(system, tree, path)
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)
    return format_expr(polynomial, system.semiring), _typed_shape(polynomial)


class TestPathPolynomial:
    """The polynomial built along the loop path, off-path subtrees weighed by
    ``tree_weight``, against the whole-tree rebuild it replaced."""

    def test_matches_the_whole_tree_rebuild_on_generated_systems(self):
        compared = 0
        for seed in range(400):
            system = load_explicit(json.dumps(random_system_json(seed)))
            for start in system.enumerate_objects():
                for depth in (1, 2, 3):
                    for tree, path in find_loops(system, start, depth):
                        compared += 1
                        assert _polynomial_outcome(induced_polynomial, system, tree, path) == (
                            _polynomial_outcome(reference_induced_polynomial, system, tree, path)
                        ), (seed, start, depth, path)
        assert compared > 4000

    @pytest.mark.parametrize("name", ["os_runtime", "os_size", "os_fair", "os_starv"])
    def test_matches_the_whole_tree_rebuild_on_the_schedulers(self, name):
        system = builtin(name)
        starts = [system.parse_object(s) for s in ("idle()", "wait(P1)", "run(P2P1)")]
        loops = [loop for start in starts for loop in find_loops(system, start, 5, max_witnesses=64)]
        assert loops
        for tree, path in loops:
            assert _polynomial_outcome(induced_polynomial, system, tree, path) == (
                _polynomial_outcome(reference_induced_polynomial, system, tree, path)
            )

    def test_countable_sums_off_the_path(self):
        # Every child of a jump from 2 but the 2 is off the path; in the last
        # tree the off-path 1 jumps too, so a countable sum is weighed there.
        walk = builtin("geometric_walk", prefix=6)
        tree, path = find_loops(walk, 2, 1)[0]
        jumped = ReductionTree(1, "jump", tuple(map(ReductionTree, range(6))))
        off_path = ReductionTree(2, "jump", tree.children[:1] + (jumped,) + tree.children[2:])
        for tree, path in [(tree, path), (unboundedness._graft(tree, path, tree), path * 2),
                           (off_path, path)]:
            assert _polynomial_outcome(induced_polynomial, walk, tree, path) == (
                _polynomial_outcome(reference_induced_polynomial, walk, tree, path)
            )

    def test_designated_leaf_object_also_off_the_path(self):
        system = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": "a", "rhs": ["a", "a"], "agg": "v1 + v2", "tag": "two"},
                    {"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": "exit"},
                ],
                "nf": {"b": "2"},
            }
        )
        leaf, done = ReductionTree("a"), ReductionTree("a", "exit", (ReductionTree("b"),))
        for tree, path, text in [
            (ReductionTree("a", "two", (done, leaf)), (1,), "3 + X"),
            (ReductionTree("a", "two", (leaf, leaf)), (0,), "X + 0"),
            (ReductionTree("a", "two", (leaf, leaf)), (1,), "0 + X"),
        ]:
            outcome = _polynomial_outcome(induced_polynomial, system, tree, path)
            assert outcome[0] == text
            assert outcome == _polynomial_outcome(reference_induced_polynomial, system, tree, path)

    def test_long_path_within_the_nesting_bound(self):
        tree = _chain_tree(300)
        outcome = _polynomial_outcome(induced_polynomial, STEP, tree, (0,) * 300)
        assert outcome[0] == " + (".join(["1"] * 300) + " + X" + ")" * 299
        assert outcome == _polynomial_outcome(reference_induced_polynomial, STEP, tree, (0,) * 300)

    def test_deep_path_is_an_error_not_a_recursion_failure(self):
        with pytest.raises(UnboundednessError, match="nests deeper than 400 levels"):
            induced_polynomial(STEP, _chain_tree(2_000), (0,) * 2_000)

    def test_malformed_off_path_subtree_raises_what_tree_weight_raises(self):
        bad = ReductionTree("a", "spin", (ReductionTree("a"), ReductionTree("b", "spin", (ReductionTree("b"),))))
        with pytest.raises(StructuralTreeError, match="normal form b has children"):
            induced_polynomial(SELF_AND_EXIT, bad, (0,))


STEP = explicit(
    {
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["a"], "agg": "1 + v1", "tag": "step"}],
        "nf": {},
    }
)


def _chain_tree(steps: int) -> ReductionTree:
    """``steps`` applications of STEP's one rule above the leaf ``a``."""
    tree = ReductionTree("a")
    for _ in range(steps):
        tree = ReductionTree("a", "step", (tree,))
    return tree
