"""System handles: successors, normal forms, built-in families, the loader."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from wars.aggregator import Const, ProdNode, SumNode, Var
from wars.builtins import (
    builtin,
    builtin_names,
    format_term,
    ground_terms,
    numeral,
    parse_term,
    plus_term,
    rewrite_steps,
    s_term,
    term_size,
    term_value,
)
from system_gen import random_system_json
from wars.semiring import INF, LiteralError
from wars.system import (
    NotNormalFormError,
    RuleInstance,
    SystemFormatError,
    SystemError_,
    UnknownObjectError,
    cplx_wrap,
    load_explicit,
)

TWO_STATE = json.dumps(
    {
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b", "c"], "agg": "v1 + v2", "tag": "split"}],
        "nf": {"b": "1", "c": "2"},
    }
)

FIG_FORMULA = json.dumps(
    {
        "semiring": {"kind": "arctic"},
        "rules": [
            {"lhs": "psi", "rhs": ["Ra", "PabPbb"], "agg": "v1 * v2", "tag": "and"},
            {"lhs": "PabPbb", "rhs": ["Pab", "Pbb"], "agg": "v1 + v2", "tag": "or"},
        ],
        "nf": {"Ra": "2", "Pab": "7", "Pbb": "10"},
    }
)


class TestSuccessors:
    def test_walk_step(self):
        walk = builtin("walk_termprob")
        rules, complete = walk.successors(2)
        assert complete is True
        assert len(rules) == 1
        assert rules[0].rhs == (1, 3)
        assert rules[0].aggregator == SumNode(
            (
                ProdNode((Const(Fraction(2, 3)), Var(1))),
                ProdNode((Const(Fraction(1, 3)), Var(2))),
            )
        )

    def test_normal_form_has_no_rules(self):
        walk = builtin("walk_termprob")
        assert walk.successors(0) == ([], True)
        assert walk.is_normal_form(0)

    def test_unbounded_fanout_respects_budget(self):
        na = builtin("na_system")
        rules, complete = na.successors("a", 3)
        assert complete is False
        assert [r.rhs for r in rules] == [(0,), (1,), (2,)]

    def test_enumeration_deterministic(self):
        os_size = builtin("os_size")
        state = os_size.parse_object("wait(P1)")
        first, _ = os_size.successors(state, 8)
        second, _ = os_size.successors(state, 8)
        assert first == second


class TestNfWeight:
    def test_walk_weighs_one(self):
        assert builtin("walk_termprob").nf_weight(0) == 1

    def test_step_count_weighs_zero(self):
        trs = builtin("addition_trs")
        assert trs.nf_weight(numeral(3)) == 0

    def test_scheduler_empty_run(self):
        os_size = builtin("os_size")
        assert os_size.nf_weight(("run", ())) == 0

    def test_error_on_non_normal_form(self):
        walk = builtin("walk_termprob")
        with pytest.raises(NotNormalFormError):
            walk.nf_weight(5)


class TestCplxWrap:
    def test_every_rule_counts_one_step(self):
        trs = builtin("addition_trs")  # already step-counting
        t = plus_term(numeral(1), numeral(1))
        for rule in trs.successors(t)[0]:
            assert rule.aggregator == SumNode((Const(1), Var(1)))

    def test_empty_relation_becomes_all_normal_forms(self):
        empty = load_explicit(
            json.dumps({"semiring": {"kind": "boolean"}, "rules": [], "nf": {"x": "true"}})
        )
        wrapped = cplx_wrap(empty)
        assert wrapped.is_normal_form("x")
        assert wrapped.nf_weight("x") == 0
        assert wrapped.semiring.kind == "nat_inf"

    def test_wide_rule_sums_all_children(self):
        two = cplx_wrap(load_explicit(TWO_STATE))
        rule = two.successors("a")[0][0]
        assert rule.aggregator == SumNode((Const(1), Var(1), Var(2)))
        assert rule.tag == "split"


class TestBuiltins:
    def test_scheduler_wait_rules(self):
        os_size = builtin("os_size")
        state = os_size.parse_object("wait()")
        rules, complete = os_size.successors(state)
        assert complete
        assert [r.rhs[0] for r in rules] == [("idle", ("P1",)), ("idle", ("P2",))]
        for r in rules:
            assert r.aggregator == SumNode((Var(1), Const(1)))

    def test_cost_table_normal_forms(self):
        bf = builtin("boolform")
        costs = {bf.format_object(a): bf.nf_weight(a) for a in bf.enumerate_nfs()[0]}
        assert costs["Ra"] == 2 and costs["Pab"] == 7 and costs["Pbb"] == 10
        assert costs["Rb"] is INF

    def test_ski_initial_configuration_reduces(self):
        ski = builtin("ski_rental", y=3)
        assert not ski.is_normal_form(ski.parse_object("n0=5"))

    def test_deterministic_builtins_have_single_rules(self):
        probes = [
            (builtin("walk_termprob"), [1, 2, 9]),
            (builtin("walk_expected"), [1, 5]),
            (builtin("geometric_walk"), [1, 4]),
            (builtin("z_walk_safety"), [-7, -2, 3, 8]),
            (builtin("ski_rental", y=2), [("loop", 0), ("loop", 4), ("halt",)]),
            (builtin("boolform"), [builtin("boolform").parse_object("Ra & Rb")]),
        ]
        for sys_, objs in probes:
            for a in objs:
                rules, complete = sys_.successors(a)
                assert complete and len(rules) <= 1

    def test_unknown_builtin(self):
        with pytest.raises(SystemError_, match="unknown built-in"):
            builtin("nope")

    def test_names_include_aliases(self):
        names = builtin_names()
        assert "walk_termprob" in names and "ski_rental" in names

    def test_rule_arity_invariant_everywhere(self):
        from wars.aggregator import max_var

        cases = [
            (builtin("os_fair"), [("idle", ()), ("wait", ("P1",)), ("run", ("P2", "P1"))]),
            (builtin("walk_expected"), [1, 4]),
            (builtin("addition_trs"), ground_terms(6)),
            (builtin("ski_rental", y=2), [("loop", 3), ("loop", 0)]),
            (builtin("bitstring_prefixes"), ["0", "1"]),
        ]
        for sys_, objs in cases:
            for a in objs:
                for rule in sys_.successors(a)[0]:
                    mv = max_var(rule.aggregator)
                    assert not rule.rhs_complete or mv <= len(rule.rhs)


class TestAdditionTrs:
    def test_ground_terms_partition(self):
        trs = builtin("addition_trs")
        for t in ground_terms(8):
            rules, _ = trs.successors(t)
            has_plus = "plus" in format_term(t)
            assert bool(rules) == has_plus

    def test_rewriting_preserves_value(self):
        # Independent oracle: a term denotes a number; rewriting keeps it.
        for t in ground_terms(8):
            for _, result in rewrite_steps(t):
                assert term_value(result) == term_value(t)

    def test_term_syntax_round_trip(self):
        t = plus_term(s_term(numeral(1)), plus_term(numeral(0), numeral(2)))
        assert parse_term(format_term(t)) == t
        assert term_size(t) == 9

    def test_size_enumeration_counts(self):
        # Term counts by size follow the recursion size(n) = size(n-1) +
        # sum of products of smaller splits; spot-check the first few.
        by_size = {}
        for t in ground_terms(8):
            by_size.setdefault(term_size(t), []).append(t)
        assert [len(by_size[k]) for k in range(1, 9)] == [1, 1, 2, 4, 9, 21, 51, 127]


class TestLoadExplicit:
    def test_two_rule_system(self):
        sys_ = load_explicit(TWO_STATE)
        assert sys_.enumerate_objects() == (["a", "b", "c"], True)
        assert sys_.nf_weight("b") == 1 and sys_.nf_weight("c") == 2
        assert sys_.flags.terminating is True

    def test_arity_violation(self):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b", "c"], "agg": "v3"}],
                "nf": {"b": "0", "c": "0"},
            }
        )
        with pytest.raises(SystemFormatError, match="v3"):
            load_explicit(bad)

    def test_nf_weight_for_ruled_label(self):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["a"], "agg": "v1"}],
                "nf": {"a": "0"},
            }
        )
        with pytest.raises(SystemFormatError, match="rules but also"):
            load_explicit(bad)

    def test_missing_nf_weight(self):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                "nf": {},
            }
        )
        with pytest.raises(SystemFormatError, match="no weight"):
            load_explicit(bad)

    def test_unknown_object(self):
        sys_ = load_explicit(TWO_STATE)
        with pytest.raises(UnknownObjectError):
            sys_.successors("zzz")

    def test_cycle_refutes_termination(self):
        looped = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": "a", "rhs": ["b"], "agg": "v1"},
                    {"lhs": "b", "rhs": ["a"], "agg": "1 + v1"},
                ],
                "nf": {},
            }
        )
        assert load_explicit(looped).flags.terminating is False

    @pytest.mark.parametrize("seed", range(0, 300, 3))
    def test_terminating_exactly_without_a_cycle(self, seed):
        data = random_system_json(seed)
        edges: dict = {}
        for r in data["rules"]:
            edges.setdefault(r["lhs"], set()).update(r["rhs"])

        def reaches_itself(start) -> bool:
            seen, todo = set(), list(edges.get(start, ()))
            while todo:
                obj = todo.pop()
                if obj == start:
                    return True
                if obj not in seen:
                    seen.add(obj)
                    todo.extend(edges.get(obj, ()))
            return False

        cyclic = any(reaches_itself(obj) for obj in edges)
        assert load_explicit(json.dumps(data)).flags.terminating is (not cyclic)

    def test_formula_tree_evaluates_downstream(self):
        from wars.evaluator import weight_lower_bound

        sys_ = load_explicit(FIG_FORMULA)
        assert weight_lower_bound(sys_, "psi", 2).value == 12

    @staticmethod
    def _one_step(kind: str, weight) -> str:
        return json.dumps(
            {
                "semiring": {"kind": kind},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                "nf": {"b": weight},
            }
        )

    @pytest.mark.parametrize(
        "kind, weight, expected",
        [("boolean", True, True), ("boolean", False, False), ("nat_inf", 3, 3),
         ("nat_inf", "inf", INF)],
    )
    def test_non_string_nf_weights_read_as_json_text(self, kind, weight, expected):
        loaded = load_explicit(self._one_step(kind, weight)).nf_weight("b")
        assert loaded == expected and type(loaded) is type(expected)

    @pytest.mark.parametrize(
        "kind, weight, message",
        [("nat_inf", None, "not a numeric literal: 'null'"),
         ("boolean", [True], "not a boolean literal: '[true]'"),
         ("nat_inf", float("inf"), "not a numeric literal: 'Infinity'")],
        ids=["null", "list", "Infinity"],
    )
    def test_bad_nf_weights_named_by_json_text(self, kind, weight, message):
        with pytest.raises(LiteralError, match=f"^{re.escape(message)}$"):
            load_explicit(self._one_step(kind, weight))

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(TWO_STATE)
        assert load_explicit(str(path)).nf_weight("c") == 2

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("5", SystemFormatError, "a system must be a JSON object"),
            ('{"semiring": [1]}', LiteralError, "a semiring spec must be a JSON object"),
            ('{"semiring": {"kind": "product", "components": {"kind": "nat_inf"}}}',
             LiteralError, "product semiring needs a 'components' list"),
            ('{"semiring": {"kind": "product", "components": [2]}}',
             LiteralError, "a semiring spec must be a JSON object"),
            ('{"semiring": {"kind": "language", "alphabet": ["a", "a"]}}',
             LiteralError, "language semiring needs an 'alphabet' list of distinct symbols"),
            ('{"semiring": {"kind": "language", "alphabet": ["a", ""]}}',
             LiteralError, "language semiring needs an 'alphabet' list of distinct symbols"),
            ('{"semiring": {"kind": "nat_inf"}, "rules": [{"lhs": "a", "rhs": ["a"], '
             '"agg": "1 + v1", "tag": 5}]}',
             SystemFormatError, "rule 0: 'tag' must be a string"),
            ('{"semiring": {"kind": "nat_inf"}, "rules": [{"lhs": "a", "rhs": ["b"], '
             '"agg": "v1", "tag": "ab"}, {"lhs": "b", "rhs": ["c"], "agg": "v1", '
             '"tag": null}], "nf": {"c": "0"}}',
             SystemFormatError, "rule 1: 'tag' must be a string"),
        ],
        ids=["system not an object", "spec not an object", "components not a list",
             "component not an object", "repeated symbol", "empty symbol",
             "tag a number", "tag null"],
    )
    def test_json_of_the_wrong_shape_rejected(self, tmp_path, text, error, message):
        path = tmp_path / "sys.json"
        path.write_text(text)
        with pytest.raises(error, match=f"^{message}$"):
            load_explicit(str(path))

    def test_duplicate_tags_rejected(self):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "r"},
                    {"lhs": "a", "rhs": ["b", "b"], "agg": "v1", "tag": "r"},
                ],
                "nf": {"b": "0"},
            }
        )
        with pytest.raises(SystemFormatError, match="duplicate"):
            load_explicit(bad)

    def test_rule_aggregators_cannot_mention_x(self):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "X + v1"}],
                "nf": {"b": "0"},
            }
        )
        with pytest.raises(SystemFormatError, match="X"):
            load_explicit(bad)

    def test_rules_with_one_text_share_one_expression(self):
        text = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": "a", "rhs": ["b"], "agg": "1 + v1"},
                    {"lhs": "b", "rhs": ["c"], "agg": "1 + v1"},
                    {"lhs": "b", "rhs": ["c", "c"], "agg": "v1 + v2"},
                ],
                "nf": {"c": "0"},
            }
        )
        sys_ = load_explicit(text)
        (ra,), _ = sys_.successors("a")
        (rb, _), _ = sys_.successors("b")
        assert ra.aggregator is rb.aggregator

    @pytest.mark.parametrize(
        "aggs,message",
        [
            (["v1", "v1 +", "v1 +"], "rule r1: unexpected end of input (at position 4)"),
            (["v2", "v2"], "rule r0: aggregator mentions v2 but rhs has 1 entries"),
            (["v1", "v1", "X"], "rule r2: rule aggregators cannot mention X"),
            (["v1", 5], "rule r1: 'agg' must be a string"),
        ],
    )
    def test_first_bad_rule_raises_with_shared_texts(self, aggs, message):
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": f"a{i}", "rhs": ["b"], "agg": a} for i, a in enumerate(aggs)],
                "nf": {"b": "0"},
            }
        )
        with pytest.raises(SystemFormatError) as info:
            load_explicit(bad)
        assert str(info.value) == message


    def test_first_duplicate_tag_raises_among_interleaved_rules(self):
        # Tags repeat for other objects and the duplicates are not adjacent;
        # a later duplicate and a later bad rule do not decide the message.
        bad = json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "r"},
                    {"lhs": "b", "rhs": ["c"], "agg": "v1", "tag": "r"},
                    {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "s"},
                    {"lhs": "b", "rhs": ["c"], "agg": "v1", "tag": "s"},
                    {"lhs": "b", "rhs": ["c"], "agg": "v1", "tag": "r"},
                    {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "r"},
                    {"lhs": "a", "rhs": ["c"], "agg": "v1 +", "tag": "t"},
                ],
                "nf": {"c": "0"},
            }
        )
        with pytest.raises(SystemFormatError) as info:
            load_explicit(bad)
        assert str(info.value) == "duplicate rule tag 'r' for 'b'"


class TestRuleRecord:
    @staticmethod
    def _rule(**fields):
        return RuleInstance(**{"lhs": "a", "rhs": ("b", "c"),
                               "aggregator": SumNode((Var(1), Var(2))), "tag": "split", **fields})

    def test_repr(self):
        assert repr(self._rule(rhs_complete=False)) == (
            "RuleInstance(lhs='a', rhs=('b', 'c'), "
            "aggregator=SumNode(terms=(Var(index=1), Var(index=2))), "
            "tag='split', rhs_complete=False)"
        )

    def test_equal_fields_give_equal_records_and_hashes(self):
        first, second = self._rule(), self._rule()
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert first != self._rule(tag="other") and not first == self._rule(tag="other")

    def test_unequal_to_a_plain_tuple_of_its_fields(self):
        rule = self._rule()
        fields = (rule.lhs, rule.rhs, rule.aggregator, rule.tag, rule.rhs_complete)
        assert rule != fields and fields != rule
        assert not rule == fields and not fields == rule
        # The hash is the fields' hash, as it was for the frozen dataclass.
        assert hash(rule) == hash(fields) and len({rule, fields}) == 2

    @pytest.mark.parametrize("name", ["lhs", "rhs", "aggregator", "tag", "rhs_complete", "extra"])
    def test_fields_cannot_be_assigned(self, name):
        rule = self._rule()
        with pytest.raises(AttributeError):
            setattr(rule, name, None)
        assert rule == self._rule()


class TestObjectSyntax:
    @pytest.mark.parametrize(
        "name,text",
        [
            ("os_size", "idle()"),
            ("os_size", "wait(P1P2)"),
            ("os_fair", "run(P2)"),
            ("walk_termprob", "17"),
            ("z_walk_safety", "-12"),
            ("ski_rental", "n0=9"),
            ("addition_trs", "plus(s(0),s(s(0)))"),
            ("boolform", "Ra & (Pab | Pbb)"),
            ("na_system", "a"),
            ("bitstring_prefixes", "0"),
        ],
    )
    def test_parse_format_round_trip(self, name, text):
        params = {"y": 3} if name == "ski_rental" else {}
        sys_ = builtin(name, **params)
        obj = sys_.parse_object(text)
        assert sys_.parse_object(sys_.format_object(obj)) == obj

    def test_bad_scheduler_state(self):
        with pytest.raises(SystemError_):
            builtin("os_size").parse_object("idle(P3)")
