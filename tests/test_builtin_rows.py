"""Built-in rules are rows, made unchecked since their aggregators are
constants of ``wars.builtins``: here every family's rows are checked as the
loader and ``RuleInstance`` check a rule, and the records that public
``successors`` and ``find_rule`` hand out are the checked records the
built-ins once made themselves."""

from __future__ import annotations

import pytest

from wars import aggregator, system
from wars.aggregator import Const, SumNode, Var
from wars.builtins import builtin, builtin_names
from wars.cli import main
from wars.evaluator import weight_lower_bound
from wars.system import DEFAULT_RULE_BUDGET, RuleInstance, SystemError_

PARAMS = {"ski_rental": {"y": 50}}
# Starts of the families with neither a sampler nor an object enumeration.
FORMULAS = ("Ra & (Pab | Pbb)", "Rb | Pba & Paa")
PARSED_STARTS = {"boolform": FORMULAS, "boolean_provenance": FORMULAS,
                 "ski_rental": ("n0=30", "n0=60")}
LEVELS = 3


def _handle(name):
    return builtin(name, **PARAMS.get(name, {}))


def _starts(name, handle) -> list:
    if name in PARSED_STARTS:
        return [handle.parse_object(text) for text in PARSED_STARTS[name]]
    return handle.sample_objects(12)


def _reached(name) -> tuple:
    """The handle, and every object within ``LEVELS`` rule steps of its
    starts, in breadth-first order, with the rows read at the full budget."""
    handle = _handle(name)
    level, rows = _starts(name, handle), {}
    for _ in range(LEVELS):
        for obj in level:
            if obj not in rows:
                rows[obj] = handle._rows(obj, DEFAULT_RULE_BUDGET)
        level = [b for obj in level for row in rows[obj][0] for b in row[1]]
    return handle, [*rows, *dict.fromkeys(b for b in level if b not in rows)], rows


@pytest.mark.parametrize("name", builtin_names())
def test_rows_are_valid_plain_tuples(name):
    handle, _, rows = _reached(name)
    assert sum(len(found) for found, _ in rows.values()) > 0
    for obj, (found, _) in rows.items():
        for row in found:
            assert type(row) is tuple and len(row) == 5
            lhs, rhs, expr, tag, whole = row
            assert lhs == obj and type(rhs) is tuple and type(tag) is str and type(whole) is bool
            system._check_rule(rhs, expr, tag, whole)
            # Compiling checks every constant against the carrier.
            aggregator._compiled(expr, handle.semiring, len(rhs), aggregator.DEFAULT_TRUNCATION)


@pytest.mark.parametrize("prefix", [0, -3])
def test_geometric_walk_without_targets_refuses_its_jump(prefix, capsys):
    handle = builtin("geometric_walk", prefix=prefix)
    assert handle._rows(0, DEFAULT_RULE_BUDGET) == ([], True)
    for obj in (1, 2):
        with pytest.raises(SystemError_, match="^rule jump: empty successor sequence$"):
            handle._rows(obj, DEFAULT_RULE_BUDGET)
    spec = f"builtin:geometric_walk(prefix={prefix})"
    assert main(["eval", "--system", spec, "--start", "0", "--depth", "3"]) == 0
    assert main(["eval", "--system", spec, "--start", "2", "--depth", "3"]) == 1
    assert capsys.readouterr() == ("0: 1 (stabilized, depth 0, 1 objects)\n",
                                   "error: rule jump: empty successor sequence\n")


def _records(handle, obj, budget=DEFAULT_RULE_BUDGET) -> tuple:
    """The records of ``obj``'s rules as the built-ins once made them,
    checked, one per rule."""
    rows, complete = handle._rows(obj, budget)
    return [RuleInstance(lhs, rhs, expr, tag, rhs_complete=whole)
            for lhs, rhs, expr, tag, whole in rows], complete


@pytest.mark.parametrize("name", builtin_names())
def test_public_records_equal_hash_and_print_alike(name):
    handle, objects, _ = _reached(name)
    for obj in objects:
        want, complete = _records(handle, obj)
        got = handle.successors(obj)
        assert got == (want, complete)
        assert all(type(r) is RuleInstance for r in got[0])
        assert [hash(r) for r in got[0]] == [hash(r) for r in want]
        assert [repr(r) for r in got[0]] == [repr(r) for r in want]
        for r in want:
            found = handle.find_rule(obj, r.tag)
            assert type(found) is RuleInstance
            assert found == r and hash(found) == hash(r) and repr(found) == repr(r)
        # A budget cuts the list; a caller's list is its own.
        assert handle.successors(obj, 1) == _records(handle, obj, 1)
        got[0].clear()
        assert handle.successors(obj)[0] == want


def test_geometric_walk_hands_out_an_incomplete_successor_sequence():
    handle = builtin("geometric_walk")
    (rule,), complete = handle.successors(2)
    assert complete and rule == RuleInstance(2, tuple(range(16)), rule.aggregator, "jump",
                                             rhs_complete=False)
    assert repr(rule).endswith("tag='jump', rhs_complete=False)")
    assert handle.find_rule(5, "jump") == RuleInstance(5, tuple(range(16)), rule.aggregator,
                                                       "jump", rhs_complete=False)


def test_na_system_hands_out_an_incomplete_rule_list():
    handle = builtin("na_system")
    rules, complete = handle.successors("a", 3)
    step = rules[0].aggregator
    assert step == SumNode((Const(1), Var(1)))
    assert (rules, complete) == ([RuleInstance("a", (n,), step, f"pick{n}") for n in range(3)],
                                 False)
    # A tag past the first budget is found by asking for more rules.
    assert handle.find_rule("a", "pick100") == RuleInstance("a", (100,), step, "pick100")
    with pytest.raises(SystemError_, match="no rule tagged 'pick' for a"):
        handle.find_rule("a", "pick")


# Per family, an object its parser refuses, with the message its rules refuse it with.
FOREIGN = [
    ("os_size", ("run", ("P9",)), "not a scheduler state: ('run', ('P9',))"),
    ("os_runtime", ("idle", ("P9", "x")), "not a scheduler state: ('idle', ('P9', 'x'))"),
    ("ski_rental", ("loop", -3), "not a ski rental state: ('loop', -3)"),
    ("addition_trs", ("foo",), "not a ground term: ('foo',)"),
    ("addition_trs", ("s", ("plus", ("0",), ("foo",))), "not a ground term: ('foo',)"),
    ("boolform", ("xor", ("atom", "Ra"), ("atom", "Rb")), "unknown connective 'xor'"),
    ("zwalk", "a", "walk positions are integers, got 'a'"),
]


@pytest.mark.parametrize("name, obj, message", FOREIGN)
def test_rules_refuse_an_object_of_no_family_member(name, obj, message):
    handle = _handle(name)
    for read in (handle.successors, handle.is_normal_form):
        with pytest.raises(SystemError_) as info:
            read(obj)
        assert str(info.value) == message
    with pytest.raises(SystemError_):
        weight_lower_bound(handle, obj, 2)


@pytest.mark.parametrize("name", ["walk_expected", "os_runtime", "z_walk_safety", "na_system"])
def test_a_sampler_returns_exactly_the_count_asked_for(name):
    # na_system once returned ["a"] for a count of 0.
    handle = builtin(name)
    for count in range(4):
        assert len(handle.sample_objects(count)) == count
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        handle.sample_objects(-1)
