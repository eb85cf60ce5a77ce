"""Built-in rules are rows, made unchecked since their aggregators are
constants of ``wars.builtins``: here every family's rows are checked as the
loader and ``RuleInstance`` check a rule, and the records that public
``successors`` and ``find_rule`` hand out are the checked records the
built-ins once made themselves."""

from __future__ import annotations

import itertools

import pytest

from wars import aggregator, system
from wars.aggregator import Const, SumNode, Var
from wars.builtins import builtin, builtin_names, parse_term
from wars.cli import main
from wars.evaluator import weight_lower_bound
from wars.semiring import NAT_INF
from wars.system import DEFAULT_RULE_BUDGET, RuleInstance, SystemError_, SystemHandle, cplx_wrap

PARAMS = {"ski_rental": {"y": 50}}
# Starts of the families with neither a sampler nor an object enumeration.
FORMULAS = ("Ra & (Pab | Pbb)", "Rb | Pba & Paa")
PARSED_STARTS = {"boolform": FORMULAS, "ski_rental": ("n0=30", "n0=60")}
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
    # A tag past the budget is found by reading on.
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
    ("z_walk_safety", "a", "walk positions are integers, got 'a'"),
    # Wrong shapes, which once raised Python's own errors.
    ("os_size", "idle", "not a scheduler state: 'idle'"),
    ("os_size", ("run",), "not a scheduler state: ('run',)"),
    ("ski_rental", ("loop",), "not a ski rental state: ('loop',)"),
    ("ski_rental", ("loop", 1, 2), "not a ski rental state: ('loop', 1, 2)"),
    ("ski_rental", ("loop", True), "not a ski rental state: ('loop', True)"),
    ("boolform", ("atom",), "not a formula: ('atom',)"),
    ("boolform", ("and", ("atom", "Ra")), "not a formula: ('and', ('atom', 'Ra'))"),
    ("addition_trs", ("plus", ("0",)), "not a ground term: ('plus', ('0',))"),
    # True equals 1 but is no position or day: it was once read as 1.
    ("walk_termprob", True, "walk positions are naturals, got True"),
    ("geometric_walk", True, "walk positions are naturals, got True"),
    ("z_walk_safety", True, "walk positions are integers, got True"),
    ("na_system", True, "objects are 'a' and the naturals, got True"),
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


@pytest.mark.parametrize("name", builtin_names())
def test_rows_cut_each_whole_rule_list_at_the_budget(name):
    # A family states every rule; the handle alone cuts the list and says
    # whether it was whole (four rules read show a list longer than three).
    handle, objects, _ = _reached(name)
    for obj in objects:
        full = list(itertools.islice(handle._successors(obj), 4))
        for budget in (1, 2, 3):
            assert handle._rows(obj, budget) == (full[:budget], len(full) <= budget)


def _endless(calls: list, pulled: list) -> SystemHandle:
    """A handle whose object "a" has endless rules to "b", a normal form;
    each call of its rules goes to ``calls``, each rule read to ``pulled``."""
    v1 = Var(1)

    def rules():
        for n in itertools.count():
            pulled.append(n)
            yield ("a", ("b",), v1, f"r{n}", True)

    def successors(a):
        calls.append(a)
        return rules() if a == "a" else []

    return SystemHandle("endless", NAT_INF, successors, lambda a: 0)


@pytest.mark.parametrize("budget", [1, 2, 64, 1000])
def test_rows_read_an_endless_list_one_rule_past_the_budget(budget):
    calls, pulled = [], []
    rows, complete = _endless(calls, pulled)._rows("a", budget)
    assert [row[3] for row in rows] == [f"r{n}" for n in range(budget)] and not complete
    assert calls == ["a"] and len(pulled) == budget + 1


def test_cplx_wrap_reads_an_endless_list_as_lazily_as_its_base():
    calls, pulled = [], []
    rows, complete = cplx_wrap(_endless(calls, pulled))._rows("a", 64)
    assert [row[2] for row in rows] == [SumNode((Const(1), Var(1)))] * 64 and not complete
    assert calls == ["a"] and len(pulled) == 65


def test_find_rule_reads_an_endless_list_once():
    calls, pulled = [], []
    handle = _endless(calls, pulled)
    assert handle.find_rule("a", "r100").tag == "r100"
    assert calls == ["a"] and len(pulled) == 101
    calls.clear()
    pulled.clear()
    with pytest.raises(SystemError_, match="^no rule tagged 'none' for a$"):
        handle.find_rule("a", "none")
    assert calls == ["a"] and len(pulled) == 262_144


def test_addition_trs_states_its_normal_forms(monkeypatch):
    for size in range(11):
        handle = builtin("addition_trs", max_size=size)
        derived = [t for t in handle.enumerate_objects() if handle.is_normal_form(t)]
        assert handle.enumerate_nfs() == derived
    # At size 14, 66,706 terms were each asked for their rules.
    reads = []
    monkeypatch.setattr(SystemHandle, "_rows", lambda self, a, budget: reads.append(a))
    nfs = builtin("addition_trs", max_size=14).enumerate_nfs()
    assert nfs == [parse_term("s(" * k + "0" + ")" * k) for k in range(14)]
    assert reads == []
