"""``_tree_weights`` against the naive tree-by-tree oracle.

For one root it must give the first of each (type, value) of what
``reference_tree_weight`` gives on the trees of ``reference_enumerate_trees``,
in the same order, and nothing joined.  It counts the trees before it weighs
any, so a ``CountCapExceeded`` comes first, with the same message, even when
weighing one of the trees would raise; otherwise it raises the reference's
first error.  ``wars oracle``, which weighs every check's trees in one
enumeration, joins each check to what the reference's trees join to, type
for type, on every carrier, and meets the first cap or error of a fresh
enumeration per check, and every weight is a value of the carrier, which
lets the oracle join them unchecked.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_digest import CARRIER_SEEDS, CARRIERS, carrier_system_json
from reference_eval import reference_enumerate_trees, reference_tree_weight
from system_gen import random_system, random_system_json
from wars.builtins import builtin
from wars import cli
from wars.cli import main
from wars.evaluator import (
    DEFAULT_BRANCH_TRUNC, DEFAULT_VISIT_CAP, CountCapExceeded, _settle, _tree_weights,
    enumerate_trees, weight_lower_bound,
)
from wars.semiring import ALL_WORDS, SemiringError
from wars.system import DEFAULT_RULE_BUDGET, SystemHandle, load_explicit

SIGMA_ERROR = "concatenation with SIGMA* leaves the finite-language carrier"

# ``a`` concatenates SIGMA* with each tree of ``c``; ``c`` weighs {}, {0} or
# SIGMA*, so the tree through {0} raises.  Value iteration joins c's trees
# first and multiplies SIGMA* by SIGMA*, so it never raises.  At depth 2 the
# enumeration builds 5 trees, the tree that raises being the 4th.
SIGMA_SYSTEM = {
    "semiring": {"kind": "language", "alphabet": ["0", "1"]},
    "rules": [
        {"lhs": "a", "rhs": ["s", "c"], "agg": "v1 * v2", "tag": "cat"},
        {"lhs": "c", "rhs": ["w"], "agg": "v1", "tag": "w"},
        {"lhs": "c", "rhs": ["s"], "agg": "v1", "tag": "s"},
    ],
    "nf": {"s": "SIGMA*", "w": "{0}"},
}


def typed(weights):
    return [(type(w), w) for w in weights]


def tree_weights(sys_, a, depth, rule_budget=8, count_cap=200_000):
    """The weights of ``a``'s trees up to ``depth``, as one root's key keeps them."""
    return next(_tree_weights(sys_, [(a, depth)], rule_budget, count_cap, list))


def first_of_each(weights):
    """The first weight of each (type, value), in order."""
    return [w for _, w in dict.fromkeys(typed(weights))]


def outcome(fn):
    """The typed weights ``fn()`` returns, or the type and message it raised."""
    try:
        return "ok", typed(fn())
    except Exception as exc:
        return type(exc), str(exc)


def both(sys_, a, depth, rule_budget=8, count_cap=200_000):
    fast = outcome(lambda: tree_weights(sys_, a, depth, rule_budget, count_cap))
    reference = outcome(
        lambda: first_of_each(
            reference_tree_weight(sys_, t)
            for t in reference_enumerate_trees(sys_, a, depth, rule_budget, count_cap)
        )
    )
    return fast, reference


@pytest.mark.parametrize("seed", range(30))
def test_generated_systems_match_reference(seed):
    sys_ = random_system(seed)
    for a in sys_.enumerate_objects():
        for depth in range(5):
            fast, reference = both(sys_, a, depth)
            assert reference[0] == "ok"
            assert fast == reference, (seed, a, depth)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 299),
    st.integers(0, 4),
    st.sampled_from([1, 2, 8, 64]),
    st.one_of(st.just(200_000), st.integers(0, 60)),
    st.data(),
)
def test_budgets_and_caps_match_reference(seed, depth, rule_budget, count_cap, data):
    sys_ = random_system(seed)
    a = data.draw(st.sampled_from(sys_.enumerate_objects()))
    fast, reference = both(sys_, a, depth, rule_budget, count_cap)
    assert fast == reference


@pytest.mark.parametrize("count_cap", [1, 2, 5, 17, 60, 200_000])
def test_builtin_count_cap_matches_reference(count_cap):
    osr = builtin("os_runtime")
    start = osr.parse_object("idle()")
    for depth in range(5):
        fast, reference = both(osr, start, depth, count_cap=count_cap)
        assert fast == reference


class TestCountCapBeforeWeights:
    def setup_method(self):
        self.sys = load_explicit(json.dumps(SIGMA_SYSTEM))

    def test_value_iteration_does_not_raise(self):
        assert weight_lower_bound(self.sys, "a", 2).value is ALL_WORDS

    def test_cap_wins_over_the_aggregator_error(self):
        # The 4th tree raises when weighed; the cap is passed at the 5th.
        with pytest.raises(CountCapExceeded, match=r"^more than 4 trees at depth 2$"):
            tree_weights(self.sys, "a", 2, count_cap=4)
        fast, reference = both(self.sys, "a", 2, count_cap=4)
        assert fast == reference

    def test_aggregator_error_below_the_cap(self):
        with pytest.raises(SemiringError, match=r"SIGMA\*"):
            tree_weights(self.sys, "a", 2, count_cap=5)
        fast, reference = both(self.sys, "a", 2, count_cap=5)
        assert fast == reference == (SemiringError, SIGMA_ERROR)

    def _oracle(self, tmp_path, capsys, count_cap):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(SIGMA_SYSTEM))
        code = main(["oracle", "--system", f"file:{path}", "--depth", "2",
                     "--count-cap", str(count_cap)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return code, captured.err

    def test_oracle_reports_the_cap(self, tmp_path, capsys):
        assert self._oracle(tmp_path, capsys, 4) == (2, "error: more than 4 trees at depth 2\n")

    def test_oracle_reports_the_aggregator_error(self, tmp_path, capsys):
        assert self._oracle(tmp_path, capsys, 5) == (3, f"error: {SIGMA_ERROR}\n")


def reference_check(sys_, a, depth, count_cap, joins):
    """The typed join of the reference's tree weights at (``a``, ``depth``),
    or the type and message it raised; the join at the default cap is kept
    in ``joins``, since a lower cap only adds ``CountCapExceeded``."""
    if count_cap != 200_000:
        try:
            reference_enumerate_trees(sys_, a, depth, 8, count_cap)
        except CountCapExceeded as exc:
            return CountCapExceeded, str(exc)
    if (a, depth) not in joins:
        joins[a, depth] = outcome(lambda: [sys_.semiring.join(
            [reference_tree_weight(sys_, t) for t in reference_enumerate_trees(sys_, a, depth)])])
    return joins[a, depth]


def shared_against_fresh(monkeypatch, sys_, path, depths, count_cap, joins=None):
    """Run ``wars oracle`` on ``path`` at each depth and compare it with a
    fresh reference enumeration per check, in check order: the checks
    before the first that raises join as the reference does, types
    included, and the run exits on that check's error, or passes.
    ``joins`` keeps the reference joins for later calls on ``sys_``."""
    joined: list = []
    weights = cli._tree_weights

    def recorded(*args):
        for value in weights(*args):
            joined.append((type(value), value))
            yield value

    monkeypatch.setattr(cli, "_tree_weights", recorded)
    checks = [(a, d) for a in sys_.enumerate_objects() for d in range(max(depths) + 1)]
    joins = {} if joins is None else joins
    for depth in depths:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["oracle", "--system", f"file:{path}", "--depth", str(depth),
                         "--count-cap", str(count_cap), "--format", "json"])
        ok, error = [], None
        for a, d in checks:
            if d <= depth:
                kind, value = reference_check(sys_, a, d, count_cap, joins)
                if kind != "ok":
                    error = kind, value
                    break
                ok += value
        assert joined == ok, (path, depth, count_cap)
        joined.clear()
        if error is not None:
            assert (code, err.getvalue(), out.getvalue()) == (
                2 if error[0] is CountCapExceeded else 3, f"error: {error[1]}\n", "")
        else:
            payload = json.loads(out.getvalue())
            assert code == (0 if payload["match"] else 1) and err.getvalue() == ""
            assert [c["enumerated"] for c in payload["checks"]] == [
                sys_.semiring.format_literal(value) for _, value in ok]


@pytest.fixture(scope="module")
def system_joins():
    """Each generated system's reference joins, kept for its three caps' cases."""
    return {}


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("count_cap", [200_000, 300, 20])
def test_oracle_enumeration_matches_a_fresh_one_per_check(monkeypatch, tmp_path, system_joins, seed, count_cap):
    # The one enumeration that the oracle's checks share changes no check:
    # seeds 0-399, each case taking every 40th, at oracle depths 0-4.
    for s in range(seed, 400, 40):
        path = tmp_path / f"system{s}.json"
        path.write_text(json.dumps(random_system_json(s)))
        shared_against_fresh(monkeypatch, random_system(s), path, range(5), count_cap,
                             system_joins.setdefault(s, {}))


@pytest.mark.parametrize("count_cap", [4, 5])
def test_oracle_enumeration_keeps_the_language_errors(monkeypatch, tmp_path, count_cap):
    # At cap 4 the cap wins at a depth 2, at cap 5 the 4th tree's
    # concatenation raises, and below depth 2 no check raises.
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(SIGMA_SYSTEM))
    sys_ = load_explicit(json.dumps(SIGMA_SYSTEM))
    shared_against_fresh(monkeypatch, sys_, path, range(4), count_cap)


# The carriers of the closure check, ``CARRIERS``, and their systems come
# from the CLI digest, which runs ``wars oracle`` on the same systems.
def carrier_system(seed: int, spec: dict):
    """``carrier_system_json(seed, spec)``, loaded."""
    return load_explicit(json.dumps(carrier_system_json(seed, spec)))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("spec", CARRIERS, ids=lambda spec: spec["kind"] + "".join(
    f"-{c['kind']}" for c in spec.get("components", ())))
def test_every_enumerated_weight_is_a_carrier_value(seed, spec):
    sys_ = carrier_system(seed, spec)
    desc = sys_.semiring
    weighed = 0
    for a in sys_.enumerate_objects():
        for depth in range(4):
            try:
                weights = tree_weights(sys_, a, depth)
            except SemiringError as exc:  # SIGMA* times a finite word set
                assert str(exc) == SIGMA_ERROR
                continue
            assert all(map(desc.contains, weights)), (a, depth)
            assert desc.join(weights) == desc._join(weights)
            weighed += len(weights)
    assert weighed


@pytest.mark.parametrize("count_cap", [200_000, 20])
@pytest.mark.parametrize("spec", CARRIERS, ids=lambda spec: spec["kind"] + "".join(
    f"-{c['kind']}" for c in spec.get("components", ())))
def test_oracle_on_every_carrier(monkeypatch, capsys, tmp_path, spec, count_cap):
    # The oracle keeps each key's distinct weights; every carrier's join
    # then gives, type for type, what a fresh enumeration per check joins,
    # and the same first cap or error (SIGMA* concatenations, over languages).
    # Where value iteration, which runs first, concatenates with SIGMA*, the
    # run exits 3 on that before it enumerates.
    for seed in CARRIER_SEEDS:
        text = json.dumps(carrier_system_json(seed, spec))
        sys_ = load_explicit(text)
        path = tmp_path / f"system{seed}.json"
        path.write_text(text)
        depths = []
        for depth in range(4):
            try:
                # The settle that `wars oracle` runs.
                _settle(sys_, sys_.enumerate_objects(), depth, depth, DEFAULT_RULE_BUDGET,
                        DEFAULT_BRANCH_TRUNC, DEFAULT_VISIT_CAP)
            except SemiringError as exc:
                assert str(exc) == SIGMA_ERROR
                assert main(["oracle", "--system", f"file:{path}", "--depth", str(depth)]) == 3
                assert capsys.readouterr().err == f"error: {SIGMA_ERROR}\n"
                continue
            depths.append(depth)
        if depths:
            shared_against_fresh(monkeypatch, sys_, path, depths, count_cap)


# ``real_inf`` weights 1 and 2/2: equal values of two types, which the join
# and the aggregators tell apart, in either order at each key.
MIXED_TYPES = {
    "semiring": {"kind": "real_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["f"], "agg": "v1", "tag": "f"},
        {"lhs": "a", "rhs": ["i"], "agg": "v1", "tag": "i"},
        {"lhs": "b", "rhs": ["i"], "agg": "v1 * 2/2", "tag": "i"},
        {"lhs": "b", "rhs": ["f"], "agg": "v1 + 0", "tag": "f"},
        {"lhs": "b", "rhs": ["i"], "agg": "v1", "tag": "j"},
        {"lhs": "e", "rhs": ["i"], "agg": "v1", "tag": "i"},
        {"lhs": "e", "rhs": ["b"], "agg": "v1", "tag": "b"},
        {"lhs": "c", "rhs": ["a", "e"], "agg": "v1 * v2", "tag": "m"},
        {"lhs": "c", "rhs": ["e", "a"], "agg": "v1 + 2 * v2", "tag": "p"},
        {"lhs": "d", "rhs": ["c", "b", "e"], "agg": "v1 + v2 * v3", "tag": "d"},
        {"lhs": "d", "rhs": ["e", "a"], "agg": "3 * v1 + v2", "tag": "s"},
    ],
    "nf": {"f": "2/2", "i": "1"},
}


@pytest.mark.parametrize("count_cap", [200_000, 20])
def test_oracle_keeps_the_first_of_equal_weights(monkeypatch, tmp_path, count_cap):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_TYPES))
    sys_ = load_explicit(json.dumps(MIXED_TYPES))
    assert {type(w) for w in tree_weights(sys_, "b", 1)} == {int, Fraction}
    shared_against_fresh(monkeypatch, sys_, path, range(4), count_cap)


def test_first_error_of_a_depth_first_build():
    # a -> c b and b -> e, where the normal forms c and e both fail to
    # weigh.  Level by level e's key is built first, but the trees of a meet
    # c first, as a depth-first build does.
    sys_ = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["c", "b"], "agg": "v1 + v2"},
                  {"lhs": "b", "rhs": ["e"], "agg": "v1"}],
        "nf": {"c": "1", "e": "2"},
    }))

    def nf_weight(obj):
        raise SemiringError(f"cannot weigh {obj}")

    sys_._nf_weight = nf_weight
    fast, reference = both(sys_, "a", 2)
    assert fast == reference == (SemiringError, "cannot weigh c")


def test_a_lone_root_stops_reading_rules_past_the_cap(monkeypatch):
    # Within 40 steps of idle(), os_runtime's keys run to millions, over a
    # minute's work to find them all; more than 100 of them apply a rule
    # within the first few levels, so the count stops there.
    osr = builtin("os_runtime")
    start = osr.parse_object("idle()")
    reads = []
    rows = SystemHandle._rows
    monkeypatch.setattr(SystemHandle, "_rows", lambda self, a, budget: reads.append(a) or rows(self, a, budget))
    fast = outcome(lambda: enumerate_trees(osr, start, 40, count_cap=100))
    assert len(reads) < 1_000
    reference = outcome(lambda: reference_enumerate_trees(osr, start, 40, count_cap=100))
    assert fast == reference == (CountCapExceeded, "more than 100 trees at depth 40")
