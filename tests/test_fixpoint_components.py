"""``evaluate_to_fixpoint``, settled component by component, against the
full level-by-level sweep in ``reference_eval``.

The systems are mostly chains with a few back edges, so cycles sit above and
below acyclic stretches, and they mix strict aggregators (which change at
every level their successor does), absorbing ones (which stop changing before
their successors do) and two-successor ones.  The value and its type, the
status, explored depth and visit count must match the sweep, and a visit cap must
raise with the same partial bound.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference_eval import reference_evaluate_to_fixpoint, reference_weight_lower_bound
from wars.evaluator import (
    LOWER_BOUND,
    DepthProfile,
    VisitCapExceeded,
    evaluate_to_fixpoint,
    weight_lower_bound,
)
from wars.system import load_explicit

# Per carrier: strict one-successor aggregators, absorbing ones, two-successor
# ones, and normal-form literals.  Tropical ``*`` adds and ``+`` takes the
# minimum.  No ``v1 * v2`` over nat_inf: around a cycle it grows doubly
# exponentially with the depth.
AGGREGATORS = {
    "nat_inf": (
        ["1 + v1", "2 + v1", "3 + v1"],
        ["v1", "0", "2", "0 * v1", "v1 + 0"],
        ["v1 + v2", "1 + v1 + v2", "2 * v1 + v2"],
        ["0", "1", "3", "inf"],
    ),
    "tropical": (
        ["1 * v1", "2 * v1", "3 * v1"],
        ["v1", "0", "4", "v1 + 5"],
        ["v1 + v2", "v1 * v2", "1 * v1 + v2"],
        ["0", "1", "3", "inf"],
    ),
    "boolean": (
        ["true * v1"],
        ["v1", "true", "false", "false * v1"],
        ["v1 + v2", "v1 * v2"],
        ["true", "false"],
    ),
    # Maximum and minimum, with 1 and 1/1: equal values of two types, so a
    # tie decides which one an object keeps.
    "bottleneck": (
        ["v1 + 1", "v1 + 1/1", "v1 * 2"],
        ["v1", "1", "1/1", "v1 * 1"],
        ["v1 + v2", "v1 * v2", "v2 * v1"],
        ["1", "1/1", "2", "-inf"],
    ),
}

# ``s`` holds 1 from level 1 on; at level 3 it computes 1/1 (the rule
# through ``b1`` comes first and ties), which it does not store, and at
# level 4 it grows to 2.  ``x`` reads the minimum of ``s`` and 1, so it keeps
# the 1 that it computed at level 2 from the 1 that ``s`` stored, not 1/1.
TIE = {
    "semiring": {"kind": "bottleneck"},
    "rules": [
        {"lhs": "x", "rhs": ["s", "w"], "agg": "v1 * v2", "tag": "x"},
        {"lhs": "s", "rhs": ["b1"], "agg": "v1", "tag": "sb"},
        {"lhs": "s", "rhs": ["na"], "agg": "v1", "tag": "sa"},
        {"lhs": "s", "rhs": ["c1"], "agg": "v1", "tag": "sc"},
        {"lhs": "b1", "rhs": ["b2"], "agg": "v1", "tag": "b1"},
        {"lhs": "b2", "rhs": ["nb"], "agg": "v1", "tag": "b2"},
        {"lhs": "c1", "rhs": ["c2"], "agg": "v1", "tag": "c1"},
        {"lhs": "c2", "rhs": ["c3"], "agg": "v1", "tag": "c2"},
        {"lhs": "c3", "rhs": ["nc"], "agg": "v1", "tag": "c3"},
    ],
    "nf": {"na": "1", "nb": "1/1", "nc": "2", "w": "1"},
}


@st.composite
def chain_systems(draw):
    """(system, object names) of a mostly-forward chain of 3..30 objects."""
    kind = draw(st.sampled_from(sorted(AGGREGATORS)))
    strict, absorbing, binary, literals = AGGREGATORS[kind]
    n = draw(st.integers(3, 30))
    names = [f"o{i:02d}" for i in range(n)]

    def successor(i):
        edge = draw(st.sampled_from(["next"] * 6 + ["jump"] * 2 + ["back"]))
        if edge == "next":
            return names[min(i + 1, n - 1)]
        if edge == "jump":
            return names[draw(st.integers(i, n - 1))]
        return names[draw(st.integers(0, i))]

    rules, nf = [], {}
    for i, name in enumerate(names):
        if i == n - 1 or draw(st.integers(0, 9)) == 0:
            nf[name] = draw(st.sampled_from(literals))
            continue
        for j in range(draw(st.sampled_from([1, 1, 1, 2]))):
            shape = draw(st.sampled_from(["strict"] * 3 + ["absorbing"] * 2 + ["binary"]))
            if shape == "binary":
                rhs, agg = [successor(i), successor(i)], draw(st.sampled_from(binary))
            else:
                rhs = [successor(i)]
                agg = draw(st.sampled_from(strict if shape == "strict" else absorbing))
            rules.append({"lhs": name, "rhs": rhs, "agg": agg, "tag": f"{name}r{j}"})
    data = {"semiring": {"kind": kind}, "rules": rules, "nf": nf}
    return load_explicit(json.dumps(data)), names


def outcome(fn, *args, **kwargs):
    try:
        bound, raised = fn(*args, **kwargs), False
    except VisitCapExceeded as exc:
        bound, raised = exc.partial, True
    return (
        raised,
        bound.value,
        type(bound.value).__name__,
        bound.status,
        bound.depth_explored,
        bound.visited,
        bound.budgets,
    )


def check(system, start, max_depth, **budgets):
    got = outcome(evaluate_to_fixpoint, system, start, max_depth, **budgets)
    want = outcome(reference_evaluate_to_fixpoint, system, start, max_depth, **budgets)
    assert got == want
    level = outcome(weight_lower_bound, system, start, got[4], **budgets)
    assert got[1:3] == level[1:3]
    return want


@settings(max_examples=400, deadline=None)
@given(chain_systems(), st.data())
def test_matches_full_sweep(generated, data):
    system, names = generated
    start = data.draw(st.sampled_from(names))
    max_depth = data.draw(st.integers(0, len(names) + 5))
    budgets = {
        "rule_budget": data.draw(st.sampled_from([1, 2, 64])),
        "visit_cap": data.draw(st.one_of(st.just(100_000), st.integers(1, 30))),
    }
    want = check(system, start, max_depth, **budgets)
    event(f"{want[3]}, cap hit: {want[0]}")


def test_kept_value_has_the_sweeps_type():
    system = load_explicit(json.dumps(TIE))
    for start in ("x", "s", "b1", "c1"):
        check(system, start, 20)
    assert type(evaluate_to_fixpoint(system, "x", 20).value) is int


def _rule(lhs, rhs, agg):
    return {"lhs": lhs, "rhs": rhs, "agg": agg, "tag": f"{lhs}>{'.'.join(rhs)}"}


def _cut_system(kind, cycle, nf, start_rules):
    """A cyclic component that still changes after many levels, below an
    acyclic start ``a`` and a cyclic start ``top`` (``top`` and ``top2``),
    which both read it through ``b``."""
    rules = [*cycle, *start_rules,
             _rule("top", ["a"], "v1"), _rule("top", ["top2"], "v1"), _rule("top2", ["top"], "v1")]
    return load_explicit(json.dumps({"semiring": {"kind": kind}, "rules": rules, "nf": nf}))


# Per carrier: the cycle, the normal forms and the start's rules.  ``c`` and
# ``d`` grow by one every other level over nat_inf and real_inf; the
# bottleneck ring ``r0``..``r5`` passes 1, then 2, around for about ten
# levels, while ``a`` also reads 1/1 along ``p``.
CUT_BELOW_START = {
    "nat_inf": _cut_system(
        "nat_inf",
        [_rule("c", ["d"], "1 + v1"), _rule("d", ["c"], "v1"), _rule("d", ["n"], "v1")],
        {"n": "1", "m": "0"},
        [_rule("a", ["b", "e"], "v1 + v2"), _rule("a", ["f"], "0 * v1"),
         _rule("b", ["c"], "2 + v1"), _rule("e", ["m"], "v1"), _rule("f", ["c"], "v1 * 3")],
    ),
    # An int and a Fraction weight, so the levels stay on Fractions.
    "real_inf mixed": _cut_system(
        "real_inf",
        [_rule("c", ["d"], "1/3 + v1"), _rule("d", ["c"], "v1"), _rule("d", ["n"], "v1")],
        {"n": "1", "m": "2/2"},
        [_rule("a", ["b", "e"], "1/2 * v1 + v2"), _rule("a", ["f"], "1"),
         _rule("b", ["c"], "2 + v1"), _rule("e", ["m"], "v1"), _rule("f", ["c"], "v1 * 0")],
    ),
    # Fraction weights and constants only: the levels run on integers.
    "real_inf scaled": _cut_system(
        "real_inf",
        [_rule("c", ["d"], "1/3 + v1"), _rule("d", ["c"], "3/4 * v1"), _rule("d", ["n"], "v1")],
        {"n": "1/2", "m": "2/2"},
        [_rule("a", ["b", "e"], "1/2 * v1 + v2"), _rule("a", ["f"], "1/1"),
         _rule("b", ["c"], "2/1 + v1"), _rule("e", ["m"], "v1"), _rule("f", ["c"], "0/1 * v1")],
    ),
    "bottleneck": _cut_system(
        "bottleneck",
        [*(_rule(f"r{i}", [f"r{(i + 1) % 6}"], "v1") for i in range(6)),
         _rule("r3", ["one"], "v1"), _rule("r0", ["g0"], "v1"),
         *(_rule(f"g{i}", [f"g{i + 1}"], "v1") for i in range(3)), _rule("g3", ["two"], "v1")],
        {"one": "1/1", "two": "2", "w": "1", "q": "1/1"},
        [_rule("a", ["w"], "v1"), _rule("a", ["p"], "v1"), _rule("p", ["q"], "v1"),
         _rule("a", ["b"], "v1"), _rule("b", ["r0"], "v1")],
    ),
}


@pytest.mark.parametrize("name", sorted(CUT_BELOW_START))
def test_cut_below_the_start_matches_full_sweep(name):
    system = CUT_BELOW_START[name]
    cut = 0
    for start in ("a", "top"):
        for max_depth in range(13):
            want = check(system, start, max_depth)
            # Still changing at the depth limit, below the start.
            cut += want[3] == LOWER_BOUND and want[4] == max_depth > 1
            profile = DepthProfile(system, start, max_depth)
            for level in range(max_depth + 1):
                got = outcome(profile.bound, level)
                assert got == outcome(reference_weight_lower_bound, system, start, level)
    assert cut >= 6
