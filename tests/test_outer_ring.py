"""Depth queries admit the outer ring by normal-form status only.

``DepthProfile`` (and so ``weight_lower_bound`` and ``weight_profile``) and
``iterate_lower_bounds`` explore the objects at distance ``depth`` without
their rules: the level iteration never recomputes them.  Every value, of the
same type, every visit count and every visit-cap partial must still be the
full-sweep reference's, and a bad rule budget must still be refused when the
start itself is the ring.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from reference_eval import (
    reference_iterate_lower_bounds,
    reference_weight_lower_bound,
    reference_weight_profile,
)
from system_gen import random_system
from wars.evaluator import (
    DepthProfile,
    VisitCapExceeded,
    _Ball,
    evaluate_to_fixpoint,
    iterate_lower_bounds,
    weight_lower_bound,
    weight_profile,
)
from wars.system import load_explicit

SEEDS = range(200)
DEPTHS = range(7)


def outcome(fn, *args, **kwargs):
    """What a call returns or raises, as comparable plain data, values with
    their types."""
    try:
        result = fn(*args, **kwargs)
    except VisitCapExceeded as exc:
        bound = exc.partial
        return "visit cap", bound.value, type(bound.value), bound.depth_explored, bound.visited
    if isinstance(result, list):
        return "values", [(v, type(v)) for v in result]
    return ("bound", result.value, type(result.value), result.status,
            result.depth_explored, result.visited, result.budgets)


def check(system, start, depth, **budgets) -> None:
    """Every depth query against the reference."""
    profile = DepthProfile(system, start, depth, **budgets)
    for level in range(depth + 1):
        assert outcome(profile.bound, level) == outcome(
            reference_weight_lower_bound, system, start, level, **budgets
        ), level
    assert outcome(weight_profile, system, start, depth, **budgets) == outcome(
        reference_weight_profile, system, start, depth, **budgets
    )
    assert outcome(lambda: list(iterate_lower_bounds(system, start, depth, **budgets))) == outcome(
        lambda: list(reference_iterate_lower_bounds(system, start, depth, **budgets))
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_depth_queries_match_the_reference(seed):
    system = random_system(seed)
    for start in system.enumerate_objects()[0]:
        for depth in DEPTHS:
            check(system, start, depth)


@pytest.mark.parametrize("seed", SEEDS)
def test_visit_caps_at_the_ring(seed):
    # Caps just below, at and just above the ball's size at the ring radius.
    system = random_system(seed)
    for start in system.enumerate_objects()[0]:
        for depth in DEPTHS:
            size = reference_weight_lower_bound(system, start, depth).visited
            for cap in {max(size - 1, 1), size, size + 1}:
                check(system, start, depth, visit_cap=cap)


def test_a_bad_rule_budget_is_refused_when_the_start_is_the_ring():
    system = random_system(0)
    start = system.enumerate_objects()[0][0]
    for query in (
        lambda: weight_lower_bound(system, start, 0, rule_budget=0),
        lambda: weight_profile(system, start, 0, rule_budget=0),
        lambda: DepthProfile(system, start, 0, rule_budget=0),
        lambda: next(iterate_lower_bounds(system, start, 0, rule_budget=0)),
        lambda: evaluate_to_fixpoint(system, start, 0, rule_budget=0),
    ):
        with pytest.raises(ValueError, match="^rule_budget must be >= 1$"):
            query()


# ``b`` squares its successor, so a ball that reaches past ``b`` keeps
# ``Fraction`` values; ``z`` stays at zero.
RING_ONLY = {
    "semiring": {"kind": "real_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["b"], "agg": "1/2 * v1 + 1/3"},
        {"lhs": "a", "rhs": ["z"], "agg": "2/3 * v1"},
        {"lhs": "b", "rhs": ["c"], "agg": "v1 * v1"},
        {"lhs": "b", "rhs": ["a"], "agg": "v1"},
        {"lhs": "z", "rhs": ["z"], "agg": "3/4 * v1"},
    ],
    "nf": {"c": "5/4"},
}


def test_a_non_affine_aggregator_on_the_ring_only():
    system = load_explicit(json.dumps(RING_ONLY))
    # At depth 1 the square is on the ring only: the depth query's ball runs
    # on integers, the full ball does not.
    assert _Ball(system, "a", 1, 64, 100_000, ring=False).scale is not None
    assert _Ball(system, "a", 1, 64, 100_000).scale is None
    assert _Ball(system, "a", 2, 64, 100_000, ring=False).scale is None
    for depth in range(6):
        for start in ("a", "b", "c", "z"):
            check(system, start, depth)
    assert weight_profile(system, "a", 1) == [0, Fraction(1, 3)]
    assert type(weight_profile(system, "z", 3)[-1]) is int
