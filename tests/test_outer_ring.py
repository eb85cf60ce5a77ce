"""Depth queries at the outer ring, the objects at distance ``depth``.

``DepthProfile`` (and so ``weight_lower_bound``) explores the ball that
``evaluate_to_fixpoint`` explores, ring rules included, and settles it as
the fixpoint does, so it evaluates the ring too, though no value it reads
depends on the ring.  Every value ``DepthProfile.bound`` reads, of the same
type, every visit count and every visit-cap partial must be the full-sweep
reference's, a bad rule budget must be refused when the start itself is the
ring, and an aggregator that fails on the ring fails the depth query as it
fails the fixpoint.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from reference_eval import reference_weight_lower_bound
from system_gen import random_system
from wars import evaluator
from wars.evaluator import (
    DepthProfile,
    VisitCapExceeded,
    _Ball,
    evaluate_to_fixpoint,
    weight_lower_bound,
)
from wars.semiring import SemiringError
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
    return ("bound", result.value, type(result.value), result.status,
            result.depth_explored, result.visited, result.budgets)


def check(system, start, depth, **budgets) -> None:
    """Every level of a depth profile against the reference."""
    profile = DepthProfile(system, start, depth, **budgets)
    for level in range(depth + 1):
        assert outcome(profile.bound, level) == outcome(
            reference_weight_lower_bound, system, start, level, **budgets
        ), level


@pytest.mark.parametrize("seed", SEEDS)
def test_depth_queries_match_the_reference(seed):
    system = random_system(seed)
    for start in system.enumerate_objects():
        for depth in DEPTHS:
            check(system, start, depth)


@pytest.mark.parametrize("seed", SEEDS)
def test_visit_caps_at_the_ring(seed):
    # Caps just below, at and just above the ball's size at the ring radius.
    system = random_system(seed)
    for start in system.enumerate_objects():
        for depth in DEPTHS:
            size = reference_weight_lower_bound(system, start, depth).visited
            for cap in {max(size - 1, 1), size, size + 1}:
                check(system, start, depth, visit_cap=cap)


def test_a_bad_rule_budget_is_refused_when_the_start_is_the_ring():
    system = random_system(0)
    start = system.enumerate_objects()[0]
    for query in (
        lambda: weight_lower_bound(system, start, 0, rule_budget=0),
        lambda: DepthProfile(system, start, 0, rule_budget=0),
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


def test_a_non_affine_aggregator_on_the_ring_only(monkeypatch):
    system = load_explicit(json.dumps(RING_ONLY))
    # At depth 1 the square is on the ring only, which no value read at the
    # start depends on, but the ball reads the ring's rules: it runs on
    # fractions, and so does
    # the ball a depth query builds.
    assert _Ball(system, ["a"], 1, 64, 64, 100_000).scale is None
    assert _Ball(system, ["a"], 2, 64, 64, 100_000).scale is None
    balls = []

    def recorded(*args):
        balls.append(_Ball(*args))
        return balls[-1]

    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "_Ball", recorded)
        DepthProfile(system, "a", 1)
    assert [ball.scale for ball in balls] == [None]
    for depth in range(6):
        for start in ("a", "b", "c", "z"):
            check(system, start, depth)
    profile = DepthProfile(system, "a", 1)
    assert [profile.bound(level).value for level in range(2)] == [0, Fraction(1, 3)]
    assert type(DepthProfile(system, "z", 3).bound(3).value) is int


# ``t1`` is on the ring at depth 2, and reads SIGMA* from ``t2`` at level 1;
# concatenating it with {a} leaves the carrier.  No tree of depth 2 from
# ``s`` applies ``t1``'s rule.
SIGMA_ON_THE_RING = {
    "semiring": {"kind": "language", "alphabet": ["a"]},
    "rules": [
        {"lhs": "s", "rhs": ["t"], "agg": "v1"},
        {"lhs": "s", "rhs": ["t2"], "agg": "v1"},
        {"lhs": "t", "rhs": ["t1"], "agg": "v1"},
        {"lhs": "t1", "rhs": ["t2"], "agg": "{a} * v1"},
        {"lhs": "t2", "rhs": ["z"], "agg": "v1"},
    ],
    "nf": {"z": "SIGMA*"},
}


def test_an_aggregator_failing_on_the_ring_fails_the_depth_query():
    # The depth query once recomputed only the start's cone, so it never
    # applied t1's rule and read the levels 0..2 of s as {}, {}, SIGMA*.
    system = load_explicit(json.dumps(SIGMA_ON_THE_RING))
    assert [str(DepthProfile(system, "s", 1).bound(level).value) for level in range(2)] == [
        "frozenset()", "frozenset()"]
    for query in (DepthProfile, weight_lower_bound, evaluate_to_fixpoint):
        with pytest.raises(SemiringError, match="^concatenation with SIGMA\\* leaves"):
            query(system, "s", 2)
