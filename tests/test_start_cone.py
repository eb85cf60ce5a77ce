"""``evaluate_to_fixpoint`` sweeps only the start's cone in the start's own
component, and sweeps that component again in full when the cone cannot tell
whether it is stable.

Every case is compared with the full level-by-level sweep in
``reference_eval``: the value and its type, the status, the explored depth
and the visit count.  ``Cone`` counts the objects recomputed (the
``pending`` lists handed to ``_recompute``) and the full reruns.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eval import reference_evaluate_to_fixpoint
from system_gen import random_system_json
from wars import evaluator
from wars.builtins import builtin
from wars.evaluator import evaluate_to_fixpoint
from wars.system import load_explicit

# c0 and c1 stay 0, while c2..c4 grow by at least one every level: the cone
# of the start sees nothing change at the depth limit, yet the component is
# not stable.
GROWING_BEHIND_A_ZERO = {
    "semiring": {"kind": "nat_inf"},
    "rules": [
        {"lhs": "c0", "rhs": ["c1"], "agg": "0 * v1", "tag": "r0"},
        {"lhs": "c1", "rhs": ["c2"], "agg": "0 * v1", "tag": "r1"},
        {"lhs": "c2", "rhs": ["c3"], "agg": "1 + v1", "tag": "r2"},
        {"lhs": "c3", "rhs": ["c4"], "agg": "1 + v1", "tag": "r3"},
        {"lhs": "c4", "rhs": ["c2", "c0"], "agg": "1 + v1 + v2", "tag": "r4"},
    ],
    "nf": {},
}


class Cone:
    """Counts, while installed, the objects recomputed and the full sweeps of
    the start's component that follow a cone sweep."""

    def __init__(self, monkeypatch):
        self.recomputed = 0
        self.reruns = 0
        recompute, cyclic = evaluator._recompute, evaluator._Settled._cyclic

        def counted_recompute(pending, *args):
            self.recomputed += len(pending)
            return recompute(pending, *args)

        def counted_cyclic(settled, component, read, steps, ends=None):
            if ends is None and 0 in component:
                self.reruns += 1
            return cyclic(settled, component, read, steps, ends)

        monkeypatch.setattr(evaluator, "_recompute", counted_recompute)
        monkeypatch.setattr(evaluator._Settled, "_cyclic", counted_cyclic)


def outcome(fn, system, start, depth):
    bound = fn(system, start, depth)
    return bound.value, type(bound.value), bound.status, bound.depth_explored, bound.visited


def check(system, start, depth):
    want = outcome(reference_evaluate_to_fixpoint, system, start, depth)
    assert outcome(evaluate_to_fixpoint, system, start, depth) == want
    return want


def test_cone_that_cannot_tell_falls_back_to_the_full_sweep(monkeypatch):
    system = load_explicit(json.dumps(GROWING_BEHIND_A_ZERO))
    cone = Cone(monkeypatch)
    fell_back = []
    for depth in range(13):
        before = cone.reruns
        value, _, status, _, _ = check(system, "c0", depth)
        assert (value, status) == (0, "lower_bound")
        if cone.reruns > before:
            fell_back.append(depth)
    assert fell_back == [4, 5, 6, 7, 8, 9, 10, 11, 12]


@pytest.mark.parametrize("depth", [40, 41])
@pytest.mark.parametrize("start", [1, 2, 3, 4, 5])
def test_both_parities_need_no_rerun(monkeypatch, start, depth):
    # A walk is bipartite: each object changes only every other level, and
    # the extra ring of the cone sees the change at the other parity.
    system = builtin("walk_termprob")
    cone = Cone(monkeypatch)
    check(system, start, depth)
    assert cone.reruns == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 8), st.data())
def test_generated_systems_match_the_full_sweep(seed, depth, data):
    text = json.dumps(random_system_json(seed))
    rules = json.loads(text)["rules"]
    system = load_explicit(text)
    objects = sorted({r["lhs"] for r in rules} | {b for r in rules for b in r["rhs"]})
    if objects:
        check(system, data.draw(st.sampled_from(objects)), depth)


def test_walk_sweeps_half_the_objects(monkeypatch):
    # The full sweep of the walk's component recomputes 62,750 objects.
    cone = Cone(monkeypatch)
    bound = evaluate_to_fixpoint(builtin("walk_expected"), 1, 250)
    assert (bound.status, bound.depth_explored, bound.visited) == ("lower_bound", 250, 252)
    assert cone.recomputed <= 32_000
    assert cone.reruns == 0


def test_benchmark_walk_evals_need_no_rerun(monkeypatch):
    # The `eval` ops of the benchmark's walk workload for seeds 0-4, drawn as
    # perfbench/workloads.py draws them.
    cone = Cone(monkeypatch)
    systems = {name: builtin(name) for name in ("walk_termprob", "walk_expected")}
    for seed in range(5):
        rng = random.Random(seed)
        for name, base in (("walk_termprob", 110), ("walk_termprob", 210),
                           ("walk_termprob", 290), ("walk_expected", 160),
                           ("walk_expected", 250)):
            start, depth = rng.randint(1, 5), base + rng.randint(0, 10)
            assert evaluate_to_fixpoint(systems[name], start, depth).depth_explored == depth
    assert cone.reruns == 0
