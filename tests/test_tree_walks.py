"""Tree enumeration and loop leaves without recursion.

Both are compared with the recursive versions they replaced, kept in
``reference_eval``: the same trees in the same order, the same loop paths,
and the same ``CountCapExceeded``.  A chain deeper than the recursion limit
checks that neither recurses per level.
"""

from __future__ import annotations

import json
import sys

import pytest

from reference_eval import reference_enumerate_trees, reference_loop_leaves
from system_gen import random_system
from wars.builtins import builtin
from wars.evaluator import CountCapExceeded, enumerate_trees
from wars.system import load_explicit
from wars.unboundedness import _loop_leaves


def _outcome(enumerate_, sys_, start, depth, count_cap):
    try:
        return "trees", list(enumerate_(sys_, start, depth, 8, count_cap))
    except CountCapExceeded as exc:
        return "cap", str(exc)


@pytest.mark.parametrize("seed", range(0, 300, 7))
def test_same_trees_in_the_same_order(seed):
    sys_ = random_system(seed)
    for start in sys_.enumerate_objects()[0]:
        for depth in range(4):
            got = _outcome(enumerate_trees, sys_, start, depth, 200_000)
            assert got == _outcome(reference_enumerate_trees, sys_, start, depth, 200_000)
            for tree in got[1] if got[0] == "trees" else ():
                assert list(_loop_leaves(tree)) == list(reference_loop_leaves(tree))


@pytest.mark.parametrize("count_cap", [1, 2, 5, 17, 60])
def test_same_count_cap_exceeded(count_cap):
    osr = builtin("os_runtime")
    start = osr.parse_object("idle()")
    for depth in range(5):
        got = _outcome(enumerate_trees, osr, start, depth, count_cap)
        assert got == _outcome(reference_enumerate_trees, osr, start, depth, count_cap)


def test_chain_deeper_than_the_recursion_limit():
    length, depth = 1500, 1200
    assert depth > sys.getrecursionlimit()
    chain = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1"}
                  for i in range(length - 1)],
        "nf": {f"c{length - 1}": "0"},
    }))
    # One tree per stopping depth: 1,201 trees from 720,600 built in all.
    trees = list(enumerate_trees(chain, "c0", depth, count_cap=10**6))
    assert [t.depth() for t in trees] == list(range(depth + 1))
    assert all(list(_loop_leaves(t)) == [] for t in trees[-3:])


def test_loop_leaves_of_a_deep_cycle():
    # c0 -> c1 -> ... -> c1199 -> c0: the only loop leaf is 1,200 steps down.
    length = 1200
    cycle = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i}", "rhs": [f"c{(i + 1) % length}"], "agg": "1 + v1"}
                  for i in range(length)],
    }))
    deepest = list(enumerate_trees(cycle, "c0", length, count_cap=10**6))[-1]
    assert list(_loop_leaves(deepest)) == [(0,) * length]
