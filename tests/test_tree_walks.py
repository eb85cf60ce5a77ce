"""Tree enumeration and the loop search without recursion.

Tree enumeration is compared with the recursive version it replaced, kept
in ``reference_eval``: the same trees in the same order and the same
``CountCapExceeded``.  A chain and a cycle deeper than the recursion limit
check that neither enumeration nor the loop search recurses per level.
"""

from __future__ import annotations

import json
import sys

import pytest

from reference_eval import reference_enumerate_trees
from system_gen import random_system
from wars.builtins import builtin
from wars.evaluator import CountCapExceeded, enumerate_trees
from wars.system import load_explicit
from wars.unboundedness import find_loops


def _outcome(enumerate_, sys_, start, depth, count_cap):
    try:
        return "trees", list(enumerate_(sys_, start, depth, 8, count_cap))
    except CountCapExceeded as exc:
        return "cap", str(exc)


@pytest.mark.parametrize("seed", range(0, 300, 7))
def test_same_trees_in_the_same_order(seed):
    sys_ = random_system(seed)
    for start in sys_.enumerate_objects():
        for depth in range(4):
            got = _outcome(enumerate_trees, sys_, start, depth, 200_000)
            assert got == _outcome(reference_enumerate_trees, sys_, start, depth, 200_000)


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


def test_loop_leaves_of_a_deep_cycle():
    # c0 -> c1 -> ... -> c1199 -> c0: the only loop is 1,200 steps long.
    length = 1200
    assert length > sys.getrecursionlimit()
    cycle = load_explicit(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": f"c{i}", "rhs": [f"c{(i + 1) % length}"], "agg": "1 + v1"}
                  for i in range(length)],
    }))
    loops = find_loops(cycle, "c0", length)
    assert [path for _, path in loops] == [(0,) * length]
    assert loops[0][0].depth() == length
