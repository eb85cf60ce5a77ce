"""``tree_weight`` against the recursive ``reference_tree_weight``.

``tree_weight`` weighs each distinct node object of its tree once and walks
with an explicit stack.  It must give the reference's weight for every tree
and raise the reference's first exception (type and message) on malformed
trees, also where one node object sits at several places in the tree.  The
tree helpers must handle trees far deeper than the recursion limit.
"""

from __future__ import annotations

import json
import sys

import pytest

from reference_eval import reference_tree_weight
from system_gen import random_system
from wars.evaluator import (
    ReductionTree,
    enumerate_trees,
    tree_weight,
    truncate,
)
from wars.system import load_explicit


def leaf(label):
    return ReductionTree(label)


def outcome(fn):
    """The value of ``fn()``, or the type and message of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:
        return type(exc), str(exc)


def typed(weights):
    return [(type(w), w) for w in weights]


# "cat" raises while evaluating: SIGMA* concatenated with a finite language
# leaves the carrier.
LANG_SPEC = {
    "semiring": {"kind": "language", "alphabet": ["0", "1"]},
    "rules": [
        {"lhs": "a", "rhs": ["s", "w"], "agg": "v1 * v2", "tag": "cat"},
        {"lhs": "a", "rhs": ["w", "w"], "agg": "v1 * v2", "tag": "ww"},
        {"lhs": "b", "rhs": ["a", "a"], "agg": "v1 + v2", "tag": "both"},
        {"lhs": "b", "rhs": ["w"], "agg": "v1", "tag": "one"},
    ],
    "nf": {"s": "SIGMA*", "w": "{0}"},
}
LANG = load_explicit(json.dumps(LANG_SPEC))

GOOD_A = ReductionTree("a", "ww", (leaf("w"), leaf("w")))
LEAF_WITH_RULE = ReductionTree("w", "one")
NF_WITH_CHILDREN = ReductionTree("w", "one", (leaf("w"),))
NO_RULE = ReductionTree("a", None, (leaf("w"), leaf("w")))
UNKNOWN_TAG = ReductionTree("a", "nope", (leaf("w"), leaf("w")))
RHS_MISMATCH = ReductionTree("a", "ww", (leaf("w"), leaf("s")))
AGGREGATOR_ERROR = ReductionTree("a", "cat", (leaf("s"), leaf("w")))
UNKNOWN_OBJECT = leaf("zzz")

ONE_FAULT = {
    "leaf names a rule": LEAF_WITH_RULE,
    "normal form with children": NF_WITH_CHILDREN,
    "inner node with no rule": NO_RULE,
    "unknown tag": UNKNOWN_TAG,
    "right-hand-side mismatch": RHS_MISMATCH,
    "aggregator error": AGGREGATOR_ERROR,
    "unknown object": UNKNOWN_OBJECT,
    "faulty child": ReductionTree("b", "one", (LEAF_WITH_RULE,)),
}

TWO_FAULTS = {
    # The node's own checks come before its children's.
    "mismatch over faulty child": ReductionTree("b", "both", (NO_RULE,)),
    "normal form over faulty child": ReductionTree("w", "one", (AGGREGATOR_ERROR,)),
    "no rule over faulty child": ReductionTree("b", None, (UNKNOWN_TAG, GOOD_A)),
    # Children are weighed left to right, each completely.
    "two structural faults": ReductionTree("b", "both", (UNKNOWN_TAG, NO_RULE)),
    "aggregator before sibling": ReductionTree(
        "b", "both", (AGGREGATOR_ERROR, RHS_MISMATCH)
    ),
    "sibling before aggregator": ReductionTree(
        "b", "both", (RHS_MISMATCH, AGGREGATOR_ERROR)
    ),
    "deep left, shallow right": ReductionTree(
        "b",
        "both",
        (ReductionTree("a", "ww", (LEAF_WITH_RULE, leaf("w"))), UNKNOWN_TAG),
    ),
}


@pytest.mark.parametrize("seed", range(30))
def test_enumerated_trees_match_reference(seed):
    sys_ = random_system(seed)
    for a in sys_.enumerate_objects()[0]:
        for depth in range(4):
            trees = list(enumerate_trees(sys_, a, depth))
            expected = [reference_tree_weight(sys_, t) for t in trees]
            assert typed([tree_weight(sys_, t) for t in trees]) == typed(expected)


@pytest.mark.parametrize("name", sorted(ONE_FAULT.keys() | TWO_FAULTS.keys()))
def test_malformed_tree_raises_reference_error(name):
    tree = ONE_FAULT.get(name) or TWO_FAULTS[name]
    expected = outcome(lambda: reference_tree_weight(LANG, tree))
    assert expected[0] != "ok"
    assert outcome(lambda: tree_weight(LANG, tree)) == expected


def test_faulty_subtree_shared_within_one_tree():
    # LANG plus a rule over three b's, so that one tree holds all three b
    # subtrees: the faulty node twice and GOOD_A three times.
    three = {"lhs": "c", "rhs": ["b", "b", "b"], "agg": "v1 + v2 + v3", "tag": "three"}
    system = load_explicit(json.dumps(dict(LANG_SPEC, rules=LANG_SPEC["rules"] + [three])))
    subtrees = [
        ReductionTree("b", "both", (GOOD_A, GOOD_A)),
        ReductionTree("b", "both", (GOOD_A, AGGREGATOR_ERROR)),
        ReductionTree("b", "both", (NO_RULE, AGGREGATOR_ERROR)),
    ]
    for order in (subtrees, subtrees[::-1], [subtrees[0], subtrees[2], subtrees[1]]):
        tree = ReductionTree("c", "three", tuple(order))
        expected = outcome(lambda: reference_tree_weight(system, tree))
        assert expected[0] != "ok"
        assert outcome(lambda: tree_weight(system, tree)) == expected
    good = ReductionTree("c", "three", (subtrees[0],) * 3)
    assert typed([tree_weight(system, good)]) == typed([reference_tree_weight(system, good)])


# --------------------------------------------------------------------------
# Trees deeper than the recursion limit.

DEEP = 10_000


@pytest.fixture(scope="module")
def deep_chain():
    """c0 -> c1 -> ... -> c{DEEP}, each step adding 1 over nat_inf."""
    system = load_explicit(
        json.dumps(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {
                        "lhs": f"c{i}",
                        "rhs": [f"c{i + 1}"],
                        "agg": "1 + v1",
                        "tag": "step",
                    }
                    for i in range(DEEP)
                ],
                "nf": {f"c{DEEP}": "0"},
            }
        )
    )
    tree = leaf(f"c{DEEP}")
    for i in reversed(range(DEEP)):
        tree = ReductionTree(f"c{i}", "step", (tree,))
    return system, tree


def _chain_labels(tree):
    labels = []
    while True:
        labels.append((tree.label, tree.rule_tag))
        if not tree.children:
            return labels
        (tree,) = tree.children


def test_deep_tree_helpers(deep_chain):
    assert DEEP > 5 * sys.getrecursionlimit()
    system, tree = deep_chain
    assert tree_weight(system, tree) == DEEP
    assert tree.depth() == DEEP
    assert tree.size() == DEEP + 1
    for n in (0, 1, DEEP // 2, DEEP, DEEP + 5):
        cut = truncate(tree, n)
        k = min(n, DEEP)
        assert cut.depth() == k
        assert cut.size() == k + 1
        # The cut leaf c{k} is no normal form (unless k is DEEP), so it weighs 0.
        assert tree_weight(system, cut) == k
        want = [(f"c{i}", "step") for i in range(k)] + [(f"c{k}", None)]
        assert _chain_labels(cut) == want
