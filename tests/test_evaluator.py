"""Tree weighing, truncation, value iteration, fixpoints, and the tree oracle."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from reference_eval import cut_tree, reference_evaluate_to_fixpoint, reference_weight_lower_bound
from system_gen import random_system
from wars.aggregator import CountableSum, Var
from wars.builtins import builtin
from wars.evaluator import (
    LOWER_BOUND,
    STABILIZED,
    DepthProfile,
    ReductionTree,
    StructuralTreeError,
    VisitCapExceeded,
    enumerate_trees,
    evaluate_to_fixpoint,
    tree_weight,
    weight_lower_bound,
)
from wars.semiring import ALL_WORDS, NAT_INF, SemiringError
from wars.system import SystemHandle, load_explicit


def leaf(label):
    return ReductionTree(label)


FORMULA_SYSTEM = load_explicit(
    json.dumps(
        {
            "semiring": {"kind": "arctic"},
            "rules": [
                {"lhs": "psi", "rhs": ["Ra", "PabPbb"], "agg": "v1 * v2", "tag": "and"},
                {"lhs": "PabPbb", "rhs": ["Pab", "Pbb"], "agg": "v1 + v2", "tag": "or"},
            ],
            "nf": {"Ra": "2", "Pab": "7", "Pbb": "10"},
        }
    )
)

FORMULA_TREE = ReductionTree(
    "psi",
    "and",
    (
        leaf("Ra"),
        ReductionTree("PabPbb", "or", (leaf("Pab"), leaf("Pbb"))),
    ),
)


def walk_tree():
    # Root 2 fully expanded for two levels; leaves 2 and 4 stay unexplored.
    walk = builtin("walk_termprob")
    return walk, ReductionTree(
        2,
        "step",
        (
            ReductionTree(1, "step", (leaf(0), leaf(2))),
            ReductionTree(3, "step", (leaf(2), leaf(4))),
        ),
    )


class TestTreeWeight:
    def test_formula_tree(self):
        assert tree_weight(FORMULA_SYSTEM, FORMULA_TREE) == 12

    def test_single_normal_form(self):
        walk = builtin("walk_termprob")
        assert tree_weight(walk, leaf(0)) == 1

    def test_two_level_walk(self):
        walk, tree = walk_tree()
        assert tree_weight(walk, tree) == Fraction(4, 9)

    def test_child_mismatch_names_node(self):
        walk = builtin("walk_termprob")
        bad = ReductionTree(2, "step", (leaf(1), leaf(9)))
        with pytest.raises(StructuralTreeError, match="2"):
            tree_weight(walk, bad)

    def test_nonempty_leafless_non_nf_weighs_zero(self):
        walk = builtin("walk_termprob")
        assert tree_weight(walk, leaf(7)) == 0


class TestTruncate:
    def test_one_level_loses_the_normal_form(self):
        walk, tree = walk_tree()
        cut = cut_tree(tree, 1)
        # Both depth-1 leaves reduce further, so they weigh the minimum.
        assert tree_weight(walk, cut) == 0

    def test_truncation_never_increases_weight(self):
        walk, tree = walk_tree()
        weights = [tree_weight(walk, cut_tree(tree, n)) for n in range(tree.depth() + 1)]
        for lo, hi in zip(weights, weights[1:]):
            assert walk.semiring.leq(lo, hi)


class TestWeightLowerBound:
    def test_walk_two_steps(self):
        walk = builtin("walk_termprob")
        bound = weight_lower_bound(walk, 2, 2)
        assert bound.value == Fraction(4, 9)
        assert bound.status == LOWER_BOUND

    def test_normal_form_at_any_depth(self):
        walk = builtin("walk_termprob")
        for depth in (0, 3, 10):
            assert weight_lower_bound(walk, 0, depth).value == 1

    def test_unbounded_fanout_growth(self):
        na = builtin("na_system")
        for n in (1, 5, 12):
            bound = weight_lower_bound(na, "a", n + 1, rule_budget=n + 1)
            assert bound.value >= n

    def test_depth_monotone(self):
        walk = builtin("walk_termprob")
        profile = DepthProfile(walk, 2, 12)
        values = [profile.bound(level).value for level in range(13)]
        for lo, hi in zip(values, values[1:]):
            assert walk.semiring.leq(lo, hi)

    def test_budget_monotone(self):
        na = builtin("na_system")
        values = [
            weight_lower_bound(na, "a", 6, rule_budget=b).value for b in (1, 2, 4, 8)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi

    def test_visit_cap_carries_partial(self):
        walk = builtin("walk_termprob")
        with pytest.raises(VisitCapExceeded) as err:
            weight_lower_bound(walk, 2, 30, visit_cap=5)
        partial = err.value.partial
        assert partial.status == LOWER_BOUND
        assert walk.semiring.leq(partial.value, Fraction(1))

    def test_geometric_branch_truncation(self):
        geo = builtin("geometric_walk")
        bound = weight_lower_bound(geo, 1, 1)
        # One step: only the jump straight to the normal form contributes.
        assert bound.value == Fraction(1, 2)

    def test_branch_truncation_monotone(self):
        geo = builtin("geometric_walk")
        values = [
            weight_lower_bound(geo, 1, 3, branch_trunc=k).value
            for k in (1, 2, 4, 8, 16)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi

    def test_one_level_is_read_on_a_long_chain(self):
        # The profile behind it once read every level 0..depth, which took
        # time quadratic in the chain's length.
        chain = load_explicit(json.dumps({
            "semiring": {"kind": "nat_inf"},
            "rules": [{"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1"}
                      for i in range(1200)],
            "nf": {"c1200": "0"},
        }))
        begin = time.process_time()
        bound = weight_lower_bound(chain, "c0", 1200)
        assert time.process_time() - begin < 0.5
        assert (bound.value, bound.depth_explored, bound.visited) == (1200, 1200, 1201)

    def test_depth_zero_evaluates_no_level_above_it(self):
        # Level 1 of x concatenates SIGMA* with {b}, which leaves the carrier.
        # A depth-0 profile once evaluated it anyway and raised, where
        # `wars oracle --depth 0` printed the level-0 value.
        s = load_explicit(json.dumps({
            "semiring": {"kind": "language", "alphabet": ["a", "b"]},
            "rules": [{"lhs": "x", "rhs": ["y"], "agg": "SIGMA* * {a} * v1"}],
            "nf": {"y": "{b}"},
        }))
        assert weight_lower_bound(s, "x", 0).value == frozenset()
        assert DepthProfile(s, "x", 0).bound(0).value == frozenset()
        with pytest.raises(SemiringError, match="concatenation with SIGMA"):
            weight_lower_bound(s, "x", 1)
        # The fixpoint still settles one level more than it reads.
        with pytest.raises(SemiringError, match="concatenation with SIGMA"):
            evaluate_to_fixpoint(s, "x", 0)

    @pytest.mark.parametrize("branch_trunc", [0, -5])
    def test_branch_truncation_below_one_is_refused(self, branch_trunc, monkeypatch):
        # Once these returned 0 at depth_explored 0; now nothing is explored.
        geo = builtin("geometric_walk")
        monkeypatch.setattr(geo, "_rows", lambda *args: pytest.fail("explored"))
        for query in (evaluate_to_fixpoint, DepthProfile, weight_lower_bound):
            with pytest.raises(ValueError, match="^branch_trunc must be >= 1$"):
                query(geo, 1, 3, branch_trunc=branch_trunc)


@pytest.mark.parametrize("query, message", [
    (lambda walk: evaluate_to_fixpoint(walk, 1, max_depth=-1), "max_depth must be >= 0"),
    (lambda walk: DepthProfile(walk, 1, -1), "depth must be >= 0"),
    (lambda walk: weight_lower_bound(walk, 1, 3, visit_cap=0), "visit_cap must be >= 1"),
    (lambda walk: enumerate_trees(walk, 1, -1), "depth must be >= 0"),
], ids=["fixpoint-depth", "profile-depth", "visit-cap", "enumeration-depth"])
def test_a_count_below_its_least_is_refused(query, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        query(builtin("walk_termprob"))


@pytest.mark.parametrize("branch_trunc", [0, -3])
def test_tree_weight_refuses_a_truncation_below_one(branch_trunc):
    # Once 0 weighed the jump's countable sum as zero, and -3 gave 0 or 1/2
    # by what the process had weighed before.
    geo = builtin("geometric_walk", prefix=4)
    tree = ReductionTree(2, "jump", tuple(map(ReductionTree, (0, 1, 2, 3))))
    assert tree_weight(geo, tree) == Fraction(1, 2)
    with pytest.raises(ValueError, match="^branch_trunc must be >= 1$"):
        tree_weight(geo, tree, branch_trunc)


class TestFixpoint:
    def test_ski_rental_minimum(self):
        ski = builtin("ski_rental", y=3)
        result = evaluate_to_fixpoint(ski, ("loop", 5), 64)
        assert result.value == 3
        assert result.status == STABILIZED

    def test_explicit_chain(self):
        sys_ = load_explicit(
            json.dumps(
                {
                    "semiring": {"kind": "nat_inf"},
                    "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                    "nf": {"b": "7"},
                }
            )
        )
        result = evaluate_to_fixpoint(sys_, "a", 16)
        assert result.value == 7 and result.status == STABILIZED

    def test_walk_approaches_one_without_stabilizing(self):
        walk = builtin("walk_termprob")
        result = evaluate_to_fixpoint(walk, 1, 200)
        assert result.status == LOWER_BOUND
        assert result.value > Fraction(999, 1000)
        assert result.value < 1

    def test_normal_form_stabilizes_at_depth_zero(self):
        walk = builtin("walk_termprob")
        result = evaluate_to_fixpoint(walk, 0, 0)
        assert result.value == 1 and result.status == STABILIZED


class TestEnumerateTrees:
    def test_normal_form_has_one_tree(self):
        walk = builtin("walk_termprob")
        assert list(enumerate_trees(walk, 0, 5)) == [leaf(0)]

    def test_branching_pair(self):
        sys_ = load_explicit(
            json.dumps(
                {
                    "semiring": {"kind": "nat_inf"},
                    "rules": [
                        {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "left"},
                        {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "right"},
                    ],
                    "nf": {"b": "1", "c": "2"},
                }
            )
        )
        trees = list(enumerate_trees(sys_, "a", 1))
        assert trees == [
            leaf("a"),
            ReductionTree("a", "left", (leaf("b"),)),
            ReductionTree("a", "right", (leaf("c"),)),
        ]

    def test_formula_tree_is_enumerated(self):
        trees = list(enumerate_trees(FORMULA_SYSTEM, "psi", 2))
        assert FORMULA_TREE in trees

    def test_trees_are_unique(self):
        for seed in range(6):
            sys_ = random_system(seed)
            for a in sys_.enumerate_objects():
                trees = list(enumerate_trees(sys_, a, 3))
                assert len(trees) == len(set(trees))


def oracle_join(sys_, a, depth):
    weights = [tree_weight(sys_, t) for t in enumerate_trees(sys_, a, depth)]
    return sys_.semiring.join(weights)


def test_truncation_weights_never_increase_on_random_trees():
    for seed in range(8):
        sys_ = random_system(seed)
        desc = sys_.semiring
        for a in sys_.enumerate_objects()[:3]:
            for tree in list(enumerate_trees(sys_, a, 3))[:40]:
                full = tree_weight(sys_, tree)
                for n in range(tree.depth() + 1):
                    cut = tree_weight(sys_, cut_tree(tree, n))
                    assert desc.leq(cut, full)


class TestOracleEquivalence:
    def test_small_random_systems(self):
        # Value iteration against brute-force enumeration over all objects
        # and depths; the acceptance suite runs the full 200-system version.
        for seed in range(30):
            sys_ = random_system(seed)
            for a in sys_.enumerate_objects():
                for depth in range(5):
                    iterated = weight_lower_bound(sys_, a, depth).value
                    assert iterated == oracle_join(sys_, a, depth), (
                        f"seed {seed}, object {a}, depth {depth}"
                    )

    def test_profile_bounds_match_reference(self):
        walk = builtin("walk_termprob")
        profile = DepthProfile(walk, 2, 8)
        for level in range(9):
            got, want = profile.bound(level), reference_weight_lower_bound(walk, 2, level)
            assert (got, type(got.value)) == (want, type(want.value))

    def test_profile_refuses_a_level_outside_its_depths(self):
        # A level of -1 once read the depth-3 value labelled depth -1, and
        # 4 raised a bare IndexError.
        profile = DepthProfile(builtin("walk_termprob"), 1, 3)
        for level in (-1, 4, 100):
            with pytest.raises(ValueError, match=rf"^level must be in 0\.\.3, got {level}$"):
                profile.bound(level)
        assert profile.bound(3).value == Fraction(22, 27)
        # A capped profile refuses an outside level before it raises for the cap.
        capped = DepthProfile(builtin("walk_termprob"), 1, 3, visit_cap=2)
        with pytest.raises(ValueError):
            capped.bound(-1)
        with pytest.raises(VisitCapExceeded):
            capped.bound(3)

    def test_product_carrier(self):
        sys_ = load_explicit(
            json.dumps(
                {
                    "semiring": {
                        "kind": "product",
                        "components": [{"kind": "nat_inf"}, {"kind": "boolean"}],
                    },
                    "rules": [
                        {"lhs": "a", "rhs": ["b", "c"], "agg": "(1,true) + v1 * v2", "tag": "r0"},
                        {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "r1"},
                        {"lhs": "b", "rhs": ["c", "c"], "agg": "(2,false) + v1 + v2", "tag": "r2"},
                        {"lhs": "b", "rhs": ["a"], "agg": "(1,false) + v1", "tag": "r3"},
                    ],
                    "nf": {"c": "(1,true)"},
                }
            )
        )
        for a in sys_.enumerate_objects():
            for depth in range(5):
                assert weight_lower_bound(sys_, a, depth).value == oracle_join(
                    sys_, a, depth
                )

    def test_language_carrier(self):
        sys_ = builtin("bitstring_prefixes")
        for a in ("0", "1", "*"):
            for depth in range(6):
                assert weight_lower_bound(sys_, a, depth).value == oracle_join(
                    sys_, a, depth
                )


class TestSchedulerWeights:
    def test_service_orders_accumulate(self):
        # Deeper exploration reveals every short service order.
        fair = builtin("os_fair")
        start = fair.parse_object("idle()")
        value = weight_lower_bound(fair, start, 16).value
        for word in ("", "P1", "P2", "P1P1", "P1P2", "P2P1", "P2P2"):
            assert word in value

    def test_expected_steps_approach_three(self):
        walk = builtin("walk_expected")
        value = weight_lower_bound(walk, 1, 200).value
        assert Fraction(29, 10) < value < 3


class TestBitstreamWeights:
    def test_distinct_weight_counts(self):
        sys_ = builtin("bitstring_prefixes")
        for depth in range(1, 5):
            weights = set()
            for root in ("0", "1"):
                for tree in enumerate_trees(sys_, root, depth):
                    weights.add(tree_weight(sys_, tree))
            assert len(weights) == 2 ** depth

    def test_weights_are_prefix_sets(self):
        sys_ = builtin("bitstring_prefixes")
        deep = max(
            enumerate_trees(sys_, "0", 4),
            key=lambda t: t.depth(),
        )
        w = tree_weight(sys_, deep)
        assert w is not ALL_WORDS
        for word in w:
            for i in range(len(word) + 1):
                assert word[:i] in w


def fan_system(complete: bool = True) -> SystemHandle:
    """``a`` rewrites by rule ``fan`` to the normal forms b0..b99, each of
    weight 1, and sums them as a countable sum of 100 terms, so ``a``
    weighs 100; ``complete`` is the row's ``rhs_complete``."""
    rhs = tuple(f"b{i}" for i in range(100))
    body = CountableSum(lambda m: Var(m + 1) if m < 100 else None, var_bound=100)

    def successors(obj):
        return [("a", rhs, body, "fan", complete)] if obj == "a" else []

    return SystemHandle("fan", NAT_INF, successors, lambda obj: 1,
                        enumerate_objects_fn=lambda: ["a", *rhs])


def test_a_countable_sum_cut_short_never_stabilizes():
    # The sum read its first 64 terms, and the ball that held it still
    # reported stabilized: 64, against a true weight of 100.
    system = fan_system()
    for fixpoint in (evaluate_to_fixpoint, reference_evaluate_to_fixpoint):
        bound = fixpoint(system, "a", 10)
        assert (bound.value, bound.status) == (64, LOWER_BOUND)
        bound = fixpoint(system, "a", 10, branch_trunc=200)
        assert (bound.value, bound.status, bound.depth_explored) == (100, STABILIZED, 1)
