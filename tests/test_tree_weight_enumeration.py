"""``enumerate_tree_weights`` against the naive tree-by-tree oracle.

It must give what ``reference_tree_weight`` gives on each tree of
``reference_enumerate_trees``, weight for weight and type for type, in the
same order, with nothing deduplicated or joined.  It counts the trees before
it weighs any, so a ``CountCapExceeded`` comes first, with the same message,
even when weighing one of the trees would raise.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eval import reference_enumerate_trees, reference_tree_weight
from system_gen import random_system
from wars.builtins import builtin
from wars.cli import main
from wars.evaluator import CountCapExceeded, enumerate_tree_weights, weight_lower_bound
from wars.semiring import ALL_WORDS, SemiringError
from wars.system import load_explicit

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


def outcome(fn):
    """The typed weights ``fn()`` returns, or the type and message it raised."""
    try:
        return "ok", typed(fn())
    except Exception as exc:
        return type(exc), str(exc)


def both(sys_, a, depth, rule_budget=8, count_cap=200_000, branch_trunc=64):
    fast = outcome(
        lambda: enumerate_tree_weights(sys_, a, depth, rule_budget, count_cap, branch_trunc)
    )
    reference = outcome(
        lambda: [
            reference_tree_weight(sys_, t, branch_trunc)
            for t in reference_enumerate_trees(sys_, a, depth, rule_budget, count_cap)
        ]
    )
    return fast, reference


@pytest.mark.parametrize("seed", range(30))
def test_generated_systems_match_reference(seed):
    sys_ = random_system(seed)
    for a in sys_.enumerate_objects()[0]:
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
    st.sampled_from([1, 2, 64]),
    st.data(),
)
def test_budgets_and_caps_match_reference(seed, depth, rule_budget, count_cap, trunc, data):
    sys_ = random_system(seed)
    a = data.draw(st.sampled_from(sys_.enumerate_objects()[0]))
    fast, reference = both(sys_, a, depth, rule_budget, count_cap, trunc)
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
            enumerate_tree_weights(self.sys, "a", 2, count_cap=4)
        fast, reference = both(self.sys, "a", 2, count_cap=4)
        assert fast == reference

    def test_aggregator_error_below_the_cap(self):
        with pytest.raises(SemiringError, match=r"SIGMA\*"):
            enumerate_tree_weights(self.sys, "a", 2, count_cap=5)
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
