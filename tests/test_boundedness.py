"""Boundedness checks: top-valued normal forms, selective and extremal
sufficient conditions, embedding verification, and the affine search."""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

from wars.aggregator import evaluate
from wars.boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    UNBOUNDED,
    UNKNOWN,
    Embedding,
    PreconditionError,
    UnsupportedAggregatorError,
    builtin_embedding,
    check_nf_top,
    check_sufficient_extremal,
    check_sufficient_selective,
    search_affine_embedding,
    verify_embedding,
)
from wars.builtins import builtin, builtin_names, ground_terms
from wars.evaluator import weight_lower_bound
from wars.semiring import BOTTLENECK, INF
from wars.system import SystemHandle, _finite_no_top, load_explicit

from reference_eval import reference_search_affine_embedding
from system_gen import random_system


def explicit(spec: dict):
    return load_explicit(json.dumps(spec))


BOTTLENECK_NET = explicit(
    {
        "semiring": {"kind": "bottleneck"},
        "rules": [
            {"lhs": "src", "rhs": ["mid", "alt"], "agg": "v1 + v2", "tag": "fan"},
            {"lhs": "mid", "rhs": ["snk"], "agg": "v1", "tag": "fwd"},
            {"lhs": "alt", "rhs": ["snk", "snk"], "agg": "v1 * v2", "tag": "both"},
        ],
        "nf": {"snk": "5"},
    }
)

CHAIN = explicit(
    {
        "semiring": {"kind": "nat_inf"},
        "rules": [
            {"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": "ab"},
            {"lhs": "b", "rhs": ["c"], "agg": "1 + v1", "tag": "bc"},
        ],
        "nf": {"c": "2"},
    }
)


class TestCheckNfTop:
    def test_infinite_normal_form_is_a_witness(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                "nf": {"b": "inf"},
            }
        )
        report = check_nf_top(sys_)
        assert report is not None and report.verdict == UNBOUNDED
        assert report.witness == "b"

    def test_finite_weights_are_silent(self):
        assert check_nf_top(CHAIN) is None

    def test_finite_cost_table_is_silent(self):
        assert check_nf_top(builtin("boolform", finite_costs=True)) is None

    def test_default_cost_table_has_top_atoms(self):
        report = check_nf_top(builtin("boolform"))
        assert report is not None and report.verdict == UNBOUNDED


class TestSelectiveCondition:
    def test_constant_free_bottleneck_certifies(self):
        report = check_sufficient_selective(BOTTLENECK_NET, 5)
        assert report.verdict == BOUNDED_CERTIFIED

    def test_step_counting_is_not_selective(self):
        report = check_sufficient_selective(CHAIN, 100)
        assert report.verdict == UNKNOWN
        assert "non_selective_rule" in report.details

    def test_single_normal_form_with_its_own_bound(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "bottleneck"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
                "nf": {"b": "3"},
            }
        )
        report = check_sufficient_selective(sys_, 3)
        assert report.verdict == BOUNDED_CERTIFIED

    def test_top_bound_rejected(self):
        with pytest.raises(PreconditionError):
            check_sufficient_selective(BOTTLENECK_NET, INF)

    def test_violating_normal_form_reported(self):
        report = check_sufficient_selective(BOTTLENECK_NET, 4)
        assert report.verdict == UNKNOWN
        assert report.details["violating_normal_form"] == "snk"

    def test_open_family_rules_are_sampled(self):
        # No complete object enumeration: the walk's aggregator is probed on
        # sampled objects and correctly fails the syntactic test.
        walk = builtin("walk_termprob")
        report = check_sufficient_selective(walk, Fraction(1))
        assert report.verdict == UNKNOWN
        assert "non_selective_rule" in report.details


def _unsampled_handle(sampler=None):
    # No object enumeration; the only normal form is 0.
    return SystemHandle(
        "open",
        BOTTLENECK,
        lambda obj, budget: ([], True),
        lambda obj: 3,
        enumerate_nfs_fn=lambda: ([0], True),
        sample_objects_fn=sampler,
    )


class TestSelectiveSampling:
    def test_crashing_sampler_propagates(self):
        def sampler(rng, count):
            raise RuntimeError("sampler bug")

        with pytest.raises(RuntimeError, match="sampler bug"):
            check_sufficient_selective(_unsampled_handle(sampler), 3)

    def test_no_sampler_falls_back_to_normal_forms(self):
        report = check_sufficient_selective(_unsampled_handle(), 3)
        assert report.verdict == BOUNDED_SAMPLED
        assert report.details == {"normal_forms_checked": 1, "rules_checked": 0}
        assert report.sample_count == 1


class TestExtremalCondition:
    def test_finite_cost_formulas_certify(self):
        report = check_sufficient_extremal(builtin("boolform", finite_costs=True))
        assert report.verdict == BOUNDED_CERTIFIED

    def test_unbounded_fanout_blocks(self):
        report = check_sufficient_extremal(builtin("na_system"))
        assert report.verdict == UNKNOWN
        assert "finitely_nondeterministic" in report.details["missing"]
        assert report.details["finitely_nondeterministic"] == "refuted"

    def test_non_terminating_scheduler_blocks(self):
        report = check_sufficient_extremal(builtin("os_size"))
        assert report.verdict == UNKNOWN
        assert "terminating" in report.details["missing"]

    def test_top_constant_blocks(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "inf + v1"}],
                "nf": {"b": "0"},
            }
        )
        report = check_sufficient_extremal(sys_)
        assert report.verdict == UNKNOWN
        assert "aggregators" in report.details["missing"]

    def test_terminating_chain_certifies(self):
        report = check_sufficient_extremal(CHAIN)
        assert report.verdict == BOUNDED_CERTIFIED

    def test_unstated_aggregator_facts_leave_it_unknown(self):
        sys_ = copy.copy(CHAIN)
        sys_.aggregators_finite_no_top = None
        report = check_sufficient_extremal(sys_)
        assert report.verdict == UNKNOWN
        assert report.details["aggregators"] == "unknown"
        assert report.details["missing"] == ["aggregators"]

    def test_top_constant_past_the_default_rule_budget_blocks(self):
        # The 65th rule of one object: walking each object's first 64 rules
        # missed it and certified a system whose weight at a is top.
        rules = [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": f"r{i}"} for i in range(64)]
        rules.append({"lhs": "a", "rhs": ["b"], "agg": "inf + v1", "tag": "r64"})
        sys_ = explicit({"semiring": {"kind": "nat_inf"}, "rules": rules, "nf": {"b": "0"}})
        report = check_sufficient_extremal(sys_)
        assert report.verdict == UNKNOWN
        assert report.details["aggregators"] == "refuted"
        assert weight_lower_bound(sys_, "a", 1, rule_budget=65).value == INF


def _enumerable_builtins() -> list:
    handles = [builtin(name, **({"y": 3} if name == "ski_rental" else {}))
               for name in builtin_names()]
    return [h for h in handles if h.enumerate_objects() is not None]


@pytest.mark.parametrize(
    "sys_",
    _enumerable_builtins() + [random_system(seed) for seed in range(30)],
    ids=lambda h: h.name,
)
def test_stated_aggregator_facts_match_every_rule(sys_):
    """``check_sufficient_extremal`` trusts ``aggregators_finite_no_top``;
    it must agree with walking every rule of every object."""
    objects, complete = sys_.enumerate_objects()
    assert complete
    walked = all(
        _finite_no_top(r.aggregator, sys_.semiring)
        for a in objects
        for r in sys_.successors(a, 65536)[0]
    )
    assert sys_.aggregators_finite_no_top is walked


class TestVerifyEmbedding:
    def test_walk_triple_slope(self):
        walk = builtin("walk_expected")
        e = builtin_embedding("walk3n")
        report = verify_embedding(walk, e, range(0, 1001))
        assert report.verdict == BOUNDED_SAMPLED
        assert report.sample_count == 1001
        # Both sides of the step inequality agree exactly on every instance.
        for n in range(1, 1001):
            rule = walk.successors(n)[0][0]
            step, _ = evaluate(
                rule.aggregator, walk.semiring, [e(n - 1), e(n + 1)]
            )
            assert step == e(n) == 3 * n

    def test_walk_bound_dominates_iteration(self):
        walk = builtin("walk_expected")
        for k in range(0, 21):
            bound = weight_lower_bound(walk, k, 12)
            assert walk.semiring.leq(bound.value, Fraction(3 * k))

    def test_addition_terms_certify(self):
        trs = builtin("addition_trs", max_size=8)
        e = builtin_embedding("trs_add")
        report = verify_embedding(trs, e)
        assert report.verdict == BOUNDED_CERTIFIED
        assert report.bound_map is not None

    def test_addition_bound_dominates_iteration(self):
        trs = builtin("addition_trs", max_size=8)
        report = verify_embedding(trs, builtin_embedding("trs_add"))
        assert report.certified()
        sampled = ground_terms(8)[::11]
        for t in sampled:
            for depth in (0, 4, 12):
                w = weight_lower_bound(trs, t, depth).value
                assert trs.semiring.leq(w, report.bound_map[t])

    def test_addition_root_steps_are_tight(self):
        # Root rewrites of the first schema meet their bound with equality.
        trs = builtin("addition_trs", max_size=8)
        e = builtin_embedding("trs_add")
        seen = 0
        for t in ground_terms(8):
            if t[0] != "plus" or t[1][0] != "s":
                continue
            lhs_value = e(t)
            rule = next(r for r in trs.successors(t)[0] if r.tag == "plus_s@")
            step, _ = evaluate(rule.aggregator, trs.semiring, [e(rule.rhs[0])])
            assert step == lhs_value == 2 * e(t[1][1]) + e(t[2]) + 3
            seen += 1
        assert seen > 0

    def test_case_split_embedding_samples(self):
        zwalk = builtin("z_walk_safety")
        e = builtin_embedding("zwalk_case")
        report = verify_embedding(zwalk, e, range(-100, 101))
        assert report.verdict == BOUNDED_SAMPLED
        assert report.sample_count == 201
        # The odd case pins (inf, false) on both sides; that tuple is not the
        # maximum (inf, true), so it is accepted.
        assert e(7) == (INF, False)
        assert e(7) != zwalk.semiring.top

    def test_violation_is_reported_with_instance(self):
        walk = builtin("walk_expected")
        too_small = Embedding(lambda n: Fraction(2 * n), "walk2n")
        report = verify_embedding(walk, too_small, range(0, 50))
        assert report.verdict == UNKNOWN
        assert "violated_rule" in report.details

    def test_top_valued_embedding_rejected(self):
        report = verify_embedding(
            CHAIN, Embedding.from_table({"a": INF, "b": 3, "c": 2}), ["a"]
        )
        assert report.verdict == UNKNOWN
        assert "top_valued_embedding" in report.details

    def test_exhaustive_needs_enumeration(self):
        walk = builtin("walk_expected")
        with pytest.raises(PreconditionError):
            verify_embedding(walk, builtin_embedding("walk3n"))

    def test_undefined_embedding_raises(self):
        from wars.boundedness import EmbeddingDomainError

        partial = Embedding.from_table({"a": 4, "b": 3})  # no entry for "c"
        with pytest.raises(EmbeddingDomainError, match="undefined"):
            verify_embedding(CHAIN, partial)

    def test_certified_bound_dominates_every_level(self):
        e = search_affine_embedding(CHAIN, 6)
        report = verify_embedding(CHAIN, e)
        assert report.certified()
        for a in CHAIN.enumerate_objects()[0]:
            for depth in range(13):
                w = weight_lower_bound(CHAIN, a, depth).value
                assert CHAIN.semiring.leq(w, report.bound_map[a])


class TestSearchAffineEmbedding:
    def test_minimal_single_step(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b"], "agg": "1 + v1"}],
                "nf": {"b": "0"},
            }
        )
        e = search_affine_embedding(sys_, 4)
        assert e is not None
        assert (e("a"), e("b")) == (1, 0)

    def test_self_loop_has_no_finite_embedding(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["a"], "agg": "1 + v1"}],
                "nf": {},
            }
        )
        assert search_affine_embedding(sys_, 8) is None

    def test_chain_back_substitution(self):
        e = search_affine_embedding(CHAIN, 6)
        assert e is not None
        assert {x: e(x) for x in "abc"} == {"a": 4, "b": 3, "c": 2}

    def test_output_reverifies(self):
        e = search_affine_embedding(CHAIN, 6)
        assert verify_embedding(CHAIN, e).certified()

    def test_non_affine_aggregator_rejected(self):
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [{"lhs": "a", "rhs": ["b", "b"], "agg": "v1 * v2"}],
                "nf": {"b": "2"},
            }
        )
        with pytest.raises(UnsupportedAggregatorError):
            search_affine_embedding(sys_, 4)

    def test_wrong_carrier_rejected(self):
        with pytest.raises(PreconditionError):
            search_affine_embedding(BOTTLENECK_NET, 4)

    def test_tropical_rejected(self):
        # The tropical order is reversed: the first table in lexicographic
        # order would be the weakest valid bound, not the least fixpoint.
        sys_ = explicit(
            {
                "semiring": {"kind": "tropical"},
                "rules": [
                    {"lhs": "a", "rhs": ["b"], "agg": "3 * v1"},
                    {"lhs": "b", "rhs": ["c"], "agg": "2 * v1"},
                ],
                "nf": {"c": "1"},
            }
        )
        with pytest.raises(PreconditionError, match="counting carrier"):
            search_affine_embedding(sys_, 4)

    def test_long_chain_settles(self):
        # Far beyond the reach of trying every table: 201^200 of them.
        n = 200
        sys_ = explicit(
            {
                "semiring": {"kind": "nat_inf"},
                "rules": [
                    {"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1"}
                    for i in range(n - 1)
                ],
                "nf": {f"c{n - 1}": "0"},
            }
        )
        e = search_affine_embedding(sys_, n)
        assert {f"c{i}": e(f"c{i}") for i in range(n)} == {
            f"c{i}": n - 1 - i for i in range(n)
        }


def _search_outcome(search, sys_, cap):
    """The table ``search`` returns, None, or what it raised."""
    try:
        e = search(sys_, cap)
    except Exception as exc:
        return type(exc), str(exc)
    if e is None:
        return None
    return e.name, {a: e(a) for a in sys_.enumerate_objects()[0]}


SELF_LOOP = {
    "semiring": {"kind": "nat_inf"},
    "rules": [{"lhs": "a", "rhs": ["a"], "agg": "1 + v1"}],
    "nf": {},
}
TWO_CYCLE = {
    "semiring": {"kind": "nat_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "ab"},
        {"lhs": "b", "rhs": ["a"], "agg": "v1", "tag": "ba"},
    ],
    "nf": {},
}


@pytest.mark.parametrize("spec", [SELF_LOOP, TWO_CYCLE], ids=["self-loop", "two-cycle"])
@pytest.mark.parametrize("cap", range(5))
def test_search_matches_trying_every_table_on_cycles(spec, cap):
    sys_ = explicit(spec)
    assert _search_outcome(search_affine_embedding, sys_, cap) == _search_outcome(
        reference_search_affine_embedding, sys_, cap
    )


def test_search_matches_trying_every_table_on_generated_systems():
    # seed % 3 == 0 draws nat_inf systems of three to six objects.
    tables = 0
    for seed in range(0, 600, 3):
        sys_ = random_system(seed)
        for cap in range(4):
            got = _search_outcome(search_affine_embedding, sys_, cap)
            assert got == _search_outcome(reference_search_affine_embedding, sys_, cap), (
                seed,
                cap,
            )
            tables += isinstance(got, tuple) and isinstance(got[1], dict)
    assert tables == 91


def test_unknown_builtin_embedding():
    with pytest.raises(Exception, match="unknown embedding"):
        builtin_embedding("nope")
