"""Boundedness checks: top-valued normal forms, selective and extremal
sufficient conditions and embedding verification."""

from __future__ import annotations

import collections
import copy
import json
import random
from fractions import Fraction

import pytest

from wars.aggregator import evaluate, parse_expr
from wars.boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    UNBOUNDED,
    UNKNOWN,
    Embedding,
    PreconditionError,
    builtin_embedding,
    check_nf_top,
    check_sufficient_extremal,
    check_sufficient_selective,
    verify_embedding,
)
from wars.builtins import builtin, builtin_names, ground_terms
from wars.evaluator import weight_lower_bound
from wars.semiring import BOTTLENECK, INF, REAL_INF
from wars.system import RuleInstance, SystemHandle, _finite_no_top, load_explicit

from reference_eval import reference_verify_embedding
from system_gen import random_system
from test_evaluator import fan_system


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

    def test_no_normal_form_enumeration_is_silent(self):
        assert check_nf_top(_bare_handle()) is None


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
        lambda obj: [],
        lambda obj: 3,
        enumerate_nfs_fn=lambda: [0],
        sample_objects_fn=sampler,
    )


def _bare_handle():
    # Neither objects nor normal forms are enumerable.
    return SystemHandle("bare", BOTTLENECK, lambda obj: [], lambda obj: 3)


class TestSelectiveSampling:
    def test_crashing_sampler_propagates(self):
        def sampler(count):
            raise RuntimeError("sampler bug")

        with pytest.raises(RuntimeError, match="sampler bug"):
            check_sufficient_selective(_unsampled_handle(sampler), 3)

    def test_no_sampler_falls_back_to_normal_forms(self):
        # No longer: with neither objects nor a sampler no aggregator is read,
        # so nothing is certified or sampled.
        report = check_sufficient_selective(_unsampled_handle(), 3)
        assert (report.verdict, report.details) == (UNKNOWN, {"objects": "not enumerable"})
        assert report.sample_count == 0

    def test_no_normal_form_enumeration_is_unknown(self):
        report = check_sufficient_selective(_bare_handle(), 3)
        assert (report.verdict, report.details) == (UNKNOWN, {"normal_forms": "not enumerable"})

    def test_an_incomplete_rule_list_only_samples(self):
        # Object 1 has 65 rules, one more than the check reads: every object
        # is enumerated, but not every rule.
        v1 = parse_expr("v1", BOTTLENECK)
        rules = [(1, (0,), v1, f"r{n}", True) for n in range(65)]
        sys_ = SystemHandle("partial", BOTTLENECK, lambda obj: rules if obj else [],
                            lambda obj: 3, enumerate_objects_fn=lambda: [0, 1])
        report = check_sufficient_selective(sys_, 3)
        assert report.verdict == BOUNDED_SAMPLED
        assert report.details == {"normal_forms_checked": 1, "rules_checked": 64}
        assert report.sample_count == 65


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

    def test_normal_forms_not_enumerable_block(self):
        report = check_sufficient_extremal(_bare_handle())
        assert report.verdict == UNKNOWN
        assert report.details["normal_form_weights"] == "not fully enumerable"
        assert "normal_form_weights" in report.details["missing"]

    def test_top_valued_normal_form_blocks(self):
        # `wars bound` answers this system by check_nf_top first; a library
        # call reaches the extremal check's own test.
        report = check_sufficient_extremal(builtin("boolform"))
        assert report.verdict == UNKNOWN
        assert report.details["normal_form_weights"] == "top-valued: Pba"
        assert report.details["missing"] == ["normal_form_weights"]

    def test_terminating_chain_certifies(self):
        report = check_sufficient_extremal(CHAIN)
        assert report.verdict == BOUNDED_CERTIFIED

    def test_unstated_aggregator_facts_leave_it_unknown(self):
        sys_ = copy.copy(CHAIN)
        sys_.flags = copy.copy(CHAIN.flags)
        sys_.flags.aggregators_finite_no_top = None
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
    """``check_sufficient_extremal`` trusts ``flags.aggregators_finite_no_top``;
    it must agree with walking every rule of every object."""
    objects = sys_.enumerate_objects()
    walked = all(
        _finite_no_top(r.aggregator, sys_.semiring)
        for a in objects
        for r in sys_.successors(a, 65536)[0]
    )
    assert sys_.flags.aggregators_finite_no_top is walked


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
        assert report.verdict == BOUNDED_CERTIFIED
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
        # CHAIN's least fixpoint.
        e = Embedding.from_table({"a": 4, "b": 3, "c": 2})
        report = verify_embedding(CHAIN, e)
        assert report.verdict == BOUNDED_CERTIFIED
        for a in CHAIN.enumerate_objects():
            for depth in range(13):
                w = weight_lower_bound(CHAIN, a, depth).value
                assert CHAIN.semiring.leq(w, report.bound_map[a])


def test_unknown_builtin_embedding():
    with pytest.raises(Exception, match="unknown embedding"):
        builtin_embedding("nope")


class TestRuleWitnesses:
    """Readers take rows, but a rule that leaves the library as a report's
    witness is still the record public ``find_rule`` returns."""

    @pytest.mark.parametrize("sys_", [CHAIN, builtin("os_runtime")], ids=["explicit", "cplx_wrap"])
    def test_violated_rule_is_a_record(self, sys_):
        start = next(a for a in sys_.sample_objects(8) if not sys_.is_normal_form(a))
        report = verify_embedding(sys_, Embedding(lambda obj: 0, "zero"), [start])
        assert report.verdict == UNKNOWN
        rule = report.witness
        assert type(rule) is RuleInstance
        assert rule == sys_.find_rule(start, report.details["violated_rule"])

    def test_non_selective_rule_is_a_record(self):
        report = check_sufficient_selective(CHAIN, 10)
        assert report.details == {"non_selective_rule": "ab"}
        assert type(report.witness) is RuleInstance
        assert report.witness == CHAIN.find_rule("a", "ab")


# ---------------------------------------------------------------------------
# Affine real_inf steps are decided on integers: every report, and every
# error, is the one the closure-only reference gives.

_REAL_LITERALS = ("0", "1", "2", "3", "1/2", "2/3", "5/7", "0.25", "0/3")


def _real_expr(rng: random.Random, arity: int) -> str:
    """A sum of products of variables, int and Fraction literals and
    bracketed sums: affine or not, with zero coefficients, now and then
    with inf."""

    def factor(depth):
        roll = rng.random()
        if roll < 0.45:
            return f"v{rng.randrange(1, arity + 1)}"
        if roll < 0.8 or depth >= 2:
            return "inf" if rng.random() < 0.01 else rng.choice(_REAL_LITERALS)
        return "(" + expr(depth + 1) + ")"

    def term(depth):
        return " * ".join(factor(depth) for _ in range(1 + (rng.random() < 0.35)))

    def expr(depth):
        return " + ".join(term(depth) for _ in range(rng.randint(1, 3)))

    return expr(0)


def _real_system(rng: random.Random) -> SystemHandle:
    """An acyclic real_inf file system: rules lead from each object to later
    ones, and the last objects are normal forms."""
    count = rng.randint(3, 7)
    names = [f"a{i}" for i in range(count)]
    rules, nf = [], {}
    for i, name in enumerate(names):
        if i >= count - rng.randint(1, 2):
            nf[name] = rng.choice(_REAL_LITERALS)
            continue
        for k in range(rng.randint(1, 3)):
            arity = rng.randint(1, 3)
            rhs = [rng.choice(names[i + 1:]) for _ in range(arity)]
            rules.append({"lhs": name, "rhs": rhs, "agg": _real_expr(rng, arity), "tag": f"r{i}_{k}"})
    return explicit({"semiring": {"kind": "real_inf"}, "rules": rules, "nf": nf})


def _least_table(sys_, rng: random.Random, slack: bool) -> dict:
    """The least table that holds, later objects first, each value an int
    where it is whole half of the time; with ``slack``, some values are
    raised a little."""
    table = {}
    for a in sorted(sys_.enumerate_objects(), key=lambda name: -int(name[1:])):
        rules, _ = sys_.successors(a, 64)
        steps = [evaluate(r.aggregator, REAL_INF, [table[b] for b in r.rhs])[0] for r in rules]
        value = max(steps) if rules else sys_.nf_weight(a)
        if value is not INF:
            value = Fraction(value)
            if slack and rng.random() < 0.5:
                value += Fraction(rng.randint(1, 3), rng.randint(1, 4))
            if value.denominator == 1 and rng.random() < 0.5:
                value = int(value)
        table[a] = value
    return table


def _missed(table: dict, rng: random.Random) -> dict:
    """The table with one object's value lowered by 1/k, so that the rule
    or normal form that reached it misses it; unchanged when no value is
    large enough."""
    k = rng.choice((1, 2, 3, 1000))
    lowered = [a for a, v in table.items() if v is not INF and v >= Fraction(1, k)]
    if not lowered:
        return table
    a = rng.choice(sorted(lowered))
    return dict(table, **{a: table[a] - Fraction(1, k)})


def _embedding_outcome(check, sys_, embedding, instances):
    try:
        r = check(sys_, embedding, instances)
    except Exception as exc:
        return type(exc), str(exc)
    types = {a: type(v) for a, v in (r.bound_map or {}).items()}
    return r.verdict, r.method, r.details, r.sample_count, r.witness, repr(r.witness), r.bound_map, types


def _same_embedding_outcome(sys_, embedding, instances="all"):
    got = _embedding_outcome(verify_embedding, sys_, embedding, instances)
    assert got == _embedding_outcome(reference_verify_embedding, sys_, embedding, instances)
    return got


def _outcome_kind(outcome) -> str:
    if outcome[0] != UNKNOWN:
        return outcome[0] if isinstance(outcome[0], str) else "error"
    return next(iter(outcome[2]))


def test_integer_steps_report_as_the_closures_do_on_generated_systems():
    kinds = collections.Counter()
    for seed in range(150):
        rng = random.Random(seed)
        sys_ = _real_system(rng)
        tie = _least_table(sys_, rng, slack=False)
        for table in (tie, _least_table(sys_, rng, slack=True), _missed(tie, rng)):
            embedding = Embedding.from_table(table)
            kinds[_outcome_kind(_same_embedding_outcome(sys_, embedding))] += 1
            sample = rng.sample(sorted(table), rng.randint(1, len(table)))
            kinds[_outcome_kind(_same_embedding_outcome(sys_, embedding, sample))] += 1
    # Both verdicts, violated rules and normal forms, and top-valued tables.
    assert kinds == {BOUNDED_SAMPLED: 328, BOUNDED_CERTIFIED: 268, "violated_rule": 165,
                     "top_valued_embedding": 88, "violated_normal_form": 51}


@pytest.mark.parametrize("agg_text, table", [
    ("v1 + v2", {"a": 3, "b": 1, "c": 2}),
    ("2/3 * v1 + 1/3 * v2", {"a": Fraction(5, 3), "b": 1, "c": 3}),
    ("2/3 * v1 + 1/3 * v2", {"a": Fraction(5, 3) - Fraction(1, 1000), "b": 1, "c": 3}),
    ("0 * v1 + 1/2 + v2 * 0", {"a": Fraction(1, 2), "b": 7, "c": 9}),
    ("0 * v1 + 1/2 + v2 * 0", {"a": Fraction(499, 1000), "b": 7, "c": 9}),
    ("(v1 + 1) * 2", {"a": 6, "b": 2, "c": 0}),
    ("v1 * v2", {"a": 2, "b": 1, "c": 2}),
    ("v1 * v2", {"a": 1, "b": 1, "c": 2}),
    ("inf * v1 + v2", {"a": 5, "b": 0, "c": 5}),
    ("inf * v1 + v2", {"a": 5, "b": 1, "c": 5}),
    ("v1 + v2", {"a": 3, "b": INF, "c": 2}),
    ("v1 + v2", {"a": -1, "b": 1, "c": 2}),
    ("v1 + v3", {"a": 3, "b": 1, "c": 2}),
], ids=["int-tie", "fraction-tie", "fraction-miss", "zero-coefficients-tie",
        "zero-coefficients-miss", "scaled-sum", "product-holds", "product-misses",
        "inf-times-zero", "inf-times-one", "top-valued-successor", "outside-carrier",
        "arity"])
def test_integer_steps_report_as_the_closures_do_on_one_rule(agg_text, table):
    # The rule a -> (b, c) is a prefix of a longer sequence, so v3 may occur.
    rows = {"a": [("a", ("b", "c"), parse_expr(agg_text, REAL_INF), "t", False)]}
    sys_ = SystemHandle("one_rule", REAL_INF, lambda a: rows.get(a, []),
                        {"b": 1, "c": 2}.__getitem__)
    _same_embedding_outcome(sys_, Embedding.from_table(table), ["a"])


def _perturbed(base, at: int, delta):
    return Embedding(lambda n: base(n) + (delta if n == at else 0), "perturbed")


@pytest.mark.parametrize("name, base", [
    ("walk_expected", builtin_embedding("walk3n")),
    ("walk_termprob", lambda n: 1),
    ("walk_termprob", builtin_embedding("walk3n")),
], ids=["expected-walk3n", "termprob-one", "termprob-walk3n"])
@pytest.mark.parametrize("at, delta", [(None, 0), (7, -Fraction(1, 1000)), (40, -1), (8, 1)])
def test_integer_steps_report_as_the_closures_do_on_the_walks(name, base, at, delta):
    walk = builtin(name)
    embedding = _perturbed(base, at, delta)
    _same_embedding_outcome(walk, embedding, range(0, 60))
    _same_embedding_outcome(walk, embedding, range(1, 60))


def test_countable_sums_report_as_the_closures_do():
    jump = builtin("geometric_walk", prefix=8)
    for value in (1, Fraction(1, 2), Fraction(127, 128), Fraction(255, 256)):
        _same_embedding_outcome(jump, Embedding(lambda n, v=value: v, "flat"), range(0, 10))


@pytest.mark.parametrize("check", [verify_embedding, reference_verify_embedding])
def test_an_exhaustive_check_refuses_a_rule_list_it_cannot_read_in_full(check):
    sys_ = explicit(
        {
            "semiring": {"kind": "nat_inf"},
            "rules": [
                {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "ab"},
                {"lhs": "a", "rhs": ["c"], "agg": "v1", "tag": "ac"},
            ],
            "nf": {"b": "0", "c": "1"},
        }
    )
    embedding = Embedding.from_table({"a": 1, "b": 0, "c": 1})
    with pytest.raises(PreconditionError, match="^rule enumeration for a is not complete$"):
        check(sys_, embedding, rule_budget=1)
    assert check(sys_, embedding, rule_budget=2).verdict == BOUNDED_CERTIFIED


@pytest.mark.parametrize("check", [verify_embedding, reference_verify_embedding])
def test_an_exhaustive_check_refuses_a_rule_it_cannot_read_in_full(check):
    # The step read 64 of its 100 terms, and the check certified a = 64,
    # though the step is 100.
    table = {"a": 64, **{f"b{i}": 1 for i in range(100)}}
    embedding = Embedding.from_table(table)
    for system in (fan_system(), fan_system(complete=False)):
        with pytest.raises(PreconditionError, match="^rule fan for a is not read in full$"):
            check(system, embedding)
        # A sampled check reads the step as cut and verifies the samples.
        assert check(system, embedding, ["a"]).verdict == BOUNDED_SAMPLED
    report = check(fan_system(), embedding, branch_trunc=200)
    assert (report.verdict, report.details["aggregated"]) == (UNKNOWN, "100")


@pytest.mark.parametrize("branch_trunc", [0, -3])
def test_a_truncation_below_one_is_refused(branch_trunc):
    walk = builtin("walk_expected")
    for instances in ("all", [1, 2]):
        with pytest.raises(ValueError, match="^branch_trunc must be >= 1$"):
            verify_embedding(walk, builtin_embedding("walk3n"), instances, branch_trunc=branch_trunc)
