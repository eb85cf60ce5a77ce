"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is exact unless stated otherwise; every criterion
carries a wall-clock budget that is asserted, not just reported.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from algebra_checks import check_all, sample
from reference_eval import numeral
from system_gen import random_system
from wars.aggregator import Const, evaluate, substitute_x
from wars.boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    builtin_embedding,
    verify_embedding,
)
from wars.builtins import (
    builtin,
    plus_term,
    rewrite_steps,
)
from wars.evaluator import (
    STABILIZED,
    DepthProfile,
    enumerate_trees,
    evaluate_to_fixpoint,
    tree_weight,
    weight_lower_bound,
)
from wars.semiring import (
    ARCTIC,
    BOOLEAN,
    BOTTLENECK,
    CONFIDENCE,
    INF,
    NAT_INF,
    REAL_INF,
    TROPICAL,
    Language,
    Product,
)
from wars.unboundedness import CANDIDATE, CERTIFIED, analyze_loop, certify_loop, find_loops


class _Clock:
    def __init__(self, number: int, name: str, limit: float):
        self.number = number
        self.name = name
        self.limit = limit
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"PASS criterion {self.number:2d} [{self.name}] "
              f"{elapsed:.2f}s (limit {self.limit:.0f}s)")
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_01_provenance_cost():
    clock = _Clock(1, "provenance cost over arctic", 1.0)
    bf = builtin("boolform")
    psi = bf.parse_object("Ra & (Pab | Pbb)")
    assert weight_lower_bound(bf, psi, 2).value == 12
    full = max(enumerate_trees(bf, psi, 2), key=lambda t: t.size())
    assert tree_weight(bf, full) == 12
    clock.done()


def test_criterion_02_random_walk_probability():
    clock = _Clock(2, "walk termination probability", 5.0)
    walk = builtin("walk_termprob")
    assert weight_lower_bound(walk, 2, 2).value == Fraction(4, 9)

    previous = None
    crossed_at = None
    profile = DepthProfile(walk, 2, 500)
    for n in range(501):
        value = profile.bound(n).value
        if previous is not None:
            assert walk.semiring.leq(previous, value), f"drop at level {n}"
        previous = value
        if value > Fraction(999, 1000):
            crossed_at = n
            break
    assert crossed_at is not None and crossed_at <= 500
    clock.done()


def test_criterion_03_expected_steps_certificate():
    clock = _Clock(3, "expected-steps certificate 3n", 5.0)
    walk = builtin("walk_expected")
    e = builtin_embedding("walk3n")
    report = verify_embedding(walk, e, range(0, 1001))
    assert report.verdict == BOUNDED_SAMPLED and report.sample_count == 1001
    for n in range(1, 1001):
        rule = walk.successors(n)[0][0]
        step, _ = evaluate(rule.aggregator, walk.semiring, [e(n - 1), e(n + 1)])
        assert step == e(n) == 3 * n
    for k in range(0, 21):
        assert walk.semiring.leq(weight_lower_bound(walk, k, 12).value, Fraction(3 * k))
    clock.done()


def _longest_derivation(term, memo):
    if term in memo:
        return memo[term]
    steps = rewrite_steps(term)
    result = 0 if not steps else 1 + max(
        _longest_derivation(t, memo) for _, t in steps
    )
    memo[term] = result
    return result


def test_criterion_04_trs_termination_bound():
    clock = _Clock(4, "rewrite-system bound and step counts", 30.0)
    trs = builtin("addition_trs", max_size=8)
    report = verify_embedding(trs, builtin_embedding("trs_add"))
    assert report.verdict == BOUNDED_CERTIFIED

    memo = {}
    for m in range(7):
        for k in range(7):
            start = plus_term(numeral(m), numeral(k))
            result = evaluate_to_fixpoint(trs, start, 64)
            assert result.status == STABILIZED
            assert result.value == m + 1
            assert _longest_derivation(start, memo) == m + 1
    clock.done()


def test_criterion_05_tuple_safety():
    clock = _Clock(5, "combined step/safety certificate", 5.0)
    zwalk = builtin("z_walk_safety")
    report = verify_embedding(zwalk, builtin_embedding("zwalk_case"), range(-100, 101))
    assert report.verdict == BOUNDED_SAMPLED and report.sample_count == 201
    bad = (INF, True)
    for k in range(-20, 21):
        profile = DepthProfile(zwalk, k, 50)
        for level in range(51):
            assert profile.bound(level).value != bad
    clock.done()


def test_criterion_06_increasing_loop():
    clock = _Clock(6, "increasing loop on the scheduler", 5.0)
    osr = builtin("os_runtime")
    start = osr.parse_object("idle()")
    witnesses = [analyze_loop(osr, t, p) for t, p in find_loops(osr, start, 4)]
    four_step = [
        w
        for w in witnesses
        if w.trace() == ["idle_wait", "wait_P1", "idle_run", "run_P1"]
    ]
    assert four_step, "the four-step idle loop must be found"
    w = four_step[0]
    for x in (0, 1, 2, 5, 100):
        value, _ = evaluate(substitute_x(w.polynomial, Const(x)), NAT_INF, [])
        assert value == x + 4
    assert certify_loop(NAT_INF, w.polynomial) == (4, CERTIFIED)
    assert w.status == CERTIFIED and w.t == 4

    oss = builtin("os_size")
    size_witnesses = [analyze_loop(oss, t, p) for t, p in find_loops(oss, start, 4)]
    same = [
        w
        for w in size_witnesses
        if w.trace() == ["idle_wait", "wait_P1", "idle_run", "run_P1"]
    ]
    assert same
    for x in (0, 1, 2, 5, 100):
        value, _ = evaluate(substitute_x(same[0].polynomial, Const(x)), ARCTIC, [])
        assert value == max(x, 1)
    assert certify_loop(ARCTIC, same[0].polynomial) is None
    assert same[0].status == CANDIDATE
    clock.done()


def test_criterion_07_ski_rental():
    clock = _Clock(7, "cheapest rental strategy", 10.0)
    for y in range(9):
        ski = builtin("ski_rental", y=y)
        for n0 in range(9):
            result = evaluate_to_fixpoint(ski, ("loop", n0), 64)
            assert result.status == STABILIZED
            assert result.value == min(n0, y)
    clock.done()


def test_criterion_08_oracle_equivalence():
    clock = _Clock(8, "value iteration vs tree enumeration", 60.0)
    for seed in range(200):
        sys_ = random_system(seed)
        desc = sys_.semiring
        for a in sys_.enumerate_objects():
            for depth in range(5):
                iterated = weight_lower_bound(sys_, a, depth).value
                joined = desc.join(
                    [tree_weight(sys_, t) for t in enumerate_trees(sys_, a, depth)]
                )
                assert iterated == joined, (seed, a, depth)
    clock.done()


def test_criterion_09_unbounded_fanout():
    clock = _Clock(9, "growth under unbounded fan-out", 5.0)
    na = builtin("na_system")
    for n in range(1, 51):
        bound = weight_lower_bound(na, "a", n + 1, rule_budget=n + 1)
        assert bound.value >= n
    clock.done()


def test_criterion_10_law_suite():
    clock = _Clock(10, "algebraic law suite", 30.0)
    carriers = [
        NAT_INF,
        REAL_INF,
        TROPICAL,
        ARCTIC,
        BOOLEAN,
        CONFIDENCE,
        BOTTLENECK,
        Language(("0", "1")),
        Product((NAT_INF, BOOLEAN)),
        Product((ARCTIC, ARCTIC)),
    ]
    for i, desc in enumerate(carriers):
        check_all(desc, seed=100 + i, samples=1000)

    # Product joins are pointwise suprema.
    pair = Product((NAT_INF, BOOLEAN))
    rng = random.Random(42)
    for _ in range(1000):
        values = [sample(pair, rng) for _ in range(rng.randrange(1, 5))]
        joined = pair.join(values)
        assert joined == (
            NAT_INF.join([v[0] for v in values]),
            BOOLEAN.join([v[1] for v in values]),
        )

    # Aggregator monotonicity under pointwise-dominating arguments.
    from algebra_checks import random_aggregator_expr

    rng = random.Random(43)
    for desc in (NAT_INF, TROPICAL, ARCTIC):
        for _ in range(1000):
            arity = rng.randrange(1, 4)
            expr = random_aggregator_expr(rng, arity)
            lo = [sample(desc, rng) for _ in range(arity)]
            hi = [desc.plus(v, sample(desc, rng)) for v in lo]
            low, _ = evaluate(expr, desc, lo)
            high, _ = evaluate(expr, desc, hi)
            assert desc.leq(low, high)
    clock.done()


def test_criterion_11_distinct_stream_weights():
    clock = _Clock(11, "bit-stream weight separation", 10.0)
    sys_ = builtin("bitstring_prefixes")
    for depth in range(1, 7):
        weights = set()
        for root in ("0", "1"):
            for tree in enumerate_trees(sys_, root, depth):
                weights.add(tree_weight(sys_, tree))
        assert len(weights) == 2 ** depth, f"depth {depth}"
    clock.done()
