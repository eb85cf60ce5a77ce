"""Affine ``real_inf`` balls, whose levels run on scaled integers, against
the full-sweep reference in ``reference_eval``.

Every entry point must return the value the ``Fraction`` sweep stores, of the
same type: a normal form its own weight, an object still at zero the int
``0`` it started from, any other value a ``Fraction``.  Balls just outside
the scope (an int constant, ``inf``, a product of two variables, a countable
sum) must keep the ``Fraction`` path and match as well.  ``wars eval`` on the
random walks is checked against an exact dynamic program written here.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference_eval import (
    reference_evaluate_to_fixpoint,
    reference_iterate_lower_bounds,
    reference_weight_lower_bound,
)
from wars import cli
from wars.builtins import builtin
from wars.evaluator import (
    DepthProfile,
    VisitCapExceeded,
    _Ball,
    evaluate_to_fixpoint,
    iterate_lower_bounds,
    weight_lower_bound,
)
from wars.system import load_explicit

# Mixed denominators, with 1/1 and 0/1 for the Fractions equal to one and zero.
COEFFICIENTS = ["1/2", "2/3", "1/3", "3/4", "1/6", "5/4", "1/1", "7/10"]
CONSTANTS = ["0/1", "1/2", "1/3", "2/5", "3/1"]
WEIGHTS = ["0/1", "1/1", "1/2", "4/3", "0/1"]


@st.composite
def affine_aggregators(draw, arity: int) -> str:
    terms = []
    for k in range(1, arity + 1):
        shape = draw(st.sampled_from(["scaled", "bare", "scaled", "absent"]))
        if shape == "scaled":
            terms.append(f"{draw(st.sampled_from(COEFFICIENTS))} * v{k}")
        elif shape == "bare":
            terms.append(f"v{k}")
    if not terms or draw(st.booleans()):
        terms.append(draw(st.sampled_from(CONSTANTS)))
    text = " + ".join(terms)
    if draw(st.integers(0, 3)) == 0:
        # A sum scaled from the right, and a zero product inside a sum.
        text = f"({text}) * {draw(st.sampled_from(COEFFICIENTS))}"
    if draw(st.integers(0, 5)) == 0:
        text = f"{text} + 0/1 * v1"
    return text


@st.composite
def affine_systems(draw) -> dict:
    """A ``real_inf`` system of 2..12 objects whose aggregators are affine
    with ``Fraction`` constants and whose normal forms weigh ``Fraction``s."""
    n = draw(st.integers(2, 12))
    names = [f"o{i:02d}" for i in range(n)]
    rules, nf = [], {}
    for i, name in enumerate(names):
        if i == n - 1 or draw(st.integers(0, 5)) == 0:
            nf[name] = draw(st.sampled_from(WEIGHTS))
            continue
        for j in range(draw(st.sampled_from([1, 1, 2, 3]))):
            arity = draw(st.integers(1, 3))
            # Mostly forward, so long chains give open balls at small depths.
            rhs = [
                names[draw(st.integers(max(0, i - 2), min(n - 1, i + 2)))]
                for _ in range(arity)
            ]
            rules.append({
                "lhs": name, "rhs": rhs, "tag": f"{name}r{j}",
                "agg": draw(affine_aggregators(arity)),
            })
    return {"semiring": {"kind": "real_inf"}, "rules": rules, "nf": nf}


def outcome(fn, *args, **kwargs):
    """A bound or the visit-cap partial, as comparable plain data with the
    value's type."""
    try:
        bound, raised = fn(*args, **kwargs), False
    except VisitCapExceeded as exc:
        bound, raised = exc.partial, True
    value = bound.value
    return raised, value, type(value), bound.status, bound.depth_explored, bound.visited


def typed(values) -> list:
    return [(v, type(v)) for v in values]


def check(system, start, depth, scaled=None, **budgets) -> None:
    """Every entry point against the reference, values with their types;
    ``scaled`` tells whether the ball must run on integers, if not None."""
    if scaled is not None:
        ball = _Ball(system, start, depth, budgets.get("rule_budget", 64),
                     budgets.get("visit_cap", 100_000))
        assert (ball.scale is not None) == scaled
        assert (ball.kernels is not None) == scaled
    for fast, reference in (
        (evaluate_to_fixpoint, reference_evaluate_to_fixpoint),
        (weight_lower_bound, reference_weight_lower_bound),
    ):
        got = outcome(fast, system, start, depth, **budgets)
        assert got == outcome(reference, system, start, depth, **budgets), fast.__name__
    assert typed(iterate_lower_bounds(system, start, depth, **budgets)) == typed(
        reference_iterate_lower_bounds(system, start, depth, **budgets)
    )
    profile = DepthProfile(system, start, depth, **budgets)
    for level in range(depth + 1):
        assert outcome(profile.bound, level) == outcome(
            reference_weight_lower_bound, system, start, level, **budgets
        ), level


@settings(max_examples=60, deadline=None)
@given(affine_systems(), st.data())
def test_scaled_levels_match_the_fraction_sweep(data_json, data):
    system = load_explicit(json.dumps(data_json))
    start = data.draw(st.sampled_from(system.enumerate_objects()[0]))
    depth = data.draw(st.integers(0, 40))
    budgets = {
        "rule_budget": data.draw(st.sampled_from([1, 2, 64])),
        "visit_cap": data.draw(st.one_of(st.just(100_000), st.integers(1, 30))),
    }
    check(system, start, depth, scaled=True, **budgets)
    event(outcome(evaluate_to_fixpoint, system, start, depth, **budgets)[3])


def rule(lhs: str, rhs: list, agg: str, tag: str) -> dict:
    return {"lhs": lhs, "rhs": rhs, "agg": agg, "tag": tag}


# Objects with two and three rules, aggregators of three and four terms
# (one successor read twice), zero coefficients, and a chain e0..e5 long
# enough that small depths and visit caps leave successors outside the ball.
KERNEL_SHAPES = {
    "semiring": {"kind": "real_inf"},
    "rules": [
        rule("a", ["b", "c", "d"], "1/2 * v1 + 1/3 * v2 + 1/6 * v3 + 1/5", "a3"),
        rule("a", ["a"], "3/4 * v1 + 1/4", "aa"),
        rule("a", ["e0", "b"], "0/1 * v1 + 1/2 * v2", "ae"),
        rule("b", ["c", "a"], "2/3 * v1 + 1/3 * v2", "bc"),
        rule("b", ["n"], "v1", "bn"),
        rule("c", ["d", "d", "b", "e0"], "1/4 * v1 + 1/4 * v2 + 1/4 * v3 + 1/4 * v4 + 1/8", "c4"),
        rule("d", ["e0", "m"], "5/4 * v1 + 0/1 * v2 + 1/3", "de"),
        rule("d", ["m"], "0/1 * v1 + 1/7", "dm"),
        rule("d", ["a", "b", "c"], "(1/3 * v1 + 1/3 * v2 + 1/3 * v3) * 7/8", "dabc"),
        *(rule(f"e{k}", [f"e{k + 1}"], "1/2 * v1 + 1/2", f"e{k}") for k in range(5)),
        rule("e5", ["n"], "2/3 * v1", "e5"),
    ],
    "nf": {"n": "1/2", "m": "0/1"},
}


def test_kernels_match_the_fraction_sweep():
    system = load_explicit(json.dumps(KERNEL_SHAPES))
    for start in ("a", "b", "c", "d", "e0", "e3", "n"):
        for depth in (0, 1, 2, 3, 5, 8, 13, 30):
            check(system, start, depth, scaled=True)
        for visit_cap in (1, 2, 4, 7):
            check(system, start, 6, scaled=True, visit_cap=visit_cap)
        check(system, start, 6, scaled=True, rule_budget=2)


def near_miss(agg: str, weight: str = "1/2") -> dict:
    """A two-object cycle over a normal form; ``agg`` or ``weight`` takes
    every ball that holds ``a`` and ``n`` out of scope."""
    return {
        "semiring": {"kind": "real_inf"},
        "rules": [
            {"lhs": "a", "rhs": ["b", "n"], "agg": agg, "tag": "a"},
            {"lhs": "b", "rhs": ["a"], "agg": "1/2 * v1 + 1/3", "tag": "b"},
            {"lhs": "b", "rhs": ["n"], "agg": "2/3 * v1", "tag": "bn"},
        ],
        "nf": {"n": weight},
    }


NEAR_MISSES = {
    "int constant": near_miss("1 + 1/2 * v1 + 1/4 * v2"),
    "inf constant": near_miss("inf * v1 + 1/4 * v2"),
    "inf weight": near_miss("1/2 * v1 + 1/4 * v2", weight="inf"),
    "int weight": near_miss("1/2 * v1 + 1/4 * v2", weight="1"),
    "product of variables": near_miss("1/2 * v1 * v2 + 1/3"),
}


def test_near_misses_fall_back_and_match():
    for data in NEAR_MISSES.values():
        system = load_explicit(json.dumps(data))
        for start in ("a", "b", "n"):
            for depth in (0, 1, 3, 9):
                whole = depth >= {"a": 1, "b": 2, "n": 0}[start]
                check(system, start, depth, scaled=False if whole and start != "n" else None)
    in_scope = load_explicit(json.dumps(near_miss("1/2 * v1 + 1/4 * v2")))
    for start in ("a", "b", "n"):
        check(in_scope, start, 5, scaled=True)


def test_countable_sum_falls_back_and_matches():
    system = builtin("geometric_walk")
    for start in (0, 1, 3):
        for depth in (0, 2, 4):
            check(system, start, depth, scaled=start == 0, visit_cap=200)


def walk_numerators(expected_steps: bool, starts: int, depth: int) -> list:
    """``3^depth`` times the level-``depth`` value at positions 0..starts-1:
    n steps to n-1 with weight 2/3 and to n+1 with weight 1/3, position 0
    weighs 1 (0 when counting steps, where a step also adds 1), and
    positions past ``starts - 1 + depth`` are outside the explored ball."""
    top = starts - 1 + depth
    nf = 0 if expected_steps else 1
    # Level j holds 3^j times the value; no position is reached at level 0.
    level = [nf] + [0] * top
    for j in range(1, depth + 1):
        scale = 3 ** j
        reach = top - j  # farther positions cannot reach the starts in time
        step = [nf * scale]
        for n in range(1, reach + 1):
            step.append((scale if expected_steps else 0) + 2 * level[n - 1] + level[n + 1])
        level = step + [0] * (top + 1 - len(step))
    return level[:starts]


def test_cli_eval_on_the_walks_matches_an_exact_program():
    depth, starts = 400, 7
    for name, expected_steps in (("walk_termprob", False), ("walk_expected", True)):
        numerators = walk_numerators(expected_steps, starts, depth)
        results = []
        for start in range(starts):
            value = Fraction(numerators[start], 3 ** depth)
            literal = str(value.numerator) if value.denominator == 1 else str(value)
            results.append({
                "depth": 0 if start == 0 else depth,
                "start": str(start),
                "status": "stabilized" if start == 0 else "lower_bound",
                "value": literal,
                "visited": 1 if start == 0 else start + depth + 1,
            })
        argv = ["eval", "--system", f"builtin:{name}", "--depth", str(depth), "--format", "json"]
        for start in range(starts):
            argv += ["--start", str(start)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        payload = json.loads(out.getvalue())
        assert payload["results"] == results, name
