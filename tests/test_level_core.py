"""The level core against the full-sweep reference in ``reference_eval``.

Every entry point must return the same value, of the same type, status,
explored depth and visit count as the reference, and raise
``VisitCapExceeded`` with the same partial bound.  The ``loop`` and
``oracle`` commands, which now read one profile per root, must print the
same bytes as when every depth is explored on its own, and hit a visit cap
at the same witness, ``k`` or depth.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference_eval import (
    ReferenceProfile,
    reference_evaluate_to_fixpoint,
    reference_iterate_lower_bounds,
    reference_weight_lower_bound,
    reference_weight_profile,
)
from system_gen import random_system_json
from wars import cli, unboundedness
from wars.builtins import builtin
from wars.evaluator import (
    DepthProfile,
    VisitCapExceeded,
    WeightBound,
    evaluate_to_fixpoint,
    iterate_lower_bounds,
    weight_lower_bound,
    weight_profile,
)
from wars.semiring import SemiringError
from wars.system import load_explicit

# Loops of depth 1 and 2 at the same root, next to a tail that grows the
# explored ball, so a visit cap can cut in at any witness and k.
LOOPS = {
    "semiring": {"kind": "nat_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["a"], "agg": "1 + v1", "tag": "self"},
        {"lhs": "a", "rhs": ["b", "t0"], "agg": "v1 + v2", "tag": "split"},
        {"lhs": "b", "rhs": ["a"], "agg": "2 * v1", "tag": "back"},
        {"lhs": "b", "rhs": ["t1", "t2"], "agg": "v1 * v2", "tag": "fork"},
        {"lhs": "t0", "rhs": ["t1"], "agg": "v1", "tag": "t0"},
        {"lhs": "t1", "rhs": ["t2", "t3"], "agg": "v1 + v2", "tag": "t1"},
        {"lhs": "t2", "rhs": ["t3"], "agg": "3 + v1", "tag": "t2"},
    ],
    "nf": {"t3": "1"},
}

BUILTIN_STARTS = {"walk_termprob": range(0, 6), "os_runtime": ["idle()"]}


@st.composite
def explicit_systems(draw):
    """JSON text of a generated system or of ``LOOPS``."""
    data = draw(st.one_of(st.integers(0, 299).map(random_system_json), st.just(LOOPS)))
    return json.dumps(data)


@st.composite
def queries(draw):
    """(system, start, budgets) for one evaluation; caps small enough to hit."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(BUILTIN_STARTS)))
        system = builtin(name)
        start = system.parse_object(str(draw(st.sampled_from(BUILTIN_STARTS[name]))))
    else:
        system = load_explicit(draw(explicit_systems()))
        start = draw(st.sampled_from(system.enumerate_objects()[0]))
    budgets = {
        "rule_budget": draw(st.sampled_from([1, 2, 64])),
        "visit_cap": draw(st.one_of(st.just(100_000), st.integers(1, 40))),
    }
    return system, start, budgets


def outcome(system, fn, *args, **kwargs):
    """What a call returns or raises, as comparable plain data."""
    try:
        result = fn(*args, **kwargs)
    except VisitCapExceeded as exc:
        return "visit cap", _bound(system, exc.partial)
    if isinstance(result, WeightBound):
        return "bound", _bound(system, result)
    return "values", [(v, type(v), _literal(system, v)) for v in result]


def _bound(system, bound: WeightBound) -> tuple:
    literal = _literal(system, bound.value)
    value = bound.value
    return value, type(value), literal, bound.status, bound.depth_explored, bound.visited


def _literal(system, value):
    """The value's literal, or the error printing it raises: a drawn system
    can reach an integer longer than the interpreter prints as text."""
    try:
        return system.semiring.format_literal(value)
    except SemiringError as exc:
        return "unprintable", str(exc)


@settings(max_examples=250, deadline=None)
@given(queries(), st.integers(0, 14))
def test_entry_points_match_full_sweep(query, depth):
    system, start, budgets = query
    for fast, reference in (
        (weight_lower_bound, reference_weight_lower_bound),
        (weight_profile, reference_weight_profile),
        (evaluate_to_fixpoint, reference_evaluate_to_fixpoint),
    ):
        assert outcome(system, fast, system, start, depth, **budgets) == outcome(
            system, reference, system, start, depth, **budgets
        ), fast.__name__
    event(outcome(system, weight_lower_bound, system, start, depth, **budgets)[0])
    lazy = outcome(system, lambda: list(iterate_lower_bounds(system, start, depth, **budgets)))
    assert lazy == outcome(
        system, lambda: list(reference_iterate_lower_bounds(system, start, depth, **budgets))
    )
    profile = DepthProfile(system, start, depth, **budgets)
    for level in range(depth + 1):
        assert outcome(system, profile.bound, level) == outcome(
            system, reference_weight_lower_bound, system, start, level, **budgets
        ), level


def run_cli(argv: list[str]) -> tuple:
    """Exit code and stdout of one command, or the visit-cap partial it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except VisitCapExceeded as exc:
        bound = exc.partial
        return "visit cap", bound.value, bound.status, bound.depth_explored, bound.visited
    return code, out.getvalue()


def run_both(argv: list[str], module) -> tuple:
    """Run a command as it is and with ``module.DepthProfile`` replaced by
    the reference; both runs must agree."""
    fast = run_cli(argv)
    with mock.patch.object(module, "DepthProfile", ReferenceProfile):
        reference = run_cli(argv)
    assert fast == reference
    return fast


def record(result: tuple) -> None:
    event("unbounded" if '"unbounded"' in str(result) else str(result[0]))


@st.composite
def loop_commands(draw):
    kind = draw(st.sampled_from(["os_runtime", "loops", "generated"]))
    if kind == "os_runtime":
        system, start = "builtin:os_runtime", "idle()"
        depth, cap = 4, draw(st.integers(1, 300))
    elif kind == "loops":
        system, start = f"file:{json.dumps(LOOPS)}", draw(st.sampled_from(["a", "b"]))
        depth, cap = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    else:
        text = json.dumps(random_system_json(draw(st.integers(0, 299))))
        system = f"file:{text}"
        start = draw(st.sampled_from(load_explicit(text).enumerate_objects()[0]))
        depth, cap = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    return [
        "loop", "--system", system, "--start", start, "--depth", str(depth),
        "--visit-cap", str(cap), "--format", "json",
    ]


@settings(max_examples=120, deadline=None)
@given(loop_commands())
def test_loop_command_reads_one_profile_per_root(argv):
    record(run_both(argv, unboundedness))


def test_loop_command_without_cap_matches():
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4",
            "--format", "json"]
    run_both(argv, unboundedness)
    payload = json.loads(run_cli(argv)[1])
    assert [e["verdict"] for e in payload["loops"] if "verdict" in e] == ["unbounded"] * 2


@settings(max_examples=60, deadline=None)
@given(explicit_systems(), st.integers(0, 4), st.integers(1, 12))
def test_oracle_command_reads_one_profile_per_object(text, depth, cap):
    argv = ["oracle", "--system", f"file:{text}", "--depth", str(depth),
            "--visit-cap", str(cap), "--format", "json"]
    record(run_both(argv, cli))
