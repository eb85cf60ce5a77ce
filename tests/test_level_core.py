"""The level core against the full-sweep reference in ``reference_eval``.

Every entry point must return the same value, of the same type, status,
explored depth and visit count as the reference, and raise
``VisitCapExceeded`` with the same partial bound.  The ``oracle`` command,
which settles every object at once, must print the same bytes as when every
depth of every object is explored on its own.
A ball with every object as a start reads each object's reference profile
at every level.  The ``loop`` command's iteration values must not exceed
one reference profile of each loop's root.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference_eval import (
    ReferenceSettle,
    reference_evaluate_to_fixpoint,
    reference_weight_lower_bound,
    reference_weight_profile,
)
from system_gen import random_system_json
from wars import cli, evaluator
from wars.builtins import builtin
from wars.evaluator import (
    DepthProfile,
    _Ball,
    _Settled,
    VisitCapExceeded,
    WeightBound,
    evaluate_to_fixpoint,
    weight_lower_bound,
)
from wars.semiring import SemiringError
from wars.system import load_explicit

# Loops of depth 1 and 2 at the same root, next to a tail that grows the
# explored ball.
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
        start = draw(st.sampled_from(system.enumerate_objects()))
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
    return "bound", _bound(system, result)


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
        (evaluate_to_fixpoint, reference_evaluate_to_fixpoint),
    ):
        assert outcome(system, fast, system, start, depth, **budgets) == outcome(
            system, reference, system, start, depth, **budgets
        ), fast.__name__
    event(outcome(system, weight_lower_bound, system, start, depth, **budgets)[0])
    profile = DepthProfile(system, start, depth, **budgets)
    for level in range(depth + 1):
        assert outcome(system, profile.bound, level) == outcome(
            system, reference_weight_lower_bound, system, start, level, **budgets
        ), level


def run_cli(argv: list[str]) -> tuple:
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_both(argv: list[str]) -> tuple:
    """Run a command as it is and with the ``_settle`` that the command line
    calls replaced by the reference; both runs must agree."""
    fast = run_cli(argv)
    with mock.patch.object(cli, "_settle", ReferenceSettle):
        reference = run_cli(argv)
    assert fast == reference
    return fast


def record(result: tuple) -> None:
    event("unbounded" if '"unbounded"' in str(result) else str(result[0]))


# The reference explores a root's whole ball, which on os_runtime grows about
# fourfold every four levels, so iteration values are checked up to this depth.
LOOP_REFERENCE_DEPTH = 16


def check_loop_command(argv: list[str]) -> tuple:
    """Run a ``loop`` command in JSON and check each certified loop's
    iteration values, k = 1..5, to rise and to stay within one reference
    profile of its root at depth k times the loop's depth."""
    code, out = run_cli(argv)
    payload = json.loads(out)
    system = cli.resolve_system(argv[argv.index("--system") + 1])
    desc = system.semiring
    profiles = {}
    for entry in payload["loops"]:
        if entry["status"] != "certified":
            continue
        depth = entry["depth"]
        assert entry["cross_check"]["loop_depth"] == depth
        values = [desc.parse_literal(v) for v in entry["cross_check"]["iteration_values"]]
        assert len(values) == 5
        assert all(desc.leq(a, b) for a, b in zip(values, values[1:]))
        root, reach = entry["root"], min(5 * depth, LOOP_REFERENCE_DEPTH)
        if len(profiles.get(root, ())) <= reach:
            profiles[root] = reference_weight_profile(system, system.parse_object(root), reach)
        for k, value in enumerate(values, 1):
            if k * depth <= reach:
                assert desc.leq(value, profiles[root][k * depth]), (root, k)
    certified = any(e["status"] == "certified" for e in payload["loops"])
    assert code == (0 if certified else 3 if payload["loops"] else 4)
    return code, payload


@st.composite
def loop_commands(draw):
    kind = draw(st.sampled_from(["os_runtime", "loops", "generated"]))
    if kind == "os_runtime":
        system, start, depth = "builtin:os_runtime", "idle()", 4
    elif kind == "loops":
        system, start = f"file:{json.dumps(LOOPS)}", draw(st.sampled_from(["a", "b"]))
        depth = draw(st.integers(1, 3))
    else:
        text = json.dumps(random_system_json(draw(st.integers(0, 299))))
        system = f"file:{text}"
        start = draw(st.sampled_from(load_explicit(text).enumerate_objects()))
        depth = draw(st.integers(1, 3))
    return ["loop", "--system", system, "--start", start, "--depth", str(depth),
            "--format", "json"]


@settings(max_examples=120, deadline=None)
@given(loop_commands())
def test_loop_command_reads_one_profile_per_root(argv):
    code, payload = check_loop_command(argv)
    event("unbounded" if code == 0 else str(code))


def test_loop_command_without_cap_matches():
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4",
            "--format", "json"]
    code, payload = check_loop_command(argv)
    assert code == 0
    assert [e["verdict"] for e in payload["loops"] if "verdict" in e] == ["unbounded"] * 2


@settings(max_examples=60, deadline=None)
@given(explicit_systems(), st.integers(0, 4))
def test_oracle_command_reads_one_profile_per_object(text, depth):
    argv = ["oracle", "--system", f"file:{text}", "--depth", str(depth), "--format", "json"]
    record(run_both(argv))


def test_every_start_reads_its_own_full_sweep():
    # A ball with every object as a start, settled once: each object's value
    # at each level, type included, is its own reference profile's.
    for seed in range(400):
        system = load_explicit(json.dumps(random_system_json(seed)))
        objects = system.enumerate_objects()
        profiles = [reference_weight_profile(system, a, 8) for a in objects]
        for depth in range(9):
            steps = max(depth, 1)
            settled = _Settled(_Ball(system, objects, depth, 64, 64, 100_000), steps)
            for i, profile in enumerate(profiles):
                got = [settled.value(i, level) for level in range(steps + 1)]
                assert [(v, type(v)) for v in got] == [
                    (v, type(v)) for v in profile[: steps + 1]
                ], (seed, depth, objects[i])


def per_object_oracle(system, depth) -> list:
    """The (object, depth, iterated) of each oracle check as one
    ``DepthProfile`` per object gives them."""
    checks = []
    for a in system.enumerate_objects():
        profile = DepthProfile(system, a, depth)
        for level in range(depth + 1):
            value = profile.bound(level).value
            checks.append((system.format_object(a), level, _literal(system, value)))
    return checks


def test_oracle_matches_a_profile_per_object_around_the_visit_cap(monkeypatch):
    # The oracle settles every object at once, whatever the default visit
    # cap: a finite system bounds its own ball.  So its checks are those of a
    # profile per object, at the full default cap, with a default cap below,
    # at or above its object count.
    for seed in range(400):
        text = json.dumps(random_system_json(seed))
        system = load_explicit(text)
        n, depth = len(system.enumerate_objects()), seed % 5
        checks = per_object_oracle(system, depth)
        for cap in (n - 1, n, n + 1, 100_000):
            monkeypatch.setattr(cli, "DEFAULT_VISIT_CAP", cap)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["oracle", "--system", f"file:{text}", "--depth", str(depth),
                                 "--format", "json"])
            payload = json.loads(out.getvalue())
            got = [(c["object"], c["depth"], c["iterated"]) for c in payload["checks"]]
            assert got == checks, (seed, cap)
            assert all(c["match"] == (c["iterated"] == c["enumerated"]) for c in payload["checks"])
            assert code == (0 if payload["match"] else 1)
