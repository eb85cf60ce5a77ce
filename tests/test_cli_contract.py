"""The CLI's exit-code contract over generated argv.

A small grammar draws a command, a system spec (built-ins with good and bad
parameters, generated system files, the malformed files of
``cli_digest.MALFORMED``, and specs that name nothing), flags with small,
zero, negative and non-integer values, and starts.  Every run must end in an
exit code that the README documents for its command, or in argparse's usage
error (exit 2), and must print no traceback.  Each draw is also classified:
a bad configuration, as the README lists them, must end in its command's
bad-configuration code (1, or 3 for ``oracle``) or in a usage error, with an
``error:`` line, never in a verdict.  Sizes stay small (depth at most
6, ``prefix`` at most 16, ``max_size`` at most 3, apart from one value of
each above its maximum, which is refused before any work), so that no draw
can take long or take much memory.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_digest import MALFORMED
from system_gen import random_system_json
from wars.boundedness import builtin_embedding
from wars.cli import _json_text, build_parser, main, resolve_system

# The README's exit codes per command, and the one for a bad configuration.
EXIT_CODES = {
    "eval": {0, 1, 2},
    "bound": {0, 1, 3, 4, 5},
    "loop": {0, 1, 2, 3, 4},
    "oracle": {0, 1, 2, 3},
}
BAD_EXIT = {"eval": 1, "bound": 1, "loop": 1, "oracle": 3}
# The README's least meaningful value of each numeric flag, per command.
LEAST = {
    "eval": {"depth": 0, "rule_budget": 1, "branch_trunc": 1, "visit_cap": 1},
    "bound": {"samples": 1},
    "loop": {"depth": 1, "rule_budget": 1, "max_witnesses": 1},
    "oracle": {"depth": 0, "count_cap": 1, "rule_budget": 1},
}

# Flag values: mostly small, now and then zero, negative or not an integer.
NUMBERS = ("1", "2", "3", "6") * 4 + ("0", "-1", "-2", "x", "1.5", "")
# Whether a flag is given: usually, evenly or rarely.
USUALLY, EVENLY, RARELY = (True,) * 9 + (False,), (True, False), (False,) * 9 + (True,)
# Per family with parameters: the parameter and its values, good and bad.
PARAMETERS = {
    "geometric_walk": ("prefix", ("-3", "0", "1", "2", "16", "1025", "x", "true")),
    "ski_rental": ("y", ("-1", "0", "1", "3", "x", "true")),
    "addition_trs": ("max_size", ("-1", "0", "1", "2", "3", "15", "x")),
    "boolform": ("finite_costs", ("true", "false", "1", "x")),
}
# Each family's starts; files start from their own labels.
WALK = ("0", "1", "3")
OS = ("idle()", "wait(P1)", "run(P2P1)")
STARTS = {
    "geometric_walk": WALK, "ski_rental": ("n0=2", "halt"),
    "addition_trs": ("plus(s(0),s(0))", "s(0)"), "boolform": ("Ra | Rb", "Paa & (Pab | Rb)"),
    "walk_termprob": WALK, "walk_expected": WALK, "z_walk_safety": ("0", "-1", "2"),
    "na_system": ("a",), "os_runtime": OS, "os_size": OS, "os_fair": OS,
    "bitstring_prefixes": ("0", "*"), "loop_language": ("a", "b"), "no_such_family": ("0",),
}
FILE_STARTS = ("a0", "a1", "a2", "a")
# Starts that no system parses.
UNPARSABLE = ("x(", "", "-", "plus(")
MODES = ("extremal", "selective", "embed:walk3n", "embed:no_such_table", "bogus")
BOUNDS = ("3", "0", "inf", "1/2", "true", "x")
GENERATED_SEEDS = range(6)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Spec strings of generated and malformed system files, and of a file
    that does not exist."""
    root = tmp_path_factory.mktemp("contract")
    specs = []
    for seed in GENERATED_SEEDS:
        path = root / f"gen{seed}.json"
        path.write_text(json.dumps(random_system_json(seed)))
        specs.append(f"file:{path}")
    for name, rules, nf in MALFORMED:
        path = root / f"{name}.json"
        path.write_text(json.dumps({"semiring": {"kind": "nat_inf"}, "rules": rules, "nf": nf}))
        specs.append(f"file:{path}")
    return specs + [f"file:{root / 'missing.json'}"]


@st.composite
def systems(draw, files):
    """A system spec and the starts to draw for it."""
    kind = draw(st.sampled_from(["builtin"] * 5 + ["file"] * 2 + ["bad"]))
    if kind == "file":
        return draw(st.sampled_from(files)), FILE_STARTS
    if kind == "bad":
        spec = draw(st.sampled_from(["nowhere", "builtin:", "builtin:walk_termprob(", "file:"]))
        return spec, UNPARSABLE
    name = draw(st.sampled_from(sorted(STARTS)))
    if name in PARAMETERS:
        key, values = PARAMETERS[name]
        # An unknown parameter, now and then; addition_trs always gets a small
        # max_size.
        if name != "addition_trs" and draw(st.sampled_from(RARELY)):
            key = "foo"
        if name == "addition_trs" or draw(st.sampled_from(USUALLY)):
            name = f"{name}({key}={draw(st.sampled_from(values))})"
    return f"builtin:{name}", STARTS[name.split("(")[0]]


@st.composite
def flag(draw, name, values=NUMBERS, odds=EVENLY):
    """``[name, value]`` or ``[]``."""
    return [name, draw(st.sampled_from(values))] if draw(st.sampled_from(odds)) else []


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(sorted(EXIT_CODES)))
    spec, starts = draw(systems(files))
    argv = [command, "--system", spec]
    depth = flag("--depth", odds=USUALLY)
    start = flag("--start", starts * 4 + UNPARSABLE, USUALLY)
    options = {
        "eval": [depth, start, flag("--rule-budget"), flag("--branch-trunc"), flag("--visit-cap")],
        "oracle": [depth, flag("--count-cap"), flag("--rule-budget")],
        "loop": [depth, start, flag("--rule-budget"), flag("--max-witnesses")],
        "bound": [flag("--mode", MODES, USUALLY), flag("--bound", BOUNDS), flag("--samples")],
    }[command]
    # Now and then a flag that the command does not take.
    stray = draw(st.sampled_from(["--start", "--depth", "--count-cap", "--seed", "--visit-cap",
                                  "--branch-trunc"]))
    options.append(flag(stray, odds=RARELY))
    for option in options:
        argv += draw(option)
    argv += draw(flag("--format", ("text", "json") * 4 + ("yaml",)))
    return argv


def run(argv):
    """The exit code of ``argv`` and whether argparse refused it, with its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), False, err.getvalue()
        except SystemExit as exc:
            return exc.code, True, err.getvalue()


def refused(fn, *args) -> bool:
    """Whether ``fn(*args)`` raises."""
    try:
        fn(*args)
    except Exception:
        return True
    return False


def bad_configuration(argv) -> bool:
    """Whether argparse accepts ``argv`` but the README calls it a bad
    configuration: a flag below its least value, a ``bound`` flag its mode
    never reads, an unknown mode, ``selective`` without a ``--bound`` or with
    one that does not parse or is the maximum, an embedding that no file or
    built-in holds, ``--samples`` on a system without a sampler, an ``embed:``
    mode without ``--samples`` on a system whose objects no complete
    enumeration lists, a spec that loads nothing, a start it cannot parse, a
    second start for ``loop``, and for ``oracle`` a system that is not
    finite and explicit, or is empty."""
    args = build_parser().parse_args(argv)
    if any(getattr(args, name) is not None and getattr(args, name) < least
           for name, least in LEAST[args.command].items()):
        return True
    if args.command == "bound":
        embed = args.mode.startswith("embed:")
        if (args.samples is not None and not embed) or not (embed or args.mode in ("selective", "extremal")):
            return True
        if (args.bound is not None) != (args.mode == "selective"):
            return True
    if args.command == "loop" and len(args.start) > 1:
        return True
    try:
        system = resolve_system(args.system)
    except Exception:
        return True
    if args.command in ("eval", "loop"):
        return any(refused(system.parse_object, text) for text in args.start)
    if args.command == "oracle":
        objects = system.enumerate_objects()
        return not objects
    desc = system.semiring
    if args.mode == "selective":
        return refused(desc.parse_literal, args.bound) or desc.top == desc.parse_literal(args.bound)
    if args.mode.startswith("embed:"):
        if refused(builtin_embedding, args.mode[len("embed:"):]):
            return True
        if args.samples is None:
            return system.enumerate_objects() is None
        return refused(system.sample_objects, args.samples)
    return False


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(files, data):
    argv = data.draw(argvs(files), label="argv")
    code, usage, err = run(argv)
    assert "Traceback" not in err
    if usage:
        assert code == 2 and "usage: wars" in err
    else:
        assert code in EXIT_CODES[argv[0]]
        if bad_configuration(argv):
            assert code == BAD_EXIT[argv[0]] and "error: " in err


@pytest.mark.parametrize("tail", [["--mode", mode] for mode in MODES]
                         + [["--mode", "selective", "--bound", bound] for bound in BOUNDS]
                         + [["--mode", mode, "--samples", "3"] for mode in MODES], ids=" ".join)
def test_a_top_valued_normal_form_answers_only_good_configurations(tail):
    # boolform's normal form Pba weighs the maximum, so every good
    # configuration gets the verdict unbounded (exit 5), and only those.  A
    # bad one gets the error that the all-finite table, with no such normal
    # form, gets.
    argv = ["bound", "--system", "builtin:boolform", *tail]
    code, usage, err = run(argv)
    assert not usage
    if bad_configuration(argv):
        assert code == 1 and err.startswith("error: ")
        assert run(["bound", "--system", "builtin:boolform(finite_costs=true)", *tail]) == (1, False, err)
    else:
        assert (code, err) == (5, "")


@pytest.mark.parametrize("spec", ["boolform", "boolform(finite_costs=true)", "walk_expected"])
def test_an_exhaustive_embedding_needs_a_complete_enumeration(spec):
    # Found with the rest of the configuration, so boolform's top-valued
    # normal form does not answer it, and named by the flag that gives
    # instances on the command line.
    name = spec.split("(")[0]
    assert run(["bound", "--system", f"builtin:{spec}", "--mode", "embed:walk3n"]) == (
        1, False, f"error: system {name} has no complete object enumeration; pass --samples\n")


# Text that ``json`` escapes: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\n\x1f\x7fé\u2028\ud800'),
               max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.floats() | TEXT)
# Every key kind ``json`` converts; the last draws mixed kinds, which it refuses.
KEYS = (TEXT, st.integers(), st.floats(), st.booleans(), st.none(),
        TEXT | st.integers() | st.floats() | st.booleans() | st.none())
PAYLOADS = st.recursive(
    SCALARS | st.sets(st.integers(), max_size=2),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.one_of(*(st.dictionaries(k, kids, max_size=4) for k in KEYS))),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_json_writer_writes_what_json_dumps_writes(payload):
    try:
        expected = json.dumps(payload, indent=2, sort_keys=True)
    except Exception as exc:  # a set, or keys of kinds that do not sort together
        with pytest.raises(Exception) as raised:
            _json_text(payload)
        assert type(raised.value) is type(exc)
    else:
        assert _json_text(payload) == expected
