"""Digest of the CLI's bytes on a fixed set of ops, to check byte identity.

The ops are the benchmark's op lists (``perfbench/workloads.py``, every
workload at seeds 0-4, each with its probe), an ``eval`` sweep over the
systems of ``tests/system_gen.py`` (seeds 0-199, every object, depths 0, 3
and 8, in text and in JSON), an ``oracle`` sweep over the same systems
(depths 0, 2 and 4, with the default caps, ``--count-cap 20`` and
``--count-cap 300``, in JSON), which pins which cap or error each run meets
first, and on seed 0 with ``--count-cap 0`` and ``--count-cap -5``, which
are refused, ``oracle`` on the same systems' rules over every carrier of
``CARRIERS`` (``carrier_system_json``, seeds 0-19, depths 0-3, in JSON),
most of which the sweep never draws, ``oracle`` on
``addition_trs(max_size=k)`` for k = 0-3 at depths 0-3, in text and in
JSON (k = 0 has no objects, which is refused),
``loop`` over the scheduler built-ins
(``os_runtime``, ``os_size``, ``os_fair`` and ``os_starv`` from ``idle()``,
``wait(P1)`` and ``run(P2P1)``, depths 1-7, in text and in JSON, and
``os_runtime`` from ``idle()`` at depth 8, which certifies 10 loops), and
``loop`` on the generated systems of ``LOOP_SWEEP``, in text and in JSON,
whose certified loops weigh less when pumped than the start's depth-indexed
lower bound, ``eval``, ``bound`` and ``oracle`` on the malformed system
files of ``MALFORMED``, which pin the loader's message for the first failing
rule, ``loop`` on ``geometric_walk``, whose loop polynomials weigh countable
sums off the loop path, ``eval`` and ``loop`` on ``geometric_walk`` with no
jump targets (``prefix`` 0 or -3), which pin when its empty rule is refused,
``eval`` and ``bound --mode extremal`` on the built-in specs of
``REFUSED``, which pin each refused parameter's message, ``eval`` on the
system files of ``BAD_CARRIERS``, which pin the loader's message for a
missing, unknown or mismatched carrier, the ops of ``PARSED``, which pin an
unknown ``bound`` mode, each built-in's message and a file's for a start
they refuse (and ``ski_rental``'s ``halt``, which it reads), the bad
``bound`` configurations that ``boolform``'s top-valued normal form must
not answer, ``selective`` on ``boolform(finite_costs=true)``, whose
objects no check can list, and ``embed:walk3n`` without ``--samples`` on
``boolform``, ``boolform(finite_costs=true)`` and ``walk_expected``, whose
objects no complete enumeration lists, in text and in JSON,
``bound --mode embed:<table>`` on the ``real_inf`` file of ``EMBEDDED``
with each of its tables, which pin the message of a violated step,
``bound --mode embed:<name>`` with the built-in embeddings of
``BUILTIN_EMBEDDINGS``, which compare ``nat_inf`` and product values in the
natural order, in text and in JSON,
``bound --mode selective`` on the boolean, language
and product files of ``ORDERED``, which compare weights in the natural order,
``eval`` and ``bound`` on the word-set files of ``WORD_SETS``, whose
alphabets are not prefix-free or cannot all be printed back, and ``eval`` on
the affine ``real_inf`` files of ``AFFINE`` (every object, depths 0, 3 and
12), whose levels run on integer kernels of every shape, and on both random
walks from starts 1 and 4 at depths 300 and 400, each op in text and in
JSON.  Then ``eval`` on ``geometric_walk``, whose jumps are countable sums
(starts 0-6 in JSON at depths 0-400 in steps of 100 and in text at depth
100, and with ``prefix=8`` in JSON at depths 0, 100 and 200), ``bound
--mode embed:<table> --samples 20`` on it, in text and in JSON, ``eval``,
``loop`` and ``bound --mode extremal`` on the families of ``FAMILIES``,
which no other op builds, ``oracle`` on those of ``ORACLE_FAMILIES`` at
depths 0-3, ``list``, and an ``eval`` that its visit cap stops (exit 2),
each in text and in JSON.  Each op runs through ``wars.cli.main`` in process, and one
line per op is printed: its label, then the sha256 of its stdout, of its
stderr and of its exit code.  Two checkouts print the same
lines exactly when the CLI answers every op with the same bytes.

Run from a checkout's root (pytest does not collect this file):

    python tests/cli_digest.py > digest.txt

Ops and outputs name input files by path, so the inputs go to one fixed
directory, ``wars-cli-digest`` under the system's temporary directory, and
digests from two checkouts compare; run one digest at a time.  That
directory is emptied before and removed after the run, and nothing else is
written: the benchmark's modules are imported without writing bytecode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(200)
SWEEP_DEPTHS = (0, 3, 8)
ORACLE_DEPTHS = (0, 2, 4)
ORACLE_CAPS = ((), ("--count-cap", "20"), ("--count-cap", "300"))
REFUSED_CAPS = (("--count-cap", "0"), ("--count-cap", "-5"))
ADDITION_SIZES = range(4)
ADDITION_DEPTHS = range(4)
BENCH_SEEDS = range(5)
LOOP_SYSTEMS = ("os_runtime", "os_size", "os_fair", "os_starv")
LOOP_STARTS = ("idle()", "wait(P1)", "run(P2P1)")
LOOP_DEPTHS = range(1, 8)
# (``tests/system_gen.py`` seed, start, depths) of generated loop ops.
LOOP_SWEEP = (
    (63, "a3", (2, 3)),
    (93, "a0", (2, 3)),
    (93, "a2", (2, 3)),
    (111, "a0", (2, 3)),
    (114, "a0", (3,)),
    (114, "a1", (2, 3)),
    (114, "a3", (2, 3)),
    (144, "a2", (2, 3)),
    (144, "a3", (2, 3)),
    (330, "a1", (1, 2, 3)),
    (351, "a2", (1, 2, 3)),
    (354, "a1", (3,)),
    (354, "a3", (3,)),
    (378, "a0", (2, 3)),
)
# (name, rules, nf) of malformed ``nat_inf`` system files.
MALFORMED = (
    ("mentions_x", [{"lhs": "a", "rhs": ["b"], "agg": "X + v1"}], {"b": "0"}),
    ("v3_first", [{"lhs": "a", "rhs": ["b"], "agg": "v3"}], {"b": "0"}),
    ("v3_after_longer", [{"lhs": "a", "rhs": ["b", "b", "b"], "agg": "v3"},
                         {"lhs": "a", "rhs": ["b", "b", "b"], "agg": "v3"},
                         {"lhs": "c", "rhs": ["b"], "agg": "v3"}], {"b": "0"}),
    ("duplicate_tag", [{"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "t"},
                       {"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": "t"}], {"b": "0"}),
    ("non_string_label", [{"lhs": "a", "rhs": ["b"], "agg": "v1"},
                          {"lhs": "a", "rhs": ["b", 5], "agg": "v1"}], {"b": "0"}),
    ("non_string_lhs", [{"lhs": "a", "rhs": ["b"], "agg": "v1"},
                        {"lhs": ["a"], "rhs": ["b"], "agg": "v1"}], {"b": "0"}),
    ("non_string_tag", [{"lhs": "a", "rhs": ["b"], "agg": "v1"},
                        {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": 7}], {"b": "0"}),
    ("null_tag", [{"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": None}], {"b": "0"}),
    ("unparsable_agg", [{"lhs": "a", "rhs": ["b"], "agg": "1 +"}], {"b": "0"}),
    ("missing_nf", [{"lhs": "a", "rhs": ["b"], "agg": "v1"},
                    {"lhs": "a", "rhs": ["c"], "agg": "v1"}], {"b": "0"}),
    ("two_faults", [{"lhs": "a", "rhs": ["b"], "agg": "v1"},
                    {"lhs": "a", "rhs": ["b"], "agg": "v2", "tag": "wide"},
                    {"lhs": "c", "rhs": ["b"], "agg": "X"}], {"b": "0"}),
)
# (name, semiring, rules, nf, bounds) of system files checked with
# ``bound --mode selective`` at each bound; rules are bare variables, which
# every carrier counts as selective.
ORDERED = (
    ("boolean", {"kind": "boolean"},
     [{"lhs": "a", "rhs": ["b", "c"], "agg": "v1 * v2"}, {"lhs": "a", "rhs": ["c"], "agg": "v1"}],
     {"b": "false", "c": "false"}, ("false",)),
    ("language", {"kind": "language", "alphabet": ["0", "1"]},
     [{"lhs": "a", "rhs": ["b"], "agg": "v1"}, {"lhs": "a", "rhs": ["c"], "agg": "v1"}],
     {"b": "{0}", "c": "{eps,01}"}, ("{eps,0,01}", "{0,01}", "{}")),
    ("product", {"kind": "product", "components": [{"kind": "nat_inf"}, {"kind": "boolean"}]},
     [{"lhs": "a", "rhs": ["b", "c"], "agg": "v2"}], {"b": "(2,false)", "c": "(0,true)"},
     ("(3,true)", "(1,true)", "(inf,false)")),
    ("nested_product",
     {"kind": "product", "components": [
         {"kind": "tropical"},
         {"kind": "product", "components": [{"kind": "boolean"},
                                            {"kind": "language", "alphabet": ["x", "yz"]}]}]},
     [{"lhs": "a", "rhs": ["b"], "agg": "v1"}, {"lhs": "a", "rhs": ["c"], "agg": "v1"}],
     {"b": "(4,(false,{x}))", "c": "(7,(true,{eps,yzx}))"},
     ("(3,(true,{eps,x,yzx}))", "(5,(true,{eps,x,yzx}))", "(3,(false,{eps,x,yzx}))")),
)
# (name, alphabet, nf weight of t, selective bound) of word-set files with
# the rule s -> t aggregated by ``{a} * v1`` where "a" is a symbol, else by
# ``v1``.
WORD_SETS = (
    ("overlapping", ["a", "ab", "bc"], "{bc}", "{abc,ab}"),
    ("overlapping_literal", ["a", "ab", "bc"], "{abc}", "{abc}"),
    ("eps_symbol", ["eps", "a"], "{eps,a}", "{a}"),
    ("comma_symbol", ["a,b", "c"], "{c}", "{c}"),
    ("brace_symbol", ["a", "{b}"], "{a}", "{a}"),
    ("parenthesis_symbol", ["a", "(b)"], "{a}", "{a}"),
    ("spaced_symbol", ["a", "b "], "{a}", "{a}"),
)
# (command, built-in spec) of refused built-in parameters.
REFUSED = (
    ("eval", "walk_termprob(foo=1)"),
    ("eval", "ski_rental(y=x)"),
    ("eval", "boolform(finite_costs=x)"),
    ("eval", "boolform(costs=1)"),
    ("eval", "addition_trs(max_size=x)"),
    ("bound", "addition_trs(max_size=x)"),
    # Above the maximum of 14; a checkout without it lists 180,340 terms
    # for ``bound``, in about 2 s.
    ("eval", "addition_trs(max_size=15)"),
    ("bound", "addition_trs(max_size=15)"),
    # ``bound --mode extremal`` reads no rule, so a checkout without the
    # prefix maximum answers it without making 10^9 jump targets.
    ("bound", "geometric_walk(prefix=1000000000)"),
    ("eval", "walk_termprob(3)"),
)
# (name, file contents) of system files refused for their carrier: no
# semiring, an unknown kind, and a product normal form with one slot for two
# components.
BAD_CARRIERS = (
    ("no_semiring", {"rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}], "nf": {"b": "0"}}),
    ("unknown_kind", {"semiring": {"kind": "nope"},
                      "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}], "nf": {"b": "0"}}),
    ("short_product", {"semiring": {"kind": "product",
                                    "components": [{"kind": "nat_inf"}, {"kind": "boolean"}]},
                       "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}], "nf": {"b": "(2)"}}),
)
# (built-in spec, or ``file:`` and the name of ``OBJECTS``' file, argv tail)
# of a mode ``bound`` does not know, of starts that each system's object
# parser or rules refuse, or read (``halt``), of bad ``bound`` configurations on a
# system with a top-valued normal form, and of ``selective`` and an
# ``embed:`` mode without ``--samples`` on systems whose objects no complete
# enumeration lists.
PARSED = (
    ("walk_expected", ("bound", "--mode", "foo")),
    ("walk_termprob", ("eval", "--start", "-3", "--depth", "1")),
    ("geometric_walk", ("eval", "--start", "-3", "--depth", "3")),
    ("na_system", ("eval", "--start", "-5", "--depth", "3")),
    ("na_system", ("loop", "--start", "-2", "--depth", "3")),
    ("ski_rental(y=3)", ("eval", "--start", "foo", "--depth", "1")),
    ("ski_rental(y=3)", ("eval", "--start", "halt", "--depth", "1")),
    ("addition_trs", ("eval", "--start", "s(0,0)", "--depth", "1")),
    ("loop_language", ("eval", "--start", "c", "--depth", "1")),
    ("file:objects.json", ("eval", "--start", "nope", "--depth", "1")),
    ("bitstring_prefixes", ("eval", "--start", "2", "--depth", "1")),
    ("boolform", ("bound", "--mode", "foo")),
    ("boolform", ("bound", "--mode", "selective")),
    ("boolform", ("bound", "--mode", "embed:nope")),
    ("boolform", ("bound", "--mode", "selective", "--bound", "inf")),
    ("boolform(finite_costs=true)", ("bound", "--mode", "selective", "--bound", "10")),
    ("boolform", ("bound", "--mode", "embed:walk3n")),
    ("boolform(finite_costs=true)", ("bound", "--mode", "embed:walk3n")),
    ("walk_expected", ("bound", "--mode", "embed:walk3n")),
)
# A small valid system file, whose objects are a and b.
OBJECTS = {"semiring": {"kind": "nat_inf"},
           "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1 + 1", "tag": "r"}], "nf": {"b": "0"}}
# (rules, nf, tables) of a ``real_inf`` file checked with ``bound --mode
# embed:<table>``: the first table ties at every rule and normal form, in
# int, Fraction and decimal literals; the second misses rule ``third`` by
# 1/1000.
EMBEDDED = (
    [{"lhs": "a", "rhs": ["b", "c"], "agg": "1/2 * v1 + 1/2 * v2 + 4/3", "tag": "half"},
     {"lhs": "a", "rhs": ["c"], "agg": "2 * v1", "tag": "double"},
     {"lhs": "b", "rhs": ["c"], "agg": "v1 + 1/3", "tag": "third"}],
    {"c": "3/2"},
    {"ties": {"a": "3", "b": "11/6", "c": "1.5"},
     "misses": {"a": "3", "b": "5497/3000", "c": "1.5"}},
)
# (name, rules as (lhs, rhs, agg), nf) of affine ``real_inf`` files whose
# levels run on integer kernels: "whole" has integer coefficients only
# (L = 1), "quarters" coefficients over 4, so 1/4 is a unit.  Between them
# they hold unit and scaled terms, constants zero or not, rules without a
# variable, rules of four and five terms, objects whose rules take different
# shapes, and a chain e0..e5 whose far end small depths leave outside the
# ball.
AFFINE = (
    ("whole",
     [("a", ["b", "c"], "v1 + v2"),
      ("a", ["b", "c", "d", "e0", "m"], "v1 + 2/1 * v2 + v3 + 3/1 * v4 + v5 + 1/3"),
      ("a", ["a"], "0/1 * v1 + 1/2"),
      ("b", ["c"], "v1"),
      ("b", ["e0", "n"], "2/1 * v1 + 0/1 * v2"),
      ("c", ["d", "a"], "3/1 * v1 + v2 + 1/4"),
      ("d", ["c"], "0/1 * v1"),
      ("d", ["e0", "n", "b"], "v1 + v2 + v3"),
      *((f"e{k}", [f"e{k + 1}"], "v1 + 1/5") for k in range(5)),
      ("e5", ["n"], "v1 + 1/5")],
     {"n": "1/3", "m": "0/1"}),
    ("quarters",
     [("a", ["b", "c", "d", "e0"], "1/4 * v1 + 1/2 * v2 + 1/4 * v3 + 3/4 * v4"),
      ("a", ["b", "c"], "1/4 * v1 + 1/4 * v2"),
      ("a", ["a", "b", "c", "d", "n"], "1/4 * v1 + 1/4 * v2 + 1/4 * v3 + 1/4 * v4 + 1/4 * v5 + 1/2"),
      ("b", ["c"], "1/4 * v1 + 1/3"),
      ("b", ["d", "a"], "v1 + 1/2 * v2"),
      ("c", ["d", "e0"], "3/4 * v1 + 1/4 * v2"),
      ("c", ["m"], "0/1 * v1 + 2/3"),
      ("c", ["a", "d"], "1/2 * v1 + 1/2 * v2"),
      ("d", ["c", "e0"], "1/4 * v1 + 1/4 * v2 + 1/4"),
      *((f"e{k}", [f"e{k + 1}"], "1/4 * v1 + 3/4") for k in range(5)),
      ("e5", ["n"], "1/4 * v1 + 3/4")],
     {"n": "1/2", "m": "0/1"}),
)
# (built-in, embedding, ``--samples`` or None) of ``bound --mode
# embed:<name>``: a certified ``nat_inf`` check on 121 instances, a sampled
# check on product values, and a violated normal form.
BUILTIN_EMBEDDINGS = (
    ("addition_trs(max_size=7)", "trs_add", None),
    ("z_walk_safety", "zwalk_case", 50),
    ("walk_termprob", "walk3n", 20),
)
AFFINE_DEPTHS = (0, 3, 12)
WALKS = ("walk_termprob", "walk_expected")
WALK_STARTS = (1, 4)
WALK_DEPTHS = (300, 400)
# ``eval`` on ``geometric_walk``, whose jumps sum countably many terms: every
# start at each depth in JSON and at ``GEOMETRIC_TEXT_DEPTH`` in text, and
# with 8 jump targets at the depths of ``GEOMETRIC_SHORT_DEPTHS``.
GEOMETRIC_STARTS = range(7)
GEOMETRIC_DEPTHS = range(0, 401, 100)
GEOMETRIC_TEXT_DEPTH = 100
GEOMETRIC_SHORT_DEPTHS = range(0, 201, 100)
# A table that dominates every sampled ``geometric_walk`` step.
GEOMETRIC_TABLE = {str(n): "1" for n in range(20)}
# (built-in spec, starts) of ``eval``, ``loop`` and ``bound --mode extremal``
# on the families that no other op builds; ``oracle`` runs on those of
# ``ORACLE_FAMILIES`` at ``ORACLE_FAMILY_DEPTHS``.
FAMILIES = (
    ("boolform", ("Ra | Rb", "Paa & (Pab | Rb)")),
    ("boolform(finite_costs=true)", ("Ra | Rb", "Paa & (Pab | Rb)")),
    ("na_system", ("a", "3")),
    ("bitstring_prefixes", ("0", "*")),
    ("loop_language", ("a", "b")),
)
FAMILY_DEPTH = 3
ORACLE_FAMILIES = ("bitstring_prefixes", "loop_language")
ORACLE_FAMILY_DEPTHS = range(4)
# Carriers of the ``oracle`` ops on ``carrier_system_json``: every simple
# kind, a language and products.  The carrier tests import both from here:
# a pull request's digest also runs on its base checkout, and imports no
# test module, since those need pytest.
CARRIERS = [{"kind": kind} for kind in ("nat_inf", "real_inf", "tropical", "arctic", "boolean",
                                        "confidence", "bottleneck")] + [
    {"kind": "language", "alphabet": ["0", "1"]},
    {"kind": "product", "components": [{"kind": "nat_inf"}, {"kind": "boolean"}]},
    {"kind": "product", "components": [{"kind": "tropical"},
                                       {"kind": "language", "alphabet": ["x", "yz"]}]},
]
CARRIER_SEEDS = range(20)
CARRIER_DEPTHS = range(4)
WORKDIR = Path(tempfile.gettempdir()) / "wars-cli-digest"


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run(main, argv: list[str]) -> str:
    """The digest columns of one op: stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare, too
            code = f"raised {type(exc).__name__}: {exc}"
    return f"{_sha(out.getvalue())} {_sha(err.getvalue())} {_sha(repr(code))}"


def benchmark_ops(workdir: Path):
    """(label, argv) of every benchmark op and probe, seeds 0-4."""
    import workloads

    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        for seed in BENCH_SEEDS:
            inputs = workdir / f"{name}-{seed}"
            inputs.mkdir()
            for op in workload.build(seed, inputs):
                yield f"{name} seed={seed} {op.label}", op.argv
            if workload.probe is not None:
                yield f"{name} seed={seed} probe", workload.probe(seed, inputs)


def _system_file(inputs: Path, seed: int):
    """(data, path) of the generated system of ``seed``, written to ``inputs``."""
    from system_gen import random_system_json

    data = random_system_json(seed)
    path = inputs / f"system-{seed}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return data, path


def sweep_ops(workdir: Path):
    """(label, argv) of the ``eval`` sweep over generated systems."""
    inputs = workdir / "sweep"
    inputs.mkdir()
    for seed in SWEEP_SEEDS:
        data, path = _system_file(inputs, seed)
        objects = {label for r in data["rules"] for label in [r["lhs"], *r["rhs"]]}
        for obj in sorted(objects | set(data["nf"])):
            for depth in SWEEP_DEPTHS:
                for fmt in ("text", "json"):
                    argv = ["eval", "--system", f"file:{path}", "--start", obj,
                            "--depth", str(depth), "--format", fmt]
                    yield f"eval system_seed={seed} {obj} depth={depth} {fmt}", argv


def oracle_ops(workdir: Path):
    """(label, argv) of the ``oracle`` sweep over generated systems."""
    inputs = workdir / "oracle-sweep"
    inputs.mkdir()
    for seed in SWEEP_SEEDS:
        _, path = _system_file(inputs, seed)
        for depth in ORACLE_DEPTHS:
            for caps in ORACLE_CAPS + (REFUSED_CAPS if seed == 0 else ()):
                argv = ["oracle", "--system", f"file:{path}", "--depth", str(depth), *caps,
                        "--format", "json"]
                yield f"oracle system_seed={seed} depth={depth} {' '.join(caps) or 'default caps'}", argv


def carrier_system_json(seed: int, spec: dict) -> dict:
    """The rules of ``random_system_json(seed)`` over the carrier of
    ``spec``, with new aggregators and normal-form weights drawn from its
    probe values."""
    from system_gen import random_system_json
    from wars.semiring import descriptor_from_spec

    rng = random.Random(seed)
    desc = descriptor_from_spec(spec)
    literals = [desc.format_literal(v) for v in desc.probe_values()]
    data = random_system_json(seed)

    def expr(arity):
        def factor():
            return f"v{rng.randrange(1, arity + 1)}" if rng.random() < 0.6 else rng.choice(literals)
        return " + ".join(" * ".join(factor() for _ in range(rng.randrange(1, 3)))
                          for _ in range(rng.randrange(1, 3)))

    rules = [{**rule, "agg": expr(len(rule["rhs"]))} for rule in data["rules"]]
    nf = {obj: rng.choice(literals) for obj in data["nf"]}
    return {"semiring": spec, "rules": rules, "nf": nf}


def carrier_ops(workdir: Path):
    """(label, argv) of ``oracle`` on the generated systems over ``CARRIERS``."""
    inputs = workdir / "carriers"
    inputs.mkdir()
    for spec in CARRIERS:
        name = "-".join([spec["kind"], *(c["kind"] for c in spec.get("components", ()))])
        for seed in CARRIER_SEEDS:
            path = inputs / f"{name}-{seed}.json"
            path.write_text(json.dumps(carrier_system_json(seed, spec)), encoding="utf-8")
            for depth in CARRIER_DEPTHS:
                argv = ["oracle", "--system", f"file:{path}", "--depth", str(depth),
                        "--format", "json"]
                yield f"oracle {name} system_seed={seed} depth={depth} json", argv


def addition_ops():
    """(label, argv) of ``oracle`` on ``addition_trs(max_size=k)``."""
    for size in ADDITION_SIZES:
        for depth in ADDITION_DEPTHS:
            for fmt in ("text", "json"):
                argv = ["oracle", "--system", f"builtin:addition_trs(max_size={size})",
                        "--depth", str(depth), "--format", fmt]
                yield f"oracle addition_trs(max_size={size}) depth={depth} {fmt}", argv


def loop_ops():
    """(label, argv) of ``loop`` over the scheduler built-ins."""
    for name in LOOP_SYSTEMS:
        for start in LOOP_STARTS:
            for depth in LOOP_DEPTHS:
                for fmt in ("text", "json"):
                    argv = ["loop", "--system", f"builtin:{name}", "--start", start,
                            "--depth", str(depth), "--format", fmt]
                    yield f"loop {name} {start} depth={depth} {fmt}", argv
    argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "8"]
    yield "loop os_runtime idle() depth=8 text", argv


def loop_sweep_ops(workdir: Path):
    """(label, argv) of ``loop`` on the generated systems of ``LOOP_SWEEP``."""
    inputs = workdir / "loop-sweep"
    inputs.mkdir()
    for seed, start, depths in LOOP_SWEEP:
        _, path = _system_file(inputs, seed)
        for depth in depths:
            for fmt in ("text", "json"):
                argv = ["loop", "--system", f"file:{path}", "--start", start,
                        "--depth", str(depth), "--format", fmt]
                yield f"loop system_seed={seed} {start} depth={depth} {fmt}", argv


def malformed_ops(workdir: Path):
    """(label, argv) of ``eval``, ``bound`` and ``oracle`` on the files of
    ``MALFORMED``."""
    inputs = workdir / "malformed"
    inputs.mkdir()
    for name, rules, nf in MALFORMED:
        path = inputs / f"{name}.json"
        data = {"semiring": {"kind": "nat_inf"}, "rules": rules, "nf": nf}
        path.write_text(json.dumps(data), encoding="utf-8")
        system = ["--system", f"file:{path}"]
        yield f"malformed {name} eval", ["eval", *system, "--start", "a", "--depth", "1"]
        yield f"malformed {name} bound", ["bound", *system, "--mode", "extremal"]
        yield f"malformed {name} oracle", ["oracle", *system, "--depth", "2"]


def geometric_ops():
    """(label, argv) of ``loop`` on ``geometric_walk`` from 2, with the
    default 16 jump targets and with 8."""
    for system, depth in (("geometric_walk", 1), ("geometric_walk", 2),
                          ("geometric_walk(prefix=8)", 1), ("geometric_walk(prefix=8)", 2)):
        for fmt in ("text", "json"):
            argv = ["loop", "--system", f"builtin:{system}", "--start", "2",
                    "--depth", str(depth), "--format", fmt]
            yield f"loop {system} 2 depth={depth} {fmt}", argv


def empty_jump_ops():
    """(label, argv) of ``geometric_walk`` without jump targets: its rule is
    refused at the first object that is not a normal form, and 0 is one."""
    for command, prefix, start in (("eval", 0, 0), ("eval", 0, 1), ("eval", -3, 2),
                                   ("loop", 0, 1)):
        for fmt in ("text", "json"):
            argv = [command, "--system", f"builtin:geometric_walk(prefix={prefix})",
                    "--start", str(start), "--depth", "1" if command == "loop" else "3",
                    "--format", fmt]
            yield f"{command} geometric_walk(prefix={prefix}) {start} {fmt}", argv


def refused_ops():
    """(label, argv) of the built-in specs of ``REFUSED``."""
    for command, spec in REFUSED:
        query = ["--start", "1", "--depth", "1"] if command == "eval" else ["--mode", "extremal"]
        for fmt in ("text", "json"):
            argv = [command, "--system", f"builtin:{spec}", *query, "--format", fmt]
            yield f"{command} {spec} {fmt}", argv


def parsed_ops(workdir: Path):
    """(label, argv) of ``eval`` on the files of ``BAD_CARRIERS`` and of the
    ops of ``PARSED``."""
    inputs = workdir / "bad-carriers"
    inputs.mkdir()
    for name, data in BAD_CARRIERS:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        yield f"bad-carrier {name} eval", ["eval", "--system", f"file:{path}", "--start", "a",
                                           "--depth", "1"]
    (inputs / "objects.json").write_text(json.dumps(OBJECTS), encoding="utf-8")
    for spec, (command, *query) in PARSED:
        system = f"file:{inputs / spec[5:]}" if spec.startswith("file:") else f"builtin:{spec}"
        for fmt in ("text", "json"):
            argv = [command, "--system", system, *query, "--format", fmt]
            yield f"{command} {spec} {' '.join(query)} {fmt}", argv


def builtin_embedding_ops():
    """(label, argv) of ``bound --mode embed:<name>`` with the built-in
    embeddings of ``BUILTIN_EMBEDDINGS``."""
    for spec, name, samples in BUILTIN_EMBEDDINGS:
        query = ["--samples", str(samples)] if samples else []
        for fmt in ("text", "json"):
            argv = ["bound", "--system", f"builtin:{spec}", "--mode", f"embed:{name}", *query,
                    "--format", fmt]
            yield f"bound {spec} embed:{name} {fmt}", argv


def _write_system(path: Path, semiring: dict, rules: list, nf: dict) -> list:
    path.write_text(json.dumps({"semiring": semiring, "rules": rules, "nf": nf}),
                    encoding="utf-8")
    return ["--system", f"file:{path}"]


def embedded_ops(workdir: Path):
    """(label, argv) of ``bound --mode embed:<table>`` on the file of
    ``EMBEDDED``, with each of its tables."""
    inputs = workdir / "embedded"
    inputs.mkdir()
    rules, nf, tables = EMBEDDED
    system = _write_system(inputs / "system.json", {"kind": "real_inf"}, rules, nf)
    for name, table in tables.items():
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        for fmt in ("text", "json"):
            argv = ["bound", *system, "--mode", f"embed:{path}", "--format", fmt]
            yield f"embedded {name} {fmt}", argv


def ordered_ops(workdir: Path):
    """(label, argv) of ``bound --mode selective`` on the files of ``ORDERED``."""
    inputs = workdir / "ordered"
    inputs.mkdir()
    for name, semiring, rules, nf, bounds in ORDERED:
        system = _write_system(inputs / f"{name}.json", semiring, rules, nf)
        for bound in bounds:
            for fmt in ("text", "json"):
                argv = ["bound", *system, "--mode", "selective", "--bound", bound, "--format", fmt]
                yield f"ordered {name} selective {bound} {fmt}", argv


def word_set_ops(workdir: Path):
    """(label, argv) of ``eval`` and ``bound`` on the files of ``WORD_SETS``."""
    inputs = workdir / "word-sets"
    inputs.mkdir()
    for name, alphabet, weight, bound in WORD_SETS:
        agg = "{a} * v1" if "a" in alphabet else "v1"
        rules = [{"lhs": "s", "rhs": ["t"], "agg": agg}]
        system = _write_system(inputs / f"{name}.json", {"kind": "language", "alphabet": alphabet},
                               rules, {"t": weight})
        for fmt in ("text", "json"):
            argv = ["eval", *system, "--start", "s", "--depth", "3", "--format", fmt]
            yield f"word-set {name} eval {fmt}", argv
            argv = ["bound", *system, "--mode", "selective", "--bound", bound, "--format", fmt]
            yield f"word-set {name} selective {bound} {fmt}", argv


def affine_ops(workdir: Path):
    """(label, argv) of ``eval`` on the files of ``AFFINE`` and on the walks."""
    inputs = workdir / "affine"
    inputs.mkdir()
    for name, rules, nf in AFFINE:
        rows = [{"lhs": lhs, "rhs": rhs, "agg": agg} for lhs, rhs, agg in rules]
        system = _write_system(inputs / f"{name}.json", {"kind": "real_inf"}, rows, nf)
        for obj in sorted({lhs for lhs, _, _ in rules} | set(nf)):
            for depth in AFFINE_DEPTHS:
                for fmt in ("text", "json"):
                    argv = ["eval", *system, "--start", obj, "--depth", str(depth),
                            "--format", fmt]
                    yield f"affine {name} {obj} depth={depth} {fmt}", argv
    for name in WALKS:
        for start in WALK_STARTS:
            for depth in WALK_DEPTHS:
                for fmt in ("text", "json"):
                    argv = ["eval", "--system", f"builtin:{name}", "--start", str(start),
                            "--depth", str(depth), "--format", fmt]
                    yield f"affine {name} {start} depth={depth} {fmt}", argv


def countable_ops(workdir: Path):
    """(label, argv) of ``eval`` on ``geometric_walk`` and of ``bound
    --mode embed:<table>`` on it with ``GEOMETRIC_TABLE``."""
    for start in GEOMETRIC_STARTS:
        for depth in GEOMETRIC_DEPTHS:
            yield _geometric_eval("geometric_walk", start, depth, "json")
        yield _geometric_eval("geometric_walk", start, GEOMETRIC_TEXT_DEPTH, "text")
        for depth in GEOMETRIC_SHORT_DEPTHS:
            yield _geometric_eval("geometric_walk(prefix=8)", start, depth, "json")
    inputs = workdir / "countable"
    inputs.mkdir()
    path = inputs / "table.json"
    path.write_text(json.dumps(GEOMETRIC_TABLE), encoding="utf-8")
    for fmt in ("text", "json"):
        argv = ["bound", "--system", "builtin:geometric_walk", "--mode", f"embed:{path}",
                "--samples", "20", "--format", fmt]
        yield f"bound geometric_walk embed:table {fmt}", argv


def _geometric_eval(spec: str, start: int, depth: int, fmt: str) -> tuple:
    argv = ["eval", "--system", f"builtin:{spec}", "--start", str(start),
            "--depth", str(depth), "--format", fmt]
    return f"eval {spec} {start} depth={depth} {fmt}", argv


def family_ops():
    """(label, argv) of the families of ``FAMILIES`` and ``ORACLE_FAMILIES``,
    of ``list`` and of ``eval`` stopped by its visit cap."""
    for spec, starts in FAMILIES:
        system = ["--system", f"builtin:{spec}"]
        for fmt in ("text", "json"):
            for start in starts:
                argv = ["eval", *system, "--start", start, "--depth", str(FAMILY_DEPTH),
                        "--format", fmt]
                yield f"eval {spec} {start} depth={FAMILY_DEPTH} {fmt}", argv
                argv = ["loop", *system, "--start", start, "--depth", str(FAMILY_DEPTH),
                        "--format", fmt]
                yield f"loop {spec} {start} depth={FAMILY_DEPTH} {fmt}", argv
            yield f"bound {spec} extremal {fmt}", ["bound", *system, "--mode", "extremal",
                                                   "--format", fmt]
    for spec in ORACLE_FAMILIES:
        for depth in ORACLE_FAMILY_DEPTHS:
            argv = ["oracle", "--system", f"builtin:{spec}", "--depth", str(depth),
                    "--format", "json"]
            yield f"oracle {spec} depth={depth} json", argv
    for fmt in ("text", "json"):
        yield f"list {fmt}", ["list", "--format", fmt]
        argv = ["eval", "--system", "builtin:walk_termprob", "--start", "1", "--depth", "10",
                "--visit-cap", "3", "--format", fmt]
        yield f"eval walk_termprob 1 depth=10 --visit-cap 3 {fmt}", argv


def main() -> int:
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        sys.path.insert(0, str(path))
    from wars.cli import main as wars_main

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        for ops in (benchmark_ops(WORKDIR), sweep_ops(WORKDIR), oracle_ops(WORKDIR),
                    carrier_ops(WORKDIR), addition_ops(), loop_ops(),
                    loop_sweep_ops(WORKDIR), malformed_ops(WORKDIR), geometric_ops(),
                    empty_jump_ops(), refused_ops(), parsed_ops(WORKDIR), embedded_ops(WORKDIR),
                    builtin_embedding_ops(), ordered_ops(WORKDIR), word_set_ops(WORKDIR),
                    affine_ops(WORKDIR), countable_ops(WORKDIR), family_ops()):
            for label, argv in ops:
                print(f"{label}\t{run(wars_main, argv)}", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
