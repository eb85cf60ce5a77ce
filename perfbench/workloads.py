"""The four workloads: seeded op lists for ``wars.cli.main`` and their checks.

Each workload function turns a seed into a list of ``Op``: the argv one
client sends, and a check that compares the printed JSON with an answer from
``reference``.  Sizes are fixed and the seed draws the content (starts,
depths, weights, graph shapes, oracle systems), so every seed costs about the
same and run-to-run spread stays small.  The functions write the explicit
system files they need into ``workdir``; they never call ``wars``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
import sysgen

# A `wars eval` that must reach a fixpoint gets more levels than any input
# here needs (the longest is a 900-step chain), so a `lower_bound` status is
# a wrong answer, not a budget cut.
FIXPOINT_DEPTH = "2000"

CHAIN_LENGTH = 900
SHORT_CHAIN_LENGTH = 600
LADDER_RUNGS = 300
GRAPH_LAYERS = 15
GRAPH_WIDTH = 60
PROBE_CHAIN_LENGTH = 5000
ORACLE_DEPTH = 4

# Exit codes the README documents per command.
EXIT_CODES = {
    "eval": {0, 1, 2},
    "bound": {0, 1, 3, 4, 5},
    "loop": {0, 1, 3, 4},
    "oracle": {0, 1, 2},
}

DECISIVE_VERDICTS = {"bounded_certified", "unbounded"}


@dataclass
class Op:
    argv: list[str]
    label: str
    check: Callable[[int, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Op]]
    # Wall seconds one pass over the op list takes at the baseline (Python
    # 3.11, 2 vCPU), calibration slices included; the run repeats the list
    # round(seconds / nominal_rep_s) times, at least twice, so the number of
    # timed ops never depends on the clock.
    nominal_rep_s: float
    # argv of an untimed op that shows a known defect, run once per run.
    probe: Callable[[int, Path], list[str]] | None = None


def decided(payload: dict) -> bool:
    """A definitive result: stabilized, certified/unbounded, a certified
    loop, or an oracle match."""
    command = payload.get("command")
    if command == "eval":
        return all(r.get("status") == "stabilized" for r in payload.get("results", []))
    if command == "bound":
        return payload.get("verdict") in DECISIVE_VERDICTS
    if command == "loop":
        return any(entry.get("verdict") == "unbounded" for entry in payload.get("loops", []))
    if command == "oracle":
        return payload.get("match") is True
    return False


class Partial(dict):
    """Expected fields of a nested object; keys not listed are not compared."""


def _diff(where: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        actual = got.get(key)
        if isinstance(value, Partial) and isinstance(actual, dict):
            problems += _diff(f"{where}.{key}", actual, value)
        elif actual != value:
            problems.append(f"{where}.{key}: got {actual!r}, want {value!r}")
    return problems


def _expect(exit_code, want: Callable[[], dict], single_result: bool = False):
    """A check comparing the exit code and payload fields with ``want()``.

    ``exit_code`` may be a callable; both are evaluated on first use, so
    references cost nothing inside the timed loop.  ``single_result`` compares
    the one entry of an eval's ``results`` instead of the payload.
    """
    cache: list = []

    def check(code: int, payload: dict) -> list[str]:
        if not cache:
            cache.extend((exit_code() if callable(exit_code) else exit_code, want()))
        problems = [] if code == cache[0] else [f"exit {code}, want {cache[0]}"]
        if not single_result:
            return problems + _diff("payload", payload, cache[1])
        results = payload.get("results") or [{}]
        if len(results) != 1:
            problems.append(f"{len(results)} results, want 1")
        return problems + _diff("result", results[0], cache[1])

    return check


def _eval_op(system: str, start: str, depth: str, label: str, want: Callable[[], dict]) -> Op:
    argv = ["eval", "--system", system, "--start", start, "--depth", depth, "--format", "json"]
    return Op(argv, label, _expect(0, want, single_result=True))


def _bound_op(system: str, mode: str, label: str, exit_code, want: Callable[[], dict],
              extra: tuple = ()) -> Op:
    argv = ["bound", "--system", system, "--mode", mode, *extra, "--format", "json"]
    return Op(argv, label, _expect(exit_code, want))


def _write(workdir: Path, name: str, data: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# walk: open state space, depth-indexed lower bounds, exact Fraction weights.

def build_walk(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    # One depth per stratum of 100..300 keeps the cost mix equal across seeds.
    for system, base in (
        ("walk_termprob", 110),
        ("walk_termprob", 210),
        ("walk_termprob", 290),
        ("walk_expected", 160),
        ("walk_expected", 250),
    ):
        start, depth = rng.randint(1, 5), base + rng.randint(0, 10)
        expected_steps = system == "walk_expected"

        def want(start=start, depth=depth, expected_steps=expected_steps):
            return {
                "start": str(start),
                "value": ref.fmt_number(ref.walk_value(start, depth, expected_steps)),
                "status": "lower_bound",
                "depth": depth,
                "visited": ref.walk_ball(start, depth),
            }

        ops.append(_eval_op(f"builtin:{system}", str(start), str(depth),
                            f"eval {system} start={start} depth={depth}", want))
    for _ in range(2):
        samples = rng.randint(500, 1500)

        def want(n=samples):
            # 3n dominates 1 + 2/3*3(n-1) + 1/3*3(n+1) = 3n on every sample,
            # whose successors reach one position further.
            return {
                "verdict": "bounded_sampled",
                "method": "interpretation-method",
                "sample_count": n,
                "details": {"instances_checked": str(n), "note": "verified on supplied instances only"},
                "bound_map": {str(k): str(3 * k) for k in range(n + 1)},
            }

        ops.append(_bound_op("builtin:walk_expected", "embed:walk3n",
                             f"bound walk_expected embed:walk3n samples={samples}",
                             3, want, extra=("--samples", str(samples))))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# fixpoint: closed spaces that stabilize, long chains versus wide graphs.

def _relabel(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Labels whose sorted order differs from the chain order."""
    ids = list(range(count))
    rng.shuffle(ids)
    return [f"{prefix}{i:04d}" for i in ids]


def chain(rng: random.Random, length: int, prefix: str = "c") -> tuple[ref.Graph, str]:
    labels = _relabel(rng, prefix, length + 1)
    graph = ref.Graph("nat_inf")
    for a, b in zip(labels, labels[1:]):
        graph.rules[a] = [("step", b, rng.randint(1, 3))]
    graph.nf[labels[-1]] = rng.randint(0, 9)
    return graph, labels[0]


def ladder(rng: random.Random, rungs: int) -> tuple[ref.Graph, str]:
    graph = ref.Graph("nat_inf")
    for i in range(rungs):
        for side, other in (("x", "y"), ("y", "x")):
            entries = [("run", f"{side}{i + 1:03d}", rng.randint(1, 3))]
            if rng.random() < 0.5:
                entries.append(("rung", f"{other}{i + 1:03d}", rng.randint(1, 3)))
            graph.rules[f"{side}{i:03d}"] = entries
    graph.nf[f"x{rungs:03d}"] = rng.randint(0, 9)
    graph.nf[f"y{rungs:03d}"] = rng.randint(0, 9)
    return graph, "x000"


def layered_graph(rng: random.Random, kind: str, layers: int, width: int, prefix: str) -> tuple[ref.Graph, str]:
    """``layers`` x ``width`` objects; each rule steps to a random object of
    the next layer, one in ten jumps back two layers (so the graph has
    cycles), and the last layer holds the normal forms.  Shortest paths then
    take about ``layers`` hops whatever the seed, so every seed costs the
    same number of levels."""
    def label(layer: int, i: int) -> str:
        return f"{prefix}{layer:02d}{i:02d}"

    graph = ref.Graph(kind)
    for layer in range(layers - 1):
        for i in range(width):
            rules = [("e%d" % j, label(layer + 1, rng.randrange(width)), rng.randint(1, 9))
                     for j in range(rng.randint(1, 3))]
            if layer >= 2 and rng.random() < 0.1:
                rules.append(("back", label(layer - 2, rng.randrange(width)), rng.randint(1, 9)))
            graph.rules[label(layer, i)] = rules
    for i in range(width):
        # Tropical normal forms stay >= 1: 0 is the tropical maximum.
        graph.nf[label(layers - 1, i)] = rng.random() < 0.3 if kind == "boolean" else rng.randint(1, 20)
    return graph, label(0, rng.randrange(width))


def _trs_term(m: int, k: int) -> str:
    return f"plus({'s(' * m}0{')' * m},{'s(' * k}0{')' * k})"


def build_fixpoint(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    line, line_start = chain(rng, CHAIN_LENGTH)
    short, short_start = chain(rng, SHORT_CHAIN_LENGTH, prefix="d")
    lad, lad_start = ladder(rng, LADDER_RUNGS)
    trop, trop_start = layered_graph(rng, "tropical", GRAPH_LAYERS, GRAPH_WIDTH, "g")
    boo, boo_start = layered_graph(rng, "boolean", GRAPH_LAYERS, GRAPH_WIDTH, "b")
    files = {name: "file:" + _write(workdir, f"{name}.json", g.to_json())
             for name, g in (("chain", line), ("short-chain", short), ("ladder", lad),
                             ("tropical", trop), ("boolean", boo))}

    def dag_answer(graph, start):
        def want():
            weight, height = graph.longest_paths()
            return {"start": start, "value": str(weight[start]), "status": "stabilized",
                    "depth": height[start], "visited": len(graph.reachable(start))}
        return want

    ops.append(_eval_op(files["chain"], line_start, FIXPOINT_DEPTH,
                        f"eval chain length={CHAIN_LENGTH}", dag_answer(line, line_start)))
    ops.append(_eval_op(files["short-chain"], short_start, FIXPOINT_DEPTH,
                        f"eval chain length={SHORT_CHAIN_LENGTH}", dag_answer(short, short_start)))
    ops.append(_eval_op(files["ladder"], lad_start, FIXPOINT_DEPTH,
                        f"eval ladder rungs={LADDER_RUNGS}", dag_answer(lad, lad_start)))

    for start in (trop_start, min(trop.rules)):
        def want(start=start):
            return {"start": start, "value": ref.fmt_number(trop.shortest_paths()[start]),
                    "status": "stabilized", "visited": len(trop.reachable(start))}
        ops.append(_eval_op(files["tropical"], start, FIXPOINT_DEPTH,
                            f"eval tropical graph start={start}", want))

    def want_boolean():
        value = "true" if boo_start in boo.true_reachable() else "false"
        return {"start": boo_start, "value": value, "status": "stabilized",
                "visited": len(boo.reachable(boo_start))}

    ops.append(_eval_op(files["boolean"], boo_start, FIXPOINT_DEPTH,
                        f"eval boolean graph start={boo_start}", want_boolean))

    for n0 in (rng.randint(10, 49), rng.randint(51, 150)):
        def want(n0=n0):
            return {"start": f"n0={n0}", "value": str(min(n0, 50)), "status": "stabilized",
                    "visited": n0 + 2}
        ops.append(_eval_op("builtin:ski_rental(y=50)", f"n0={n0}", FIXPOINT_DEPTH,
                            f"eval ski_rental(y=50) n0={n0}", want))

    for _ in range(2):
        m, k = rng.randint(5, 40), rng.randint(0, 10)
        term = _trs_term(m, k)

        def want(term=term, m=m):
            # plus(s^m 0, y) takes m plus_s steps and one plus_0 step, and the
            # derivation is deterministic: m + 2 terms, weight m + 1.
            return {"start": term, "value": str(m + 1), "status": "stabilized",
                    "depth": m + 1, "visited": m + 2}
        ops.append(_eval_op("builtin:addition_trs", term, FIXPOINT_DEPTH,
                            f"eval addition_trs m={m} k={k}", want))

    certified = {"verdict": "bounded_certified", "method": "extremal-bounded"}
    for name in ("chain", "ladder"):
        ops.append(_bound_op(files[name], "extremal", f"bound {name} extremal", 0,
                             lambda: certified))

    def trop_extremal():
        # Tropical is extremal, normal forms are >= 1 and constants >= 1, so
        # only termination can be missing.
        if trop.is_acyclic():
            return certified
        return {"verdict": "unknown", "method": "extremal-bounded",
                "details": Partial(missing="['terminating']")}

    ops.append(_bound_op(files["tropical"], "extremal", "bound tropical graph extremal",
                         lambda: 0 if trop.is_acyclic() else 4, trop_extremal))

    def trop_selective():
        # Every normal form is >= 1, i.e. below the bound 1 in the tropical
        # order, and no `c * v1` rule is selective: the first rule of the
        # first object in label order is reported.
        first = min(trop.rules)
        return {"verdict": "unknown", "method": "selective-bounded",
                "details": Partial(non_selective_rule=trop.rules[first][0][0])}

    ops.append(_bound_op(files["tropical"], "selective", "bound tropical graph selective",
                         4, trop_selective, extra=("--bound", "1")))

    true_nfs = sorted(a for a, v in boo.nf.items() if v is True)

    def boo_selective():
        # A true normal form is the boolean maximum; otherwise every `v1`
        # rule is selective and false bounds every normal form.
        if true_nfs:
            return {"verdict": "unbounded", "method": "top-valued-normal-form",
                    "details": Partial(normal_form=true_nfs[0])}
        return {"verdict": "bounded_certified", "method": "selective-bounded"}

    ops.append(_bound_op(files["boolean"], "selective", "bound boolean graph selective",
                         lambda: 5 if true_nfs else 0, boo_selective, extra=("--bound", "false")))

    for name, graph in (("chain", line), ("ladder", lad)):
        weight, _ = graph.longest_paths()
        table_path = _write(workdir, f"{name}-table.json", {a: str(w) for a, w in weight.items()})

        def want(graph=graph, weight=weight):
            # Exact weights satisfy every rule with equality: one check per
            # normal form and per rule.
            checked = len(graph.nf) + sum(len(e) for e in graph.rules.values())
            return {"verdict": "bounded_certified", "method": "interpretation-method",
                    "details": Partial(instances_checked=str(checked)),
                    "bound_map": {a: str(w) for a, w in sorted(weight.items())}}

        ops.append(_bound_op(files[name], f"embed:{table_path}", f"bound {name} embed:table", 0, want))

    # Peano addition terminates, counts steps over nat_inf without top
    # constants: extremal certifies it, and the recursive interpretation
    # embedding dominates every step.
    ops.append(_bound_op("builtin:addition_trs", "extremal", "bound addition_trs extremal", 0,
                         lambda: certified))
    ops.append(_bound_op("builtin:addition_trs", "embed:trs_add", "bound addition_trs embed:trs_add", 0,
                         lambda: {"verdict": "bounded_certified", "method": "interpretation-method"}))
    rng.shuffle(ops)
    return ops


def known_defect_probe(seed: int, workdir: Path) -> list[str]:
    """`bound --mode extremal` on a 5,000-object chain.  At the baseline the
    loader's recursive cycle check raises RecursionError (ROADMAP item 4);
    once fixed the chain is certified like the 900-object one."""
    graph, _ = chain(random.Random(seed), PROBE_CHAIN_LENGTH, prefix="p")
    path = _write(workdir, "probe-chain.json", graph.to_json())
    return ["bound", "--system", f"file:{path}", "--mode", "extremal", "--format", "json"]


# --------------------------------------------------------------------------
# loop: increasing-loop search and the unboundedness cross-check.

def build_loop(seed: int, workdir: Path) -> list[Op]:
    # The inputs are fixed built-in systems, so every pass runs the same
    # (system, start, depth) set and the seed only orders it.
    rng = random.Random(seed)
    runs = [("os_runtime", "idle()", 4), ("os_runtime", "wait(P1)", 6)]
    runs += [(system, "idle()", depth) for system in ("os_size", "os_starv", "os_fair") for depth in (4, 5, 6)]
    runs += [("os_runtime", "idle(P1P2)", depth) for depth in (4, 5, 6)]

    ops = []
    for system, start, depth in runs:
        answer = ref.loop_answer(system, start)

        def check(code, payload, answer=answer, start=start, depth=depth):
            problems = [] if code == answer.exit_code else [f"exit {code}, want {answer.exit_code}"]
            problems += _diff("payload", payload, {"start": start, "depth": depth})
            loops = payload.get("loops", [])
            traces = [entry.get("trace") for entry in loops]
            if traces != answer.traces:
                problems.append(f"traces: got {traces!r}, want {answer.traces!r}")
            for entry in loops:
                want = {"status": answer.status, "t": answer.t}
                if answer.iteration_values is not None:
                    want["verdict"] = "unbounded"
                    want["cross_check"] = {"iteration_values": answer.iteration_values, "loop_depth": 4}
                problems += _diff("loop", entry, want)
            return problems

        argv = ["loop", "--system", f"builtin:{system}", "--start", start, "--depth", str(depth),
                "--format", "json"]
        ops.append(Op(argv, f"loop {system} {start} depth={depth}", check))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# oracle: brute-force tree enumeration against value iteration.

# (lowest, highest) work of a stratum (see sysgen.tree_stats) and how many
# systems each op list takes from it.  The quotas fix the heavy-tailed cost
# mix: the two costliest systems take about 40% of a pass.  The strata that
# hold the median op (the second) and the op op_tail_s reads (the last) are
# narrow, so those statistics move with the program, not with the seed.
ORACLE_STRATA = (
    ((0, 400), 16),
    ((1_000, 1_300), 12),
    ((5_000, 20_000), 6),
    ((40_000, 80_000), 4),
    ((120_000, 160_000), 3),
    ((260_000, 320_000), 2),
)
# Candidates drawn per op list whatever the seed, so set-up costs the same;
# the last stratum holds about 0.9% of them.
ORACLE_CANDIDATES = 1_500


def build_oracle(seed: int, workdir: Path) -> list[Op]:
    quota = [count for _, count in ORACLE_STRATA]
    ops = []
    for index in range(ORACLE_CANDIDATES):
        system_seed = seed * ORACLE_CANDIDATES + index
        data = sysgen.random_system_json(system_seed)
        trees, work = sysgen.tree_stats(data, ORACLE_DEPTH)
        stratum = next((i for i, ((lo, hi), _) in enumerate(ORACLE_STRATA) if lo <= work < hi), None)
        if stratum is None or not quota[stratum]:
            continue
        quota[stratum] -= 1
        path = _write(workdir, f"oracle-{len(ops):02d}.json", data)
        checks = len(sysgen.objects_of(data)) * (ORACLE_DEPTH + 1)
        argv = ["oracle", "--system", f"file:{path}", "--depth", str(ORACLE_DEPTH), "--format", "json"]
        label = f"oracle system_seed={system_seed} {data['semiring']['kind']} trees={trees} work={work}"
        ops.append(Op(argv, label, _oracle_check(checks)))
    if any(quota):
        raise RuntimeError(f"seed {seed}: {ORACLE_CANDIDATES} candidates left oracle strata unfilled {quota}")
    random.Random(seed).shuffle(ops)
    return ops


def _oracle_check(checks: int):
    def check(code, payload):
        problems = [] if code == 0 else [f"exit {code}, want 0"]
        problems += _diff("payload", payload, {"match": True, "depth": ORACLE_DEPTH})
        if len(payload.get("checks", [])) != checks:
            problems.append(f"{len(payload.get('checks', []))} checks, want {checks}")
        return problems
    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk", build_walk, 6.0),
        Workload("fixpoint", build_fixpoint, 5.9, probe=known_defect_probe),
        Workload("loop", build_loop, 3.3),
        Workload("oracle", build_oracle, 2.6),
    )
}
