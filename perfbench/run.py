"""Run one workload of the wars benchmark and print its metrics.

    python3 perfbench/run.py --workload walk|fixpoint|loop|oracle \
        --seed N --seconds S --trace 0|1

Run from the repository root: the program under test is imported from
``src/``.  One client sends ops to ``wars.cli.main`` in-process, each after
the previous one returned (a closed loop, single-threaded).  The op list is
repeated so that the run measures about ``--seconds`` seconds; the JSON every
op prints is checked against an answer computed without ``wars``, and must be
byte-identical across repetitions.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs the list twice untraced and once with every public ``wars`` call
wrapped, reports the per-layer metrics and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Calibration  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or file
# write does not decide setup_s.
SETUP_REPEATS = 3
TRACE_BASELINE_PASSES = 2
# op_tail_s is read at the highest percentile with at least this many ops
# beyond it.
TAIL_OPS_BEYOND = 10


@dataclass
class Result:
    code: int | None
    stdout: str
    error: str
    cpu_s: float
    # CPU seconds scaled to the reference host speed (see speed.py).
    ref_s: float = 0.0


def _purge_wars() -> None:
    for name in [n for n in sys.modules if n == "wars" or n.startswith("wars.")]:
        del sys.modules[name]


def setup(workload: workloads.Workload, seed: int, workdir: Path):
    """Import ``wars``, generate and write the inputs, build the built-ins."""
    start = time.process_time()
    _purge_wars()
    cli = importlib.import_module("wars.cli")
    ops = workload.build(seed, workdir)
    specs = {op.argv[op.argv.index("--system") + 1] for op in ops}
    for spec in sorted(s for s in specs if s.startswith("builtin:")):
        cli.resolve_system(spec)
    return time.process_time() - start, cli, ops


def run_op(cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"[:300]
        cpu_s = time.process_time() - start
    return Result(code, out.getvalue(), error, cpu_s)


def run_pass(cli, ops, calibration: Calibration, tracer=None) -> tuple[float, float, list[Result]]:
    """(CPU seconds, wall seconds, results) of one pass over the op list.

    A calibration slice runs before every op and after the last one; each
    op's ``ref_s`` is scaled by the slices on either side of it.
    """
    results = []
    cpu_s = 0.0
    wall_start = time.perf_counter()
    before = calibration.slice_s()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        result = run_op(cli, op.argv)
        if tracer is not None:
            tracer.end_op(op.label, len(result.stdout.encode()))
        after = calibration.slice_s()
        result.ref_s = result.cpu_s * calibration.factor(before, after)
        before = after
        cpu_s += result.cpu_s
        results.append(result)
    return cpu_s, time.perf_counter() - wall_start, results


def judge(ops, passes: list[list[Result]]) -> tuple[int, int, list[str]]:
    """(failed executions, decided ops, problem lines).

    An execution fails when the op raised, exited outside the README's
    table, answered differently from the reference, or printed bytes that
    differ from its first execution.
    """
    failed, decided, lines = 0, 0, []
    for index, op in enumerate(ops):
        first = passes[0][index]
        problems = []
        if first.error:
            problems.append(f"raised {first.error}")
        elif first.code not in workloads.EXIT_CODES[op.argv[0]]:
            problems.append(f"exit code {first.code} is not documented")
        else:
            try:
                payload = json.loads(first.stdout)
            except ValueError:
                problems.append("stdout is not JSON")
            else:
                problems += op.check(first.code, payload)
                decided += workloads.decided(payload)
        digest = hashlib.sha256(first.stdout.encode()).hexdigest()
        repeats = []
        for number, results in enumerate(passes):
            result = results[index]
            if hashlib.sha256(result.stdout.encode()).hexdigest() != digest or result.code != first.code:
                repeats.append(f"pass {number} printed different bytes or exit code")
                failed += 1
            elif problems:
                failed += 1
        for problem in (problems + repeats)[:5]:
            lines.append(f"# FAILED op {index:02d} ({op.label}): {problem}")
    return failed, decided, lines


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has
    ``TAIL_OPS_BEYOND`` samples beyond it (the smallest sample when there
    are no more than that)."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_OPS_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wars").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _commit() -> str:
    """HEAD of a git checkout, read without running git; 'none' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wars" / "cli.py").is_file():
        print(f"error: no wars sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibration.slice_s()
        cpu_s, cli, ops = setup(workload, args.seed, workdir)
        setups.append(cpu_s * calibration.factor(before, calibration.slice_s()))
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported wars from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        passes = TRACE_BASELINE_PASSES
    else:
        passes = max(2, round(args.seconds / workload.nominal_rep_s))
    pass_ref, pass_cpu, pass_wall, results = [], [], [], []
    for _ in range(passes):
        cpu_s, wall_s, pass_results = run_pass(cli, ops, calibration)
        pass_ref.append(sum(r.ref_s for r in pass_results))
        pass_cpu.append(cpu_s)
        pass_wall.append(wall_s)
        results.append(pass_results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, _, traced_results = run_pass(cli, ops, calibration, tracer)
        finally:
            tracer.uninstall()
        results.append(traced_results)

    failed, decided, problem_lines = judge(ops, results)
    env = environment(args.workload, args.seed, args.trace)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for index, op in enumerate(ops):
        median = statistics.median(r[index].ref_s for r in results[:passes])
        print(f"# op {index:02d} {median:.6f} s  {op.label}")
    for line in problem_lines:
        print(line)

    probe_failures = 0
    if workload.probe is not None:
        argv = workload.probe(args.seed, workdir)
        probe = run_op(cli, argv)
        probe_failures = int(bool(probe.error) or probe.code != 0)
        print(f"# known-defect probe `{' '.join(argv)}`: {probe.error or f'exit {probe.code}'}")

    samples = [r.ref_s for pass_results in results[:passes] for r in pass_results]
    print(f"# {passes} passes of {len(ops)} ops, seconds at reference speed {[round(s, 3) for s in pass_ref]}, "
          f"cpu {[round(s, 3) for s in pass_cpu]}, wall {[round(s, 3) for s in pass_wall]}; "
          f"setups {[round(s, 4) for s in setups]}")
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = sum(r.ref_s for r in traced_results) / statistics.median(pass_ref)
        metrics["cli.decided_ratio"] = decided / len(ops)
        metrics["system.known_defect_failures"] = probe_failures
        units = {name: _unit(name) for name in metrics}
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {"env": env})
    else:
        tail_value, tail_percentile = tail(samples)
        print(f"# op_tail_s is p{tail_percentile:.1f} of {len(samples)} ops")
        metrics = {
            "pass_s": statistics.median(pass_ref),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: "s" for name in metrics}
        units["peak_rss_mb"] = "MB"

    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r) for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_op", "_per_visited", "_per_evaluate", "_per_find_rule")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
