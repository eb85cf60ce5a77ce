"""Digest of the CLI's bytes on a fixed set of ops, to check byte identity.

The ops are the benchmark's op lists (``perfbench/workloads.py``, every
workload at seeds 0-4, each with its probe), an ``eval`` sweep over the
systems of ``tests/system_gen.py`` (seeds 0-199, every object, depths 0, 3
and 8, in text and in JSON), and ``loop`` over the scheduler built-ins
(``os_runtime``, ``os_size``, ``os_fair`` and ``os_starv`` from ``idle()``,
``wait(P1)`` and ``run(P2P1)``, depths 1-7, in text and in JSON, and
``os_runtime`` from ``idle()`` at depth 8, whose cross-check hits the visit
cap).  Each op runs through ``wars.cli.main`` in
process, and one line per op is printed: its label, then the sha256 of its
stdout, of its stderr and of its exit code.  Two checkouts print the same
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
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(200)
SWEEP_DEPTHS = (0, 3, 8)
BENCH_SEEDS = range(5)
LOOP_SYSTEMS = ("os_runtime", "os_size", "os_fair", "os_starv")
LOOP_STARTS = ("idle()", "wait(P1)", "run(P2P1)")
LOOP_DEPTHS = range(1, 8)
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


def sweep_ops(workdir: Path):
    """(label, argv) of the ``eval`` sweep over generated systems."""
    from system_gen import random_system_json

    inputs = workdir / "sweep"
    inputs.mkdir()
    for seed in SWEEP_SEEDS:
        data = random_system_json(seed)
        path = inputs / f"system-{seed}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        objects = {label for r in data["rules"] for label in [r["lhs"], *r["rhs"]]}
        for obj in sorted(objects | set(data["nf"])):
            for depth in SWEEP_DEPTHS:
                for fmt in ("text", "json"):
                    argv = ["eval", "--system", f"file:{path}", "--start", obj,
                            "--depth", str(depth), "--format", fmt]
                    yield f"eval system_seed={seed} {obj} depth={depth} {fmt}", argv


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


def main() -> int:
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        sys.path.insert(0, str(path))
    from wars.cli import main as wars_main

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        for ops in (benchmark_ops(WORKDIR), sweep_ops(WORKDIR), loop_ops()):
            for label, argv in ops:
                print(f"{label}\t{run(wars_main, argv)}", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
