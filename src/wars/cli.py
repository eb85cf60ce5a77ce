"""Batch command line: evaluate weights, check bounds, hunt loops, run oracles.

Exit codes are stable per command and documented in the README.  All output
goes through one writer; identical configurations with identical seeds produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys as _sys

from . import aggregator as agg
from .boundedness import (
    BOUNDED_CERTIFIED,
    BOUNDED_SAMPLED,
    UNBOUNDED,
    UNKNOWN,
    BoundednessError,
    Embedding,
    builtin_embedding,
    check_nf_top,
    check_sufficient_extremal,
    check_sufficient_selective,
    verify_embedding,
)
from .builtins import builtin, builtin_names
from .evaluator import (
    CountCapExceeded,
    DepthProfile,
    VisitCapExceeded,
    enumerate_tree_weights,
    evaluate_to_fixpoint,
)
from .semiring import SemiringError
from .system import SystemError_, SystemFormatError, load_explicit
from .unboundedness import (
    CERTIFIED,
    UnboundednessError,
    analyze_loop,
    conclude_witnesses,
    find_loops,
)

_SPEC_RE = re.compile(r"(builtin|file):(.*)")
_PARAMS_RE = re.compile(r"([\w.]+)\((.*)\)")


class CliError(Exception):
    pass


def _parse_param(value: str):
    value = value.strip()
    if value in ("true", "false"):
        return value == "true"
    if re.fullmatch(r"-?\d+", value):
        return int(value)
    return value


def resolve_system(spec: str):
    m = _SPEC_RE.fullmatch(spec.strip())
    if not m:
        raise CliError(f"system spec must be builtin:<name>(...) or file:<path>, got {spec!r}")
    kind, rest = m.groups()
    if kind == "file":
        return load_explicit(rest)
    params = {}
    name = rest
    pm = _PARAMS_RE.fullmatch(rest)
    if pm:
        name, body = pm.groups()
        for item in filter(None, (p.strip() for p in body.split(","))):
            if "=" not in item:
                raise CliError(f"built-in parameters use key=value, got {item!r}")
            key, value = item.split("=", 1)
            params[key.strip()] = _parse_param(value)
    return builtin(name, **params)


def _emit(payload: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _common_args(parser: argparse.ArgumentParser) -> None:
    """The budget and output options every analysis command ends with."""
    parser.add_argument("--rule-budget", type=int, default=64)
    parser.add_argument("--branch-trunc", type=int, default=64)
    # Its default comes from WARS_VISIT_CAP, which ``main`` reads on every call.
    parser.add_argument("--visit-cap", type=int)
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _default_visit_cap() -> int:
    text = os.environ.get("WARS_VISIT_CAP", "100000")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"WARS_VISIT_CAP must be an integer, got {text!r}") from None


def _check_at_least(args, **least) -> None:
    """Reject a numeric flag below its least meaningful value."""
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise CliError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _parse_start(system, text: str):
    try:
        return system.parse_object(text)
    except ValueError as exc:
        raise CliError(f"cannot parse object {text!r}: {exc}") from exc


def cmd_eval(args) -> int:
    _check_at_least(args, depth=0, rule_budget=1, visit_cap=1)
    system = resolve_system(args.system)
    desc = system.semiring
    results = []
    exit_code = 0
    for start in [_parse_start(system, text) for text in args.start]:
        try:
            bound = evaluate_to_fixpoint(
                system,
                start,
                max_depth=args.depth,
                rule_budget=args.rule_budget,
                branch_trunc=args.branch_trunc,
                visit_cap=args.visit_cap,
            )
        except VisitCapExceeded as exc:
            bound = exc.partial
            exit_code = 2
        results.append(
            {
                "start": system.format_object(start),
                "value": desc.format_literal(bound.value),
                "status": bound.status,
                "depth": bound.depth_explored,
                "visited": bound.visited,
            }
        )
    payload = {
        "command": "eval",
        "system": system.name,
        "semiring": desc.kind,
        "budgets": {
            "rule_budget": args.rule_budget,
            "branch_trunc": args.branch_trunc,
            "visit_cap": args.visit_cap,
        },
        "results": results,
    }
    lines = [
        f"{r['start']}: {r['value']} ({r['status']}, depth {r['depth']}, "
        f"{r['visited']} objects)"
        for r in results
    ]
    _emit(payload, args.format, lines)
    return exit_code


_BOUND_EXIT = {BOUNDED_CERTIFIED: 0, BOUNDED_SAMPLED: 3, UNKNOWN: 4, UNBOUNDED: 5}


def cmd_bound(args) -> int:
    _check_at_least(args, rule_budget=1, visit_cap=1, samples=1)
    system = resolve_system(args.system)
    desc = system.semiring

    top_report = check_nf_top(system)
    if top_report is not None:
        report = top_report
    elif args.mode == "selective":
        if args.bound is None:
            raise CliError("--bound <literal> is required for selective mode")
        report = check_sufficient_selective(system, desc.parse_literal(args.bound))
    elif args.mode == "extremal":
        report = check_sufficient_extremal(system)
    elif args.mode.startswith("embed:"):
        ref = args.mode[len("embed:"):]
        if os.path.exists(ref):
            try:
                with open(ref, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise CliError(f"cannot read embedding file {ref}: {exc.strerror}") from exc
            except ValueError as exc:  # bad JSON, bad UTF-8, or too many digits
                raise CliError(f"embedding file {ref} is not valid JSON: {exc}") from exc
            except RecursionError as exc:
                raise CliError(f"embedding file {ref} is not valid JSON: nested too deeply") from exc
            embedding = Embedding.from_json(data, system, name=ref)
        else:
            try:
                embedding = builtin_embedding(ref)
            except BoundednessError as exc:
                raise CliError(str(exc)) from exc
        if args.samples is not None:
            rng = random.Random(args.seed)
            instances = system.sample_objects(rng, args.samples)
            report = verify_embedding(system, embedding, instances)
        else:
            report = verify_embedding(system, embedding)
    else:
        raise CliError(f"unknown mode {args.mode!r}")

    payload = {
        "command": "bound",
        "system": system.name,
        "mode": args.mode,
        "verdict": report.verdict,
        "method": report.method,
        "details": {k: str(v) for k, v in report.details.items()},
        "sample_count": report.sample_count,
    }
    if report.bound_map is not None and args.format == "json":
        payload["bound_map"] = {
            system.format_object(k): desc.format_literal(v)
            for k, v in report.bound_map.items()
        }
    lines = [f"verdict: {report.verdict} (via {report.method})"]
    lines += [f"  {k}: {v}" for k, v in payload["details"].items()]
    if report.sample_count:
        lines.append(f"  verified on {report.sample_count} instances")
    if report.bound_map is not None and args.format != "json":
        lines.append(f"  upper-bound map covers {len(report.bound_map)} objects")
    _emit(payload, args.format, lines)
    return _BOUND_EXIT[report.verdict]


def cmd_loop(args) -> int:
    _check_at_least(args, depth=1, rule_budget=1, visit_cap=1, max_witnesses=1)
    system = resolve_system(args.system)
    desc = system.semiring
    start = _parse_start(system, args.start[0])
    candidates = find_loops(
        system,
        start,
        args.depth,
        rule_budget=args.rule_budget,
        max_witnesses=args.max_witnesses,
    )
    witnesses = [analyze_loop(system, tree, path) for tree, path in candidates]
    verdicts = iter(
        conclude_witnesses(
            system,
            [w for w in witnesses if w.status == CERTIFIED],
            rule_budget=args.rule_budget,
            branch_trunc=args.branch_trunc,
            visit_cap=args.visit_cap,
        )
    )

    reports = []
    for w in witnesses:
        entry = {
            "root": system.format_object(w.root),
            "depth": w.tree.depth(),
            "trace": w.trace(),
            "polynomial": agg.format_expr(w.polynomial, desc),
            "status": w.status,
            "t": desc.format_literal(w.t) if w.t is not None else None,
        }
        if w.status == CERTIFIED:
            verdict = next(verdicts)
            entry["verdict"] = "unbounded"
            entry["method"] = verdict.method
            entry["cross_check"] = verdict.cross_check
        reports.append(entry)

    payload = {
        "command": "loop",
        "system": system.name,
        "start": system.format_object(start),
        "depth": args.depth,
        "loops": reports,
    }
    lines = []
    for entry in reports:
        tail = f"t={entry['t']}" if entry["t"] is not None else "no increment"
        lines.append(
            f"loop depth {entry['depth']} via {'>'.join(entry['trace'])}: "
            f"{entry['polynomial']} [{entry['status']}, {tail}]"
        )
        if entry.get("verdict"):
            lines.append(f"  => weight of {entry['root']} is the maximum")
    if not reports:
        lines.append("no loops found")
    _emit(payload, args.format, lines)

    if any(e.get("verdict") == "unbounded" for e in reports):
        return 0
    return 3 if reports else 4


def cmd_oracle(args) -> int:
    _check_at_least(args, rule_budget=1, visit_cap=1)
    system = resolve_system(args.system)
    desc = system.semiring
    enum = system.enumerate_objects()
    if enum is None or not enum[1]:
        raise CliError("the oracle needs a finite explicit system")
    objects = enum[0]

    checks = []
    # A negative depth asks for no checks, so nothing is explored.
    for a in objects if args.depth >= 0 else ():
        profile = DepthProfile(
            system,
            a,
            args.depth,
            rule_budget=args.rule_budget,
            branch_trunc=args.branch_trunc,
            visit_cap=args.visit_cap,
        )
        for depth in range(args.depth + 1):
            iterated = profile.bound(depth).value
            # One weight per tree, joined only here.
            weights = enumerate_tree_weights(
                system, a, depth, args.rule_budget, args.count_cap, args.branch_trunc
            )
            joined = desc.join(weights)
            checks.append(
                {
                    "object": system.format_object(a),
                    "depth": depth,
                    "iterated": desc.format_literal(iterated),
                    "enumerated": desc.format_literal(joined),
                    "match": iterated == joined,
                }
            )

    all_match = all(c["match"] for c in checks)
    payload = {
        "command": "oracle",
        "system": system.name,
        "depth": args.depth,
        "checks": checks,
        "match": all_match,
    }
    lines = [
        f"{c['object']} depth {c['depth']}: iterated {c['iterated']} "
        f"vs enumerated {c['enumerated']} "
        f"{'ok' if c['match'] else 'MISMATCH'}"
        for c in checks
    ]
    lines.append("all checks passed" if all_match else "MISMATCH detected")
    _emit(payload, args.format, lines)
    return 0 if all_match else 1


def cmd_list(args) -> int:
    payload = {"command": "list", "builtins": builtin_names()}
    _emit(payload, args.format, builtin_names())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wars",
        description="Weighted reduction systems: weights, bounds, loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="approximate or stabilize object weights")
    p_eval.add_argument("--system", required=True)
    p_eval.add_argument("--start", action="append", required=True)
    p_eval.add_argument("--depth", type=int, required=True)
    _common_args(p_eval)

    p_bound = sub.add_parser("bound", help="run a boundedness check")
    p_bound.add_argument("--system", required=True)
    p_bound.add_argument("--mode", required=True, help="selective | extremal | embed:<name|path>")
    p_bound.add_argument("--bound", help="universal bound literal for selective mode")
    p_bound.add_argument("--samples", type=int)
    p_bound.add_argument("--seed", type=int, default=0, help="seeds the --samples draw")
    _common_args(p_bound)

    p_loop = sub.add_parser("loop", help="hunt for weight-increasing loops")
    p_loop.add_argument("--system", required=True)
    p_loop.add_argument("--start", action="append", required=True)
    p_loop.add_argument("--depth", type=int, required=True)
    p_loop.add_argument("--max-witnesses", type=int, default=16)
    _common_args(p_loop)

    p_oracle = sub.add_parser(
        "oracle", help="compare value iteration against tree enumeration"
    )
    p_oracle.add_argument("--system", required=True)
    p_oracle.add_argument("--depth", type=int, required=True)
    p_oracle.add_argument("--count-cap", type=int, default=200_000)
    _common_args(p_oracle)

    p_list = sub.add_parser("list", help="list built-in systems")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# Built on the first call, not at import; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command != "list" and args.visit_cap is None:
            args.visit_cap = _default_visit_cap()
        # Looked up per call, so that a wrapper put on a command after the
        # parser was built (as perfbench's tracer does) is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except CountCapExceeded as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except VisitCapExceeded as exc:
        # `eval` reports a cap hit as a partial result itself.  For `oracle`
        # it is a budget blow-up like the count cap; for `loop` the budgets
        # are too small for its cross-check.
        print(f"error: {exc}", file=_sys.stderr)
        return 2 if args.command == "oracle" else 1
    except (
        CliError,
        BoundednessError,
        UnboundednessError,
        SemiringError,
        SystemError_,
        SystemFormatError,
        agg.AggregatorError,
        FileNotFoundError,
    ) as exc:
        # For `oracle`, exit 1 means a mismatch, so a bad configuration has
        # its own code.
        print(f"error: {exc}", file=_sys.stderr)
        return 3 if args.command == "oracle" else 1


if __name__ == "__main__":
    raise SystemExit(main())
