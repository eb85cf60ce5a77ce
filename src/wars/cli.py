"""Batch command line: evaluate weights, check bounds, hunt loops, run oracles.

Exit codes are stable per command and documented in the README.  All output
goes through one writer, ``_emit``; its JSON comes from ``_json_text``, which
writes in one pass the bytes ``json.dumps(payload, indent=2, sort_keys=True)``
writes.  Identical configurations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    _universal_bound,
    builtin_embedding,
    check_nf_top,
    check_sufficient_extremal,
    check_sufficient_selective,
    verify_embedding,
)
from .builtins import builtin, builtin_names
from .evaluator import (
    DEFAULT_BRANCH_TRUNC,
    DEFAULT_COUNT_CAP,
    DEFAULT_RULE_BUDGET,
    DEFAULT_VISIT_CAP,
    CountCapExceeded,
    VisitCapExceeded,
    _settle,
    _tree_weights,
    evaluate_to_fixpoint,
)
from .semiring import SemiringError
from .system import SystemError_, SystemFormatError, load_explicit
from .unboundedness import (
    CERTIFIED,
    UnboundednessError,
    analyze_loop,
    conclude_unbounded,
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


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _key_text(key) -> str:
    """A dict key that is not a string, as ``json`` writes or refuses it."""
    if isinstance(key, (int, float)) or key is None:
        return _ENCODE_STR(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value, indent="\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` in one pass, not ``json``'s
    pure-Python generator per container.  Non-empty dicts, lists and tuples,
    strings, ints, booleans and None are written here as ``json`` writes them;
    any other value (a float, an empty container) goes to ``json.dumps``, so
    its text or error is the same.  Distinct keys sort as (key, value) pairs do.
    """
    if isinstance(value, str):
        return _ENCODE_STR(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (list, tuple, dict)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        # Strings, ints and booleans, the common items, are written in place.
        items = [(_ENCODE_STR(k) if isinstance(k, str) else _key_text(k)) + ": "
                 + (_ENCODE_STR(v) if (t := type(v := value[k])) is str
                    else int.__repr__(v) if t is int
                    else ("true" if v else "false") if t is bool
                    else _json_text(v, inner))
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [_ENCODE_STR(v) if type(v) is str else _json_text(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _emit(payload: dict, fmt: str, lines) -> None:
    """Print ``payload`` as JSON, or else ``lines``, which only text reads."""
    if fmt == "json":
        print(_json_text(payload))
    else:
        for line in lines:
            print(line)


def _common_args(parser: argparse.ArgumentParser) -> None:
    """The output option, which every command takes."""
    parser.add_argument("--format", choices=("text", "json"), default="text")


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
    _check_at_least(args, depth=0, rule_budget=1, branch_trunc=1, visit_cap=1)
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
    lines = (
        f"{r['start']}: {r['value']} ({r['status']}, depth {r['depth']}, "
        f"{r['visited']} objects)"
        for r in results
    )
    _emit(payload, args.format, lines)
    return exit_code


_BOUND_EXIT = {BOUNDED_CERTIFIED: 0, BOUNDED_SAMPLED: 3, UNKNOWN: 4, UNBOUNDED: 5}


def cmd_bound(args) -> int:
    # The whole configuration is resolved before any check runs, so a bad one
    # never meets a top-valued normal form's verdict.
    _check_at_least(args, samples=1)
    embed = args.mode.startswith("embed:")
    if args.samples is not None and not embed:
        raise CliError(f"--samples is read only by embed: modes, not by {args.mode!r}")
    if args.bound is not None and args.mode != "selective":
        raise CliError(f"--bound is read only by selective mode, not by {args.mode!r}")
    if not embed and args.mode not in ("selective", "extremal"):
        raise CliError(f"unknown mode {args.mode!r}")
    if args.mode == "selective" and args.bound is None:
        raise CliError("--bound <literal> is required for selective mode")
    system = resolve_system(args.system)
    desc = system.semiring
    if args.mode == "selective":
        bound = desc.parse_literal(args.bound)
        _universal_bound(desc, bound)
        check = functools.partial(check_sufficient_selective, system, bound)
    elif args.mode == "extremal":
        check = functools.partial(check_sufficient_extremal, system)
    else:
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
        if args.samples is None and system.enumerate_objects() is None:
            raise CliError(f"system {system.name} has no complete object enumeration; pass --samples")
        instances = "all" if args.samples is None else system.sample_objects(args.samples)
        check = functools.partial(verify_embedding, system, embedding, instances)
    report = check_nf_top(system) or check()

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
    def lines():
        yield f"verdict: {report.verdict} (via {report.method})"
        yield from (f"  {k}: {v}" for k, v in payload["details"].items())
        if report.sample_count:
            yield f"  verified on {report.sample_count} instances"
        if report.bound_map is not None:
            yield f"  upper-bound map covers {len(report.bound_map)} objects"
    _emit(payload, args.format, lines())
    return _BOUND_EXIT[report.verdict]


def cmd_loop(args) -> int:
    _check_at_least(args, depth=1, rule_budget=1, max_witnesses=1)
    if len(args.start) > 1:
        raise CliError(f"loop takes one --start, got {len(args.start)}")
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
            entry.update(verdict="unbounded", **vars(conclude_unbounded(system, w)))
        reports.append(entry)

    payload = {
        "command": "loop",
        "system": system.name,
        "start": system.format_object(start),
        "depth": args.depth,
        "loops": reports,
    }
    def lines():
        for entry in reports:
            tail = f"t={entry['t']}" if entry["t"] is not None else "no increment"
            yield (
                f"loop depth {entry['depth']} via {'>'.join(entry['trace'])}: "
                f"{entry['polynomial']} [{entry['status']}, {tail}]"
            )
            if entry.get("verdict"):
                yield f"  => weight of {entry['root']} is the maximum"
        if not reports:
            yield "no loops found"
    _emit(payload, args.format, lines())

    if any(e.get("verdict") == "unbounded" for e in reports):
        return 0
    return 3 if reports else 4


def cmd_oracle(args) -> int:
    _check_at_least(args, depth=0, rule_budget=1, count_cap=1)
    system = resolve_system(args.system)
    desc = system.semiring
    objects = system.enumerate_objects()
    if objects is None:
        raise CliError("the oracle needs a finite explicit system")
    if not objects:
        raise CliError("the oracle needs a system with at least one object")

    checks = []
    # One settle of every object, to the depth the checks read, answers them
    # all; the system bounds its own ball, so no visit cap cuts it.
    settled = _settle(system, objects, args.depth, args.depth, args.rule_budget,
                      DEFAULT_BRANCH_TRUNC, max(len(objects), DEFAULT_VISIT_CAP))
    # One enumeration of every check's trees, joined as each depth is weighed:
    # leaves and compiled constants are checked, so weights are carrier values.
    # The join is idempotent, so each key keeps its distinct weights only.
    enumerated = _tree_weights(
        system, [(a, depth) for a in objects for depth in range(args.depth + 1)],
        args.rule_budget, args.count_cap, desc._join,
    )
    for i, a in enumerate(objects):
        label = system.format_object(a)
        for depth in range(args.depth + 1):
            iterated = settled.value(i, depth)
            joined = next(enumerated)
            match = iterated == joined
            text = desc.format_literal(iterated)
            checks.append(
                {
                    "object": label,
                    "depth": depth,
                    "iterated": text,
                    # Equal carrier values of one type print alike.
                    "enumerated": text if match and type(iterated) is type(joined)
                    else desc.format_literal(joined),
                    "match": match,
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
    def lines():
        for c in checks:
            yield (f"{c['object']} depth {c['depth']}: iterated {c['iterated']} "
                   f"vs enumerated {c['enumerated']} {'ok' if c['match'] else 'MISMATCH'}")
        yield "all checks passed" if all_match else "MISMATCH detected"
    _emit(payload, args.format, lines())
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
    p_eval.add_argument("--rule-budget", type=int, default=DEFAULT_RULE_BUDGET)
    p_eval.add_argument("--branch-trunc", type=int, default=DEFAULT_BRANCH_TRUNC)
    p_eval.add_argument("--visit-cap", type=int, default=DEFAULT_VISIT_CAP)
    _common_args(p_eval)

    p_bound = sub.add_parser("bound", help="run a boundedness check")
    p_bound.add_argument("--system", required=True)
    p_bound.add_argument("--mode", required=True, help="selective | extremal | embed:<name|path>")
    p_bound.add_argument("--bound", help="universal bound literal for selective mode")
    p_bound.add_argument("--samples", type=int)
    _common_args(p_bound)

    p_loop = sub.add_parser("loop", help="hunt for weight-increasing loops")
    p_loop.add_argument("--system", required=True)
    p_loop.add_argument("--start", action="append", required=True)
    p_loop.add_argument("--depth", type=int, required=True)
    p_loop.add_argument("--max-witnesses", type=int, default=16)
    # The loop search's only budget.
    p_loop.add_argument("--rule-budget", type=int, default=DEFAULT_RULE_BUDGET)
    _common_args(p_loop)

    p_oracle = sub.add_parser(
        "oracle", help="compare value iteration against tree enumeration"
    )
    p_oracle.add_argument("--system", required=True)
    p_oracle.add_argument("--depth", type=int, required=True)
    p_oracle.add_argument("--count-cap", type=int, default=DEFAULT_COUNT_CAP)
    p_oracle.add_argument("--rule-budget", type=int, default=DEFAULT_RULE_BUDGET)
    _common_args(p_oracle)

    _common_args(sub.add_parser("list", help="list built-in systems"))

    return parser


# Built on the first call, not at import; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up per call, so that a wrapper put on a command after the
        # parser was built (as perfbench's tracer does) is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except CountCapExceeded as exc:
        # An enumeration blow-up; `eval` reports a visit cap hit as a partial
        # result itself.
        print(f"error: {exc}", file=_sys.stderr)
        return 2
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
