"""Layer tracing from outside the program: wrap the public calls of ``wars``.

``Tracer.install`` replaces every public function of every ``wars`` module at
each place it is bound (``from .aggregator import evaluate`` binds a second
name in ``evaluator`` and ``boundedness``), and the public methods of
``SystemHandle`` and of each concrete ``Semiring`` subclass.  ``uninstall``
puts the originals back.  Private helpers are not wrapped, so a private fast
path counts as its caller's self time.

Every call updates per-name totals (calls, inclusive and self seconds) and
per-op snapshots.  Calls that happen once per object, value, rule or tree
node (carrier operations, aggregator evaluation, ``SystemHandle`` methods,
tree weights, term helpers) are only counted: there are millions of them per
pass.  The other calls are kept as spans (name, start, end, parent, op id) in
memory and written out by ``dump`` after the pass.
"""

from __future__ import annotations

import inspect
import json
import operator
import sys
import time
from collections import defaultdict

# Calls made per object, value, rule or tree node: counted, not kept as spans.
_PER_ELEMENT_NAMES = {
    "aggregator.evaluate",
    "aggregator.max_var",
    "aggregator.mentions_x",
    "evaluator.tree_weight",
    "evaluator.truncate",
}


def _kept_as_span(name: str) -> bool:
    layer = name.split(".", 1)[0]
    if layer == "semiring" or name.startswith("system.SystemHandle."):
        return False
    if layer == "builtins":
        return name in ("builtins.builtin", "builtins.builtin_names")
    return name not in _PER_ELEMENT_NAMES


SEMIRING_OPS = ("plus", "times", "leq", "join")
EVALUATOR_CALLS = ("evaluator.weight_lower_bound", "evaluator.evaluate_to_fixpoint")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        # Inclusive seconds of calls entered from another layer, so nested
        # and recursive calls of one layer are not counted twice.
        self.entry_s: list[float] = []
        self.active: list[int] = []
        self.stack: list[list] = []
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.per_op: list[dict] = []
        self.op_id = -1
        self._restore: list[tuple] = []
        self._ids: dict[str, int] = {}
        self._conclude_visits: list[int] = []
        self._t0 = time.perf_counter()
        # Hooks test these by id, so they exist before any wrapper does.
        self._evaluator_ids = [self._id(n) for n in EVALUATOR_CALLS]
        self._evaluate_id = self._id("aggregator.evaluate")
        self._find_rule_id = self._id("system.SystemHandle.find_rule")
        self._conclude_id = self._id("unboundedness.conclude_unbounded")

    # -- installation -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(name.split(".", 1)[0])
            for column in (self.calls, self.incl, self.self_s, self.entry_s, self.active):
                column.append(0)
        return self._ids[name]

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: module
            for name, module in sys.modules.items()
            if name.startswith("wars.") and module is not None
        }
        originals = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    originals[value] = self._wrap(value, f"{short}.{attr}")
        sites = dict(modules, wars=sys.modules["wars"])
        for module in sites.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._restore.append((module, attr, value, True))
                    setattr(module, attr, originals[value])

        semiring = modules["semiring"]
        classes = [modules["system"].SystemHandle] + [
            cls
            for cls in vars(semiring).values()
            if inspect.isclass(cls)
            and issubclass(cls, semiring.Semiring)
            and cls is not semiring.Semiring
            and not cls.__name__.startswith("_")
        ]
        for cls in classes:
            layer = cls.__module__.split(".", 1)[1]
            for attr in dir(cls):
                value = getattr(cls, attr)
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                self._restore.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
                setattr(cls, attr, self._wrap(value, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, value, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        layer = self.layer[nid]
        layers = self.layer
        stack, active = self.stack, self.active
        calls, incl, self_s, entry_s = self.calls, self.incl, self.self_s, self.entry_s
        spans = self.spans
        record = _kept_as_span(name)
        on_enter = self._enter_hook(name)
        on_result = self._result_hook(name)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if on_enter is not None:
                on_enter(parent)
            # frame: name id, seconds spent in children, own span index,
            # index of the nearest recorded ancestor span.
            frame = [nid, 0.0, -1, parent[3] if parent is not None else -1]
            if record:
                frame[2] = frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            active[nid] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                active[nid] -= 1
                calls[nid] += 1
                incl[nid] += duration
                self_s[nid] += duration - frame[1]
                if parent is None:
                    entry_s[nid] += duration
                else:
                    parent[1] += duration
                    if layers[parent[0]] != layer:
                        entry_s[nid] += duration
                if record:
                    origin = tracer._t0
                    parent_span = parent[3] if parent is not None else -1
                    spans[frame[2]] = (nid, start - origin, end - origin, parent_span, tracer.op_id)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter_hook(self, name: str):
        counters, active = self.counters, self.active
        if name == "aggregator.evaluate":
            first, second = self._evaluator_ids

            def hook(parent):
                if active[first] or active[second]:
                    counters["evaluator.agg_evals"] += 1
            return hook
        if name == "aggregator.max_var":
            evaluate = self._evaluate_id

            def hook(parent):
                if active[evaluate]:
                    counters["aggregator.max_var_in_evaluate"] += 1
            return hook
        if name == "system.SystemHandle.successors":
            find_rule = self._find_rule_id

            def hook(parent):
                if parent is not None and parent[0] == find_rule:
                    counters["system.successors_in_find_rule"] += 1
            return hook
        return None

    def _result_hook(self, name: str):
        counters = self.counters
        if name in EVALUATOR_CALLS:
            def hook(bound):
                counters["evaluator.objects_visited"] += bound.visited
                counters["evaluator.levels"] += bound.depth_explored
                if self.active[self._conclude_id]:
                    self._conclude_visits.append(bound.visited)
            return hook
        if name == "evaluator.enumerate_trees":
            def hook(trees):
                counters["evaluator.trees_enumerated"] += operator.length_hint(trees)
            return hook
        if name == "boundedness.verify_embedding":
            def hook(report):
                counters["boundedness.instances_checked"] += int(report.details.get("instances_checked", 0))
            return hook
        if name == "unboundedness.find_loops":
            def hook(loops):
                counters["unboundedness.loops_found"] += len(loops)
            return hook
        if name == "unboundedness.analyze_loop":
            def hook(witness):
                counters["unboundedness.certified"] += witness.status == "certified"
            return hook
        return None

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._conclude_visits = []
        self._before = (list(self.calls), list(self.self_s), list(self.incl))

    def end_op(self, label: str, output_bytes: int) -> None:
        # Every name is registered by install(), so the columns keep their length.
        calls0, self0, incl0 = self._before
        rows = {
            self.names[i]: {
                "calls": self.calls[i] - calls0[i],
                "self_s": self.self_s[i] - self0[i],
                "incl_s": self.incl[i] - incl0[i],
            }
            for i in range(len(self.names))
            if self.calls[i] != calls0[i]
        }
        visits = self._conclude_visits
        if visits:
            self.counters["unboundedness.reexplore_ops"] += 1
            self.counters["unboundedness.reexplore_sum"] += sum(visits) / max(visits)
        self.counters["cli.output_bytes"] += output_bytes
        self.per_op.append({"op": self.op_id, "label": label, "output_bytes": output_bytes, "calls": rows})
        self.op_id = -1

    # -- results ------------------------------------------------------------

    def _sum(self, column, predicate) -> float:
        return sum(v for name, v in zip(self.names, column) if predicate(name))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, all of them, zero where a layer was not used."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        incl = dict(zip(self.names, self.incl))
        entry = dict(zip(self.names, self.entry_s))
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        def semiring_sum(column, methods):
            return self._sum(column, lambda n: n.startswith("semiring.") and n.rsplit(".", 1)[1] in methods)

        op_calls = semiring_sum(self.calls, SEMIRING_OPS)
        require_calls = semiring_sum(self.calls, ("require",))
        find_rule_calls = calls.get("system.SystemHandle.find_rule", 0)
        evaluate_calls = calls.get("aggregator.evaluate", 0)
        return {
            "cli.self_s": self._sum(self.self_s, lambda n: n.startswith("cli.")),
            "cli.output_bytes": c["cli.output_bytes"],
            "system.successors_calls": calls.get("system.SystemHandle.successors", 0),
            "system.successors_s": incl.get("system.SystemHandle.successors", 0.0),
            "system.find_rule_calls": find_rule_calls,
            "system.is_normal_form_calls": calls.get("system.SystemHandle.is_normal_form", 0),
            "system.successors_per_find_rule": ratio(c["system.successors_in_find_rule"], find_rule_calls),
            "system.load_calls": calls.get("system.load_explicit", 0),
            "system.load_s": entry.get("system.load_explicit", 0.0),
            "builtins.build_s": entry.get("builtins.builtin", 0.0),
            "evaluator.fixpoint_calls": calls.get("evaluator.evaluate_to_fixpoint", 0),
            "evaluator.fixpoint_self_s": self_s.get("evaluator.evaluate_to_fixpoint", 0.0),
            "evaluator.lower_bound_calls": calls.get("evaluator.weight_lower_bound", 0),
            "evaluator.lower_bound_self_s": self_s.get("evaluator.weight_lower_bound", 0.0),
            "evaluator.objects_visited": c["evaluator.objects_visited"],
            "evaluator.levels": c["evaluator.levels"],
            "evaluator.agg_evals_per_visited": ratio(c["evaluator.agg_evals"], c["evaluator.objects_visited"]),
            "evaluator.trees_enumerated": c["evaluator.trees_enumerated"],
            "evaluator.enumerate_s": entry.get("evaluator.enumerate_trees", 0.0),
            "evaluator.tree_weight_calls": calls.get("evaluator.tree_weight", 0),
            "evaluator.tree_weight_self_s": self_s.get("evaluator.tree_weight", 0.0),
            "aggregator.evaluate_calls": evaluate_calls,
            "aggregator.evaluate_self_s": self_s.get("aggregator.evaluate", 0.0),
            "aggregator.max_var_per_evaluate": ratio(c["aggregator.max_var_in_evaluate"], evaluate_calls),
            "aggregator.parse_calls": calls.get("aggregator.parse_expr", 0),
            "aggregator.parse_s": entry.get("aggregator.parse_expr", 0.0),
            "semiring.op_calls": op_calls,
            "semiring.op_s": semiring_sum(self.entry_s, SEMIRING_OPS),
            "semiring.require_calls": require_calls,
            "semiring.require_per_op": ratio(require_calls, op_calls),
            "semiring.format_s": semiring_sum(self.entry_s, ("format_literal",)),
            "boundedness.calls": self._sum(
                self.calls, lambda n: n == "boundedness.verify_embedding" or n.startswith("boundedness.check_")
            ),
            "boundedness.self_s": self._sum(self.self_s, lambda n: n.startswith("boundedness.")),
            "boundedness.instances_checked": c["boundedness.instances_checked"],
            "unboundedness.find_loops_s": entry.get("unboundedness.find_loops", 0.0),
            "unboundedness.loops_found": c["unboundedness.loops_found"],
            "unboundedness.certified": c["unboundedness.certified"],
            "unboundedness.analyze_s": entry.get("unboundedness.analyze_loop", 0.0),
            "unboundedness.conclude_s": entry.get("unboundedness.conclude_unbounded", 0.0),
            "unboundedness.reexplore_ratio": ratio(
                c["unboundedness.reexplore_sum"], c["unboundedness.reexplore_ops"]
            ),
        }

    def dump(self, path, header: dict) -> None:
        """Write the spans, per-op call tables and totals as one JSON file."""
        data = {
            **header,
            "names": self.names,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [span for span in self.spans if span is not None],
            "per_op": self.per_op,
            "totals": {
                name: {"calls": n, "self_s": s, "incl_s": i}
                for name, n, s, i in zip(self.names, self.calls, self.self_s, self.incl)
                if n
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
