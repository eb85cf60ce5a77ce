"""Answers the benchmark checks ``wars`` against, computed without ``wars``.

Every function here is a textbook algorithm on the benchmark's own input
description: an exact-``Fraction`` dynamic program for the biased walk,
longest paths on DAGs for chains and ladders, Dijkstra for tropical graphs,
breadth-first search for boolean graphs.  None of them recurses, so input
size never meets Python's recursion limit.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

INF_TEXT = "inf"


def fmt_number(value) -> str:
    """A carrier literal as ``wars`` prints it: ``p/q``, ``n`` or ``inf``."""
    if value is None:
        return INF_TEXT
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def walk_value(start: int, depth: int, expected_steps: bool) -> Fraction:
    """Depth-``depth`` value of the biased walk at ``start``.

    Level 0 weighs the normal form 0 by its interpretation (1 for the
    termination probability, 0 for expected steps) and every other position
    by 0; each level applies ``[1 +] 2/3 v(n-1) + 1/3 v(n+1)``.  Level k is
    kept as the integers ``3**k * v`` so the recurrence needs no fractions,
    and only the cone of positions the start's value depends on is kept.
    """
    step = 1 if expected_steps else 0
    nf_value = 0 if expected_steps else 1
    scaled = {n: (nf_value if n == 0 else 0) for n in range(max(0, start - depth), start + depth + 1)}
    scale = 1
    for level in range(1, depth + 1):
        scale *= 3
        radius = depth - level
        scaled = {
            n: scale * nf_value if n == 0 else scale * step + 2 * scaled[n - 1] + scaled[n + 1]
            for n in range(max(0, start - radius), start + radius + 1)
        }
    return Fraction(scaled[start], scale)


def walk_ball(start: int, depth: int) -> int:
    """Positions within ``depth`` steps of ``start``; 0 is a normal form."""
    return start + depth - max(0, start - depth) + 1


@dataclass
class Graph:
    """An explicit system whose rules each have one successor.

    ``rules[a]`` lists ``(tag, successor, constant)``; the aggregator is
    ``constant + v1`` over ``nat_inf``, ``constant * v1`` over ``tropical``
    (both mean adding the constant) and ``v1`` over ``boolean``.
    """

    kind: str
    rules: dict[str, list[tuple[str, str, int]]] = field(default_factory=dict)
    nf: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        op = {"nat_inf": "+", "tropical": "*"}.get(self.kind)
        rules = []
        for lhs, entries in self.rules.items():
            for tag, succ, const in entries:
                agg = "v1" if op is None else f"{const} {op} v1"
                rules.append({"lhs": lhs, "rhs": [succ], "agg": agg, "tag": tag})
        nf = {label: _literal(value) for label, value in self.nf.items()}
        return {"semiring": {"kind": self.kind}, "rules": rules, "nf": nf}

    def objects(self) -> list[str]:
        labels = set(self.rules) | set(self.nf)
        for entries in self.rules.values():
            labels.update(succ for _, succ, _ in entries)
        return sorted(labels)

    def reachable(self, start: str) -> set[str]:
        seen, queue = {start}, deque([start])
        while queue:
            a = queue.popleft()
            for _, b, _ in self.rules.get(a, []):
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return seen

    def is_acyclic(self) -> bool:
        indegree = {a: 0 for a in self.objects()}
        for entries in self.rules.values():
            for _, b, _ in entries:
                indegree[b] += 1
        queue = deque(a for a, d in indegree.items() if d == 0)
        removed = 0
        while queue:
            a = queue.popleft()
            removed += 1
            for _, b, _ in self.rules.get(a, []):
                indegree[b] -= 1
                if indegree[b] == 0:
                    queue.append(b)
        return removed == len(indegree)

    def _reverse_topological(self) -> list[str]:
        """Successors before predecessors; the graph must be acyclic."""
        outdegree = {a: len(self.rules.get(a, [])) for a in self.objects()}
        preds: dict[str, list[str]] = {}
        for a, entries in self.rules.items():
            for _, b, _ in entries:
                preds.setdefault(b, []).append(a)
        queue = deque(a for a, d in outdegree.items() if d == 0)
        order = []
        while queue:
            b = queue.popleft()
            order.append(b)
            for a in preds.get(b, []):
                outdegree[a] -= 1
                if outdegree[a] == 0:
                    queue.append(a)
        return order

    def longest_paths(self) -> tuple[dict[str, int], dict[str, int]]:
        """``nat_inf`` weights (heaviest path to a normal form) and heights
        (longest path in rule steps) of every object of an acyclic graph."""
        weight, height = {}, {}
        for a in self._reverse_topological():
            if a in self.nf:
                weight[a], height[a] = self.nf[a], 0
                continue
            weight[a] = max(c + weight[b] for _, b, c in self.rules[a])
            height[a] = 1 + max(height[b] for _, b, _ in self.rules[a])
        return weight, height

    def shortest_paths(self) -> dict[str, object]:
        """``tropical`` weights by Dijkstra from the normal forms backwards;
        None stands for ``inf`` (no normal form reachable)."""
        preds: dict[str, list[tuple[str, int]]] = {}
        for a, entries in self.rules.items():
            for _, b, c in entries:
                preds.setdefault(b, []).append((a, c))
        dist = {a: None for a in self.objects()}
        heap = [(w, a) for a, w in self.nf.items()]
        heapq.heapify(heap)
        while heap:
            d, b = heapq.heappop(heap)
            if dist[b] is not None:
                continue
            dist[b] = d
            for a, c in preds.get(b, []):
                if dist[a] is None:
                    heapq.heappush(heap, (d + c, a))
        return dist

    def true_reachable(self) -> set[str]:
        """``boolean`` weights: objects from which a true normal form is
        reachable, by breadth-first search over reversed rules."""
        preds: dict[str, list[str]] = {}
        for a, entries in self.rules.items():
            for _, b, _ in entries:
                preds.setdefault(b, []).append(a)
        seen = {a for a, v in self.nf.items() if v is True}
        queue = deque(seen)
        while queue:
            b = queue.popleft()
            for a in preds.get(b, []):
                if a not in seen:
                    seen.add(a)
                    queue.append(a)
        return seen


def _literal(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


# Known answers of `wars loop` on the built-in two-process scheduler.  From
# idle() a loop of depth 4 waits, enqueues P1 (or P2), runs and serves it,
# ending in idle() again; from wait(P1) the only depth-4 return enqueues P1
# behind P1 and serves the head.  Returning to idle(P1P2) needs 8 steps, so
# depths 4..6 find nothing there.  Under step counting each of the 4 steps
# adds 1, so the increment is t=4, and along an infinite path the depth-D
# lower bound is exactly D: the cross-check reads 4, 8, 12, 16, 20.
_SCHED_LOOPS = {
    "idle()": [
        ["idle_wait", "wait_P1", "idle_run", "run_P1"],
        ["idle_wait", "wait_P2", "idle_run", "run_P2"],
    ],
    "wait(P1)": [["wait_P1", "idle_run", "run_P1", "idle_wait"]],
    "idle(P1P2)": [],
}


@dataclass(frozen=True)
class LoopAnswer:
    exit_code: int
    traces: list
    status: str
    t: object
    iteration_values: list | None


def loop_answer(system: str, start: str) -> LoopAnswer:
    """Known outcome of ``wars loop`` on a scheduler system at depths 4..6.

    ``os_runtime`` counts steps, so its loops certify with t=4 and conclude
    unbounded (exit 0).  The queue-size, service-count and service-language
    carriers (``os_size``, ``os_starv``, ``os_fair``) leave the same loops as
    candidates without a certified increment (exit 3).  No loop: exit 4.
    """
    traces = _SCHED_LOOPS[start]
    if not traces:
        return LoopAnswer(4, [], "", None, None)
    if system == "os_runtime":
        return LoopAnswer(0, traces, "certified", "4", ["4", "8", "12", "16", "20"])
    return LoopAnswer(3, traces, "candidate", None, None)
