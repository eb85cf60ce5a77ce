"""The benchmark's own copy of the seeded small-system recipe for oracle runs.

This mirrors the generator the test suite uses (random explicit systems over
``nat_inf``, ``tropical`` and ``boolean`` whose brute-force tree enumeration
stays feasible) but lives here, so editing the tests cannot shift the
benchmark's inputs.  ``tree_stats`` counts, independently of ``wars``, the
trees the oracle will enumerate and the work of weighing them; the work
predicts an oracle op's cost and is what the oracle workload stratifies on.
"""

from __future__ import annotations

import random
import re

KINDS = ("nat_inf", "tropical", "boolean")
_TOKEN = re.compile(r"v\d+|\d+|inf|true|false|[+*]")


def _literal(rng: random.Random, kind: str) -> str:
    if kind == "boolean":
        return rng.choice(["true", "false"])
    if rng.random() < 0.05:
        return "inf"
    return str(rng.randrange(0, 4))


def _expr(rng: random.Random, arity: int, kind: str) -> str:
    def factor(depth):
        roll = rng.random()
        if roll < 0.5 and arity:
            return f"v{rng.randrange(1, arity + 1)}"
        if roll < 0.75 or depth >= 2:
            return _literal(rng, kind)
        return "(" + expr(depth + 1) + ")"

    def term(depth):
        count = 2 if rng.random() < 0.3 else 1
        return " * ".join(factor(depth) for _ in range(count))

    def expr(depth):
        count = 2 if rng.random() < 0.4 else 1
        return " + ".join(term(depth) for _ in range(count))

    return expr(0)


def _rhs_by_lhs(rules: list[dict]) -> dict[str, list[list[str]]]:
    by_lhs: dict[str, list] = {}
    for r in rules:
        by_lhs.setdefault(r["lhs"], []).append(r["rhs"])
    return by_lhs


def _worst_tree_count(rules: list[dict], objects: set[str], depth: int) -> int:
    """Largest number of reduction trees any object admits up to ``depth``."""
    by_lhs = _rhs_by_lhs(rules)
    counts = {obj: 1 for obj in objects}
    worst = 1
    for _ in range(depth):
        counts = {
            obj: 1 + sum(_product(counts[b] for b in rhs) for rhs in by_lhs.get(obj, []))
            for obj in objects
        }
        worst = max(worst, max(counts.values()))
    return worst


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def random_system_json(seed: int, max_trees: int = 10_000, oracle_depth: int = 4) -> dict:
    """A small explicit system; explosive drafts are deterministically redrawn
    so brute-force tree enumeration up to ``oracle_depth`` stays feasible."""
    attempt = seed
    while True:
        rng = random.Random(attempt)
        kind = KINDS[seed % len(KINDS)]
        names = [f"a{i}" for i in range(rng.randrange(3, 7))]

        rules = []
        for obj in names:
            for j in range(rng.choices([0, 1, 2, 3], weights=[35, 30, 20, 15])[0]):
                length = rng.choices([1, 2, 3], weights=[50, 30, 20])[0]
                rhs = [rng.choice(names) for _ in range(length)]
                rules.append(
                    {"lhs": obj, "rhs": rhs, "agg": _expr(rng, length, kind), "tag": f"{obj}r{j}"}
                )

        mentioned = {r["lhs"] for r in rules} | {b for r in rules for b in r["rhs"]}
        if not mentioned:
            mentioned = {names[0]}
        if _worst_tree_count(rules, mentioned, oracle_depth) <= max_trees:
            ruled = {r["lhs"] for r in rules}
            nf = {obj: _literal(rng, kind) for obj in sorted(mentioned - ruled)}
            return {"semiring": {"kind": kind}, "rules": rules, "nf": nf}
        attempt = attempt * 7919 + 1


def objects_of(data: dict) -> list[str]:
    rules = data["rules"]
    return sorted({r["lhs"] for r in rules} | {b for r in rules for b in r["rhs"]} | set(data["nf"]))


def tree_stats(data: dict, depth: int) -> tuple[int, int]:
    """(trees, work) summed over every object and every depth 0..``depth``.

    These are the trees ``wars oracle --depth depth`` enumerates and weighs:
    a tree of depth at most d is a leaf, or one rule whose children are trees
    of depth at most d - 1.  ``work`` counts every tree node, an inner node
    weighted by the token count of its rule's aggregator plus one, which
    predicts an oracle op's cost within about 13% (1.4 microseconds per unit
    at the baseline).
    """
    by_lhs: dict[str, list] = {}
    for r in data["rules"]:
        tokens = len(_TOKEN.findall(r["agg"]))
        by_lhs.setdefault(r["lhs"], []).append((r["rhs"], 1 + tokens))
    objects = objects_of(data)
    count = {obj: 1 for obj in objects}
    work = {obj: 1 for obj in objects}
    total_trees = total_work = len(objects)
    for _ in range(depth):
        new_count, new_work = {}, {}
        for obj in objects:
            c = w = 1
            for rhs, node_cost in by_lhs.get(obj, []):
                combos = _product(count[b] for b in rhs)
                c += combos
                # Each combination adds one root; child i appears in
                # combos / count[b_i] combinations per tree of its own.
                w += combos * node_cost + sum(work[b] * (combos // count[b]) for b in rhs)
            new_count[obj], new_work[obj] = c, w
        count, work = new_count, new_work
        total_trees += sum(count.values())
        total_work += sum(work.values())
    return total_trees, total_work
