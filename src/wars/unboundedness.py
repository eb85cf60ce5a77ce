"""Unboundedness via increasing loops.

A finite reduction tree whose root and some other leaf carry the same object
describes a loop.  Evaluating the tree with that leaf as a variable X gives a
polynomial; if applying it always gains at least a fixed increment t whose
infinite self-sum is the semiring maximum, iterating the loop drives the
object's weight to the maximum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from . import aggregator as agg
from .aggregator import ArityError, Const, Var, X
from .evaluator import DEFAULT_COUNT_CAP, CountCapExceeded, ReductionTree, _weigher
from .semiring import NatInf, RealInf, Semiring
from .system import DEFAULT_RULE_BUDGET, MAX_AGGREGATOR_DEPTH, SystemHandle

CERTIFIED = "certified"
CANDIDATE = "candidate"


class UnboundednessError(Exception):
    pass


class UncertifiedWitnessError(UnboundednessError):
    pass


@dataclass
class LoopWitness:
    """A loop tree with its designated leaf, polynomial, and increment."""

    tree: ReductionTree
    leaf_path: tuple
    polynomial: object
    status: str = CANDIDATE
    t: object = None

    @property
    def root(self):
        return self.tree.label

    def trace(self) -> list[str]:
        """Rule tags along the path from the root to the designated leaf."""
        return list(_tag_path(self.tree, self.leaf_path))


@dataclass
class UnboundednessReport:
    """``cross_check`` holds the loop's depth and, as literals, the weight of
    k nested copies of the loop for k = 1..5 (``iteration_values``).  The
    witness holds the rest: its root, increment, polynomial and trace."""

    method: str = "increasing-loop"
    cross_check: dict | None = None


def find_loops(
    sys: SystemHandle,
    start,
    max_depth: int,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    max_witnesses: int = 16,
) -> list[tuple[ReductionTree, tuple]]:
    """Rule paths of at most ``max_depth`` steps from the one object ``start``
    back to it, as (tree, leaf path) pairs.

    A breadth-first walk over the rows: each level extends every (object,
    rule-tag path) of the level before by each rule, in rule order, and each
    child position, in order, and keeps the first path per key; a child
    equal to the start closes a loop.  So loops come by depth, then by rule
    order along the path, then by child position, one per tag path, and the
    walk stops at ``max_witnesses`` loops.  A loop's tree applies its path's
    rules and leaves every other child bare, so its depth is its path's
    length.  ``DEFAULT_COUNT_CAP`` bounds the rule paths (extensions by one
    rule and child position), counted per level before it is built.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_witnesses < 1:
        raise ValueError("max_witnesses must be >= 1")
    # Hashes first: an unequal object then differs without a comparison,
    # which recurses as deep as the two objects share a shape.
    start_hash = hash(start)
    rows = functools.cache(lambda obj: sys._rows(obj, rule_budget)[0])
    # A level maps (object, tag path) to how the walk got there: (the object
    # before, its own link, the row applied, the child position), or None at
    # the start.
    level = {(start, ()): None}
    out, paths = [], 0
    for depth in range(1, max_depth + 1):
        paths += sum(len(row[1]) for obj, _ in level for row in rows(obj))
        if paths > DEFAULT_COUNT_CAP:
            raise CountCapExceeded(f"more than {DEFAULT_COUNT_CAP} rule paths at depth {depth}")
        previous, level = level, {}
        for (obj, tags), link in previous.items():
            for row in rows(obj):
                path = tags + (row[3],)
                for pos, child in enumerate(row[1]):
                    if (child, path) in level:
                        continue
                    step = level[child, path] = (obj, link, row, pos)
                    if hash(child) == start_hash and child == start:
                        out.append(_loop_tree(child, step))
                        if len(out) >= max_witnesses:
                            return out
    return out


def _loop_tree(leaf, link) -> tuple[ReductionTree, tuple]:
    """The tree and leaf path that ``link`` leads along down to ``leaf``:
    the rules of the path applied, every child off the path a bare leaf."""
    tree, positions = ReductionTree(leaf), []
    while link is not None:
        obj, link, row, pos = link
        kids = tuple(map(ReductionTree, row[1]))
        tree = ReductionTree(obj, row[3], kids[:pos] + (tree,) + kids[pos + 1:])
        positions.append(pos)
    return tree, tuple(reversed(positions))


def _path_nodes(tree: ReductionTree, path: tuple) -> list:
    """The nodes from the root down to the node at ``path``, both included."""
    nodes = [tree]
    for idx in path:
        nodes.append(nodes[-1].children[idx])
    return nodes


def _tag_path(tree: ReductionTree, path: tuple) -> tuple:
    return tuple(node.rule_tag for node in _path_nodes(tree, path)[:-1])


def induced_polynomial(sys: SystemHandle, tree: ReductionTree, leaf_path: tuple):
    """Tree weight as an expression in X, with the designated leaf as X.

    The rules on the path from the root to that leaf are applied
    symbolically, bottom up; every subtree off the path enters as the
    constant ``tree_weight`` gives it, all weighed by one weigher.  Constant
    subtrees are then folded, so the result mentions X and constants only.
    """
    desc = sys.semiring
    weigh = _weigher(sys, agg.DEFAULT_TRUNCATION)
    nodes = _path_nodes(tree, leaf_path)
    if nodes[-1].children:
        raise UnboundednessError("the designated node is not a leaf")
    expr = X
    for node, on_path in zip(reversed(nodes[:-1]), reversed(leaf_path)):
        rule = sys.find_rule(node.label, node.rule_tag)
        child_exprs = [
            expr if i == on_path else Const(weigh(child))
            for i, child in enumerate(node.children)
        ]
        expr = _apply_aggregator(rule.aggregator, child_exprs, desc)

    polynomial = agg.fold_constants(expr, desc)
    # The polynomial nests an aggregator once per loop step; its compiled
    # form nests a stack frame per level when called.
    if polynomial.facts[3] > MAX_AGGREGATOR_DEPTH:
        raise UnboundednessError(
            f"the loop polynomial nests deeper than {MAX_AGGREGATOR_DEPTH} levels"
        )
    return polynomial


def _apply_aggregator(expr, child_exprs, desc, truncation: int = agg.DEFAULT_TRUNCATION):
    """Substitute child expressions for the rule variables in the cut form
    of ``expr``, which the compiled aggregator reads.  A variable beyond the
    children raises the ``ArityError`` that it raises, for the largest one."""
    arity = len(child_exprs)
    form = agg._cut(expr, desc, arity, truncation)[0]
    mv = agg.max_var(form)
    if mv > arity:
        raise ArityError(agg._arity_message(mv, arity))

    def substitute(e):
        if isinstance(e, Var):
            return child_exprs[e.index - 1]
        if isinstance(e, Const):
            return e
        raise UnboundednessError(f"cannot substitute into {e!r}")

    return agg._reduce(form, substitute, agg._rebuild)


def certify_loop(desc: Semiring, polynomial) -> Optional[tuple]:
    """Search for an increment t that the polynomial always gains.

    Certification requires the infinite self-sum of t to be the maximum and
    the polynomial to dominate s plus t for every s.  The universal condition
    is decided exactly via affine extraction over the counting carriers and by
    exhaustion over the two-element boolean carrier; elsewhere it is probed on
    a finite value set, which yields only a candidate.  A polynomial with
    a variable vN or a countable sum is refused.
    """
    _, mv, countable, _ = agg._facts(polynomial)
    if mv != 0 or countable:
        raise UnboundednessError("loop polynomials mention X and constants only")

    candidates = []
    affine = agg.extract_affine(polynomial, desc)
    if affine is not None:
        candidates.append(affine[1])
    candidates.append(desc.one)

    seen = []
    for t in candidates:
        if any(t == prev for prev in seen):
            continue
        seen.append(t)
        if t == desc.zero or desc.omega_sum(t) != desc.top:
            continue
        if t == desc.top and desc.kind != "boolean":
            continue

        if affine is not None and isinstance(desc, (NatInf, RealInf)):
            c, d = affine
            if desc.leq(desc.one, c) and desc.leq(t, d):
                return t, CERTIFIED
            continue
        poly_at = agg._as_function(polynomial, desc)
        # The boolean probe values are its whole carrier.
        if all(desc.leq(desc.plus(s, t), poly_at(s)) for s in desc.probe_values()):
            return t, CERTIFIED if desc.kind == "boolean" else CANDIDATE
    return None


def analyze_loop(sys: SystemHandle, tree: ReductionTree, leaf_path: tuple) -> LoopWitness:
    """Build the witness for one loop candidate: polynomial plus certification."""
    polynomial = induced_polynomial(sys, tree, leaf_path)
    witness = LoopWitness(tree, leaf_path, polynomial)
    result = certify_loop(sys.semiring, polynomial)
    if result is not None:
        witness.t, witness.status = result
    return witness


def conclude_unbounded(sys: SystemHandle, witness: LoopWitness) -> UnboundednessReport:
    """Turn a certified loop into an unboundedness verdict for its root.

    Checks the polynomial P against the naive oracle: for k = 1..5 the
    tree of k nested copies of the loop (the loop grafted into its own
    designated leaf k - 1 times) must weigh P^k(zero) under ``tree_weight``,
    and the weights must not drop and must cover k increments.  Any
    mismatch raises ``UnboundednessError``.  One weigher weighs them all, so
    copy k walks only its new path and reads copy k - 1's weight.
    """
    if witness.status != CERTIFIED:
        raise UncertifiedWitnessError("only a certified loop witness proves unboundedness")
    desc = sys.semiring
    poly_at = agg._as_function(witness.polynomial, desc)
    weigh = _weigher(sys, agg.DEFAULT_TRUNCATION)
    pumped, values = witness.tree, []
    expected = accumulated = previous = desc.zero
    for k in range(1, 6):
        if k > 1:
            pumped = _graft(witness.tree, witness.leaf_path, pumped)
        weight = weigh(pumped)
        expected = poly_at(expected)
        accumulated = desc.plus(accumulated, witness.t)
        if weight != expected:
            raise UnboundednessError(
                f"at k={k} the pumped loop weighs {desc.format_literal(weight)}, "
                f"but its polynomial gives {desc.format_literal(expected)}"
            )
        if not desc.leq(previous, weight):
            raise UnboundednessError(f"the pumped loop's weight dropped at k={k}")
        if not desc.leq(accumulated, weight):
            raise UnboundednessError(f"the pumped loop does not cover {k} increments")
        previous = weight
        values.append(desc.format_literal(weight))

    return UnboundednessReport(
        cross_check={"iteration_values": values, "loop_depth": witness.tree.depth()},
    )


def _graft(tree: ReductionTree, path: tuple, scion: ReductionTree) -> ReductionTree:
    """``tree`` with ``scion`` in place of the leaf at ``path``.  Only the
    nodes on the path are rebuilt; every subtree off it is shared."""
    nodes = _path_nodes(tree, path[:-1])
    for node, idx in zip(reversed(nodes), reversed(path)):
        kids = node.children
        scion = ReductionTree(node.label, node.rule_tag, kids[:idx] + (scion,) + kids[idx + 1:])
    return scion
