"""Unboundedness via increasing loops.

A finite reduction tree whose root and some other leaf carry the same object
describes a loop.  Evaluating the tree with that leaf as a variable X gives a
polynomial; if applying it always gains at least a fixed increment t whose
infinite self-sum is the semiring maximum, iterating the loop drives the
object's weight to the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import aggregator as agg
from .aggregator import Const, CountableSum, SumNode, Var, X, XVar
from .evaluator import DepthProfile, ReductionTree, enumerate_trees
from .semiring import NatInf, RealInf, Semiring
from .system import MAX_AGGREGATOR_DEPTH, SystemHandle

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
    object_label: str
    t_literal: str
    polynomial: str
    trace: list[str]
    method: str = "increasing-loop"
    cross_check: dict | None = None


def find_loops(
    sys: SystemHandle,
    start,
    max_depth: int,
    rule_budget: int = 8,
    count_cap: int = 200_000,
    max_witnesses: int = 16,
) -> list[tuple[ReductionTree, tuple]]:
    """Trees rooted at a start object with some deeper leaf equal to the root.

    Smallest depth first, deterministic order, deduplicated by the rule-tag
    path from the root to the repeated leaf.  Returns (tree, leaf path) pairs.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    # Object ids may themselves be tuples, so only list/set mean a start set.
    starts = list(start) if isinstance(start, (list, set)) else [start]

    candidates = []
    for s in starts:
        for index, tree in enumerate(
            enumerate_trees(sys, s, max_depth, rule_budget, count_cap)
        ):
            for path in _loop_leaves(tree):
                candidates.append((tree.depth(), index, tree, path))

    candidates.sort(key=lambda item: (item[0], item[1], item[3]))
    out, seen = [], set()
    for _, _, tree, path in candidates:
        key = (tree.label, _tag_path(tree, path))
        if key in seen:
            continue
        seen.add(key)
        out.append((tree, path))
        if len(out) >= max_witnesses:
            break
    return out


def _loop_leaves(tree: ReductionTree):
    """The paths to the leaves below the root that carry the root's object,
    left to right, walked with an explicit stack."""
    nodes, path = [tree], []
    # Hashes first: an unequal object then differs without a comparison,
    # which recurses as deep as the two objects share a shape.
    root = hash(tree.label)
    while True:
        node = nodes[-1]
        if node.children:
            nodes.append(node.children[0])
            path.append(0)
            continue
        if path and hash(node.label) == root and node.label == tree.label:
            yield tuple(path)
        # Climb to the nearest ancestor with a child still to visit.
        while path:
            nodes.pop()
            i = path.pop() + 1
            if i < len(nodes[-1].children):
                nodes.append(nodes[-1].children[i])
                path.append(i)
                break
        else:
            return


def _tag_path(tree: ReductionTree, path: tuple) -> tuple:
    tags, node = [], tree
    for idx in path:
        tags.append(node.rule_tag)
        node = node.children[idx]
    return tuple(tags)


def induced_polynomial(sys: SystemHandle, tree: ReductionTree, leaf_path: tuple):
    """Tree weight as an expression in X, with the designated leaf as X.

    Other normal-form leaves contribute their weights, other leaves the
    semiring minimum; aggregators are applied symbolically and constant
    subtrees are folded, so the result mentions X and constants only.
    """
    desc = sys.semiring
    if _node_at(tree, leaf_path).children:
        raise UnboundednessError("the designated node is not a leaf")

    def build(node, remaining):
        if remaining == ():
            return X
        if not node.children:
            if sys.is_normal_form(node.label):
                return Const(sys.nf_weight(node.label))
            return Const(desc.zero)
        rule = sys.find_rule(node.label, node.rule_tag)
        child_exprs = []
        for i, child in enumerate(node.children):
            sub = remaining[1:] if remaining and remaining[0] == i else None
            child_exprs.append(build(child, sub if sub is not None else _OFF_PATH))
        return _apply_aggregator(rule.aggregator, child_exprs, desc)

    polynomial = agg.fold_constants(build(tree, leaf_path), desc)
    # The polynomial nests an aggregator once per loop step; its compiled
    # form nests a stack frame per level when called.
    if agg.nesting_depth(polynomial) > MAX_AGGREGATOR_DEPTH:
        raise UnboundednessError(
            f"the loop polynomial nests deeper than {MAX_AGGREGATOR_DEPTH} levels"
        )
    return polynomial


_OFF_PATH = ("off",)


def _node_at(tree, path):
    node = tree
    for idx in path:
        node = node.children[idx]
    return node


def _apply_aggregator(expr, child_exprs, desc, truncation: int = 64):
    """Substitute child expressions for the rule variables."""

    def substitute(e):
        if isinstance(e, Const):
            return e
        if isinstance(e, Var):
            if e.index > len(child_exprs):
                return Const(desc.zero)
            return child_exprs[e.index - 1]
        if not isinstance(e, CountableSum):
            raise UnboundednessError(f"cannot substitute into {e!r}")
        terms = []
        for i in range(truncation):
            term = e.term(i)
            if term is None:
                break
            mv = agg.max_var(term)
            if isinstance(mv, int) and mv <= len(child_exprs):
                terms.append(_apply_aggregator(term, child_exprs, desc, truncation))
        return SumNode(tuple(terms)) if terms else Const(desc.zero)

    return agg._reduce(expr, substitute, agg._rebuild)


def certify_loop(desc: Semiring, polynomial) -> Optional[tuple]:
    """Search for an increment t that the polynomial always gains.

    Certification requires the infinite self-sum of t to be the maximum and
    the polynomial to dominate s plus t for every s.  The universal condition
    is decided exactly via affine extraction over the counting carriers and by
    exhaustion over the two-element boolean carrier; elsewhere it is probed on
    a finite value set, which yields only a candidate.
    """
    if not _mentions_only_x(polynomial):
        raise UnboundednessError("loop polynomials mention X and constants only")

    candidates = []
    affine = agg.extract_affine(polynomial, desc)
    if affine is not None:
        candidates.append(affine[1])
    candidates.append(desc.one)

    # The polynomial as a function of X, which becomes its one variable.
    compiled = agg._compiled(agg.substitute_x(polynomial, Var(1)), desc, 1)

    def poly_at(s):
        return compiled([s], agg.DEFAULT_TRUNCATION, None)

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
        if desc.kind == "boolean":
            if all(
                desc.leq(desc.plus(s, t), poly_at(s))
                for s in (False, True)
            ):
                return t, CERTIFIED
            continue
        if all(
            desc.leq(desc.plus(s, t), poly_at(s))
            for s in desc.probe_values()
        ):
            return t, CANDIDATE
    return None


def _mentions_only_x(expr) -> bool:
    return agg._reduce(
        expr, lambda e: isinstance(e, (Const, XVar)), lambda e, values: all(values)
    )


def analyze_loop(sys: SystemHandle, tree: ReductionTree, leaf_path: tuple) -> LoopWitness:
    """Build the witness for one loop candidate: polynomial plus certification."""
    polynomial = induced_polynomial(sys, tree, leaf_path)
    witness = LoopWitness(tree, leaf_path, polynomial)
    result = certify_loop(sys.semiring, polynomial)
    if result is not None:
        witness.t, witness.status = result
    return witness


def conclude_unbounded(
    sys: SystemHandle,
    witness: LoopWitness,
    k_max: int = 5,
    rule_budget: int = 64,
    branch_trunc: int = 64,
    visit_cap: int = 100_000,
) -> UnboundednessReport:
    """Turn a certified loop into an unboundedness verdict for its root.

    Cross-checks the evaluator: the depth-indexed lower bound at multiples of
    the loop depth must climb at least as fast as the accumulated increments.
    """
    return conclude_witnesses(
        sys, [witness], k_max, rule_budget, branch_trunc, visit_cap
    )[0]


def conclude_witnesses(
    sys: SystemHandle,
    witnesses: list,
    k_max: int = 5,
    rule_budget: int = 64,
    branch_trunc: int = 64,
    visit_cap: int = 100_000,
) -> list[UnboundednessReport]:
    """``conclude_unbounded`` for each witness in turn, from one pass per root.

    Each root is evaluated once, to ``k_max`` times its deepest loop.  The
    checks then run witness by witness and ``k`` by ``k``, so a failed check
    or a visit cap hit is raised at the same witness and ``k`` as when every
    depth is evaluated on its own.
    """
    for witness in witnesses:
        if witness.status != CERTIFIED:
            raise UncertifiedWitnessError(
                "only a certified loop witness proves unboundedness"
            )
    radius: dict = {}
    for witness in witnesses:
        depth = k_max * witness.tree.depth()
        radius[witness.root] = max(radius.get(witness.root, 0), depth)
    profiles = {
        root: DepthProfile(sys, root, depth, rule_budget, branch_trunc, visit_cap)
        for root, depth in radius.items()
    }
    return [_conclude(sys, w, profiles[w.root], k_max) for w in witnesses]


def _conclude(sys, witness, profile, k_max) -> UnboundednessReport:
    desc = sys.semiring
    loop_depth = witness.tree.depth()
    values = []
    accumulated = desc.zero
    previous = desc.zero
    for k in range(1, k_max + 1):
        bound = profile.bound(k * loop_depth)
        accumulated = desc.plus(accumulated, witness.t)
        if not desc.leq(previous, bound.value):
            raise UnboundednessError(
                f"lower bound dropped between loop iterations at k={k}"
            )
        if not desc.leq(accumulated, bound.value):
            raise UnboundednessError(
                f"lower bound does not cover {k} accumulated increments"
            )
        previous = bound.value
        values.append(desc.format_literal(bound.value))

    return UnboundednessReport(
        object_label=sys.format_object(witness.root),
        t_literal=desc.format_literal(witness.t),
        polynomial=agg.format_expr(witness.polynomial, desc),
        trace=witness.trace(),
        cross_check={"iteration_values": values, "loop_depth": loop_depth},
    )
