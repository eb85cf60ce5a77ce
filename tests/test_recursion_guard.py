"""No new recursion in ``src/wars``.

Every module is parsed with ``ast`` and its call graph built by function
name: an edge from f to g when f's body calls g, or refers to g (a function
passed on may be called back), or calls ``self.g``/``cls.g``.  Names that f
binds itself (parameters, assignments) are not references.  Every cycle of
that graph must be on the allow-list below, with the reason it is bounded;
a new recursive walk over input-sized data fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wars"

ALLOWED = {
    ("aggregator.py", ("_affine_capable",)):
        "recurses on the components of a product carrier",
    ("aggregator.py", ("_compile", "_compile_countable", "_compile_node",
                       "compile_leaf", "countable")):
        "a countable sum compiles each generated term on first use; countable "
        "sums nest only as deep as the program that built them",
    ("semiring.py", ("descriptor_from_spec",)): "recurses on the nesting of product carriers",
    ("semiring.py", ("descriptor_to_spec",)): "recurses on the nesting of product carriers",
    ("unboundedness.py", ("_apply_aggregator", "substitute")):
        "a countable sum's generated terms are substituted in turn; countable "
        "sums nest only as deep as the program that built them",
    ("unboundedness.py", ("build",)):
        "the loop polynomial is built recursively over the loop tree, whose "
        "depth is bounded by the loop search depth",
}


def _functions(tree: ast.AST) -> list:
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _own_nodes(fn) -> list:
    """The nodes of a function's body, without those of nested functions and
    classes (whose names still count as references)."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _call_graph(tree: ast.AST) -> dict:
    functions = _functions(tree)
    names = {f.name for f in functions}
    graph: dict = {name: set() for name in names}
    for fn in functions:
        nodes = _own_nodes(fn)
        bound = {a.arg for n in [fn, *nodes] if isinstance(n, (ast.FunctionDef, ast.Lambda))
                 for a in ast.walk(n.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = node.id if node.id not in bound else None
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = node.attr if node.value.id in ("self", "cls") else None
            else:
                target = None
            if target in names:
                graph[fn.name].add(target)
    return graph


def _cycles(graph: dict) -> set:
    """The node sets of the graph's cycles: each strongly connected
    component that has an edge inside it."""
    reach = {}
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(graph[node])
        reach[start] = seen
    return {
        tuple(sorted(w for w in reach[v] if v in reach[w]))
        for v in graph
        if v in reach[v]
    }


def test_every_cycle_is_allowed():
    found = {
        (path.name, cycle)
        for path in sorted(SRC.glob("*.py"))
        for cycle in _cycles(_call_graph(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == set(ALLOWED)


def test_the_guard_sees_recursion():
    module = ast.parse(
        "def walk(e):\n"
        "    return [walk(c) for c in e.children]\n"
        "def outer(e, leaf):\n"
        "    def visit(x):\n"
        "        return outer(x, visit)\n"
        "    return helper(e, visit)\n"
        "def helper(e, fn):\n"
        "    return fn(e)\n"
        "class Parser:\n"
        "    def expr(self):\n"
        "        return self.term()\n"
        "    def term(self):\n"
        "        return self.expr()\n"
        "def bound(bound):\n"
        "    return bound + 1\n"
    )
    assert _cycles(_call_graph(module)) == {("walk",), ("outer", "visit"), ("expr", "term")}
