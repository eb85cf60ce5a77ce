"""Built-in weighted reduction systems used throughout the analyses and tests.

Successors are rows, made unchecked: every aggregator is a constant of this
module, so every row is valid as made, but the empty jump of
``geometric_walk(prefix=n)`` for n <= 0, which is refused where it is made.
Each handle builds each distinct rule aggregator once and shares it among
the rows made from it, so its facts and compiled forms are computed once.
No expression is kept at module level: an expression holds the carriers it
was compiled for, and some families build a carrier per handle.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import re
from fractions import Fraction

from .aggregator import Const, CountableSum, ProdNode, SumNode, Var
from .semiring import (
    ARCTIC,
    BOOLEAN,
    INF,
    NAT_INF,
    REAL_INF,
    TROPICAL,
    Language,
    Product,
)
from .system import Flags, SystemError_, SystemHandle, cplx_wrap


def _flags(terminating: bool, finite: bool = True) -> Flags:
    """A finitely non-deterministic built-in's flags.  No built-in aggregator
    has a constant top, so they are finite exactly when its successor
    sequences are."""
    return Flags(finitely_nondeterministic=True, finitely_branching=finite,
                 terminating=terminating, aggregators_finite_no_top=finite)


# ---------------------------------------------------------------------------
# Walks on the naturals, with 0 the only normal form.

def _naturals(name: str, rule, nf_value, finite: bool) -> SystemHandle:
    """A walk whose objects are the naturals: 0 is the normal form, weighing
    ``nf_value``, and ``rule(n)`` is the one row of every n > 0.  ``finite``
    says whether its successor sequences are."""

    def successors(n):
        if type(n) is not int or n < 0:
            raise SystemError_(f"walk positions are naturals, got {n!r}")
        return [rule(n)] if n else []

    return SystemHandle(
        name=name,
        semiring=REAL_INF,
        successors_fn=successors,
        nf_weight_fn=lambda n: nf_value,
        flags=_flags(terminating=False, finite=finite),
        parse_object_fn=int,
        enumerate_nfs_fn=lambda: [0],
        sample_objects_fn=lambda count: list(range(count)),
    )


def _walk(expected_steps: bool) -> SystemHandle:
    """Biased random walk: n steps down with weight 2/3, up with 1/3."""
    third = Fraction(1, 3)
    parts = (
        ProdNode((Const(2 * third), Var(1))),
        ProdNode((Const(third), Var(2))),
    )
    if expected_steps:
        step = SumNode((Const(Fraction(1)),) + parts)
        name, nf_value = "walk_expected", Fraction(0)
    else:
        step = SumNode(parts)
        name, nf_value = "walk_termprob", Fraction(1)
    return _naturals(name, lambda n: (n, (n - 1, n + 1), step, "step", True), nf_value, True)


def _geometric_walk(prefix: int = 16) -> SystemHandle:
    """Walk with an infinite-support jump: every step lands on m with weight (1/2)^(m+1)."""
    body = CountableSum(
        lambda m: ProdNode((Const(Fraction(1, 2 ** (m + 1))), Var(m + 1)))
    )
    rhs = tuple(range(prefix))

    def jump(n):
        if not rhs:
            raise SystemError_("rule jump: empty successor sequence")
        return (n, rhs, body, "jump", False)

    return _naturals("geometric_walk", jump, Fraction(1), False)


# ---------------------------------------------------------------------------
# A two-process scheduler: states idle/wait/run with a waiting queue over P1, P2.
# The queue grows at the tail and is served from the head; run(()) is the only
# normal form.

_PROCS = ("P1", "P2")
_PROC_SET = frozenset(_PROCS)


def _os_successors(agg_for):
    """``agg_for(kind, queue)`` is the aggregator of a state's rules."""

    def successors(state):
        kind, queue = state if type(state) is tuple and len(state) == 2 else (None, None)
        if type(queue) is not tuple or not _PROC_SET.issuperset(queue):
            raise SystemError_(f"not a scheduler state: {state!r}")
        # (successor, tag) per rule.
        if kind == "idle":
            steps = [(("wait", queue), "idle_wait"), (("run", queue), "idle_run")]
        elif kind == "wait":
            steps = [(("idle", queue + (proc,)), f"wait_{proc}") for proc in _PROCS]
        elif kind == "run":
            steps = [(("idle", queue[1:]), f"run_{queue[0]}")] if queue else []
        else:
            raise SystemError_(f"not a scheduler state: {state!r}")
        expr = agg_for(kind, queue) if steps else None
        return [(state, (b,), expr, tag, True) for b, tag in steps]

    return successors


_OS_STATE = re.compile(r"(idle|wait|run)\((.*)\)")


def _parse_os_state(text: str):
    m = _OS_STATE.fullmatch(text.strip())
    if not m:
        raise SystemError_(f"not a scheduler state: {text!r}")
    kind, body = m.groups()
    queue = []
    rest = body
    while rest:
        for proc in _PROCS:
            if rest.startswith(proc):
                queue.append(proc)
                rest = rest[len(proc):]
                break
        else:
            raise SystemError_(f"bad queue in {text!r}")
    return kind, tuple(queue)


def _format_os_state(state) -> str:
    kind, queue = state
    return f"{kind}({''.join(queue)})"


def _sample_os(count):
    # Deterministic breadth-first closure from idle(()).
    seen, frontier, out = set(), [("idle", ())], []
    v1 = Var(1)
    succ = _os_successors(lambda kind, queue: v1)
    while frontier and len(out) < count:
        state = frontier.pop(0)
        if state in seen:
            continue
        seen.add(state)
        out.append(state)
        for row in succ(state):
            frontier.extend(row[1])
    return out


def _os_common(name, semiring, agg_for, nf_value) -> SystemHandle:
    return SystemHandle(
        name=name,
        semiring=semiring,
        successors_fn=_os_successors(agg_for),
        nf_weight_fn=lambda state: nf_value,
        flags=_flags(terminating=False),
        parse_object_fn=_parse_os_state,
        format_object_fn=_format_os_state,
        enumerate_nfs_fn=lambda: [("run", ())],
        sample_objects_fn=_sample_os,
    )


def _os_size() -> SystemHandle:
    # Queue length tracking: waiting appends, so the step that grows the queue
    # takes the maximum of the successor weight and the new length.
    grow = functools.cache(lambda length: SumNode((Var(1), Const(length))))
    v1 = Var(1)

    def agg_for(kind, queue):
        return grow(len(queue) + 1) if kind == "wait" else v1

    return _os_common("os_size", ARCTIC, agg_for, 0)


def _os_fair() -> SystemHandle:
    lang = Language(_PROCS)
    serve = functools.cache(lambda proc: ProdNode((Const(frozenset({proc})), Var(1))))
    v1 = Var(1)

    def agg_for(kind, queue):
        return serve(queue[0]) if kind == "run" and queue else v1

    return _os_common("os_fair", lang, agg_for, frozenset({""}))


def _os_starv() -> SystemHandle:
    pair = Product((NAT_INF, NAT_INF))
    serve = functools.cache(
        lambda proc: SumNode((Const((1, 0) if proc == "P1" else (0, 1)), Var(1)))
    )
    v1 = Var(1)

    def agg_for(kind, queue):
        return serve(queue[0]) if kind == "run" and queue else v1

    return _os_common("os_starv", pair, agg_for, (0, 0))


def _os_runtime() -> SystemHandle:
    return cplx_wrap(_os_size())


# ---------------------------------------------------------------------------
# Walk on the integers combining step counting with an evenness-safety bit.

def _z_walk() -> SystemHandle:
    pair = Product((NAT_INF, BOOLEAN))
    step_for = functools.cache(lambda even: SumNode((Const((1, even)), Var(1))))

    def successors(n):
        if type(n) is not int:
            raise SystemError_(f"walk positions are integers, got {n!r}")
        if n == 0:
            return []
        even = n % 2 == 0
        step = step_for(even)
        if not even:
            row = (n, (n - 2,), step, "odd_down", True)
        elif n >= 2:
            row = (n, (n - 2,), step, "even_down", True)
        else:
            row = (n, (n + 2,), step, "even_up", True)
        return [row]

    def sample(count):
        out = [0]
        k = 1
        while len(out) < count:
            out.append(k)
            if len(out) < count:
                out.append(-k)
            k += 1
        return out[:count]

    return SystemHandle(
        name="z_walk_safety",
        semiring=pair,
        successors_fn=successors,
        nf_weight_fn=lambda n: (0, True),
        flags=_flags(terminating=False),
        parse_object_fn=int,
        enumerate_nfs_fn=lambda: [0],
        sample_objects_fn=sample,
    )


# ---------------------------------------------------------------------------
# Ground-term rewriting for Peano addition, weighted to count rewrite steps.
# Terms: ("0",) | ("s", t) | ("plus", t1, t2).

ZERO_TERM = ("0",)


def s_term(t):
    return ("s", t)


def plus_term(a, b):
    return ("plus", a, b)


def rewrite_steps(t) -> list[tuple[str, tuple]]:
    """All single rewrite steps from ``t`` as (position-tagged rule tag, result),
    positions in pre-order."""
    steps = []
    # Entries are (subterm, link), where a link is (parent, digit, the
    # parent's link) and None at the root: a position is spelled out only at
    # a redex.
    stack = [(t, None)]
    while stack:
        sub, link = stack.pop()
        arity = len(sub) if type(sub) is tuple else 0
        if arity == 3 and sub[0] == "plus":
            first, second = sub[1], sub[2]
            # first itself is checked when visited; a redex needs only its shape.
            if type(first) is tuple and len(first) == 2 and first[0] == "s":
                steps.append(_step("plus_s", link, s_term(plus_term(first[1], second))))
            elif first == ZERO_TERM:
                steps.append(_step("plus_0", link, second))
            stack += [(second, (sub, "2", link)), (first, (sub, "1", link))]
        elif arity == 2 and sub[0] == "s":
            stack.append((sub[1], (sub, "1", link)))
        elif sub != ZERO_TERM:
            raise SystemError_(f"not a ground term: {sub!r}")
    return steps


def _step(rule: str, link, new) -> tuple[str, tuple]:
    """The tag and result of replacing the subterm below ``link`` by ``new``."""
    digits = []
    while link is not None:
        parent, digit, link = link
        digits.append(digit)
        if parent[0] == "s":
            new = ("s", new)
        elif digit == "1":
            new = ("plus", new, parent[2])
        else:
            new = ("plus", parent[1], new)
    return f"{rule}@{''.join(reversed(digits))}", new


def ground_terms(max_size: int) -> list[tuple]:
    """Every ground term of size at most ``max_size``, smallest first."""
    by_size: dict[int, list] = {1: [ZERO_TERM]}
    for size in range(2, max_size + 1):
        terms = [s_term(t) for t in by_size[size - 1]]
        for left in range(1, size - 1):
            for a in by_size[left]:
                for b in by_size[size - 1 - left]:
                    terms.append(plus_term(a, b))
        by_size[size] = terms
    out = []
    for size in range(1, max_size + 1):
        out.extend(by_size.get(size, []))
    return out


_TERM_TOKEN = re.compile(r"\s*(plus|s|0|\(|\)|,)")

# The deepest term or formula the built-in parsers accept, in nodes on a path
# from the root (a leaf is one).  The helpers here walk terms without
# recursion, but hashing and comparing nested tuples still recurses in the
# interpreter.
MAX_TERM_DEPTH = 10_000


def _too_deep(what: str) -> SystemError_:
    return SystemError_(f"{what} nested deeper than {MAX_TERM_DEPTH} levels")


def parse_term(text: str):
    pos = 0

    def take():
        nonlocal pos
        m = _TERM_TOKEN.match(text, pos)
        if not m:
            raise SystemError_(f"bad term syntax at {text[pos:]!r}")
        pos = m.end()
        return m.group(1)

    # The constructors still open around the next term: ["s"], ["plus"], or
    # ["plus", first argument].
    open_: list = []
    while True:
        tok = take()
        if tok in ("s", "plus"):
            if take() != "(":
                raise SystemError_(f"expected '(' after {tok}")
            open_.append([tok])
            if len(open_) >= MAX_TERM_DEPTH:
                raise _too_deep("term")
            continue
        if tok != "0":
            raise SystemError_(f"unexpected token {tok!r}")
        t = ZERO_TERM
        while open_ and not (open_[-1][0] == "plus" and len(open_[-1]) == 1):
            if take() != ")":
                raise SystemError_("expected ')'")
            frame = open_.pop()
            t = s_term(t) if frame[0] == "s" else plus_term(frame[1], t)
        if not open_:
            break
        if take() != ",":
            raise SystemError_("expected ','")
        open_[-1].append(t)

    if text[pos:].strip():
        raise SystemError_(f"trailing input after term: {text[pos:]!r}")
    return t


def format_term(t) -> str:
    out, stack = [], [t]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item[0] == "0":
            out.append("0")
        elif item[0] == "s":
            out.append("s(")
            stack += [")", item[1]]
        else:
            out.append("plus(")
            stack += [")", item[2], ",", item[1]]
    return "".join(out)


def _addition_trs(max_size: int = 8) -> SystemHandle:
    step = SumNode((Const(1), Var(1)))
    # The normal forms: the numerals 0, s(0), ... of size at most max_size.
    numerals = [*itertools.accumulate(range(max_size - 1), lambda t, _: s_term(t), initial=ZERO_TERM)]

    def successors(t):
        return [(t, (result,), step, tag, True) for tag, result in rewrite_steps(t)]

    return SystemHandle(
        name="addition_trs",
        semiring=NAT_INF,
        successors_fn=successors,
        nf_weight_fn=lambda t: 0,
        flags=_flags(terminating=True),
        parse_object_fn=parse_term,
        format_object_fn=format_term,
        enumerate_objects_fn=functools.partial(ground_terms, max_size),
        enumerate_nfs_fn=lambda: numerals[:max_size],
    )


# ---------------------------------------------------------------------------
# Cost provenance for negation-free propositional formulas: disjunction takes
# the worst branch, conjunction adds both.  Formulas: ("atom", name) |
# ("and", l, r) | ("or", l, r).

_EX_COSTS = {
    "Ra": 2,
    "Rb": INF,
    "Paa": 2,
    "Pab": 7,
    "Pba": INF,
    "Pbb": 10,
}

_FINITE_COSTS = {"Ra": 2, "Rb": 5, "Paa": 2, "Pab": 7, "Pba": 3, "Pbb": 10}


def atom(name: str):
    return ("atom", name)


def and_(l, r):
    return ("and", l, r)


def or_(l, r):
    return ("or", l, r)


_ATOM = re.compile(r"[A-Za-z]\w*")


def _parse_formula(text: str, atoms):
    """Parse ``|`` over ``&`` over atoms and parenthesized formulas, both
    left-associative, as recursive descent would, on explicit stacks."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def joined(node, left, right):
        if left is None:
            return right
        depth = max(left[1], right[1]) + 1
        if depth > MAX_TERM_DEPTH:
            raise _too_deep("formula")
        return node(left[0], right[0]), depth

    # Per open parenthesis, the (formula, depth) pairs of the disjunction and
    # conjunction it interrupted; None before their first operand.
    groups: list = []
    disjunction = conjunction = None
    while True:
        skip()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            groups.append((disjunction, conjunction))
            disjunction = conjunction = None
            continue
        m = _ATOM.match(text, pos)
        if not m:
            raise SystemError_(f"bad formula syntax at {text[pos:]!r}")
        name = m.group(0)
        pos = m.end()
        if name not in atoms:
            raise SystemError_(f"unknown atom {name!r}")
        primary = atom(name), 1
        # Close every operator chain the primary ends, innermost first.
        while True:
            conjunction = joined(and_, conjunction, primary)
            skip()
            if pos < len(text) and text[pos] == "&":
                pos += 1
                break
            disjunction, conjunction = joined(or_, disjunction, conjunction), None
            if pos < len(text) and text[pos] == "|":
                pos += 1
                break
            if not groups:
                if pos != len(text):
                    raise SystemError_(f"trailing input in formula: {text[pos:]!r}")
                return disjunction[0]
            if pos >= len(text) or text[pos] != ")":
                raise SystemError_("unbalanced '(' in formula")
            pos += 1
            primary = disjunction
            disjunction, conjunction = groups.pop()


def format_formula(f) -> str:
    out, stack = [], [f]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item[0] == "atom":
            out.append(item[1])
        else:
            out.append("(")
            stack += [")", item[2], " & " if item[0] == "and" else " | ", item[1]]
    return "".join(out)


def _boolform(finite_costs: bool = False) -> SystemHandle:
    table = _FINITE_COSTS if finite_costs else _EX_COSTS
    connective = functools.cache(
        lambda op: (ProdNode if op == "and" else SumNode)((Var(1), Var(2)))
    )

    def successors(f):
        arity = len(f) if type(f) is tuple else 0
        if arity == 2 and f[0] == "atom":
            if f[1] not in table:
                raise SystemError_(f"unknown atom {f[1]!r}")
            return []
        if arity != 3:
            raise SystemError_(f"not a formula: {f!r}")
        if f[0] != "and" and f[0] != "or":
            raise SystemError_(f"unknown connective {f[0]!r}")
        return [(f, (f[1], f[2]), connective(f[0]), f[0], True)]

    return SystemHandle(
        name="boolform",
        semiring=ARCTIC,
        successors_fn=successors,
        nf_weight_fn=lambda f: table[f[1]],
        flags=_flags(terminating=True),
        parse_object_fn=lambda text: _parse_formula(text, table),
        format_object_fn=format_formula,
        enumerate_nfs_fn=lambda: [atom(n) for n in sorted(table)],
    )


# ---------------------------------------------------------------------------
# Unboundedly non-deterministic starter: one object fans out to every natural,
# each natural counts down.  Weighted to count steps.

def _na_system() -> SystemHandle:
    step = SumNode((Const(1), Var(1)))

    def successors(a):
        if a == "a":
            return (("a", (n,), step, f"pick{n}", True) for n in itertools.count())
        if type(a) is not int or a < 0:
            raise SystemError_(f"objects are 'a' and the naturals, got {a!r}")
        return [(a, (a - 1,), step, "down", True)] if a else []

    def parse(text):
        text = text.strip()
        return "a" if text == "a" else int(text)

    return SystemHandle(
        name="na_system",
        semiring=NAT_INF,
        successors_fn=successors,
        nf_weight_fn=lambda a: 0,
        flags=Flags(
            finitely_nondeterministic=False,
            finitely_branching=True,
            terminating=True,
            aggregators_finite_no_top=True,
        ),
        parse_object_fn=parse,
        enumerate_nfs_fn=lambda: [0],
        sample_objects_fn=lambda count: ["a", *range(count - 1)][:count],
    )


# ---------------------------------------------------------------------------
# Ski rental: each day either rent for 1 or buy for y and stop.  Weights in
# the tropical semiring give the cheapest total cost min(n0, y).

def _ski_rental(y: int) -> SystemHandle:
    if y < 0:
        raise SystemError_("ski_rental needs y >= 0")
    body = SumNode((ProdNode((Const(1), Var(1))), ProdNode((Const(y), Var(2)))))
    v1 = Var(1)

    def successors(state):
        if state == ("halt",):
            return []
        kind, n = state if type(state) is tuple and len(state) == 2 else (None, None)
        if kind != "loop" or type(n) is not int or n < 0:
            raise SystemError_(f"not a ski rental state: {state!r}")
        if n > 0:
            row = (state, (("loop", n - 1), ("loop", 0)), body, "day", True)
        else:
            row = (state, (("halt",),), v1, "exit", True)
        return [row]

    def parse(text):
        text = text.strip()
        if text == "halt":
            return ("halt",)
        m = re.fullmatch(r"n0\s*=\s*(\d+)", text)
        if not m:
            raise SystemError_(f"expected 'n0=<int>' or 'halt', got {text!r}")
        return ("loop", int(m.group(1)))

    def fmt(state):
        return "halt" if state == ("halt",) else f"n0={state[1]}"

    return SystemHandle(
        name=f"ski_rental(y={y})",
        semiring=TROPICAL,
        successors_fn=successors,
        nf_weight_fn=lambda state: 0,
        flags=_flags(terminating=True),
        parse_object_fn=parse,
        format_object_fn=fmt,
        enumerate_nfs_fn=lambda: [("halt",)],
    )


# ---------------------------------------------------------------------------
# Bit-stream system: 0 and 1 each step to (next bit, stop), and the collected
# weight is the prefix language of the emitted bit string.  Distinct infinite
# schedules give pairwise distinct weights.

def _bitstring_prefixes() -> SystemHandle:
    lang = Language(("0", "1"))
    emit = functools.cache(lambda b: SumNode((ProdNode((Const(frozenset({b})), Var(1))), Var(2))))

    def successors(b):
        if b == "*":
            return []
        if b not in ("0", "1"):
            raise SystemError_(f"objects are '0', '1', '*'; got {b!r}")
        return [(b, (nxt, "*"), emit(b), f"{b}_to_{nxt}", True) for nxt in ("0", "1")]

    def parse(text):
        label = text.strip()
        if label not in ("0", "1", "*"):
            raise SystemError_(f"objects are '0', '1', '*'; got {label!r}")
        return label

    return SystemHandle(
        name="bitstring_prefixes",
        semiring=lang,
        successors_fn=successors,
        nf_weight_fn=lambda b: frozenset({""}),
        flags=_flags(terminating=False),
        parse_object_fn=parse,
        enumerate_objects_fn=lambda: ["0", "1", "*"],
    )


# ---------------------------------------------------------------------------
# A loop whose weight grows with every iteration yet stays bounded: the
# supremum of the iterates is a proper infinite language, not the maximum.

def _loop_language() -> SystemHandle:
    lang = Language(("0", "1"))
    stay = SumNode((ProdNode((Const(frozenset({"1"})), Var(1))), Var(1)))
    v1 = Var(1)

    def successors(a):
        if a == "b":
            return []
        if a != "a":
            raise SystemError_(f"objects are 'a' and 'b'; got {a!r}")
        return [("a", ("a",), stay, "stay", True), ("a", ("b",), v1, "exit", True)]

    return SystemHandle(
        name="loop_language",
        semiring=lang,
        successors_fn=successors,
        nf_weight_fn=lambda a: frozenset({""}),
        flags=_flags(terminating=False),
        parse_object_fn=lambda text: text.strip(),
        enumerate_objects_fn=lambda: ["a", "b"],
    )


_FACTORIES = {
    "walk_termprob": functools.partial(_walk, False),
    "walk_expected": functools.partial(_walk, True),
    "z_walk_safety": _z_walk,
    "addition_trs": _addition_trs,
    "boolform": _boolform,
    "geometric_walk": _geometric_walk,
    "os_size": _os_size,
    "os_fair": _os_fair,
    "os_starv": _os_starv,
    "os_runtime": _os_runtime,
    "na_system": _na_system,
    "ski_rental": _ski_rental,
    "bitstring_prefixes": _bitstring_prefixes,
    "loop_language": _loop_language,
}


# What a parameter of each annotated type must be, as refusals name it, the
# largest values (a geometric_walk jump has prefix successors; addition_trs
# lists every term up to max_size: 66,706 at 14, about 2.7x more per size),
# and each factory's signature, read once: reading one costs more than most builds.
_KINDS = {int: "an integer", bool: "a boolean"}
_MAXIMA = {(_geometric_walk, "prefix"): 1024, (_addition_trs, "max_size"): 14}
_signature = functools.cache(functools.partial(inspect.signature, eval_str=True))


def builtin(name: str, **params) -> SystemHandle:
    """Construct a built-in system family member by name; ``params`` must bind
    to the factory's signature, each of exactly its annotated type (``True``
    is not an ``int``)."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise SystemError_(
            f"unknown built-in {name!r}; available: {', '.join(builtin_names())}"
        )
    try:
        signature = _signature(factory)
        for key, value in signature.bind(**params).arguments.items():
            kind = signature.parameters[key].annotation
            if type(value) is not kind:
                raise TypeError(f"{key} must be {_KINDS[kind]}, got {value!r}")
            if value > _MAXIMA.get((factory, key), value):
                raise ValueError(f"{key} must be at most {_MAXIMA[factory, key]}, got {value!r}")
    except (TypeError, ValueError) as exc:
        raise SystemError_(f"bad parameters for {name!r}: {exc}") from exc
    return factory(**params)


def builtin_names() -> list[str]:
    return sorted(_FACTORIES)
