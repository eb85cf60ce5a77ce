"""The built-in term and formula helpers walk without recursion; they agree
with the plain recursive versions kept here as references, errors included."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from wars.boundedness import _trs_embedding
from wars.builtins import (
    _FINITE_COSTS,
    _TERM_TOKEN,
    _parse_formula,
    and_,
    atom,
    format_formula,
    format_term,
    or_,
    parse_term,
    plus_term,
    rewrite_steps,
    s_term,
    ZERO_TERM,
)
from reference_eval import term_size, term_value
from wars.system import SystemError_


def reference_parse_term(text):
    pos = 0

    def take():
        nonlocal pos
        m = _TERM_TOKEN.match(text, pos)
        if not m:
            raise SystemError_(f"bad term syntax at {text[pos:]!r}")
        pos = m.end()
        return m.group(1)

    def term():
        tok = take()
        if tok == "0":
            return ZERO_TERM
        if tok in ("s", "plus"):
            if take() != "(":
                raise SystemError_(f"expected '(' after {tok}")
            a = term()
            if tok == "s":
                if take() != ")":
                    raise SystemError_("expected ')'")
                return s_term(a)
            if take() != ",":
                raise SystemError_("expected ','")
            b = term()
            if take() != ")":
                raise SystemError_("expected ')'")
            return plus_term(a, b)
        raise SystemError_(f"unexpected token {tok!r}")

    t = term()
    if text[pos:].strip():
        raise SystemError_(f"trailing input after term: {text[pos:]!r}")
    return t


def reference_parse_formula(text, atoms):
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def chain(operand, symbol, node):
        nonlocal pos
        left = operand()
        skip()
        while pos < len(text) and text[pos] == symbol:
            pos += 1
            left = node(left, operand())
            skip()
        return left

    def disjunction():
        return chain(lambda: chain(primary, "&", and_), "|", or_)

    def primary():
        nonlocal pos
        skip()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            inner = disjunction()
            skip()
            if pos >= len(text) or text[pos] != ")":
                raise SystemError_("unbalanced '(' in formula")
            pos += 1
            return inner
        m = re.match(r"[A-Za-z]\w*", text[pos:])
        if not m:
            raise SystemError_(f"bad formula syntax at {text[pos:]!r}")
        pos += len(m.group(0))
        if m.group(0) not in atoms:
            raise SystemError_(f"unknown atom {m.group(0)!r}")
        return atom(m.group(0))

    result = disjunction()
    skip()
    if pos != len(text):
        raise SystemError_(f"trailing input in formula: {text[pos:]!r}")
    return result


def reference_format(t) -> str:
    if t[0] == "0":
        return "0"
    if t[0] == "s":
        return f"s({reference_format(t[1])})"
    if t[0] == "plus":
        return f"plus({reference_format(t[1])},{reference_format(t[2])})"
    if t[0] == "atom":
        return t[1]
    op = "&" if t[0] == "and" else "|"
    return f"({reference_format(t[1])} {op} {reference_format(t[2])})"


def reference_steps(t, sub=None, pos=""):
    """Rewrite steps in pre-order, rebuilding each result from the root."""
    sub = t if sub is None else sub

    def replace(u, p, new):
        if not p:
            return new
        if u[0] == "s":
            return s_term(replace(u[1], p[1:], new))
        if p[0] == "1":
            return plus_term(replace(u[1], p[1:], new), u[2])
        return plus_term(u[1], replace(u[2], p[1:], new))

    steps = []
    if sub[0] == "plus" and sub[1][0] == "s":
        steps.append((f"plus_s@{pos}", replace(t, pos, s_term(plus_term(sub[1][1], sub[2])))))
    elif sub[0] == "plus" and sub[1][0] == "0":
        steps.append((f"plus_0@{pos}", replace(t, pos, sub[2])))
    for i, child in enumerate(sub[1:], 1):
        steps += reference_steps(t, child, pos + str(i))
    return steps


def reference_embedding(t) -> int:
    if t[0] == "0":
        return 0
    if t[0] == "s":
        return reference_embedding(t[1]) + 1
    return 2 * reference_embedding(t[1]) + reference_embedding(t[2]) + 1


def outcome(parse, *args):
    try:
        return parse(*args), None
    except SystemError_ as exc:
        return None, str(exc)


TERM_PIECES = ["plus", "s", "0", "(", ")", ",", " ", "x", "plus(", "s(", "0,", "0)"]
FORMULA_PIECES = ["Ra", "Rb", "Pab", "&", "|", "(", ")", " ", "Zz", "1", "Ra & ", "(Rb |", ")"]


@st.composite
def terms(draw, depth=6):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return "0"
    if draw(st.booleans()):
        return f"s({draw(terms(depth - 1))})"
    return f"plus({draw(terms(depth - 1))}, {draw(terms(depth - 1))})"


@st.composite
def formulas(draw, depth=5):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["Ra", " Pbb", "Rb "]))
    if draw(st.integers(0, 3)) == 0:
        return f"({draw(formulas(depth - 1))})"
    op = draw(st.sampled_from(["&", " | ", " & "]))
    return f"{draw(formulas(depth - 1))}{op}{draw(formulas(depth - 1))}"


@settings(max_examples=400, deadline=None)
@given(st.one_of(terms(), st.lists(st.sampled_from(TERM_PIECES), max_size=14).map("".join)))
def test_terms_parse_like_recursive_descent(text):
    got = outcome(parse_term, text)
    assert got == outcome(reference_parse_term, text)
    t = got[0]
    if t is not None:
        assert format_term(t) == reference_format(t)
        assert parse_term(format_term(t)) == t
        assert rewrite_steps(t) == reference_steps(t)
        text = format_term(t)
        assert term_size(t) == len(re.findall(r"plus|s|0", text))
        assert term_value(t) == text.count("s(") - text.count("plus(")
        assert _trs_embedding(t) == reference_embedding(t)


@settings(max_examples=400, deadline=None)
@given(st.one_of(formulas(), st.lists(st.sampled_from(FORMULA_PIECES), max_size=12).map("".join)))
def test_formulas_parse_like_recursive_descent(text):
    got = outcome(_parse_formula, text, _FINITE_COSTS)
    assert got == outcome(reference_parse_formula, text, _FINITE_COSTS)
    if got[0] is not None:
        assert format_formula(got[0]) == reference_format(got[0])
