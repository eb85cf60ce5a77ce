"""The iterative expression fold, the parser and the walkers built on them.

Each walker is compared with the recursive version it replaced, kept in
``reference_eval``: same result, or the same first exception, on expressions
up to 30 levels deep.  The parser is compared with the recursive-descent
parser on well-formed and on mutated texts.  Deep inputs (10^4 levels) check
that nothing recurses per level; deep trees are compared through their text
or an iterative walk, since dataclass ``==`` recurses.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wars import aggregator as agg
from wars.aggregator import (
    Const,
    CountableSum,
    ProdNode,
    SumNode,
    Var,
    X,
    format_expr,
    parse_expr,
)
from wars.boundedness import _syntactically_selective
from wars.semiring import (
    ALL_WORDS,
    ARCTIC,
    BOOLEAN,
    BOTTLENECK,
    CONFIDENCE,
    INF,
    NAT_INF,
    NEG_INF,
    REAL_INF,
    TROPICAL,
    Language,
    Product,
)
from wars.system import _finite_no_top
from wars.unboundedness import _apply_aggregator, _mentions_only_x

import reference_eval as ref

CARRIERS = [
    NAT_INF,
    REAL_INF,
    TROPICAL,
    ARCTIC,
    BOOLEAN,
    CONFIDENCE,
    BOTTLENECK,
    Language(("a", "bc")),
    Product((NAT_INF, BOOLEAN)),
    Product((TROPICAL, Language(("x",)))),
    Product((REAL_INF, Product((BOOLEAN, ARCTIC)))),
]

# Values of some carriers and not of others, and leaves that are no
# expression at all, so that walkers meet their error paths.
FOREIGN = [-1, 0, 1, True, Fraction(1, 2), INF, NEG_INF, ALL_WORDS,
           frozenset({"a"}), (1, True), "x", None]
NOT_EXPRESSIONS = [7, "v1", None]


def _outcome(fn, *args):
    """The result of a call, or the class and text of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


# -- expressions up to depth 30 ---------------------------------------------


def _countable(terms, forever, var_bound):
    def term(i):
        if forever and terms:
            return terms[i % len(terms)]
        return terms[i] if i < len(terms) else None

    return CountableSum(term, var_bound)


def _leaves(desc, bad: bool, countable: bool = True):
    values = st.sampled_from(desc.probe_values())
    if bad:
        values = st.one_of(values, st.sampled_from(FOREIGN))
    options = [st.builds(Const, values), st.builds(Var, st.integers(1, 4)), st.just(X)]
    if countable:
        terms = st.lists(st.builds(Const, values) | st.builds(Var, st.integers(1, 4)), max_size=3)
        options.append(
            st.builds(_countable, terms, st.booleans(), st.sampled_from([INF, 0, 2, 4]))
        )
    if bad:
        options.append(st.sampled_from(NOT_EXPRESSIONS))
    return st.one_of(*options)


def _nest(expr, kinds: list, desc):
    """``expr`` under one more sum or product per entry of ``kinds``, each
    with a constant or a variable beside it."""
    for kind, left in kinds:
        parts = (Const(desc.one), expr) if left else (expr, Var(1))
        expr = (SumNode if kind else ProdNode)(parts)
    return expr


@st.composite
def expressions(draw, desc, bad: bool = True, countable: bool = True):
    tree = draw(
        st.recursive(
            _leaves(desc, bad, countable),
            lambda kids: st.builds(
                lambda sum_, children: (SumNode if sum_ else ProdNode)(tuple(children)),
                st.booleans(),
                st.lists(kids, min_size=1, max_size=3),
            ),
            max_leaves=12,
        )
    )
    spine = draw(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=24))
    return _nest(tree, spine, desc)


def _compiled_outcome(compile_node, expr, desc, check_vars, args):
    try:
        fn, mv = compile_node(expr, desc, check_vars)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return mv, _outcome(lambda: _typed(fn(args, 8, [True])))


def _typed(value):
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walkers_match_the_recursive_walkers(data):
    desc = data.draw(st.sampled_from(CARRIERS))
    expr = data.draw(expressions(desc))
    inner = data.draw(_leaves(desc, bad=False))
    pairs = [
        (agg.max_var, ref.reference_max_var, (expr,)),
        (agg.mentions_x, ref.reference_mentions_x, (expr,)),
        (agg.substitute_x, ref.reference_substitute_x, (expr, inner)),
        (agg.fold_constants, ref.reference_fold_constants, (expr, desc)),
        (format_expr, ref.reference_format_expr, (expr, desc)),
        (_finite_no_top, ref.reference_finite_no_top, (expr, desc)),
        (_syntactically_selective, ref.reference_syntactically_selective, (expr, desc)),
        (_mentions_only_x, ref.reference_mentions_only_x, (expr,)),
    ]
    for walker, reference, args in pairs:
        assert _outcome(walker, *args) == _outcome(reference, *args), walker.__name__
    assert _outcome(agg._facts, expr) == _outcome(
        lambda e: (ref.reference_mentions_x(e), ref.reference_max_var(e)), expr
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiling_matches_the_recursive_compiler(data):
    desc = data.draw(st.sampled_from(CARRIERS))
    expr = data.draw(expressions(desc))
    values = st.sampled_from(desc.probe_values())
    args = data.draw(st.lists(values, max_size=4))
    check_vars = data.draw(st.booleans())
    assert _compiled_outcome(agg._compile_node, expr, desc, check_vars, args) == (
        _compiled_outcome(ref.reference_compile_node, expr, desc, check_vars, args)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_applying_an_aggregator_matches_the_recursive_substitution(data):
    desc = data.draw(st.sampled_from(CARRIERS))
    expr = data.draw(expressions(desc))
    children = data.draw(st.lists(_leaves(desc, bad=False), max_size=4))
    assert _outcome(_apply_aggregator, expr, children, desc, 5) == _outcome(
        ref.reference_apply_aggregator, expr, children, desc, 5
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_finite_no_top_is_the_negated_top_search_without_countable_sums(data):
    # The loader's predicate used to be "mentions no top constant"; parsed
    # aggregators hold no countable sum, where the two agree.
    desc = data.draw(st.sampled_from(CARRIERS))
    expr = data.draw(expressions(desc, bad=False, countable=False))
    assert _finite_no_top(expr, desc) == (not ref.reference_mentions_top(expr, desc))


# -- the parser against recursive descent -----------------------------------


def _parse_outcome(parse, text, desc):
    try:
        return "tree", repr(parse(text, desc))
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc), getattr(exc, "position", None)


@st.composite
def printed_expressions(draw):
    """A carrier and the text of a well-formed expression over it, with its
    whitespace and redundant parentheses varied."""
    desc = draw(st.sampled_from(CARRIERS))
    expr = draw(expressions(desc, bad=False, countable=False))
    text = ref.reference_format_expr(expr, desc)
    pieces = []
    for ch in text:
        if ch == " ":
            ch = draw(st.sampled_from(["", " ", "  ", "\t", "\n"]))
        pieces.append(ch)
    text = "".join(pieces)
    wraps = draw(st.integers(0, 3))
    return desc, "(" * wraps + text + ")" * wraps


TOKENS = ["(", ")", "(", ")", "+", "*", " ", ",", "{", "}", "v1", "v0", "v12", "X",
          "1", "0", "-1", "2/3", "1/0", "0.5", "inf", "-inf", "true", "false",
          "SIGMA*", "{a,bc}", "{eps}", "{}", "(1,true)", "(0,(false,2))", "#", "x"]


@st.composite
def mutated_texts(draw):
    """Well-formed texts with characters inserted, deleted or replaced, and
    token soups."""
    if draw(st.booleans()):
        desc, text = draw(printed_expressions())
    else:
        desc = draw(st.sampled_from(CARRIERS))
        text = "".join(draw(st.lists(st.sampled_from(TOKENS), max_size=12)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.integers(0, 2))
        piece = draw(st.sampled_from(TOKENS))
        if kind == 0:
            text = text[:i] + piece + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    return desc, text


@settings(max_examples=200, deadline=None)
@given(printed_expressions())
def test_parser_matches_recursive_descent(case):
    desc, text = case
    got = _parse_outcome(parse_expr, text, desc)
    assert got == _parse_outcome(ref.reference_parse, text, desc)
    assert got[0] == "tree"


@settings(max_examples=600, deadline=None)
@given(mutated_texts())
def test_parser_fails_like_recursive_descent(case):
    desc, text = case
    assert _parse_outcome(parse_expr, text, desc) == _parse_outcome(
        ref.reference_parse, text, desc
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("(v1", "unbalanced '(' (at position 0)"),
        ("(v0 + ", "unbalanced '(' (at position 0)"),
        ("(v1 v2)", "expected ')' (at position 4)"),
        ("v1 v2", "trailing input (at position 3)"),
        ("v1 +", "unexpected end of input (at position 4)"),
        ("(v1 +)", "unexpected operator ')' (at position 5)"),
        ("v1 # 2", "trailing input (at position 3)"),
    ],
)
def test_parse_errors_keep_their_positions(text, message):
    with pytest.raises(agg.ParseError) as info:
        parse_expr(text, NAT_INF)
    assert str(info.value) == message


def test_tuple_literals_and_parentheses_inside_braces():
    pair = Product((NAT_INF, BOOLEAN))
    # The comma of the inner group is not top-level for the outer one.
    expr = parse_expr("((1,true) + v1) * (3,false)", pair)
    assert format_expr(expr, pair) == "((1,true) + v1) * (3,false)"
    # A braced literal may hold parentheses; only the count of '(' and ')'
    # matches them, as before.
    words = Language(("a",))
    assert _parse_outcome(parse_expr, "({a)}+v1)", words) == _parse_outcome(
        ref.reference_parse, "({a)}+v1)", words
    )


# -- deep expressions ---------------------------------------------------------

DEEP = 10_000


def _deep_texts() -> dict:
    # Sums and products alternate from the outermost level inwards.
    opening = "".join("1 + (" if i % 2 == 0 else "2 * (" for i in range(DEEP - 1))
    return {
        "parentheses": "(" * DEEP + "v1" + ")" * DEEP,
        "right-nested sum": "1 + (" * (DEEP - 1) + "v1" + ")" * (DEEP - 1),
        "alternating": opening + "v1" + ")" * (DEEP - 1),
    }


def _depth(expr) -> int:
    return agg._reduce(expr, lambda e: 1, lambda e, depths: 1 + max(depths))


def _same_tree(a, b) -> bool:
    """Structural equality without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (SumNode, ProdNode)):
            xs, ys = agg._children(x), agg._children(y)
            if len(xs) != len(ys):
                return False
            stack.extend(zip(xs, ys))
        elif x != y:
            return False
    return True


def _timed(fn, *args):
    start = time.process_time()
    result = fn(*args)
    assert time.process_time() - start < 1.0, fn.__name__
    return result


@pytest.mark.parametrize("shape", ["parentheses", "right-nested sum", "alternating"])
def test_deep_expressions_parse_print_and_walk(shape):
    text = _deep_texts()[shape]
    expr = _timed(parse_expr, text, NAT_INF)
    assert _depth(expr) == (1 if shape == "parentheses" else DEEP)
    printed = _timed(format_expr, expr, NAT_INF)
    again = _timed(parse_expr, printed, NAT_INF)
    assert _timed(format_expr, again, NAT_INF) == printed
    assert _same_tree(expr, again)
    assert _timed(agg.max_var, expr) == 1
    assert _timed(agg._facts, expr) == (False, 1)
    assert _timed(_finite_no_top, expr, NAT_INF)
    assert _timed(_syntactically_selective, expr, NAT_INF) == (shape == "parentheses")
    _timed(agg._compile_node, expr, NAT_INF, False)
    assert _same_tree(_timed(agg.substitute_x, expr, X), expr)
    # The loop-polynomial walkers, on the same tree with X for v1.
    in_x = _timed(_apply_aggregator, expr, [X], NAT_INF)
    assert _timed(agg.mentions_x, in_x) and _timed(_mentions_only_x, in_x)
    assert _same_tree(_timed(agg.fold_constants, in_x, NAT_INF), in_x)
    constant = _timed(agg.substitute_x, in_x, Const(1))
    assert isinstance(_timed(agg.fold_constants, constant, NAT_INF), Const)


def test_deep_constant_expression_folds_to_its_value():
    text = "1 + (" * (DEEP - 1) + "1" + ")" * (DEEP - 1)
    folded = agg.fold_constants(parse_expr(text, NAT_INF), NAT_INF)
    assert folded == Const(DEEP)
