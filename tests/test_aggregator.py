"""Aggregator expressions: arity, evaluation, parsing, X-substitution, affine form."""

from __future__ import annotations

import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wars import aggregator
from wars.aggregator import (
    AggregatorError,
    ArityError,
    Const,
    CountableSum,
    ParseError,
    ProdNode,
    SumNode,
    Var,
    X,
    affine_form,
    evaluate,
    extract_affine,
    format_expr,
    max_var,
    parse_expr,
    substitute_x,
)
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
    CarrierMismatch,
    Language,
    Product,
    SemiringError,
)

from algebra_checks import sample
from reference_eval import reference_evaluate

FIG_WALK = SumNode(
    (
        ProdNode((Const(Fraction(2, 3)), Var(1))),
        ProdNode((Const(Fraction(1, 3)), Var(2))),
    )
)

GEOMETRIC = CountableSum(
    lambda m: ProdNode((Const(Fraction(1, 2 ** (m + 1))), Var(m + 1)))
)


class TestMaxVar:
    def test_step_counter(self):
        assert max_var(SumNode((Const(1), Var(1)))) == 1

    def test_constant(self):
        assert max_var(Const(5)) == 0

    def test_countable_sum_unbounded(self):
        assert max_var(GEOMETRIC) is INF

    def test_var_index_positive(self):
        with pytest.raises(AggregatorError):
            Var(0)


class TestEvaluate:
    def test_walk_aggregator(self):
        value, exact = evaluate(FIG_WALK, REAL_INF, [Fraction(2, 3), Fraction(0)])
        assert value == Fraction(4, 9)
        assert exact is True

    def test_projection(self):
        value, exact = evaluate(Var(1), NAT_INF, [7])
        assert (value, exact) == (7, True)

    def test_arctic_sum_is_max(self):
        expr = SumNode((Var(1), Const(3)))
        value, _ = evaluate(expr, ARCTIC, [1])
        assert value == max(1, 3) == 3

    def test_arity_error_names_both_sides(self):
        with pytest.raises(ArityError, match="v3.*2 arguments"):
            evaluate(Var(3), NAT_INF, [1, 2])

    def test_countable_sum_truncation(self):
        args = [Fraction(1)] * 3
        value, exact = evaluate(GEOMETRIC, REAL_INF, args, truncation=10)
        # Terms beyond the three supplied children are skipped.
        assert value == Fraction(7, 8)
        assert exact is False

    def test_countable_sum_truncation_monotone(self):
        args = [Fraction(1)] * 8
        previous = None
        for truncation in range(1, 10):
            value, _ = evaluate(GEOMETRIC, REAL_INF, args, truncation=truncation)
            if previous is not None:
                assert REAL_INF.leq(previous, value)
            previous = value

    def test_exhausted_generator_is_exact(self):
        finite = CountableSum(lambda i: Const(1) if i < 3 else None, var_bound=0)
        value, exact = evaluate(finite, NAT_INF, [], truncation=10)
        assert (value, exact) == (3, True)


class TestParse:
    def test_step_counter(self):
        assert parse_expr("1 + v1", NAT_INF) == SumNode((Const(1), Var(1)))

    def test_single_variable(self):
        assert parse_expr("v1", NAT_INF) == Var(1)

    def test_walk_aggregator(self):
        assert parse_expr("(2/3 * v1) + (1/3 * v2)", REAL_INF) == FIG_WALK

    def test_times_binds_tighter(self):
        expr = parse_expr("1 + 2 * v1", NAT_INF)
        assert expr == SumNode((Const(1), ProdNode((Const(2), Var(1)))))

    def test_x_variable(self):
        assert parse_expr("X + 4", NAT_INF) == SumNode((X, Const(4)))

    def test_tuple_literal_vs_grouping(self):
        pair = Product((NAT_INF, BOOLEAN))
        expr = parse_expr("(1,true) + v1", pair)
        assert expr == SumNode((Const((1, True)), Var(1)))
        grouped = parse_expr("(v1 + v2)", pair)
        assert grouped == SumNode((Var(1), Var(2)))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_expr("1 + ", NAT_INF)

    def test_unknown_literal_for_carrier(self):
        with pytest.raises(ParseError):
            parse_expr("true + v1", NAT_INF)


class TestSubstituteX:
    def test_iterated_offset(self):
        body = parse_expr("X + 4", NAT_INF)
        twice = substitute_x(body, body)
        for x in range(6):
            inner, _ = evaluate(substitute_x(twice, Const(x)), NAT_INF, [])
            assert inner == x + 8

    def test_constant_replaces_x(self):
        assert substitute_x(X, Const(0)) == Const(0)

    def test_arctic_max_loop_body(self):
        body = parse_expr("X + 1", ARCTIC)  # arctic sum: max(X, 1)
        twice = substitute_x(body, body)
        for x in [0, 1, 2, 5, 100]:
            once, _ = evaluate(substitute_x(body, Const(x)), ARCTIC, [])
            nested, _ = evaluate(substitute_x(twice, Const(x)), ARCTIC, [])
            assert nested == once == max(x, 1)


class TestExtractAffine:
    def test_offset_form(self):
        assert extract_affine(parse_expr("X + 4", NAT_INF), NAT_INF) == (1, 4)

    def test_bare_x(self):
        assert extract_affine(X, NAT_INF) == (1, 0)

    def test_collects_coefficients(self):
        expr = parse_expr("(2 * X) + (X + 3)", NAT_INF)
        c, d = extract_affine(expr, NAT_INF)
        assert (c, d) == (3, 3)
        for x in [0, 1, 2, 5, 100]:
            direct, _ = evaluate(substitute_x(expr, Const(x)), NAT_INF, [])
            assert direct == c * x + d

    def test_nonlinear_is_rejected(self):
        assert extract_affine(ProdNode((X, X)), NAT_INF) is None

    def test_non_counting_carrier_is_rejected(self):
        assert extract_affine(parse_expr("X + 1", ARCTIC), ARCTIC) is None

    def test_product_carrier(self):
        pair = Product((NAT_INF, NAT_INF))
        expr = parse_expr("X + (1,2)", pair)
        assert extract_affine(expr, pair) == ((1, 1), (1, 2))

    def test_extraction_agrees_on_probes(self):
        # Whenever something is extracted, it matches direct evaluation on a
        # probe set including a large point.
        rng = random.Random(9)

        def affine_ish(depth=0):
            roll = rng.random()
            if roll < 0.3:
                return X
            if roll < 0.55 or depth >= 2:
                return Const(rng.randrange(0, 6))
            node = SumNode if rng.random() < 0.6 else ProdNode
            return node(tuple(affine_ish(depth + 1) for _ in range(rng.randrange(2, 4))))

        extracted = 0
        for _ in range(400):
            expr = affine_ish()
            form = extract_affine(expr, NAT_INF)
            if form is None:
                continue
            extracted += 1
            c, d = form
            for x in (0, 1, 2, 5, 100):
                direct, _ = evaluate(substitute_x(expr, Const(x)), NAT_INF, [])
                assert direct == c * x + d
        assert extracted > 50


class TestAffineForm:
    def test_coefficients_per_variable(self):
        expr = parse_expr("(1/2 * v1 + v3 + 1/3) * 3/4 + 1/6 * v1", REAL_INF)
        assert affine_form(expr, REAL_INF, 3) == (
            [Fraction(1, 2) * Fraction(3, 4) + Fraction(1, 6), 0, Fraction(3, 4)],
            Fraction(1, 4),
        )

    def test_rejections(self):
        for text, arity in (("v1 * v2", 2), ("v2", 1), ("inf + v1", 1)):
            form = affine_form(parse_expr(text, REAL_INF), REAL_INF, arity,
                               lambda v: isinstance(v, Fraction))
            assert form is None, text
        geometric = CountableSum(lambda i: Var(i + 1))
        assert affine_form(SumNode((Var(1), geometric)), REAL_INF, 1) is None

    def test_deep_expression_without_recursion(self):
        expr = Var(1)
        for _ in range(10_000):
            expr = ProdNode((Const(Fraction(1, 2)), SumNode((expr, Const(1)))))
        coeffs, const = affine_form(expr, REAL_INF, 1)
        assert coeffs == [Fraction(1, 2 ** 10_000)]
        assert const == 1 - Fraction(1, 2 ** 10_000)


@pytest.mark.parametrize("desc", [NAT_INF, ARCTIC, BOOLEAN])
def test_monotone_in_arguments(desc):
    from algebra_checks import random_aggregator_expr

    # Pointwise-dominating argument vectors never decrease the result.
    rng = random.Random(5)
    for _ in range(300):
        arity = rng.randrange(1, 4)
        expr = random_aggregator_expr(rng, arity)
        if desc is BOOLEAN:
            lo = [rng.random() < 0.5 for _ in range(arity)]
            hi = [v or rng.random() < 0.5 for v in lo]
            expr = _bool_cast(expr)
        else:
            lo = [sample(desc, rng) for _ in range(arity)]
            hi = [desc.plus(v, sample(desc, rng)) for v in lo]
        low, _ = evaluate(expr, desc, lo)
        high, _ = evaluate(expr, desc, hi)
        assert desc.leq(low, high)


def _bool_cast(expr):
    if isinstance(expr, Const):
        return Const(expr.value % 2 == 1)
    if isinstance(expr, SumNode):
        return SumNode(tuple(_bool_cast(e) for e in expr.terms))
    if isinstance(expr, ProdNode):
        return ProdNode(tuple(_bool_cast(e) for e in expr.factors))
    return expr


@st.composite
def expr_strategy(draw, depth=0, consts=st.integers(0, 9), countable=False):
    # The grammar has no singleton sums or products, so stay in its image.
    # Countable sums have no syntax; they are drawn only when asked for.
    kind = draw(st.integers(0, (4 if countable else 3) if depth < 2 else 1))
    if kind == 0:
        return Const(draw(consts))
    if kind == 1:
        return Var(draw(st.integers(1, 4)))
    if kind == 4:
        return draw(countable_strategy(depth, consts))
    children = draw(
        st.lists(expr_strategy(depth + 1, consts, countable), min_size=2, max_size=3)
    )
    return (SumNode if kind == 2 else ProdNode)(tuple(children))


@st.composite
def countable_strategy(draw, depth, consts):
    """A countable sum over a drawn term list, finite or repeated forever."""
    terms = draw(st.lists(expr_strategy(depth + 1, consts, True), max_size=4))
    forever = draw(st.booleans()) and bool(terms)
    var_bound = draw(st.one_of(st.just(INF), st.integers(0, 4)))

    def term(i):
        if forever:
            return terms[i % len(terms)]
        return terms[i] if i < len(terms) else None

    return CountableSum(term, var_bound)


@settings(max_examples=200, deadline=None)
@given(expr_strategy())
def test_parse_print_round_trip(expr):
    printed = format_expr(expr, NAT_INF)
    assert parse_expr(printed, NAT_INF) == expr


# -- compiled evaluation against the naive reference ------------------------

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
]

# Values that belong to some carriers and not to others, including ones equal
# to carrier values of another type (True == 1 == Fraction(1)) and one that
# cannot be hashed.
FOREIGN = [-1, 0, 1, True, False, Fraction(1, 2), Fraction(3), INF, NEG_INF,
           ALL_WORDS, frozenset({"a"}), frozenset({"zz"}), (1, True), "x", None, [1]]


@st.composite
def carrier_value(draw, desc):
    if draw(st.integers(0, 24)) == 0:
        return draw(st.sampled_from(FOREIGN))
    if draw(st.booleans()):
        return draw(st.sampled_from(desc.probe_values()))
    return sample(desc, draw(st.randoms(use_true_random=False)))


def _outcome(evaluator, expr, desc, args, truncation):
    try:
        value, exact = evaluator(expr, desc, args, truncation)
    except (AggregatorError, SemiringError) as exc:
        return type(exc), str(exc)
    return desc.format_literal(value), exact


def _retyped(expr):
    """An equal expression whose constants change type where they can
    (1 and True and Fraction(1) are all equal)."""
    if isinstance(expr, Const):
        v = expr.value
        if isinstance(v, bool):
            return Const(int(v))
        if isinstance(v, int) and v in (0, 1):
            return Const(bool(v))
        if isinstance(v, int):
            return Const(Fraction(v))
        if isinstance(v, Fraction) and v.denominator == 1:
            return Const(int(v))
        return expr
    if isinstance(expr, SumNode):
        return SumNode(tuple(_retyped(e) for e in expr.terms))
    if isinstance(expr, ProdNode):
        return ProdNode(tuple(_retyped(e) for e in expr.factors))
    return expr


def _check_against_reference(data, desc, values, min_args=0):
    expr = data.draw(expr_strategy(consts=values, countable=True))
    # The second call runs on the compilation kept on ``expr`` and its cached
    # sum terms; the retyped twin, equal to ``expr``, is compiled apart.
    for candidate in (expr, expr, _retyped(expr)):
        args = data.draw(st.lists(values, min_size=min_args, max_size=4))
        truncation = data.draw(st.integers(1, 8))
        got = _outcome(evaluate, candidate, desc, args, truncation)
        assert got == _outcome(reference_evaluate, candidate, desc, args, truncation)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_compiled_matches_reference(data):
    desc = data.draw(st.sampled_from(CARRIERS))
    _check_against_reference(data, desc, carrier_value(desc))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_matches_reference_around_sigma_star(data):
    # Concatenating SIGMA* with a proper non-empty language has no finite
    # representation and raises; it needs SIGMA* next to small languages.
    words = Language(("a", "bc"))
    values = st.sampled_from(
        [ALL_WORDS, frozenset(), frozenset({""}), frozenset({"a"}), frozenset({"", "bc"})]
    )
    _check_against_reference(data, words, values, min_args=4)


class TestCompiledBoundaries:
    def test_equal_constant_of_another_type_is_checked(self):
        # Const(True) == Const(1), but each expression keeps its own compiled
        # form, so the second must still fail the carrier check.
        first = SumNode((Const(1), Var(1)))
        assert evaluate(first, NAT_INF, [2]) == (3, True)
        with pytest.raises(CarrierMismatch):
            evaluate(SumNode((Const(True), Var(1))), NAT_INF, [2])
        with pytest.raises(CarrierMismatch):
            evaluate(SumNode((Const(Fraction(1)), Var(1))), NAT_INF, [2])

    def test_argument_outside_carrier(self):
        with pytest.raises(CarrierMismatch):
            evaluate(Var(1), NAT_INF, [-1])

    def test_arity_error_beside_countable_sum(self):
        # The cut form keeps the sum's first two terms and names v3.
        with pytest.raises(ArityError, match="v3 but only 2 arguments"):
            evaluate(SumNode((GEOMETRIC, Var(3))), REAL_INF, [Fraction(1)] * 2)

    def test_sigma_star_concatenation(self):
        words = Language(("a",))
        with pytest.raises(SemiringError, match="SIGMA"):
            evaluate(ProdNode((Const(ALL_WORDS), Var(1))), words, [frozenset({"a"})])

    def test_countable_sum_exactness_propagates(self):
        endless = CountableSum(lambda i: Const(1))
        once = CountableSum(lambda i: Const(1) if i == 0 else None, var_bound=0)
        outer = CountableSum(lambda i: endless if i == 0 else None, var_bound=0)
        assert evaluate(outer, NAT_INF, [], truncation=4) == (4, False)
        assert evaluate(SumNode((endless, once)), NAT_INF, [], truncation=3) == (4, False)

    def test_a_sum_at_the_top_before_its_stream_ends_is_not_exact(self):
        # Its partial sums reach the maximum, but the stream was cut: exact
        # used to read True here.
        endless = CountableSum(lambda i: Const(INF))
        assert evaluate(endless, NAT_INF, []) == (INF, False)
        ended = CountableSum(lambda i: Const(INF) if i < 3 else None)
        assert evaluate(ended, NAT_INF, []) == (INF, True)

    def test_a_countable_sum_weighs_the_same_beside_a_constant(self):
        # The sum may name v5, but over no arguments its cut form keeps only
        # constants, so 0 + S weighs what S does; 0 + S once raised
        # ArityError for v5.
        ones = CountableSum(lambda i: Const(1), var_bound=5)
        plus_zero = SumNode((Const(0), ones))
        assert evaluate(plus_zero, NAT_INF, []) == evaluate(ones, NAT_INF, []) == (64, False)

    def test_cached_countable_terms(self):
        calls = []

        def term(i):
            calls.append(i)
            return Const(1) if i < 3 else None

        finite = CountableSum(term, var_bound=0)
        assert evaluate(finite, NAT_INF, [], truncation=2) == (2, False)
        assert evaluate(finite, NAT_INF, [], truncation=10) == (3, True)
        assert evaluate(finite, NAT_INF, [], truncation=10) == (3, True)
        assert calls == [0, 1, 2, 3]

    def test_threads_generate_each_term_once_in_order(self):
        # Threads cutting one sum at different truncations extend one term
        # cache; each term must still be generated once, in stream order.
        # The generator lets other threads run while it works.
        calls = []
        start = threading.Barrier(8)

        def term(i):
            calls.append(i)
            time.sleep(0)
            return Const(i) if i < 200 else None

        def cut(n):
            start.wait(timeout=30)
            aggregator._cut(countable, NAT_INF, 0, n)

        countable = CountableSum(term, var_bound=0)
        threads = [threading.Thread(target=cut, args=(n,)) for n in (50, 300, 100, 250, 150, 201, 64, 128)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == list(range(201))
        assert evaluate(countable, NAT_INF, [], truncation=300) == (sum(range(200)), True)
