"""Carrier operations: examples, laws, orders, joins, infinite sums, literals."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from algebra_checks import check_all, sample
from reference_eval import reference_leq
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
    LiteralError,
    Product,
    SemiringError,
)

# Whether the interpreter limits the digits of an integer printed as text.
LIMITED_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0
LANG01 = Language(("0", "1"))
NAT_BOOL = Product((NAT_INF, BOOLEAN))
ALL_DESCRIPTORS = [
    NAT_INF,
    REAL_INF,
    TROPICAL,
    ARCTIC,
    BOOLEAN,
    CONFIDENCE,
    BOTTLENECK,
    LANG01,
    NAT_BOOL,
    Product((ARCTIC, ARCTIC)),
]


class TestPlus:
    def test_arctic_is_max(self):
        assert ARCTIC.plus(7, 10) == 10

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_zero_is_identity(self, desc):
        rng = random.Random(1)
        for _ in range(20):
            s = sample(desc, rng)
            assert desc.plus(desc.zero, s) == s

    def test_product_is_pointwise(self):
        assert NAT_BOOL.plus((2, True), (3, False)) == (5, True)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            NAT_INF.plus(1, True)
        with pytest.raises(CarrierMismatch):
            NAT_INF.plus(Fraction(1, 2), 1)


class TestTimes:
    def test_arctic_is_addition(self):
        assert ARCTIC.times(2, 10) == 12

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_zero_annihilates(self, desc):
        rng = random.Random(2)
        for _ in range(20):
            s = sample(desc, rng)
            assert desc.times(desc.zero, s) == desc.zero
            assert desc.times(s, desc.zero) == desc.zero

    def test_language_pairwise_concatenation(self):
        a = frozenset({"1"})
        b = frozenset({"", "0"})
        assert LANG01.times(a, b) == frozenset({"1", "10"})

    def test_counting_zero_times_infinity(self):
        assert NAT_INF.times(0, INF) == 0
        assert REAL_INF.times(INF, 0) == 0

    def test_language_top_products(self):
        assert LANG01.times(ALL_WORDS, LANG01.one) is ALL_WORDS
        assert LANG01.times(ALL_WORDS, LANG01.zero) == LANG01.zero
        with pytest.raises(SemiringError):
            LANG01.times(ALL_WORDS, frozenset({"1"}))

    @pytest.mark.parametrize("alphabet", [(), ("a", "a"), ("",), ("0", "")])
    def test_language_alphabet_of_distinct_non_empty_symbols(self, alphabet):
        # Splitting a word into symbols would never advance past an empty one.
        with pytest.raises(ValueError, match="distinct non-empty symbols"):
            Language(alphabet)

    @pytest.mark.parametrize(
        "alphabet",
        [("eps", "a"), ("a,b", "c"), ("{a",), ("a}",), ("(a",), ("a)",), (" a",), ("a ",),
         ("a\t",), ("\na",)],
    )
    def test_language_symbols_print_back(self, alphabet):
        # Each symbol would print a literal that parses to another value, or
        # to none.
        with pytest.raises(ValueError, match="none of them 'eps'"):
            Language(alphabet)

    @pytest.mark.parametrize(
        "alphabet", [("e", "p", "s"), ("ep", "s"), ("e", "ps"), ("x", "e", "p", "s"), ("e", "psx", "ps")]
    )
    def test_language_symbols_that_spell_eps(self, alphabet):
        # The word 'eps' would print as {eps}, the empty word's literal.
        with pytest.raises(ValueError, match=r"spells 'eps', the empty word's literal$"):
            Language(alphabet)

    @pytest.mark.parametrize("alphabet", [("e", "p"), ("ep", "x"), ("ps", "x"), ("epsx",)])
    def test_language_words_print_back(self, alphabet):
        lang = Language(alphabet)
        words = frozenset({"", *alphabet, "".join(alphabet), alphabet[-1] + alphabet[0]})
        assert lang.parse_literal(lang.format_literal(words)) == words


class TestLanguageMembership:
    # Not prefix-free: "abc" is a.bc, while the longest match "ab" leaves "c".
    OVERLAPPING = Language(("a", "ab", "bc"))

    @pytest.mark.parametrize("word", ["", "a", "ab", "abc", "abcbc", "aab", "abab", "aabc"])
    def test_every_decomposition_counts(self, word):
        assert self.OVERLAPPING.contains(frozenset({word}))
        literal = "{" + (word or "eps") + "}"
        assert self.OVERLAPPING.parse_literal(literal) == frozenset({word})
        assert self.OVERLAPPING.format_literal(frozenset({word})) == literal

    @pytest.mark.parametrize("word", ["b", "c", "ac", "abcb", "cab", "abd"])
    def test_words_without_a_decomposition(self, word):
        assert not self.OVERLAPPING.contains(frozenset({word}))
        with pytest.raises(LiteralError, match="does not decompose"):
            self.OVERLAPPING.parse_literal("{" + word + "}")

    def test_inner_whitespace_is_part_of_a_symbol(self):
        spaced = Language(("a b", "c"))
        assert spaced.parse_literal("{ a bc }") == frozenset({"a bc"})


class TestLeq:
    def test_tropical_order_is_reversed(self):
        assert TROPICAL.leq(5, 3)
        assert not TROPICAL.leq(3, 5)

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_reflexive(self, desc):
        rng = random.Random(3)
        for _ in range(20):
            s = sample(desc, rng)
            assert desc.leq(s, s)

    def test_language_is_subset(self):
        assert LANG01.leq(frozenset({"0"}), frozenset({"0", "1"}))
        assert not LANG01.leq(frozenset({"0", "1"}), frozenset({"0"}))
        assert LANG01.leq(frozenset({"0"}), ALL_WORDS)
        assert not LANG01.leq(ALL_WORDS, frozenset({"0"}))


class TestLeqIsTheJoinOrder:
    DESCRIPTORS = [
        BOOLEAN,
        LANG01,
        Language(("a", "ab", "bc")),
        NAT_BOOL,
        Product((LANG01, BOOLEAN)),
        Product((TROPICAL, Product((BOOLEAN, Language(("x", "yz")))))),
        Product((Product((REAL_INF, BOOLEAN)), Product((LANG01, ARCTIC)))),
    ]

    @pytest.mark.parametrize("desc", DESCRIPTORS, ids=repr)
    def test_matches_the_spelled_out_order(self, desc):
        rng = random.Random(5)
        values = desc.probe_values() + [sample(desc, rng) for _ in range(40)]
        if isinstance(desc, Language):
            assert ALL_WORDS in values
        for a in values:
            for b in values:
                assert desc.leq(a, b) is reference_leq(desc, a, b), (a, b)

    @pytest.mark.parametrize("desc", DESCRIPTORS, ids=repr)
    def test_both_arguments_are_checked(self, desc):
        for bad in (None, -1, "x"):
            with pytest.raises(CarrierMismatch):
                desc.leq(bad, desc.zero)
            with pytest.raises(CarrierMismatch):
                desc.leq(desc.zero, bad)


class TestJoin:
    def test_counting_is_max(self):
        assert NAT_INF.join([2, 5]) == 5

    def test_tropical_join_probed(self):
        # The supremum of {2, 5} in the reversed order: an exhaustive probe
        # over {0..10, inf} finds no upper bound strictly below 2.
        j = TROPICAL.join([2, 5])
        assert j == 2
        probe = list(range(11)) + [INF]
        for ub in probe:
            if TROPICAL.leq(2, ub) and TROPICAL.leq(5, ub):
                assert TROPICAL.leq(j, ub)

    def test_tuple_join_is_pointwise(self):
        assert NAT_BOOL.join([(1, True), (4, False)]) == (4, True)

    def test_empty_join_rejected(self):
        with pytest.raises(SemiringError):
            NAT_INF.join([])

    def test_language_top_absorbs(self):
        assert LANG01.join([frozenset({"0"}), ALL_WORDS]) is ALL_WORDS


class TestOmegaSum:
    def test_counting_diverges(self):
        assert NAT_INF.omega_sum(4) is INF
        assert REAL_INF.omega_sum(Fraction(1, 7)) is INF

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_zero_stays_zero(self, desc):
        assert desc.omega_sum(desc.zero) == desc.zero

    def test_arctic_stabilizes(self):
        # Iterating the addition ten times never moves past the first value.
        acc = 5
        for _ in range(10):
            acc = ARCTIC.plus(acc, 5)
        assert acc == 5
        assert ARCTIC.omega_sum(5) == 5


class TestProductDescriptor:
    def test_identities_are_pointwise(self):
        assert NAT_BOOL.zero == (0, False)
        assert NAT_BOOL.one == (1, True)
        assert NAT_BOOL.top == (INF, True)

    def test_two_non_tops_can_reach_top(self):
        arc2 = Product((ARCTIC, ARCTIC))
        a, b = (0, INF), (INF, 0)
        assert a != arc2.top and b != arc2.top
        assert arc2.plus(a, b) == (INF, INF) == arc2.top
        assert arc2.has_extremal_property is False

    def test_flags_not_inherited(self):
        trop2 = Product((TROPICAL, TROPICAL))
        assert not trop2.plus_is_selective
        assert not trop2.has_extremal_property


class TestLiterals:
    @pytest.mark.parametrize(
        "desc,text",
        [
            (NAT_INF, "17"),
            (NAT_INF, "inf"),
            (REAL_INF, "2/3"),
            (ARCTIC, "-inf"),
            (BOOLEAN, "true"),
            (CONFIDENCE, "1/4"),
            (BOTTLENECK, "-3"),
            (LANG01, "{eps,0,10}"),
            (LANG01, "SIGMA*"),
            (NAT_BOOL, "(2,true)"),
        ],
    )
    def test_round_trip(self, desc, text):
        value = desc.parse_literal(text)
        assert desc.parse_literal(desc.format_literal(value)) == value

    def test_decimal_is_exact(self):
        assert REAL_INF.parse_literal("0.25") == Fraction(1, 4)

    def test_bad_literals(self):
        with pytest.raises(LiteralError):
            NAT_INF.parse_literal("-3")
        with pytest.raises(LiteralError):
            CONFIDENCE.parse_literal("3/2")
        with pytest.raises(LiteralError):
            LANG01.parse_literal("{2}")

    @pytest.mark.parametrize(
        "desc,value",
        [
            (NAT_INF, 10 ** 5000),
            (REAL_INF, Fraction(1, 10 ** 5000)),
            (BOTTLENECK, -(10 ** 5000)),
            (NAT_BOOL, (10 ** 5000, True)),
        ],
        ids=["nat_inf", "real_inf", "bottleneck", "product"],
    )
    @pytest.mark.skipif(not LIMITED_DIGITS, reason="integers print at any length here")
    def test_too_many_digits_is_a_semiring_error(self, desc, value):
        # The interpreter limits the digits of an integer printed as text;
        # the limit stays, and hitting it is a carrier-level error.
        with pytest.raises(SemiringError, match="cannot print the value"):
            desc.format_literal(value)


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: repr(d))
def test_law_suite_small(desc):
    check_all(desc, seed=11, samples=150)


def test_extreme_markers():
    assert NEG_INF < 0 < INF
    assert NEG_INF < INF
    assert not INF < INF
    assert INF <= INF
    assert max(3, INF) is INF
    assert min(Fraction(1, 2), NEG_INF) is NEG_INF
