"""Complete-lattice semirings: carriers, operations, natural order, and literals.

Every carrier here is a naturally ordered semiring in which arbitrary suprema
exist, so it has a minimum (the additive identity) and a maximum ``top``.
Values are plain Python objects (ints, Fractions, bools, frozensets of words,
tuples); the descriptor classes below carry the operations and the capability
flags that the analysis passes rely on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable


class SemiringError(Exception):
    """Base class for semiring-level failures."""


class CarrierMismatch(SemiringError):
    """A value does not belong to the carrier an operation expects."""


class LiteralError(SemiringError):
    """A value literal could not be parsed for the given carrier."""


class _Extreme:
    """Positive or negative infinity, comparable with ints and Fractions."""

    __slots__ = ("_sign", "_name")

    def __init__(self, sign: int, name: str):
        self._sign = sign
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __lt__(self, other):
        if isinstance(other, _Extreme):
            return self._sign < other._sign
        return self._sign < 0

    def __le__(self, other):
        if isinstance(other, _Extreme):
            return self._sign <= other._sign
        return self._sign < 0

    def __gt__(self, other):
        if isinstance(other, _Extreme):
            return self._sign > other._sign
        return self._sign > 0

    def __ge__(self, other):
        if isinstance(other, _Extreme):
            return self._sign >= other._sign
        return self._sign > 0

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((self._sign, "extreme"))


INF = _Extreme(1, "inf")
NEG_INF = _Extreme(-1, "-inf")


class _AllWords:
    """Symbolic maximum of the word-set carrier: the set of all words."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SIGMA*"


ALL_WORDS = _AllWords()

# A language symbol that literals print back: not eps, no delimiter, no outer whitespace.
_SYMBOL = re.compile(r"(?!eps\Z)[^\s,{}()](?:[^,{}()]*[^\s,{}()])?")
_INTEGER, _RATIONAL = re.compile(r"-?\d+"), re.compile(r"-?\d+[/.]\d+")


def _parse_number(text: str):
    text = text.strip()
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    except ValueError as exc:  # past the interpreter's limit on digits
        raise LiteralError(f"numeric literal too long: {exc}") from exc
    except ZeroDivisionError as exc:
        raise LiteralError(f"zero denominator: {text!r}") from exc
    raise LiteralError(f"not a numeric literal: {text!r}")


def _format_number(value) -> str:
    try:
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
        return repr(value) if isinstance(value, _Extreme) else str(value)
    except ValueError as exc:
        # The interpreter's limit on digits in integer-to-text conversion.
        raise SemiringError(f"cannot print the value: {exc}") from exc


class Semiring:
    """One carrier with its operations; instances are immutable and stateless.

    ``zero`` is the additive identity and the minimum of the natural order,
    ``one`` the multiplicative identity, ``top`` the order maximum.  The flag
    attributes describe properties the boundedness checks consume:
    selectivity (the operation always returns one of its arguments) and the
    extremal property (no sum or product of non-top values reaches ``top``).
    """

    kind: str = ""
    plus_is_selective = False
    times_is_selective = False
    has_extremal_property = False

    zero = None
    one = None
    top = None

    def contains(self, value) -> bool:
        raise NotImplementedError

    def require(self, value) -> None:
        if not self.contains(value):
            raise CarrierMismatch(
                f"{value!r} is not a value of the {self.kind} carrier"
            )

    def plus(self, a, b):
        self.require(a)
        self.require(b)
        return self._plus(a, b)

    def times(self, a, b):
        self.require(a)
        self.require(b)
        return self._times(a, b)

    def _plus(self, a, b):
        """``plus`` on values already known to be in the carrier."""
        raise NotImplementedError

    def _times(self, a, b):
        """``times`` on values already known to be in the carrier."""
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """Decide the natural order: a is below b, that is a join b is b."""
        self.require(a)
        self.require(b)
        return self._join([a, b]) == b

    def join(self, values: Iterable):
        """Supremum of a non-empty finite collection.

        Callers must supply ``zero`` explicitly for an empty join; passing an
        empty collection is an error.
        """
        vals = list(values)
        if not vals:
            raise SemiringError("join of an empty collection; pass zero explicitly")
        for v in vals:
            self.require(v)
        return self._join(vals)

    def _join(self, vals: list):
        raise NotImplementedError

    def omega_sum(self, t):
        """Closed form of the infinite sum t + t + ... (supremum of partial
        sums): t itself wherever addition is idempotent."""
        self.require(t)
        return t

    def parse_literal(self, text: str):
        raise NotImplementedError

    def format_literal(self, value) -> str:
        raise NotImplementedError

    def from_count(self, n: int):
        """Embed a small natural number; defined for additive carriers only."""
        raise SemiringError(f"{self.kind} has no canonical count embedding")

    def probe_values(self) -> list:
        """A small canonical value set covering zero, one, top, and midpoints."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<semiring {self.kind}>"


class _Numeric(Semiring):
    """Shared behaviour of the carriers of numbers and infinities: the
    maximum as join, so the usual order, and number literals.  A carrier
    whose order differs overrides the join."""

    def _join(self, vals):
        return max(vals)

    def parse_literal(self, text: str):
        v = _parse_number(text)
        if not self.contains(v):
            raise LiteralError(f"{text!r} is outside the {self.kind} carrier")
        return v

    def format_literal(self, value) -> str:
        self.require(value)
        return _format_number(value)


class _NumericCounting(_Numeric):
    """Shared behaviour of the extended naturals and extended nonnegative reals."""

    has_extremal_property = True
    zero = 0
    one = 1
    top = INF

    def _plus(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def _times(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a is INF or b is INF:
            return INF
        return a * b

    def omega_sum(self, t):
        self.require(t)
        return 0 if t == 0 else INF

    def from_count(self, n: int):
        return n


class NatInf(_NumericCounting):
    """Extended naturals with addition and multiplication."""

    kind = "nat_inf"

    def contains(self, value) -> bool:
        return value is INF or (isinstance(value, int) and not isinstance(value, bool) and value >= 0)

    def probe_values(self):
        return [0, 1, 2, 5, 10 ** 6, INF]


class RealInf(_NumericCounting):
    """Extended nonnegative reals (exact rationals) with addition and multiplication."""

    kind = "real_inf"

    def contains(self, value) -> bool:
        if type(value) is Fraction:  # the common case, without Fraction's slow `>=`
            return value.numerator >= 0
        return value is INF or (isinstance(value, (int, Fraction)) and not isinstance(value, bool) and value >= 0)

    def from_count(self, n: int):
        return Fraction(n)

    def probe_values(self):
        return [0, Fraction(1, 3), 1, 2, Fraction(9, 2), 10 ** 6, INF]


class Tropical(_Numeric):
    """Extended naturals under minimum and addition.

    The natural order is the reverse of the usual one: the additive identity
    is inf and the order maximum is 0.
    """

    kind = "tropical"
    plus_is_selective = True
    has_extremal_property = True
    zero = INF
    one = 0
    top = 0

    def contains(self, value) -> bool:
        return value is INF or (isinstance(value, int) and not isinstance(value, bool) and value >= 0)

    def _plus(self, a, b):
        return min(a, b)

    def _times(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def _join(self, vals):
        return min(vals)

    def probe_values(self):
        return [INF, 10 ** 6, 10, 5, 2, 1, 0]


class Arctic(_Numeric):
    """Naturals extended by -inf and inf, under maximum and addition."""

    kind = "arctic"
    plus_is_selective = True
    has_extremal_property = True
    zero = NEG_INF
    one = 0
    top = INF

    def contains(self, value) -> bool:
        if value is INF or value is NEG_INF:
            return True
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def _plus(self, a, b):
        return max(a, b)

    def _times(self, a, b):
        if a is NEG_INF or b is NEG_INF:
            return NEG_INF
        if a is INF or b is INF:
            return INF
        return a + b

    def probe_values(self):
        return [NEG_INF, 0, 1, 5, 10 ** 6, INF]


class Boolean(Semiring):
    """Truth values under disjunction and conjunction."""

    kind = "boolean"
    plus_is_selective = True
    times_is_selective = True
    has_extremal_property = True
    zero = False
    one = True
    top = True

    def contains(self, value) -> bool:
        return isinstance(value, bool)

    def _plus(self, a, b):
        return a or b

    def _times(self, a, b):
        return a and b

    def _join(self, vals):
        return any(vals)

    def parse_literal(self, text: str):
        text = text.strip()
        if text == "true":
            return True
        if text == "false":
            return False
        raise LiteralError(f"not a boolean literal: {text!r}")

    def format_literal(self, value) -> str:
        self.require(value)
        return "true" if value else "false"

    def probe_values(self):
        return [False, True]


class Confidence(_Numeric):
    """Rationals in [0, 1] under maximum and multiplication."""

    kind = "confidence"
    plus_is_selective = True
    has_extremal_property = True
    zero = 0
    one = 1
    top = 1

    def contains(self, value) -> bool:
        if isinstance(value, bool):
            return False
        return isinstance(value, (int, Fraction)) and 0 <= value <= 1

    def _plus(self, a, b):
        return max(a, b)

    def _times(self, a, b):
        return a * b

    def parse_literal(self, text: str):
        v = _parse_number(text)
        if not self.contains(v):
            raise LiteralError(f"{text!r} is outside [0, 1]")
        return v

    def probe_values(self):
        return [0, Fraction(1, 4), Fraction(1, 2), Fraction(7, 8), 1]


class Bottleneck(_Numeric):
    """Extended reals under maximum and minimum."""

    kind = "bottleneck"
    plus_is_selective = True
    times_is_selective = True
    has_extremal_property = True
    zero = NEG_INF
    one = INF
    top = INF

    def contains(self, value) -> bool:
        if value is INF or value is NEG_INF:
            return True
        return isinstance(value, (int, Fraction)) and not isinstance(value, bool)

    def _plus(self, a, b):
        return max(a, b)

    def _times(self, a, b):
        return min(a, b)

    def probe_values(self):
        return [NEG_INF, -5, 0, 3, 10 ** 6, INF]


class Language(Semiring):
    """Finite word sets over a fixed alphabet, under union and concatenation.

    Only finite languages are representable, plus the symbolic maximum
    ``ALL_WORDS`` (every word).  Concatenating ``ALL_WORDS`` with a language
    other than the empty set or the unit is an infinite proper language and
    raises, since it has no finite representation here.
    """

    kind = "language"
    zero = frozenset()
    top = ALL_WORDS

    def __init__(self, alphabet: Iterable[str]):
        symbols = tuple(alphabet)
        # An empty symbol would split words without advancing; the others
        # would print word-set literals that do not parse back.
        if not symbols or len(set(symbols)) != len(symbols) or not all(map(_SYMBOL.fullmatch, symbols)):
            raise ValueError(
                "alphabet must be a non-empty set of distinct non-empty symbols, none of "
                "them 'eps', holding ',', '{', '}', '(' or ')', or with whitespace at an end"
            )
        self.alphabet = symbols
        if self._split_word("eps"):
            raise ValueError(f"alphabet {symbols} spells 'eps', the empty word's literal")
        self.one = frozenset({""})

    def _split_word(self, word: str) -> bool:
        # The positions that some decomposition of a prefix reaches.
        reached = {0}
        for i in range(len(word)):
            if i in reached:
                reached.update(i + len(s) for s in self.alphabet if word.startswith(s, i))
        return len(word) in reached

    def contains(self, value) -> bool:
        if value is ALL_WORDS:
            return True
        if not isinstance(value, frozenset):
            return False
        return all(isinstance(w, str) and self._split_word(w) for w in value)

    def _plus(self, a, b):
        if a is ALL_WORDS or b is ALL_WORDS:
            return ALL_WORDS
        return a | b

    def _times(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        if a is ALL_WORDS or b is ALL_WORDS:
            other = b if a is ALL_WORDS else a
            if other is ALL_WORDS or other == self.one:
                return ALL_WORDS
            raise SemiringError(
                "concatenation with SIGMA* leaves the finite-language carrier"
            )
        return frozenset(u + v for u in a for v in b)

    def _join(self, vals):
        if any(v is ALL_WORDS for v in vals):
            return ALL_WORDS
        out = frozenset()
        for v in vals:
            out |= v
        return out

    def parse_literal(self, text: str):
        text = text.strip()
        if text == "SIGMA*":
            return ALL_WORDS
        if not (text.startswith("{") and text.endswith("}")):
            raise LiteralError(f"not a word-set literal: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return frozenset()
        words = set()
        for part in body.split(","):
            part = part.strip()
            word = "" if part == "eps" else part
            if not self._split_word(word):
                raise LiteralError(
                    f"word {part!r} does not decompose over alphabet {self.alphabet}"
                )
            words.add(word)
        return frozenset(words)

    def format_literal(self, value) -> str:
        self.require(value)
        if value is ALL_WORDS:
            return "SIGMA*"
        parts = ["eps" if w == "" else w for w in sorted(value, key=lambda w: (len(w), w))]
        return "{" + ",".join(parts) + "}"

    def probe_values(self):
        a = self.alphabet[0]
        return [
            frozenset(),
            frozenset({""}),
            frozenset({a}),
            frozenset({"", a, a + a}),
            ALL_WORDS,
        ]

    def __repr__(self) -> str:
        return f"<semiring language over {''.join(self.alphabet)}>"


class Product(Semiring):
    """Pointwise product of component semirings.

    Sums, products, order, joins, and omega sums are all componentwise.  The
    extremal property is never inherited: summing two non-top tuples can fill
    every slot with a component top and so reach the tuple top.
    """

    kind = "product"

    def __init__(self, components: Iterable[Semiring]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a product needs at least one component")
        self.components = comps
        self.zero = tuple(c.zero for c in comps)
        self.one = tuple(c.one for c in comps)
        self.top = tuple(c.top for c in comps)

    def contains(self, value) -> bool:
        if not isinstance(value, tuple) or len(value) != len(self.components):
            return False
        return all(c.contains(v) for c, v in zip(self.components, value))

    def _plus(self, a, b):
        return tuple(c._plus(x, y) for c, x, y in zip(self.components, a, b))

    def _times(self, a, b):
        return tuple(c._times(x, y) for c, x, y in zip(self.components, a, b))

    def _join(self, vals):
        return tuple(
            c._join([v[i] for v in vals]) for i, c in enumerate(self.components)
        )

    def omega_sum(self, t):
        self.require(t)
        return tuple(c.omega_sum(x) for c, x in zip(self.components, t))

    def from_count(self, n: int):
        return tuple(c.from_count(n) for c in self.components)

    def parse_literal(self, text: str):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise LiteralError(f"not a tuple literal: {text!r}")
        parts = _split_top_level(text[1:-1])
        if len(parts) != len(self.components):
            raise LiteralError(
                f"tuple literal has {len(parts)} slots, carrier has {len(self.components)}"
            )
        return tuple(c.parse_literal(p) for c, p in zip(self.components, parts))

    def format_literal(self, value) -> str:
        self.require(value)
        inner = ",".join(c.format_literal(v) for c, v in zip(self.components, value))
        return f"({inner})"

    def probe_values(self):
        probes = [c.probe_values() for c in self.components]
        width = max(len(p) for p in probes)
        out = [tuple(p[min(i, len(p) - 1)] for p in probes) for i in range(width)]
        return out + [self.zero, self.one, self.top]

    def __repr__(self) -> str:
        inner = ", ".join(c.kind for c in self.components)
        return f"<semiring product({inner})>"


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested in parentheses or braces."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


NAT_INF = NatInf()
REAL_INF = RealInf()
TROPICAL = Tropical()
ARCTIC = Arctic()
BOOLEAN = Boolean()
CONFIDENCE = Confidence()
BOTTLENECK = Bottleneck()


_SIMPLE_KINDS = {
    "nat_inf": NAT_INF,
    "real_inf": REAL_INF,
    "tropical": TROPICAL,
    "arctic": ARCTIC,
    "boolean": BOOLEAN,
    "confidence": CONFIDENCE,
    "bottleneck": BOTTLENECK,
}


# Product carriers apply every operation componentwise, a few stack frames
# per level, so their nesting stays far below the recursion limit.
MAX_PRODUCT_DEPTH = 16


def descriptor_from_spec(spec: dict, nesting: int = 1) -> Semiring:
    """Build a descriptor from its JSON form (see the system file format).

    ``nesting`` is the number of products the spec sits in, this one
    included; products nest at most ``MAX_PRODUCT_DEPTH`` deep.
    """
    if not isinstance(spec, dict):
        raise LiteralError("a semiring spec must be a JSON object")
    kind = spec.get("kind")
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind]
    if kind == "language":
        alphabet = spec.get("alphabet")
        if isinstance(alphabet, list) and all(isinstance(a, str) for a in alphabet):
            try:
                return Language(alphabet)
            except ValueError:
                pass
        raise LiteralError("language semiring needs an 'alphabet' list of distinct symbols")
    if kind == "product":
        comps = spec.get("components")
        if not comps or not isinstance(comps, list):
            raise LiteralError("product semiring needs a 'components' list")
        if nesting > MAX_PRODUCT_DEPTH:
            raise LiteralError(f"product semirings nest at most {MAX_PRODUCT_DEPTH} deep")
        return Product(descriptor_from_spec(c, nesting + 1) for c in comps)
    raise LiteralError(f"unknown semiring kind: {kind!r}")
