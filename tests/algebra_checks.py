"""Reusable algebraic checks, shared between the unit and acceptance suites."""

from __future__ import annotations

import random

from fractions import Fraction

from wars.aggregator import Const, ProdNode, SumNode, Var
from wars.semiring import INF, NEG_INF, Semiring


def sample(desc: Semiring, rng: random.Random):
    """A random value of ``desc``'s carrier: the law and flag checks' input.
    Products draw their components in order."""
    kind = desc.kind
    if kind in ("nat_inf", "tropical"):
        return INF if rng.random() < 0.08 else rng.randrange(0, 24)
    if kind == "real_inf":
        if rng.random() < 0.08:
            return INF
        return Fraction(rng.randrange(0, 40), rng.randrange(1, 8))
    if kind in ("arctic", "bottleneck"):
        r = rng.random()
        if r < 0.06:
            return NEG_INF
        if r < 0.12:
            return INF
        return rng.randrange(0, 24) if kind == "arctic" else rng.randrange(-20, 21)
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "confidence":
        d = rng.randrange(1, 9)
        return Fraction(rng.randrange(0, d + 1), d)
    if kind == "language":
        words = set()
        for _ in range(rng.randrange(0, 4)):
            length = rng.randrange(0, 4)
            words.add("".join(rng.choice(desc.alphabet) for _ in range(length)))
        return frozenset(words)
    if kind == "product":
        return tuple(sample(c, rng) for c in desc.components)
    raise ValueError(f"no sampler for the {kind} carrier")


def random_aggregator_expr(rng: random.Random, arity: int, depth: int = 0):
    """A small random expression over non-negative integer constants."""
    roll = rng.random()
    if roll < 0.35 and arity:
        return Var(rng.randrange(1, arity + 1))
    if roll < 0.6 or depth >= 2:
        return Const(rng.randrange(0, 5))
    node = SumNode if rng.random() < 0.5 else ProdNode
    return node(
        tuple(
            random_aggregator_expr(rng, arity, depth + 1)
            for _ in range(rng.randrange(1, 4))
        )
    )


def check_semiring_laws(desc: Semiring, rng: random.Random, samples: int) -> None:
    zero, one = desc.zero, desc.one
    for _ in range(samples):
        a, b, c = sample(desc, rng), sample(desc, rng), sample(desc, rng)
        assert desc.plus(a, b) == desc.plus(b, a)
        assert desc.plus(desc.plus(a, b), c) == desc.plus(a, desc.plus(b, c))
        assert desc.times(desc.times(a, b), c) == desc.times(a, desc.times(b, c))
        assert desc.plus(zero, a) == a
        assert desc.times(one, a) == a
        assert desc.times(a, one) == a
        assert desc.times(zero, a) == zero
        assert desc.times(a, zero) == zero
        assert desc.times(a, desc.plus(b, c)) == desc.plus(
            desc.times(a, b), desc.times(a, c)
        )
        assert desc.times(desc.plus(b, c), a) == desc.plus(
            desc.times(b, a), desc.times(c, a)
        )


def check_order(desc: Semiring, rng: random.Random, samples: int) -> None:
    for _ in range(samples):
        s, u = sample(desc, rng), sample(desc, rng)
        assert desc.leq(s, s)
        assert desc.leq(s, desc.plus(s, u))
        assert desc.leq(desc.zero, s)
        assert desc.leq(s, desc.top)
        if s != u and desc.leq(s, u):
            assert not desc.leq(u, s)


def check_monotonicity(desc: Semiring, rng: random.Random, samples: int) -> None:
    for _ in range(samples):
        s, gap, u = sample(desc, rng), sample(desc, rng), sample(desc, rng)
        t = desc.plus(s, gap)
        assert desc.leq(desc.plus(s, u), desc.plus(t, u))
        assert desc.leq(desc.times(s, u), desc.times(t, u))
        assert desc.leq(desc.times(u, s), desc.times(u, t))


def check_join(desc: Semiring, rng: random.Random, samples: int) -> None:
    probes = desc.probe_values()
    for _ in range(samples):
        values = [sample(desc, rng) for _ in range(rng.randrange(1, 5))]
        j = desc.join(values)
        for v in values:
            assert desc.leq(v, j)
        for ub in probes:
            if all(desc.leq(v, ub) for v in values):
                assert desc.leq(j, ub)


def check_omega_sum(desc: Semiring, rng: random.Random, samples: int) -> None:
    for _ in range(samples):
        t = sample(desc, rng)
        omega = desc.omega_sum(t)
        acc = t
        stabilized = False
        for _ in range(64):
            assert desc.leq(acc, omega)
            nxt = desc.plus(acc, t)
            if nxt == acc:
                stabilized = True
                break
            acc = nxt
        if stabilized:
            assert omega == acc
        else:
            # Non-stabilizing partial sums: the limit must absorb one more
            # summand and dominate every partial sum seen.
            assert desc.plus(omega, t) == omega


def check_flags(desc: Semiring, rng: random.Random, samples: int) -> None:
    for _ in range(samples):
        a, b = sample(desc, rng), sample(desc, rng)
        if desc.plus_is_selective:
            assert desc.plus(a, b) in (a, b)
        if desc.times_is_selective:
            assert desc.times(a, b) in (a, b)
        if desc.has_extremal_property and a != desc.top and b != desc.top:
            assert desc.plus(a, b) != desc.top
            assert desc.times(a, b) != desc.top


def check_all(desc: Semiring, seed: int, samples: int) -> None:
    rng = random.Random(seed)
    check_semiring_laws(desc, rng, samples)
    check_order(desc, rng, samples)
    check_monotonicity(desc, rng, samples)
    check_join(desc, rng, samples)
    check_omega_sum(desc, rng, samples)
    check_flags(desc, rng, samples)
