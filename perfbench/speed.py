"""Host speed calibration: a fixed slice of plain-Python work timed between ops.

The benchmark runs on shared virtual machines whose CPU speed drifts by 30%
and more over seconds, for reasons outside the guest.  A slice of fixed work
resembling the program's (dict and tuple traffic, attribute access, small-int
and ``Fraction`` arithmetic) slows down with it.  The benchmark times a slice
before every op and after the last one, and scales an op's CPU seconds by
``REFERENCE_SLICE_S`` over the mean of the slices on either side: the result
is the op's cost at the reference speed.  The slice never calls ``wars``, so
a change to the program cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# CPU seconds of one slice on the baseline machine (Python 3.11.7, Intel Xeon
# VM) in its fast state.  Only ratios between runs matter; the constant keeps
# normalized values close to real CPU seconds.
REFERENCE_SLICE_S = 0.006

_NODES = 600
_ROUNDS = 12


class _Node:
    __slots__ = ("succ", "weight")

    def __init__(self, succ: tuple, weight: int):
        self.succ = succ
        self.weight = weight

    def step(self, values: dict) -> int:
        best = 0
        for b in self.succ:
            v = values.get(b, 0)
            if isinstance(v, int) and v + self.weight > best:
                best = v + self.weight
        return best % 1009


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        self._nodes = {
            (i, i % 7): _Node(tuple((j, j % 7) for j in rng.sample(range(_NODES), 3)), rng.randrange(9))
            for i in range(_NODES)
        }

    def slice_s(self) -> float:
        """CPU seconds of one slice of fixed work."""
        start = time.process_time()
        values: dict = {}
        for _ in range(_ROUNDS):
            values = {key: node.step(values) for key, node in self._nodes.items()}
        total = Fraction(0)
        for i in range(150):
            total += Fraction(values[(i, i % 7)] + 1, 3 ** (i % 11 + 1))
        return time.process_time() - start

    def factor(self, before: float, after: float) -> float:
        """Scale from measured CPU seconds to seconds at the reference speed."""
        return REFERENCE_SLICE_S / ((before + after) / 2)
