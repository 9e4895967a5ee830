"""Weighted picks from cumulative weights built once.

``random.choices(items, weights=w, k=1)`` rebuilds the cumulative list on
every call.  The population samplers call it once per install (hundreds
of thousands of times at scale) over weight lists that never change, so
:class:`WeightedPicker` accumulates them once and then runs the exact body
of ``random.choices``: one ``rng.random()`` and a bisect over the same
cumulative floats.  A pick equals the ``choices`` pick from the same RNG
state and leaves the RNG in the same state.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import isfinite
from typing import Generic, Iterable, Sequence, TypeVar

__all__ = ["WeightedPicker"]

T = TypeVar("T")


class WeightedPicker(Generic[T]):
    """``rng.choices(items, weights=weights, k=1)[0]`` with the sums cached.

    Raises the same ``ValueError`` as ``random.choices`` for a length
    mismatch or a total that is not positive and finite, at construction
    instead of at every pick.
    """

    __slots__ = ("items", "cum", "total", "hi")

    def __init__(self, items: Sequence[T], weights: Iterable[float]):
        self.items = tuple(items)
        self.cum = list(accumulate(weights))
        if len(self.cum) != len(self.items):
            raise ValueError("The number of weights does not match the population")
        self.total = self.cum[-1] + 0.0 if self.cum else 0.0
        if self.total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not isfinite(self.total):
            raise ValueError("Total of weights must be finite")
        self.hi = len(self.items) - 1

    def pick(self, rng: random.Random) -> T:
        """One weighted pick (one ``rng.random()`` draw)."""
        return self.items[bisect(self.cum, rng.random() * self.total, 0, self.hi)]
