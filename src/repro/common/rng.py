"""Seeded randomness helpers.

Every stochastic component in the repro package takes an explicit integer
seed and derives child seeds with :func:`derive_seed`, so that adding a new
random draw in one component never perturbs the stream of another.
"""

from __future__ import annotations

import hashlib
import random
from math import cos, exp, log, sin, sqrt, tau
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base: int, *labels: str | int) -> int:
    """Derive a stable child seed from ``base`` and a label path.

    Uses BLAKE2 rather than Python's ``hash`` so results are stable across
    processes and interpreter versions.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(base).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest(), "big")


class SeededRNG:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def child(self, *labels: str | int) -> "SeededRNG":
        """Return an independent generator for a named sub-domain."""
        return SeededRNG(derive_seed(self.seed, *labels))

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def uniform_list(self, low: float, high: float, count: int) -> list[float]:
        """``count`` uniform draws as a list; identical stream to calling
        :meth:`uniform` ``count`` times (the batch form exists for hot
        paths that draw thousands of values per call).  Each draw is
        ``random.Random.uniform``'s own ``a + (b - a) * random()``."""
        draw = self._random.random
        span = high - low
        return [low + span * draw() for _ in range(count)]

    def random_list(self, count: int) -> list[float]:
        """``count`` draws of :meth:`random` as a list, same stream."""
        draw = self._random.random
        return [draw() for _ in range(count)]

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample; ``rate`` in events/second."""
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        return self._random.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        return self._random.gauss(mean, stddev)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one item with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        return self._random.choices(items, weights=weights, k=1)[0]

    @staticmethod
    def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
        """Normalized Zipf popularity weights for ranks ``1..count``.

        Deterministic given the arguments (no random draw); lives here so
        workload code has a single popularity vocabulary.
        """
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative: {exponent}")
        raw = [1.0 / (rank**exponent) for rank in range(1, count + 1)]
        total = sum(raw)
        return [weight / total for weight in raw]


class LogNormalStream(list):
    """Seeded ``math.exp(random.Random(seed).gauss(0.0, sigma))`` factors,
    drawn a block at a time, held in reverse: a hot site takes one with
    ``f = s.pop() if s else s.refill_pop()`` — one C call, no Python frame.

    A block is CPython's ``random.gauss`` arithmetic pair for pair (the
    cosine, then the sine ``gauss`` keeps as ``gauss_next``), so each
    factor is the float the per-draw call returns.  :meth:`getstate` is
    the generator state after the factors consumed, not after the
    read-ahead: a second generator lags at the last state it returned and
    catches up by the count, a pair as two ``random()`` calls and an odd
    last factor as one ``gauss()``.  ``None`` is the state of a stream
    that never drew.
    """

    #: Factors per refill.
    BLOCK = 128

    __slots__ = ("seed", "sigma", "_random", "_lag", "_drawn")

    def __init__(self, seed: int, sigma: float) -> None:
        super().__init__()
        self.seed = seed
        self.sigma = sigma
        self._random: random.Random | None = None  # made by the first refill
        self._lag: random.Random | None = None  # made by the first getstate
        self._drawn = 0  # factors drawn past _lag: consumed + len(self)

    def refill_pop(self) -> float:
        """Draw the next block into the (empty) stream; take its first factor."""
        generator = self._random
        if generator is None:
            generator = self._random = random.Random(self.seed)
        draw = generator.random
        sigma = self.sigma
        self[:] = uniforms = [draw() for _ in range(self.BLOCK)]
        # Pairs last to first, sine before cosine: the factors reversed.
        x2pis = [u1 * tau for u1 in uniforms[-2::-2]]  # tau is random.TWOPI
        g2rads = [sqrt(-2.0 * log(1.0 - u2)) for u2 in uniforms[::-2]]
        self[::2] = [exp(0.0 + sin(a) * r * sigma) for a, r in zip(x2pis, g2rads)]
        self[1::2] = [exp(0.0 + cos(a) * r * sigma) for a, r in zip(x2pis, g2rads)]
        self._drawn += self.BLOCK
        return self.pop()

    def getstate(self) -> tuple | None:
        """The generator state after the factors consumed so far."""
        if self._random is None:
            return None
        lag = self._lag
        if lag is None:
            lag = self._lag = random.Random(self.seed)
        # ``gauss`` takes explicit arguments: Python 3.10 has no defaults,
        # and ``gauss_next`` does not depend on them.
        count = self._drawn - len(self)
        if count and lag.gauss_next is not None:
            lag.gauss(0.0, 1.0)  # the pending sine is the next factor
            count -= 1
        draw = lag.random
        for _ in range(count - count % 2):
            draw()
        if count % 2:
            lag.gauss(0.0, 1.0)
        self._drawn = len(self)
        return lag.getstate()

    def setstate(self, state: tuple | None) -> None:
        """Resume from a :meth:`getstate` state; a pending ``gauss_next``
        (an odd count consumed) is the next factor."""
        generator = lag = None
        if state is not None:
            generator, lag = random.Random(self.seed), random.Random(self.seed)
            generator.setstate(state)
            lag.setstate(state)
        self.clear()
        self._random, self._lag, self._drawn = generator, lag, 0
        if state is not None and state[2] is not None:
            self.append(exp(0.0 + state[2] * self.sigma))
            self._drawn = 1


def spread(values: Iterable[float], total: float) -> list[float]:
    """Rescale ``values`` so they sum to ``total`` (empty input -> empty)."""
    items = list(values)
    current = sum(items)
    if not items:
        return []
    if current <= 0:
        share = total / len(items)
        return [share] * len(items)
    factor = total / current
    return [value * factor for value in items]
