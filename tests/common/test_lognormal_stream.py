"""``LogNormalStream`` against the running interpreter's own ``random.gauss``.

Every factor must be the float ``math.exp(random.Random(seed).gauss(0.0,
sigma))`` returns, and every state the generator state after exactly the
factors consumed — never after the block drawn ahead.  The reference is
this interpreter's ``random`` module, so a CPython whose Box–Muller
differs fails here instead of drifting the goldens.
"""

from __future__ import annotations

import math
import random
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import rng
from repro.common.rng import LogNormalStream
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatform, SimPlatformConfig
from repro.synthlib.spec import Ecosystem

BLOCK = LogNormalStream.BLOCK
SEEDS = st.integers(0, 2**64 - 1)
SIGMAS = st.sampled_from([1e-3, 0.05, 2.0])


def take(stream: LogNormalStream) -> float:
    """The hot sites' idiom."""
    return stream.pop() if stream else stream.refill_pop()


def factor(reference: random.Random, sigma: float) -> float:
    return math.exp(reference.gauss(0.0, sigma))


class TestAgainstRandomGauss:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, sigma=SIGMAS, count=st.integers(0, 3 * BLOCK + 2))
    def test_factors_cross_block_edges(self, seed, sigma, count):
        stream = LogNormalStream(seed, sigma)
        reference = random.Random(seed)
        assert [take(stream) for _ in range(count)] == [
            factor(reference, sigma) for _ in range(count)
        ]
        assert stream.getstate() == (reference.getstate() if count else None)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        sigma=SIGMAS,
        steps=st.lists(
            st.tuples(
                st.integers(0, BLOCK + 3), st.sampled_from(["draw", "state", "resume"])
            ),
            max_size=8,
        ),
    )
    def test_states_at_random_points(self, seed, sigma, steps):
        stream = LogNormalStream(seed, sigma)
        reference = random.Random(seed)
        drawn = 0
        for count, then in steps:
            for _ in range(count):
                assert take(stream) == factor(reference, sigma)
            drawn += count
            if then == "state":
                assert stream.getstate() == (reference.getstate() if drawn else None)
            elif then == "resume":
                state = stream.getstate()
                stream = LogNormalStream(seed, sigma)
                stream.setstate(state)
        assert stream.getstate() == (reference.getstate() if drawn else None)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        sigma=SIGMAS,
        pairs=st.integers(0, 2 * BLOCK),
        more=st.integers(0, 2 * BLOCK),
    )
    def test_resume_from_an_odd_count(self, seed, sigma, pairs, more):
        stream = LogNormalStream(seed, sigma)
        reference = random.Random(seed)
        for _ in range(2 * pairs + 1):
            take(stream)
            reference.gauss(0.0, sigma)
        state = stream.getstate()
        assert state == reference.getstate() and state[2] is not None
        resumed = LogNormalStream(seed, sigma)
        resumed.setstate(state)
        assert resumed.getstate() == state  # a round trip draws nothing
        assert [take(resumed) for _ in range(more)] == [
            factor(reference, sigma) for _ in range(more)
        ]
        assert resumed.getstate() == reference.getstate()

    def test_set_state_none_restarts_from_the_seed(self):
        stream = LogNormalStream(7, 0.05)
        take(stream)
        stream.setstate(None)
        assert stream.getstate() is None
        assert take(stream) == factor(random.Random(7), 0.05)

    def test_getstate_passes_gauss_its_arguments(self, monkeypatch):
        """Python 3.10's ``gauss(mu, sigma)`` has no defaults."""

        class Random310(random.Random):
            def gauss(self, mu, sigma):
                return super().gauss(mu, sigma)

        monkeypatch.setattr(rng, "random", types.SimpleNamespace(Random=Random310))
        stream = LogNormalStream(11, 0.05)
        reference = random.Random(11)
        for count in (3, 1, 2):  # odd, then a pending sine, then a pair
            for _ in range(count):
                assert take(stream) == factor(reference, 0.05)
            assert stream.getstate() == reference.getstate()


#: One entry, 35 ms of runtime init and 3 ms of handler: every request of
#: a simultaneous burst is a cold start that draws init, then exec.
APP = SimAppConfig(
    name="app",
    ecosystem=Ecosystem(),
    handler_imports=(),
    entries=(EntryBehavior("main", handler_self_ms=3.0),),
)


class TestSimBurst:
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, sigma=SIGMAS, length=st.integers(1, BLOCK + 1))
    def test_burst_state_equals_the_per_request_loop(self, seed, sigma, length):
        config = SimPlatformConfig(
            record_traces=False, jitter_sigma=sigma, jitter_seed=seed
        )
        burst, loop = SimPlatform(config=config), SimPlatform(config=config)
        for platform in (burst, loop):
            platform.deploy(APP)
        records = burst.invoke_burst("app", ["main"] * length, at=1.0)
        assert records == [loop.invoke("app", "main", at=1.0) for _ in range(length)]
        reference = random.Random(seed)
        for record in records:
            assert record.cold
            assert record.init_ms == 35.0 * factor(reference, sigma)
            assert record.exec_ms == 3.0 * factor(reference, sigma)
        assert burst._jitter.getstate() == loop._jitter.getstate()
        assert burst._jitter.getstate() == reference.getstate()
