"""Vectorized trace compilation is bit-identical to the python fallback.

The uniform and diurnal arrival models in :mod:`repro.workloads.replay`
carry two bodies — ``_times_python`` (the semantic definition) and
``_times_numpy`` (the batched accelerator installed by ``repro[fast]``)
— behind one seam; poisson has only the python one.  ``times()`` picks
per call by the group's size, :func:`compile_trace` per compile by the
whole trace's (``numpy_break_even``).  These tests pin the seam's whole
contract:

* both bodies emit bit-identical timestamps in identical order, across
  models, seeds, window placements, and counts straddling every
  ``vector_min`` threshold;
* a committed golden stream prefix (generated with the pure-python
  path) reproduces exactly, so CI's with-numpy and no-numpy legs are
  pinned to the *same* stream, not merely each to themselves;
* ``SLIMSTART_NO_NUMPY`` forces the fallback without uninstalling
  anything, and a numpy-less environment degrades silently;
* whichever way the per-compile gate falls, the stream is the committed
  one — and below a model's thresholds numpy is not even resolved.
"""

import json
import math
from itertools import islice
from pathlib import Path

import pytest

from repro.common.rng import SeededRNG, derive_seed
from repro.workloads import replay
from repro.workloads.replay import (
    DiurnalArrivals,
    UniformArrivals,
    compile_trace,
    make_arrival_model,
)
from repro.workloads.trace import TraceGenerator

GOLDEN = Path(__file__).parent / "data" / "golden_stream_prefix.json"

#: The models that carry a numpy body (poisson's never paid: deleted).
MODELS = [UniformArrivals(), DiurnalArrivals()]

numpy_only = pytest.mark.skipif(
    replay._load_numpy() is None, reason="numpy not installed"
)


@pytest.fixture()
def loads(monkeypatch):
    """One entry per ``_load_numpy()`` call made while the test runs."""
    calls = []
    real_load = replay._load_numpy
    monkeypatch.setattr(replay, "_load_numpy", lambda: calls.append(1) or real_load())
    return calls


def bits(times):
    """Timestamps as exact bit patterns (float.hex distinguishes -0.0)."""
    return [at.hex() for at in times]


class TestCrossImplementationEquality:
    @numpy_only
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "count,start_s,window_s",
        [
            (17, 0.0, 3600.0),
            (64, 43_200.0, 43_200.0),
            (191, 0.0, 43_200.0),  # straddles UniformArrivals.vector_min
            (257, 1e6, 1800.0),
            (1000, 7.5, 43_200.0),
        ],
    )
    def test_paths_bit_identical(self, model, count, start_s, window_s):
        np = replay._load_numpy()
        for seed_base in range(10):
            seed = derive_seed(seed_base, "replay", "app", 3, "handler")
            python = model._times_python(SeededRNG(seed), start_s, window_s, count)
            vector = model._times_numpy(np, SeededRNG(seed), start_s, window_s, count)
            assert bits(python) == bits(vector)

    @numpy_only
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_dispatch_crosses_threshold_transparently(self, model):
        # times() must agree with the python body on BOTH sides of
        # vector_min — the threshold is a pure perf knob, never visible
        # in the stream.
        for count in (model.vector_min - 1, model.vector_min):
            seed = derive_seed(11, "threshold", count)
            python = model._times_python(SeededRNG(seed), 0.0, 3600.0, count)
            assert bits(model.times(SeededRNG(seed), 0.0, 3600.0, count)) == bits(
                python
            )

    @numpy_only
    def test_below_threshold_stays_python(self, monkeypatch, loads):
        model = UniformArrivals()

        def boom(*args):  # pragma: no cover - failure path
            raise AssertionError("vectorized body used below vector_min")

        monkeypatch.setattr(UniformArrivals, "_times_numpy", boom)
        # ... and below it the numpy seam is not even consulted: a small
        # replay must never pay the import.
        model.times(SeededRNG(1), 0.0, 60.0, model.vector_min - 1)
        assert not loads
        with pytest.raises(AssertionError):
            model.times(SeededRNG(1), 0.0, 60.0, model.vector_min)
        assert loads


class TestEnvironmentSeam:
    def test_env_escape_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("SLIMSTART_NO_NUMPY", "1")
        assert replay._load_numpy() is None

    def test_fallback_stream_identical(self, monkeypatch):
        model = UniformArrivals()
        count = model.vector_min * 4
        seed = derive_seed(3, "env")
        default = model.times(SeededRNG(seed), 0.0, 43_200.0, count)
        monkeypatch.setenv("SLIMSTART_NO_NUMPY", "1")
        assert bits(model.times(SeededRNG(seed), 0.0, 43_200.0, count)) == bits(
            default
        )

    def test_missing_numpy_is_silent(self, monkeypatch):
        # Simulate an environment without the optional dependency: the
        # cached import is cleared and re-resolution fails — times()
        # must fall back without raising.
        import builtins

        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("numpy deliberately absent")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numpy)
        monkeypatch.setattr(replay, "_numpy_module", replay._UNSET)
        assert replay._load_numpy() is None
        times = UniformArrivals().times(SeededRNG(4), 0.0, 600.0, 300)
        assert len(times) == 300


class TestGoldenStreamPrefix:
    def test_committed_prefix_reproduces(self):
        golden = json.loads(GOLDEN.read_text())
        trace = TraceGenerator(**golden["trace"]).generate()
        for name, expected in golden["models"].items():
            model = make_arrival_model(name)
            stream = compile_trace(trace, model=model, seed=golden["compile_seed"])
            for index, (want_at, want_app, want_entry) in enumerate(expected):
                at, app, entry = next(stream)
                assert (at.hex(), app, entry) == (want_at, want_app, want_entry), (
                    f"{name} stream diverges at event {index}"
                )

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("break_even", [0, 10**12], ids=["numpy", "python"])
    def test_gate_side_is_invisible_in_the_stream(
        self, model, break_even, monkeypatch, loads
    ):
        # Force compile_trace's evidence gate each way through the model
        # ClassVar; both must reproduce the committed prefix, and the
        # python side must do so without resolving numpy at all.
        golden = json.loads(GOLDEN.read_text())
        trace = TraceGenerator(**golden["trace"]).generate()
        monkeypatch.setattr(type(model), "numpy_break_even", break_even)
        expected = golden["models"][model.name]
        stream = compile_trace(trace, model=model, seed=golden["compile_seed"])
        got = [(at.hex(), app, entry) for at, app, entry in islice(stream, len(expected))]
        assert got == [tuple(row) for row in expected]
        assert bool(loads) == (break_even == 0)

    def test_prefix_covers_vectorized_counts(self):
        # The pinned trace must actually exercise the vectorized bodies
        # (counts past every model's threshold), or the golden test
        # would only ever pin the fallback.
        golden = json.loads(GOLDEN.read_text())
        trace = TraceGenerator(**golden["trace"]).generate()
        top = max(
            count
            for app in trace.apps
            for window in app.windows
            for count in window.values()
        )
        assert top >= max(model.vector_min for model in MODELS)


class TestRekeyedRandomState:
    @numpy_only
    def test_list_seeding_matches_cpython_all_widths(self):
        # The accelerator re-keys one shared RandomState from the
        # SeededRNG's integer seed (list form — init_by_array); pin the
        # equivalence across word widths, including the 1-word seeds
        # where numpy's scalar/array seeding paths would NOT match.
        import random

        np = replay._load_numpy()
        for seed in (0, 1, 12345, 2**31, 2**32 - 1, 2**32, 2**40 + 7, 2**80 + 9):
            state = replay._np_rng(np, SeededRNG(seed))
            reference = random.Random(seed)
            expected = [reference.random() for _ in range(8)]
            assert state.random_sample(8).tolist() == expected
