"""Tests for the streaming trace-replay compiler (repro.workloads.replay)."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.common.rng import SeededRNG
from repro.workloads.replay import (
    ARRIVAL_MODEL_NAMES,
    DiurnalArrivals,
    HashAffinity,
    PoissonArrivals,
    PopularityWeighted,
    UniformArrivals,
    as_paths,
    assign_regions,
    compile_trace,
    make_arrival_model,
)
from repro.workloads.trace import AppTrace, ProductionTrace, TraceGenerator
from tests.workloads.oracles import naive_diurnal_times

GOLDEN = Path(__file__).parent / "data" / "golden_stream_prefix.json"


def small_trace(app_count=4, windows=3, seed=5) -> ProductionTrace:
    return TraceGenerator(
        app_count=app_count,
        duration_hours=windows * 12.0,
        window_hours=12.0,
        mean_requests_per_window=120.0,
        seed=seed,
    ).generate()


class TestArrivalModels:
    @pytest.mark.parametrize("name", ARRIVAL_MODEL_NAMES)
    def test_times_sorted_and_inside_window(self, name):
        model = make_arrival_model(name)
        times = model.times(SeededRNG(3), start_s=100.0, window_s=60.0, count=200)
        assert times == sorted(times)
        assert all(100.0 <= at < 160.0 for at in times)

    @pytest.mark.parametrize("name", ARRIVAL_MODEL_NAMES)
    def test_deterministic_under_seed(self, name):
        model = make_arrival_model(name)
        one = model.times(SeededRNG(9), 0.0, 600.0, 50)
        two = model.times(SeededRNG(9), 0.0, 600.0, 50)
        assert one == two

    def test_uniform_yields_exactly_count(self):
        times = UniformArrivals().times(SeededRNG(1), 0.0, 100.0, 77)
        assert len(times) == 77

    def test_diurnal_yields_exactly_count(self):
        times = DiurnalArrivals().times(SeededRNG(1), 0.0, 43_200.0, 77)
        assert len(times) == 77

    def test_poisson_count_is_approximate(self):
        counts = [
            len(PoissonArrivals().times(SeededRNG(seed), 0.0, 3600.0, 500))
            for seed in range(8)
        ]
        assert any(count != 500 for count in counts)  # unconditioned process
        average = sum(counts) / len(counts)
        assert 400 <= average <= 600  # mean tracks the window count

    def test_zero_count_yields_nothing(self):
        for name in ARRIVAL_MODEL_NAMES:
            assert make_arrival_model(name).times(SeededRNG(0), 0.0, 60.0, 0) == []

    def test_diurnal_ramp_shapes_density(self):
        # A window centered on the peak hour must out-draw one centered
        # half a period away, at identical counts per window.
        model = DiurnalArrivals(amplitude=0.9)
        peak_window = model.times(
            SeededRNG(4), start_s=12.0 * 3600.0, window_s=4 * 3600.0, count=400
        )
        # Count arrivals in the half of the window nearer the peak.
        nearer = sum(1 for at in peak_window if at >= 13.0 * 3600.0)
        assert nearer > len(peak_window) / 2

    def test_diurnal_validation(self):
        with pytest.raises(WorkloadError):
            DiurnalArrivals(amplitude=1.5)

    def test_unknown_model_rejected(self):
        with pytest.raises(WorkloadError):
            make_arrival_model("fractal")

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        count=st.one_of(st.sampled_from([0, 1]), st.integers(2, 5000)),
        window=st.sampled_from(
            [(0.0, 3600.0), (43_200.0, 43_200.0), (7.5, 43_200.0),
             (1e6, 60.0), (3.6e6, 1800.0)]
        ),
        amplitude=st.sampled_from([0.0, 0.8, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_diurnal_matches_the_per_draw_body_it_replaced(
        self, seed, count, window, amplitude
    ):
        # times() builds random.choices' cumulative table once per call;
        # the oracle lets choices rebuild it for every arrival.
        start_s, window_s = window
        model = DiurnalArrivals(amplitude=amplitude)
        times = model.times(SeededRNG(seed), start_s, window_s, count)
        naive = naive_diurnal_times(model, SeededRNG(seed), start_s, window_s, count)
        assert [at.hex() for at in times] == [at.hex() for at in naive]
        assert times == sorted(times)
        assert all(start_s <= at < start_s + window_s for at in times)


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


def _stream_digest(stream) -> str:
    digest = hashlib.sha256()
    for at, app, entry in stream:
        digest.update(f"{at.hex()} {app} {entry}\n".encode())
    return digest.hexdigest()


class TestStreamDigest:
    """Whole compiled streams, pinned from the ``(at, app_index, entry)``
    sort the stable sort on ``at`` replaced.  The ``wide`` app's twelve
    handlers sort ``h0, h1, h10, h11, h2, …``, not in rank order."""

    DIGESTS = {
        ("uniform", 1): "979d2d0fceede877df6f4398c3dc6b1594da802f17d8180e44942d578bad3074",
        ("uniform", 42): "672c1e15a5c23ed4f19f4f00a1d37d85bd22657d6ba4b2e5cfdce81d876ed6b4",
        ("diurnal", 1): "fcaa37210e0444f6892b6dbad5c430aaf7418681a97ac4829c7214bc98b5fe60",
        ("diurnal", 42): "3a2ba92fdfbb8161aa9988a752f35b8456319f411b0138974515a2dcbbb0c9db",
        ("poisson", 1): "3b97dde5863a9cc20207e60c0ef4a434def3ed7af490a4b197d1d0d66adea117",
        ("poisson", 42): "3802075bb677c6cf2f6dbaa6f396d116362730e334d2848fe1fae203814d059e",
    }

    @pytest.mark.parametrize("model, seed", sorted(DIGESTS))
    def test_stream_digest_is_pinned(self, model, seed):
        trace = TraceGenerator(
            app_count=6, duration_hours=36.0, window_hours=12.0,
            mean_requests_per_window=200.0, seed=7,
        ).generate()
        handlers = tuple(f"h{rank}" for rank in range(12))
        counts = {handler: 5 + rank for rank, handler in enumerate(handlers)}
        trace.apps.append(AppTrace(name="wide", handlers=handlers, windows=[counts] * 2))
        stream = compile_trace(trace, model=make_arrival_model(model), seed=seed)
        assert _stream_digest(stream) == self.DIGESTS[model, seed]

    def test_ties_order_by_app_index_then_handler_name(self):
        class Constant:  # every arrival of a window at its start: all tie
            @staticmethod
            def times(rng, start_s, window_s, count):
                return [start_s] * count

        trace = ProductionTrace(
            window_hours=1.0,
            apps=[
                AppTrace(name="b", handlers=("h2", "h10", "h1"),
                         windows=[{"h2": 1, "h10": 2, "h1": 1}] * 2),
                AppTrace(name="a", handlers=("h0",), windows=[{"h0": 1}]),
            ],
        )
        indexed = sorted(
            (window * 3600.0, index, entry)
            for index, app in enumerate(trace.apps)
            for window, counts in enumerate(app.windows)
            for entry, count in counts.items()
            for _ in range(count)
        )
        expected = [(at, trace.apps[index].name, entry) for at, index, entry in indexed]
        assert list(compile_trace(trace, model=Constant())) == expected


class TestCompileTrace:
    def test_is_lazy(self):
        stream = compile_trace(small_trace(), seed=1)
        assert iter(stream) is stream  # a generator, not a list
        first = next(stream)
        assert len(first) == 3

    def test_globally_time_ordered(self):
        events = list(compile_trace(small_trace(), seed=2))
        times = [at for at, _, _ in events]
        assert times == sorted(times)

    def test_deterministic_under_seed(self):
        trace = small_trace()
        one = list(compile_trace(trace, seed=42))
        two = list(compile_trace(trace, seed=42))
        other = list(compile_trace(trace, seed=43))
        assert one == two
        assert one != other

    def test_uniform_volume_matches_trace_counts(self):
        trace = small_trace()
        events = list(compile_trace(trace, seed=3))
        expected = sum(app.total_invocations() for app in trace.apps)
        assert len(events) == expected
        # Per-app totals match too.
        per_app = {}
        for _, app, _ in events:
            per_app[app] = per_app.get(app, 0) + 1
        for app in trace.apps:
            assert per_app.get(app.name, 0) == app.total_invocations()

    def test_scale_shrinks_volume_deterministically(self):
        trace = small_trace()
        full = len(list(compile_trace(trace, seed=3)))
        tenth = len(list(compile_trace(trace, seed=3, scale=0.1)))
        assert 0 < tenth < full / 5
        assert tenth == len(list(compile_trace(trace, seed=3, scale=0.1)))

    def test_adding_an_app_never_perturbs_existing_streams(self):
        trace = small_trace(app_count=3)
        grown = ProductionTrace(
            window_hours=trace.window_hours,
            apps=trace.apps
            + [AppTrace(name="extra", handlers=("h0",), windows=[{"h0": 10}])],
        )
        base = [e for e in compile_trace(trace, seed=5)]
        widened = [
            e for e in compile_trace(grown, seed=5) if e[1] != "extra"
        ]
        assert base == widened

    def test_events_respect_window_bounds(self):
        trace = small_trace(windows=2)
        window_s = trace.window_hours * 3600.0
        events = list(compile_trace(trace, seed=8))
        assert all(0.0 <= at < 2 * window_s for at, _, _ in events)

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            next(compile_trace(small_trace(), scale=0.0))


class TestAsPaths:
    def test_projects_urls_and_passes_tags_through(self):
        events = [(1.0, "shop", "checkout"), (2.0, "img", "resize")]
        assert list(as_paths(events)) == [
            (1.0, "/shop/checkout"),
            (2.0, "/img/resize"),
        ]
        tagged = [(1.0, "shop", "checkout", "us")]
        assert list(as_paths(tagged)) == [(1.0, "/shop/checkout", "us")]


class TestRegionAssigners:
    def test_hash_affinity_is_stable_and_order_free(self):
        one = HashAffinity(["us", "eu", "ap"])
        two = HashAffinity(["us", "eu", "ap"])
        for app in ("app000", "app001", "checkout", "imgproc"):
            assert one.region_for(app) == two.region_for(app)

    def test_hash_affinity_spreads_apps(self):
        assigner = HashAffinity(["us", "eu"])
        homes = {assigner.region_for(f"app{i:03d}") for i in range(40)}
        assert homes == {"us", "eu"}

    def test_popularity_weights_skew_assignment(self):
        assigner = PopularityWeighted(["big", "small"], weights=[9.0, 1.0], seed=3)
        homes = [assigner.region_for(f"app{i:03d}") for i in range(200)]
        assert homes.count("big") > 140

    def test_popularity_weighted_validation(self):
        with pytest.raises(WorkloadError):
            PopularityWeighted(["us", "eu"], weights=[1.0])
        with pytest.raises(WorkloadError):
            PopularityWeighted(["us", "eu"], weights=[0.0, 0.0])
        with pytest.raises(WorkloadError):
            PopularityWeighted([])
        with pytest.raises(WorkloadError):
            HashAffinity(["us", "us"])

    def test_assign_regions_tags_lazily_and_consistently(self):
        trace = small_trace()
        assigner = HashAffinity(["us", "eu"])
        stream = assign_regions(compile_trace(trace, seed=4), assigner)
        assert iter(stream) is stream
        homes: dict[str, set] = {}
        for at, app, entry, region in itertools.islice(stream, 500):
            homes.setdefault(app, set()).add(region)
        for app, regions in homes.items():
            assert len(regions) == 1  # one origin per app
            assert regions == {assigner.region_for(app)}
