"""Unit layer for :mod:`repro.faas.forecast` and the observe_window hook.

Covers the pieces the benchmark's headline claim stands on: parameter
validation fails loudly, the cluster feeds observation windows exactly
(admitted arrivals only, empty gap windows included), the
:class:`Predictive` policy degrades to its base while history is cold,
pre-warms/holds once warm, and round-trips its learned state through
``export_state``/``restore_state``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.common.errors import SpecError
from repro.faas.autoscale import (
    FleetView,
    PerRequest,
    TargetUtilization,
    WindowObservation,
    make_scaling_policy,
)
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.forecast import (
    FORECASTER_NAMES,
    EWMAForecaster,
    HoltWintersForecaster,
    Predictive,
    make_forecaster,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from tests.faas.serving import serve, serve_with_summary


@pytest.fixture(scope="module")
def app_config():
    from repro.synthlib.spec import Ecosystem
    from tests.conftest import make_dependent_library, make_small_library

    ecosystem = Ecosystem([make_small_library(), make_dependent_library()])
    ecosystem.validate()
    return SimAppConfig(
        name="app",
        ecosystem=ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
        ),
    )


def _platform(app_config, policy, *, max_containers=4, keep_alive_s=30.0, seed=7):
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
        ),
        fleet=FleetConfig(
            max_containers=max_containers,
            keep_alive_s=keep_alive_s,
            policy=policy,
        ),
        seed=seed,
    )
    platform.deploy(app_config)
    return platform


def _view(now, *, queued=0, in_flight=0, live=0, max_containers=8):
    return FleetView(
        now=now,
        queued=queued,
        in_flight=in_flight,
        live_containers=live,
        booting_slots=0,
        max_containers=max_containers,
        max_concurrency=1,
    )


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_ewma_alpha_range(self, alpha):
        with pytest.raises(SpecError):
            EWMAForecaster(alpha=alpha)

    def test_ewma_warmup_positive(self):
        with pytest.raises(SpecError):
            EWMAForecaster(warmup=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.2},
            {"beta": -0.1},
            {"beta": 1.1},
            {"gamma": -0.5},
            {"gamma": 2.0},
            {"season_windows": 1},
        ],
    )
    def test_holt_winters_parameter_ranges(self, kwargs):
        with pytest.raises(SpecError):
            HoltWintersForecaster(**kwargs)

    def test_forecast_horizon_must_be_positive(self):
        forecaster = EWMAForecaster(warmup=1)
        state = forecaster.new_state()
        forecaster.observe(state, 5.0)
        with pytest.raises(SpecError):
            forecaster.forecast(state, horizon=0)

    def test_predictive_window_positive(self):
        with pytest.raises(SpecError):
            Predictive(window_s=0.0)

    def test_predictive_lead_within_window(self):
        with pytest.raises(SpecError):
            Predictive(window_s=100.0, prewarm_lead_s=101.0)
        with pytest.raises(SpecError):
            Predictive(window_s=100.0, prewarm_lead_s=-1.0)

    def test_predictive_headroom_positive(self):
        with pytest.raises(SpecError):
            Predictive(headroom=0.0)

    def test_predictive_hold_floor_non_negative(self):
        with pytest.raises(SpecError):
            Predictive(hold_min_arrivals=-1.0)
        with pytest.raises(SpecError):  # ``nan < 0`` is False; still refused
            Predictive(hold_min_arrivals=math.nan)

    def test_predictive_rejects_predictive_base(self):
        with pytest.raises(SpecError):
            Predictive(base=Predictive())

    def test_predictive_rejects_non_policy_base(self):
        with pytest.raises(SpecError):
            Predictive(base=EWMAForecaster())

    def test_predictive_rejects_non_forecaster(self):
        with pytest.raises(SpecError):
            Predictive(forecaster=PerRequest())


class TestFactories:
    def test_make_forecaster_names(self):
        assert isinstance(make_forecaster("ewma"), EWMAForecaster)
        assert isinstance(make_forecaster("holt-winters"), HoltWintersForecaster)
        assert make_forecaster("holt-winters", season_windows=12).season_windows == 12

    def test_make_forecaster_rejects_unknown(self):
        with pytest.raises(SpecError):
            make_forecaster("arima")

    def test_season_windows_rejected_for_ewma(self):
        with pytest.raises(SpecError):
            make_forecaster("ewma", season_windows=24)

    def test_forecaster_names_registry(self):
        assert FORECASTER_NAMES == ("ewma", "holt-winters")

    def test_make_scaling_policy_builds_predictive(self):
        policy = make_scaling_policy(
            "predictive",
            target=0.5,
            forecaster="holt-winters",
            season_windows=12,
            forecast_window_s=1800.0,
            prewarm_lead_s=600.0,
            prewarm_headroom=1.5,
        )
        assert isinstance(policy, Predictive)
        assert isinstance(policy.base, TargetUtilization)
        assert policy.base.target == 0.5
        assert isinstance(policy.forecaster, HoltWintersForecaster)
        assert policy.forecaster.season_windows == 12
        assert policy.window_s == 1800.0
        assert policy.prewarm_lead_s == 600.0
        assert policy.headroom == 1.5

    def test_make_scaling_policy_predictive_defaults(self):
        policy = make_scaling_policy("predictive")
        assert isinstance(policy, Predictive)
        assert isinstance(policy.forecaster, EWMAForecaster)


class _Recorder(TargetUtilization):
    """A reactive policy that additionally records every closed window."""

    observed: list  # shared, assigned by the test

    def observation_window_s(self) -> float:
        return 50.0

    def observe_window(self, state, observation: WindowObservation) -> None:
        type(self).observed.append(observation)


class TestClusterWindowFeed:
    def test_windows_close_lazily_with_gap_windows(self, app_config):
        _Recorder.observed = []
        platform = _platform(app_config, _Recorder(target=0.7))
        # Window 0 gets two arrivals, window 1 one, windows 2-3 are an
        # idle gap, window 4 sees the closing arrival.
        serve(platform, [(at, "app", "main") for at in (0.0, 10.0, 60.0, 220.0)])
        closed = [(obs.index, obs.arrivals) for obs in _Recorder.observed]
        assert closed == [(0, 2), (1, 1), (2, 0), (3, 0)]
        for obs in _Recorder.observed:
            assert obs.start_s == obs.index * 50.0
            assert obs.end_s == (obs.index + 1) * 50.0

    def test_reactive_policies_keep_no_window_state(self, app_config):
        platform = _platform(app_config, PerRequest())
        fleet = platform._fleet("app")
        assert fleet.obs_window_s is None
        serve(platform, [(at, "app", "main") for at in (0.0, 10.0, 120.0)])
        assert fleet.window_index is None
        assert fleet.window_arrivals == 0

    def test_observation_feed_precedes_the_closing_arrival(self, app_config):
        # The arrival that closes a window must not be counted in it.
        _Recorder.observed = []
        platform = _platform(app_config, _Recorder(target=0.7))
        serve(platform, [(at, "app", "main") for at in (0.0, 49.9, 50.0)])
        assert [(o.index, o.arrivals) for o in _Recorder.observed] == [(0, 2)]


class TestPredictivePolicy:
    def _warm_policy(self):
        policy = Predictive(
            base=TargetUtilization(target=0.7),
            forecaster=EWMAForecaster(alpha=0.5, warmup=1),
            window_s=100.0,
            headroom=1.0,
        )
        state = policy.new_state()
        state.open_peak = 2
        policy.observe_window(
            state, WindowObservation(index=0, start_s=0.0, end_s=100.0, arrivals=10)
        )
        return policy, state

    def test_cold_state_defers_to_base(self):
        policy = Predictive(base=TargetUtilization(target=0.7))
        state = policy.new_state()
        view = _view(5.0, queued=3)
        assert policy.scale_out(state, view) == TargetUtilization(
            target=0.7
        ).scale_out(None, view)
        assert state.hold_until == -math.inf

    def test_observe_window_learns_ratio_and_feeds_forecaster(self):
        policy, state = self._warm_policy()
        assert state.last_fed == 0
        assert state.ratio == 0.2  # peak 2 over 10 arrivals
        assert state.open_peak == 0  # reset for the next window
        assert policy.forecaster.forecast(state.fc) == 10.0

    @pytest.mark.parametrize(
        "overrides, now, live, boot, hold_until",
        [
            # In window 1, forecast 10 arrivals * ratio 0.2 = 2 containers:
            # 2 wanted, 1 live; held through window 1.
            ({}, 110.0, 1, 1, 200.0),
            # Inside the lead (now=195 >= 200-10) the target is window 2.
            (dict(prewarm_lead_s=10.0), 195.0, 2, 0, 300.0),
            ({}, 110.0, 5, 0, -math.inf),  # 2 wanted < 5 live: no hold
            # Forecast 10 is below the floor: the pre-warm boot still
            # happens, but the fleet isn't held ...
            (dict(hold_min_arrivals=20.0), 110.0, 1, 1, -math.inf),
            # ... and exactly at the floor it is.
            (dict(hold_min_arrivals=10.0), 110.0, 1, 1, 200.0),
        ],
        ids=["prewarm-and-hold", "prewarm-lead", "below-fleet-size", "below-hold-floor",
             "at-hold-floor"],
    )
    def test_warm_forecast(self, overrides, now, live, boot, hold_until):
        policy, state = self._warm_policy()
        policy = Predictive(
            base=policy.base, forecaster=policy.forecaster, window_s=100.0,
            headroom=1.0, **overrides,
        )
        assert policy.scale_out(state, _view(now, live=live)) == boot
        assert state.hold_until == hold_until

    def test_idle_expiry_extends_to_hold_but_keeps_the_floor(self):
        policy, state = self._warm_policy()
        policy.scale_out(state, _view(110.0, live=1))
        assert state.hold_until == 200.0
        # Keep-alive would retire at 150: the hold extends it.
        assert policy.idle_expiry(state, 120.0, 30.0, False) == 200.0
        # Past the hold, the keep-alive floor rules again.
        assert policy.idle_expiry(state, 300.0, 30.0, False) == 330.0

    def test_prewarm_respects_max_containers(self):
        policy = Predictive(
            base=TargetUtilization(target=0.7),
            forecaster=EWMAForecaster(alpha=1.0, warmup=1),
            window_s=100.0,
            headroom=1.0,
        )
        state = policy.new_state()
        state.open_peak = 50
        policy.observe_window(
            state, WindowObservation(index=0, start_s=0.0, end_s=100.0, arrivals=50)
        )
        view = _view(110.0, live=0, max_containers=4)
        assert policy.scale_out(state, view) <= 4

    def test_delegations_follow_the_base(self):
        grace = TargetUtilization(target=0.7, scale_to_zero_grace_s=30.0)
        assert Predictive(base=grace).uses_last_of_fleet()
        assert not Predictive(base=TargetUtilization()).uses_last_of_fleet()
        assert Predictive().quiet_in_flight(4, 2) == -1
        assert Predictive(window_s=42.0).observation_window_s() == 42.0


class TestPredictiveStateRoundTrip:
    def test_fresh_state_is_json_safe(self):
        policy = Predictive()
        payload = json.dumps(policy.export_state(policy.new_state()))
        restored = policy.restore_state(json.loads(payload))
        assert restored.hold_until == -math.inf
        assert restored.last_fed is None

    def test_learned_state_round_trips_exactly(self):
        policy = Predictive(
            base=TargetUtilization(target=0.6),
            forecaster=HoltWintersForecaster(season_windows=3),
            window_s=100.0,
        )
        state = policy.new_state()
        for index, arrivals in enumerate((7, 19, 3, 11, 23, 5)):
            state.open_peak = max(1, arrivals // 4)
            policy.observe_window(
                state,
                WindowObservation(
                    index=index,
                    start_s=index * 100.0,
                    end_s=(index + 1) * 100.0,
                    arrivals=arrivals,
                ),
            )
        state.hold_until = 700.0
        exported = policy.export_state(state)
        restored = policy.restore_state(json.loads(json.dumps(exported)))
        assert policy.export_state(restored) == exported
        # The restored state forecasts identically.
        assert policy.forecaster.forecast(restored.fc, 2) == policy.forecaster.forecast(
            state.fc, 2
        )


class TestPredictiveOnCluster:
    def test_cold_history_matches_base_policy_exactly(self, app_config):
        """Shorter than one window, the predictive path never engages."""
        base = TargetUtilization(target=0.6)
        runs = []
        for policy in (base, Predictive(base=base, window_s=3600.0)):
            platform = _platform(app_config, policy)
            records, summary = serve_with_summary(
                platform, [(0.7 * index, "app", "main") for index in range(40)]
            )
            runs.append((records, summary))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_prewarm_beats_reactive_base_on_sparse_periodic_traffic(
        self, app_config
    ):
        """Steady sparse arrivals outliving keep-alive: the reactive base
        pays a cold start per request; once warm, the predictive wrapper
        holds the fleet through forecast-busy windows instead."""
        base = TargetUtilization(target=0.7)
        cold_counts = {}
        for label, policy in (
            ("base", base),
            (
                "predictive",
                Predictive(
                    base=base,
                    forecaster=EWMAForecaster(),
                    window_s=600.0,
                    headroom=1.2,
                ),
            ),
        ):
            platform = _platform(app_config, policy, keep_alive_s=30.0)
            # Every 100 s for two hours.
            serve(platform, [(100.0 * index, "app", "main") for index in range(73)])
            cold_counts[label] = platform._fleet("app").cold_starts
        assert cold_counts["predictive"] < cold_counts["base"]
