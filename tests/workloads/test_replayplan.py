"""``ReplayPlan`` on its own: the derived fingerprint and the library run.

The CLI-facing behaviour (the rule table, the per-engine goldens) lives
in ``tests/test_cli.py``; here the plan is exercised without argparse.
"""

import dataclasses
import json

import pytest

from repro.common.errors import SpecError
from repro.faas.autoscale import PanicWindow, TargetUtilization
from repro.faas.cluster import FleetConfig
from repro.metrics import QOS_PRESETS, PricingModel
from repro.workloads.replayplan import ReplayPlan

#: A different valid value for every field of the plan.  The test below
#: fails when a field is added without a row here, so a new field cannot
#: dodge the "does it belong in the fingerprint?" question.
OTHER = {
    "apps": 3,
    "duration_hours": 48.0,
    "window_hours": 6.0,
    "requests_per_window": 50.0,
    "shift_hours": (24.0,),
    "seed": 8,
    "arrival_model": "diurnal",
    "scale": 0.5,
    "qos_mix": (QOS_PRESETS["critical"], QOS_PRESETS["batch"]),
    "fleet": FleetConfig(keep_alive_s=120.0, policy=TargetUtilization()),
    "pricing": PricingModel(cold_start_surcharge=0.01),
    "exec_ms": 3.0,
    "regions": ("us", "eu"),
    "assignment": "popularity-weighted",
    "region_weights": (3.0, 1.0),
    "routing": "locality",
    "latency_ms": 40.0,
    "spillover": 4,
    "app": "R-GB",
    "rates": (2.0,),
    "duration_s": 300.0,
    "workers": 2,
    "checkpoint": "replay.ckpt",
    "journal": "run.jsonl",
    "trace_sample": 0.5,
    "progress": True,
    "profile": True,
}

#: Engine and telemetry fields: they pick how a replay runs or what
#: watches it, never its result, so a resume may change them.
UNFINGERPRINTED = {
    "workers", "checkpoint", "journal", "trace_sample", "progress", "profile",
}

#: The Poisson source's rates and duration: fingerprinted only when the
#: plan has a source ``app``, so a trace replay's fingerprint keeps its
#: bytes.
SOURCE = {"rates", "duration_s"}


class TestFingerprint:
    def test_every_field_has_an_alternative_value(self):
        assert set(OTHER) == {f.name for f in dataclasses.fields(ReplayPlan)}

    @pytest.mark.parametrize("name", sorted(OTHER))
    def test_field_moves_the_fingerprint_unless_excluded(self, name):
        base = ReplayPlan(app="R-SA") if name in SOURCE else ReplayPlan()
        assert getattr(base, name) != OTHER[name]
        changed = dataclasses.replace(base, **{name: OTHER[name]})
        if name in UNFINGERPRINTED:
            assert changed.fingerprint() == base.fingerprint()
            assert name not in base.fingerprint()
        else:
            assert changed.fingerprint() != base.fingerprint()

    def test_a_trace_replay_fingerprint_names_no_source(self):
        fingerprint = ReplayPlan(rates=(2.0,), duration_s=300.0).fingerprint()
        assert fingerprint == ReplayPlan().fingerprint()
        assert not {"app", *SOURCE} & set(fingerprint)

    @pytest.mark.parametrize(
        "plan",
        [
            ReplayPlan(),
            ReplayPlan(**{k: v for k, v in OTHER.items() if k not in UNFINGERPRINTED}),
        ],
        ids=["defaults", "everything-set"],
    )
    def test_survives_a_json_round_trip(self, plan):
        # Checkpoints compare the fingerprint after json.load: tuples,
        # dataclasses or an infinite QoS deadline must not break equality.
        fingerprint = plan.fingerprint()
        assert json.loads(json.dumps(fingerprint)) == fingerprint

    def test_policies_with_equal_parameters_stay_distinct(self):
        # PanicWindow extends TargetUtilization: the type name is part of
        # the identity, not just the parameter values.
        utilization = ReplayPlan(fleet=FleetConfig(policy=TargetUtilization()))
        panic = ReplayPlan(fleet=FleetConfig(policy=PanicWindow()))
        assert utilization.fingerprint() != panic.fingerprint()
        assert panic.fingerprint()["fleet"]["policy"]["type"] == "PanicWindow"


class TestRun:
    SMALL = dict(apps=3, duration_hours=24.0, scale=0.05)

    def test_validate_runs_before_anything_is_built(self):
        with pytest.raises(SpecError, match="--workers must be at least 1"):
            ReplayPlan(workers=0, **self.SMALL).run()

    def test_plain_run_reports_every_arrival(self):
        run = ReplayPlan(**self.SMALL).run()
        summary = run.summary
        assert summary.arrivals == summary.completed + summary.shed > 0
        assert (run.resumed, run.served, run.phases) == (False, None, None)

    def test_federated_run_counts_served_per_region(self):
        run = ReplayPlan(regions=("us", "eu"), **self.SMALL).run()
        assert set(run.served) == {"us", "eu"}
        assert sum(run.served.values()) == run.summary.arrivals

    @pytest.mark.parametrize(
        "engine",
        [{}, {"checkpoint": "C.ckpt"}, {"regions": ("us", "eu")},
         {"workers": 2, "checkpoint": "C.ckpt"}],
        ids=["plain", "checkpoint", "federated", "workers-checkpoint"],
    )
    def test_journal_header_carries_the_plan_fingerprint(
        self, tmp_path, monkeypatch, engine
    ):
        # A journal names the replay that wrote it, whatever the engine.
        monkeypatch.chdir(tmp_path)
        plan = ReplayPlan(journal="J.jsonl", **engine, **self.SMALL)
        plan.run()
        header = json.loads((tmp_path / "J.jsonl").read_text().split("\n", 1)[0])
        assert header["kind"] == "journal"
        assert header["fingerprint"] == plan.fingerprint()

    def test_poisson_cluster_run_reports_every_arrival(self):
        run = ReplayPlan(app="R-GB", rates=(2.0,), duration_s=60.0).run()
        summary = run.summary
        assert summary.arrivals == summary.completed + summary.shed > 60
        assert (run.served, len(summary.windows)) == (None, 1)

    def test_poisson_regions_broadcast_one_rate(self):
        one = ReplayPlan(app="R-GB", regions=("us", "eu"), rates=(2.0,), duration_s=60.0)
        both = dataclasses.replace(one, rates=(2.0, 2.0))
        run = one.run()
        assert run == both.run()
        assert sum(run.served.values()) == run.summary.arrivals


class TestPlanOnlyRules:
    """The rows of ``_PLAN_RULES``: plans no CLI argv builds, refused in
    one ``SpecError`` instead of a traceback from the engine."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            # Used to end in AttributeError: 'NoneType' object has no
            # attribute 'window_hours' (the sharded engine reads a trace).
            ({"workers": 2}, "a Poisson source replays in one process; got workers=2"),
            ({"workers": 1, "checkpoint": "C.ckpt"},
             "a Poisson source replays in one process; got workers=1"),
            # Used to end in ValueError: too many values to unpack.
            ({"rates": (4.0, 1.0)},
             "a Poisson source without regions takes one rate; got 2 rates"),
            ({"rates": ()}, "a Poisson source without regions takes one rate; got 0 rates"),
        ],
        ids=["workers", "workers-checkpoint", "two-rates", "no-rates"],
    )
    def test_refused_in_one_line(self, tmp_path, monkeypatch, fields, message):
        monkeypatch.chdir(tmp_path)
        plan = ReplayPlan(app="R-GB", duration_s=60.0, **fields)
        with pytest.raises(SpecError) as refused:
            plan.run()
        assert str(refused.value) == message
        assert list(tmp_path.iterdir()) == []  # refused before anything is written
