"""Shards, checkpoints and the journal against the reference (rules 36–43).

Every engine path that used to be checked against another engine path —
the shard merge, the resumed checkpoint, the plain, resumed and merged
journals — is checked here against the reference's one straight replay
of the whole trace instead.  A case is killed by its own arrival stream
on pulling a drawn arrival: before the first anchor, on either side of a
window boundary, or between two.  Journal rows come from
``tests/reference/journal.py``.  No process pool runs in a generated
case; the two fixed tests at the end cross process boundaries.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.replaydeploy import trace_app_config
from repro.faas.snapshot import load_checkpoint, run_stream_checkpointed
from repro.metrics import WindowAccumulator, merge_wire
from repro.obs.journal import JournalWriter, merge_journals, shard_journal_path
from repro.plan import DeferralPlan
from repro.workloads.shard import (ShardReplaySpec, build_shard_replay, compile_shard_stream,
                                   prepare_sharded_checkpoint, replay_shard_wire, replay_sharded)
from repro.workloads.trace import AppTrace, ProductionTrace
from tests.reference.cluster import ReferenceCluster, sinks
from tests.reference.journal import ReferenceJournal, first_divergence, header, merged
from tests.reference.test_reference import POLICIES, QOS, cases, costs, deploy, grid_case

#: The accumulator's, the journal's and the checkpoints' period: a second,
#: so most drawn traces cross a window edge.
WINDOW_S = 1.0
SAMPLES = (0.0, 0.5, 0.2)  # no spans, every second token, every fifth
FINGERPRINT = {"replay": "reference"}


class Killed(Exception):
    """The arrival stream died."""


def killed_after(arrivals, kill_at):
    for fed, arrival in enumerate(arrivals):
        if fed == kill_at:
            raise Killed
        yield arrival


def assert_journal(path, expected):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    diff = first_divergence(rows, expected)
    assert diff is None, diff


# -- one cluster: plain and resumed journals, checkpoints ---------------------


def reference_run(case, sample):
    out = sinks()
    model = ReferenceCluster(costs(case), case.seed, WindowAccumulator(WINDOW_S), out,
                             QOS if case.tagged else ())
    deploy(case, model)
    journal = ReferenceJournal(out, WINDOW_S, sample)
    summary = model.run(case.arrivals, case.flush_at, journal.hook)
    episodes = {app: fleet.episodes for app, fleet in model.fleets.items()}
    return SimpleNamespace(summary=summary, records=[r for _, r in out.records],
                           episodes=episodes, journal=journal.close())


def platform_for(case):
    platform = ClusterPlatform(config=costs(case), seed=case.seed,
                               qos=QOS if case.tagged else None)
    deploy(case, platform)
    return platform


def checkpointed(case, platform, arrivals, tmp, sample, **tap):
    journal = JournalWriter(tmp / "run.jsonl", WINDOW_S, trace_sample=sample)
    return run_stream_checkpointed(platform, arrivals, WindowAccumulator(WINDOW_S),
                                   tmp / "replay.ckpt", flush_at=case.flush_at, keep=True,
                                   journal=journal, **tap)


def resume(case, tmp, sample):
    """Rules 39 and 42: a fresh platform resumes from the bytes in ``tmp``."""
    platform, records = platform_for(case), []
    summary = checkpointed(case, platform, iter(case.arrivals), tmp, sample,
                           on_record=records.append)
    states = {app: platform.scaling_state(app) for app in platform.app_names()}
    return summary, records, {app: getattr(s, "episodes", []) for app, s in states.items()}


def flushes(journal):
    """The stream positions at which a replay flushes (rule 38's checkpoints)."""
    return [block[2] for block in journal.blocks[:-1]]


def check_resume(case, kill, sample, resume=resume):
    """A plain journaled replay, then one killed on pulling arrival
    ``kill(flushes, arrivals)`` and resumed, against the reference."""
    expected = reference_run(case, sample)
    rows = expected.journal.rows(header(WINDOW_S, trace_sample=sample))
    kill_at = kill(flushes(expected.journal), len(case.arrivals))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with JournalWriter(tmp / "plain.jsonl", WINDOW_S, trace_sample=sample).begin() as journal:
            summary = platform_for(case).run_stream(
                iter(case.arrivals), WindowAccumulator(WINDOW_S), flush_at=case.flush_at,
                obs=journal)
        assert summary == expected.summary
        assert_journal(tmp / "plain.jsonl", rows)
        with pytest.raises(Killed):
            checkpointed(case, platform_for(case), killed_after(case.arrivals, kill_at), tmp,
                         sample)
        consumed, served = expected.journal.checkpoint_before(kill_at)
        path = tmp / "replay.ckpt"
        assert (load_checkpoint(path)["consumed"] if path.exists() else None) == consumed
        summary, records, episodes = resume(case, tmp, sample)
        assert records == expected.records[served:]
        assert summary == expected.summary
        assert episodes == expected.episodes
        assert_journal(tmp / "run.jsonl", rows)


def any_kill(data):
    """Before the first anchor, either side of a flush, or anywhere."""
    def kill(flushes, count):
        sides = [fed + side for fed in flushes for side in (0, 1) if fed + side < count]
        return data.draw(st.sampled_from([0, *sides]) | st.integers(0, count - 1))
    return kill


@settings(deadline=None)
@given(case=cases(), sample=st.sampled_from(SAMPLES), data=st.data())
def test_killed_and_resumed_replays_match_the_reference(case, sample, data):
    check_resume(case, any_kill(data), sample)


#: Where a grid case dies: before the first anchor, between it and the
#: first flush, on its middle flush (not yet written), just past it
#: (written), or halfway to the next.
KILLS = {"before-the-anchor": lambda flushes: 0,
         "before-the-first-flush": lambda flushes: flushes[0],
         "on-a-flush": lambda flushes: flushes[len(flushes) // 2],
         "past-a-flush": lambda flushes: flushes[len(flushes) // 2] + 1,
         "between-flushes": lambda flushes: sum(flushes[len(flushes) // 2:][:2]) // 2}


@pytest.mark.parametrize("kill", sorted(KILLS))
@pytest.mark.parametrize("keep_alive_s", [1.0, 600.0])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_resume_grid_matches_the_reference(policy, keep_alive_s, kill):
    """Each policy's state restored at each kind of kill on the grid trace."""
    case = grid_case(False, policy=policy, keep_alive_s=keep_alive_s)
    check_resume(case, lambda flushes, _: KILLS[kill](flushes), sample=0.2)


# -- shards: the coordinator, the wire, and killed shards' merged journals ----


#: Trace windows of 20 s, four accumulator windows each.
TRACE_WINDOW_S = 20.0


@st.composite
def shard_cases(draw):
    handlers = ("h0", "h1")
    windows = draw(st.integers(1, 3))
    apps = [AppTrace(f"app{index}", handlers[: draw(st.integers(1, 2))],
                     [dict(zip(handlers, draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))))
                      for _ in range(windows)])
            for index in range(draw(st.integers(1, 5)))]
    return SimpleNamespace(
        trace=ProductionTrace(window_hours=TRACE_WINDOW_S / 3600.0, apps=apps),
        spec=ShardReplaySpec(
            platform=costs(SimpleNamespace(jitter=draw(st.sampled_from([0.0, 0.05])))),
            fleet=FleetConfig(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])),
                              draw(st.sampled_from([0.0, 1.0, 60.0])),
                              draw(st.sampled_from([None, 0, 2])),
                              POLICIES[draw(st.sampled_from(sorted(POLICIES)))]),
            seed=draw(st.integers(0, 2**32 - 1)), replay_seed=draw(st.integers(0, 99)),
            window_s=TRACE_WINDOW_S / 4, exec_ms=draw(st.sampled_from([2.0, 1500.0])),
            qos=QOS if draw(st.booleans()) else None, qos_seed=draw(st.integers(0, 99))))


def shard_reference(case, apps, sample=0.0):
    """Rule 36: the reference's straight replay of ``apps``' share of the
    whole trace, tails flushed at their natural expiry."""
    spec, names, out = case.spec, {app.name for app in apps}, sinks()
    model = ReferenceCluster(spec.platform, spec.seed, WindowAccumulator(spec.window_s), out,
                             spec.qos or ())
    for app in apps:
        model.deploy(trace_app_config(app, spec.exec_ms), DeferralPlan(app.name), spec.fleet)
    journal = ReferenceJournal(out, spec.window_s, sample)
    arrivals = [a for a in compile_shard_stream(spec, case.trace) if a[1] in names]
    return model.run(arrivals, math.inf, journal.hook), journal.close()


def kill_shards(case, workers, sample, kill, tmp):
    """Prepare a checkpointed sharded replay in ``tmp`` and kill each shard
    on pulling arrival ``kill(flushes, arrivals)``.  Returns the shards,
    their checkpoints and fingerprints, and their reference journals."""
    shards, paths, fingerprints, _ = prepare_sharded_checkpoint(
        case.trace, tmp / "replay.ckpt", case.spec, workers, FINGERPRINT)
    journals = []
    for index, shard in enumerate(shards):
        journals.append(shard_reference(case, shard.apps, sample)[1])
        platform, stream, accumulator = build_shard_replay(case.spec, shard)
        arrivals = list(stream)
        if not arrivals:
            continue
        kill_at = kill(flushes(journals[-1]), len(arrivals))
        with pytest.raises(Killed):
            run_stream_checkpointed(
                platform, killed_after(arrivals, kill_at), accumulator, paths[index],
                flush_at=math.inf, keep=True, fingerprint=fingerprints[index],
                journal=JournalWriter(shard_journal_path(tmp / "run.jsonl", index, workers),
                                      case.spec.window_s, fingerprints[index], sample))
        consumed = journals[-1].checkpoint_before(kill_at)[0]
        assert load_checkpoint(paths[index])["consumed"] == (consumed or 0)  # rule 38
    return shards, paths, fingerprints, journals


def check_killed_shards(case, workers, sample, kill):
    """The inline coordinator, and killed shards resumed in process and
    merged: the summary and the merged journal must be the reference's,
    which is returned."""
    expected, _ = shard_reference(case, case.trace.apps)
    assert replay_sharded(case.trace, case.spec) == expected  # the inline coordinator
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shards, paths, fingerprints, journals = kill_shards(case, workers, sample, kill, tmp)
        logs = [shard_journal_path(tmp / "run.jsonl", k, workers) for k in range(workers)]
        wires = [replay_shard_wire(case.spec, *job, sample)
                 for job in zip(shards, paths, fingerprints, logs)]
        assert merge_wire(wires) == expected
        window_s = case.spec.window_s
        merge_journals(logs, tmp / "run.jsonl", window_s, fingerprint=FINGERPRINT,
                       trace_sample=sample)
        assert_journal(tmp / "run.jsonl", merged(journals, header(window_s, FINGERPRINT, sample)))
    return expected


@settings(deadline=None)
@given(case=shard_cases(), workers=st.integers(1, 3), sample=st.sampled_from(SAMPLES),
       data=st.data())
def test_shards_merge_to_the_reference(case, workers, sample, data):
    """Rule 36 and the wire: shards killed anywhere and resumed, and their
    merged journal, equal the whole trace's replay; so does any partition
    merged in any order through JSON (as a checkpoint keeps it)."""
    expected = check_killed_shards(case, workers, sample, any_kill(data))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(case.trace.apps),
                                max_size=len(case.trace.apps)))
    parts = {}
    for app, label in zip(case.trace.apps, labels):
        parts.setdefault(label, ProductionTrace(TRACE_WINDOW_S / 3600.0)).apps.append(app)
    wires = [replay_shard_wire(case.spec, parts[label]) for label in sorted(parts)]
    assert merge_wire([(v, json.loads(json.dumps(state))) for v, state in wires]) == expected


def grid_shard_case(policy):
    """Six apps over three 20 s trace windows, every policy's fleet sized
    to queue, shed and reap."""
    apps = [AppTrace(f"app{index}", ("h0", "h1"),
                     [{"h0": (index + 2 * window) % 7, "h1": (3 * index + window) % 5}
                      for window in range(3)])
            for index in range(6)]
    return SimpleNamespace(
        trace=ProductionTrace(TRACE_WINDOW_S / 3600.0, apps),
        spec=ShardReplaySpec(
            platform=costs(SimpleNamespace(jitter=0.05)),
            fleet=FleetConfig(2, 1, 1.0, 2, POLICIES[policy]), seed=7, replay_seed=3,
            window_s=TRACE_WINDOW_S / 4, exec_ms=1500.0, qos=QOS, qos_seed=5))


def middle_flush(flushes, _count):
    """On the shard's middle flush (not yet written), or its first arrival."""
    return flushes[len(flushes) // 2] if flushes else 0


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_shard_grid_matches_the_reference(policy, workers):
    """Every policy at every worker count, QoS-tagged, shards killed mid-trace."""
    check_killed_shards(grid_shard_case(policy), workers, 0.2, middle_flush)


# -- across process boundaries ------------------------------------------------


def test_the_pooled_coordinator_resumes_to_the_reference():
    """``replay_sharded`` over two worker processes, killed shards resumed:
    the reference's summary and merged journal, and only the journal left."""
    case, sample = grid_shard_case("panic-window"), 0.2
    expected, _ = shard_reference(case, case.trace.apps)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        journals = kill_shards(case, 2, sample, middle_flush, tmp)[3]
        summary = replay_sharded(case.trace, case.spec, workers=2, checkpoint=tmp / "replay.ckpt",
                                 fingerprint=FINGERPRINT, journal=tmp / "run.jsonl",
                                 trace_sample=sample)
        assert summary == expected
        assert_journal(tmp / "run.jsonl",
                       merged(journals, header(case.spec.window_s, FINGERPRINT, sample)))
        assert [p.name for p in tmp.iterdir()] == ["run.jsonl"]


@pytest.mark.parametrize("policy", ["panic-window", "predictive"])
def test_a_resume_in_a_fresh_process_matches_the_reference(policy):
    """Rule 39: nothing a resume needs lives outside the checkpoint — panic
    episodes, forecaster fits and jitter streams come back in a new process."""
    case = grid_case(False, policy=policy, jitter=0.05)

    def in_a_fresh_process(case, tmp, sample):
        spawn = multiprocessing.get_context("spawn")  # nothing inherited
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            return pool.submit(resume, case, tmp, sample).result()

    check_resume(case, lambda flushes, _: KILLS["past-a-flush"](flushes), 0.2,
                 resume=in_a_fresh_process)
