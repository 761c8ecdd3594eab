"""The accumulator's one state format, property-tested.

``WindowAccumulator.state()`` is the only way raw accumulation state
leaves an accumulator and ``absorb()`` the only way it enters one: the
checkpoint embeds the state as JSON, the shard wire pickles it, a resume
absorbs it into an empty accumulator and a merge absorbs every shard's
in worker order.  These properties pin all four uses at the accumulator
level, bit for bit (``float.hex``), plus the reader's refusal contract:
a damaged state raises ``ValueError`` and nothing else.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import WindowAccumulator, from_wire, merge_wire

WINDOW_S = 60.0
WIRE_VERSION = WindowAccumulator(WINDOW_S).to_wire()[0]
SOURCES = ("", "a", "b", "c")
CLASSES = (None, "critical", "batch")

times = st.floats(min_value=0.0, max_value=599.0, allow_nan=False)
amounts = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
)
sources = st.sampled_from(SOURCES)
classes = st.sampled_from(CLASSES)

#: One observation: ``(hook name, source or None, positional arguments)``.
#: Covers completions with and without QoS, cold and warm, zero and
#: non-zero queue waits, sheds with and without a prior completion from
#: the same source, provisions spanning windows and provision-only windows.
events = st.lists(
    st.one_of(
        st.tuples(st.just("observe_arrival"), st.none(), st.tuples(times)),
        st.builds(
            lambda at, cold, wait, source, qos, late, utility: (
                "observe_completion", source,
                (at, cold, wait, source, qos, late, utility),
            ),
            times, st.booleans(), amounts, sources, classes, st.booleans(),
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        ),
        st.builds(
            lambda at, source, qos, penalty: (
                "observe_shed", source, (at, source, qos, penalty)
            ),
            times, sources, classes, amounts,
        ),
        st.builds(
            lambda start, length, memory, source: (
                "observe_provision", source,
                (start, start + length, memory, source),
            ),
            times, st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
            st.sampled_from((128.0, 512.0, 1024.0)), sources,
        ),
    ),
    max_size=40,
)


def observed(trace, into=None):
    accumulator = WindowAccumulator(WINDOW_S) if into is None else into
    for hook, _, args in trace:
        getattr(accumulator, hook)(*args)
    return accumulator


def hexed(value):
    """``value`` with every float spelled by ``float.hex`` (so -0.0 != 0.0)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def assert_same(left, right):
    """Two accumulators hold, and report, the same thing bit for bit."""
    assert hexed(left.state()) == hexed(right.state())
    assert hexed(left.finalize()) == hexed(right.finalize())


def through_json(state):
    return json.loads(json.dumps(state))


def through_pickle(state):
    return pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


TRANSPORTS = pytest.mark.parametrize(
    "transport", [through_json, through_pickle], ids=["json", "pickle"]
)


@TRANSPORTS
@given(trace=events)
@settings(max_examples=60, deadline=None)
def test_state_survives_its_transports(transport, trace):
    original = observed(trace)
    state = transport(original.state())
    assert state == original.state()  # round-trip-stable, not just readable
    restored = WindowAccumulator(WINDOW_S)
    restored.absorb(state)
    assert_same(restored, original)
    assert_same(from_wire((WIRE_VERSION, transport(original.state()))), original)


@TRANSPORTS
@given(trace=events, cut=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_observing_on_after_a_restore_equals_never_stopping(transport, trace, cut):
    stopped = observed(trace[:cut])
    resumed = WindowAccumulator(WINDOW_S)
    resumed.absorb(transport(stopped.state()))
    assert_same(observed(trace[cut:], into=resumed), observed(trace))


@given(
    trace=events,
    shard_of=st.fixed_dictionaries({source: st.integers(0, 2) for source in SOURCES}),
    arrival_shard=st.integers(0, 2),
    order=st.permutations(range(3)),
)
@settings(max_examples=60, deadline=None)
def test_disjoint_source_states_merge_to_the_single_accumulator(
    trace, shard_of, arrival_shard, order
):
    shards = [WindowAccumulator(WINDOW_S) for _ in range(3)]
    for event in trace:
        source = event[1]
        shard = arrival_shard if source is None else shard_of[source]
        observed([event], into=shards[shard])
    merged = merge_wire([shards[index].to_wire() for index in order])
    assert hexed(merged) == hexed(observed(trace).finalize())


# -- the reader refuses damage with ValueError, and only ValueError ----------

#: What a damaged file might hold where a value of each kind belongs.
WRONG = {
    int: ("1", None, 1.5, -1, True, [1]),
    float: ("1.0", None, [1.0], {}),
    list: (None, {}, 3),
    dict: (None, [], 3),
}


#: Tables keyed by a run's own things — window indexes, sources, QoS
#: classes — and how many levels deep: dropping such a key leaves a
#: valid (smaller) state, so only the format's own keys are dropped.
FREE_KEYED = {"windows": 1, "source_counts": 1, "gb_sums": 1, "qos_counts": 1, "qos_sums": 2}


DROP = object()


def damages(node, free_levels=0, path=()):
    """Every single edit of a state: ``(path, DROP or a wrong value)`` pairs.

    Key drops, type swaps at every position, and lists one item short.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            if not free_levels:
                yield path + (key,), DROP
            for wrong in WRONG[type(value)]:
                yield path + (key,), wrong
            yield from damages(
                value,
                free_levels - 1 if free_levels else FREE_KEYED.get(key, 0),
                path + (key,),
            )
    elif isinstance(node, list):
        yield path + (-1,), DROP
        for index, value in enumerate(node):
            for wrong in WRONG[type(value)]:
                yield path + (index,), wrong


def damaged(state, path, change):
    state = copy.deepcopy(state)
    node = state
    for step in path[:-1]:
        node = node[step]
    if change is DROP:
        node.pop(path[-1])
    else:
        node[path[-1]] = change
    return state


def a_rich_state():
    return observed(
        [
            ("observe_arrival", None, (5.0,)),
            ("observe_completion", "a", (5.0, True, 3.5, "a", "critical", True, -2.0)),
            ("observe_completion", "b", (65.0, False, 0.0, "b", None, False, 0.0)),
            ("observe_shed", "a", (70.0, "a", "batch", 0.05)),
            ("observe_provision", "a", (0.0, 130.0, 512.0, "a")),
        ]
    ).state()


def test_every_single_damage_of_a_rich_state_is_refused():
    state = a_rich_state()
    catalogue = list(damages(state))
    assert len(catalogue) > 400
    # The format's own keys are dropped, a run's own keys never.
    drops = {path for path, change in catalogue if change is DROP}
    assert {("window_s",), ("windows", "0", "queue_counts"),
            ("windows", "0", "queue_counts", -1),
            ("windows", "0", "source_counts", "a", -1)} <= drops
    assert not {("windows", "0"), ("windows", "0", "source_counts", "a"),
                ("windows", "0", "qos_sums", "critical", "a")} & drops
    assert (("windows", "0", "cold"), "1") in catalogue
    for path, change in catalogue:
        with pytest.raises(ValueError):
            WindowAccumulator(WINDOW_S).absorb(damaged(state, path, change))


@given(data=st.data(), trace=events)
@settings(max_examples=150, deadline=None)
def test_a_damaged_state_raises_value_error_and_nothing_else(data, trace):
    # Damage a rich fixed state or a drawn one (which may be nearly empty).
    state = data.draw(st.sampled_from([a_rich_state(), observed(trace).state()]))
    state = damaged(state, *data.draw(st.sampled_from(list(damages(state)))))
    with pytest.raises(ValueError):
        WindowAccumulator(WINDOW_S).absorb(state)
    with pytest.raises(ValueError):
        from_wire((WIRE_VERSION, state))
