"""The pipeline's value types: one contract, ten types.

Eight are tuples (``typing.NamedTuple``; ``InvocationRecord`` and
``Sample`` through a validating ``__new__``), two are slotted mutable
dataclasses.  What a caller could observe of the frozen dataclasses they
replaced — construction, immutability, ``hash`` / ``==``, ordering,
``repr``, pickling, every rejection — is checked here against a frozen
dataclass twin built from each type's own field list, and on every value
the 22 catalog applications produce.
"""

from __future__ import annotations

import contextlib
import copyreg
import dataclasses
import io
import pickle
import sys
from collections import Counter

import pytest

from repro.apps.catalog import APP_DEFINITIONS
from repro.apps.model import bench_platform_config, instantiate
from repro.cli import main
from repro.core.cct import CCTNode
from repro.core.profiles import ImportRecord
from repro.core.samples import INIT, RUNTIME, Frame, Sample
from repro.core.simprofiler import frame_for_module, samples_from_traces
from repro.faas.events import InvocationRecord
from repro.faas.sim import CallSegment, ExecutionTrace, InitSegment, SimPlatform
from repro.synthlib.spec import FunctionRef, ModuleKey

KEY = ModuleKey("liba", "pkg.mod")
FRAME = Frame("<sim>/liba/pkg/mod.py", "run", 1)
INIT_SEGMENT = InitSegment("liba.pkg.mod", 2.5)
CALL_SEGMENT = CallSegment(("app.handler:main", "liba.pkg.mod:run"), 1.5)

#: type -> keyword arguments of one valid instance, in field order.
IMMUTABLE = {
    ModuleKey: dict(library="liba", module="pkg.mod"),
    FunctionRef: dict(key=KEY, function="run"),
    InvocationRecord: dict(
        app="app", entry="main", timestamp=3.0, cold=True, init_ms=40.0,
        exec_ms=2.0, e2e_ms=162.0, memory_mb=64.5, container_id="app-c1",
        queue_ms=0.25,
    ),
    InitSegment: dict(module="liba.pkg.mod", self_ms=2.5),
    CallSegment: dict(path=CALL_SEGMENT.path, self_ms=1.5),
    ExecutionTrace: dict(
        app="app", entry="main", timestamp=3.0, cold=True,
        init_segments=(INIT_SEGMENT,), lazy_init_segments=(),
        call_segments=(CALL_SEGMENT,),
    ),
    Frame: dict(file=FRAME.file, function="run", line=1),
    Sample: dict(path=(FRAME,), weight=0.5, kind=INIT),
}
MUTABLE = {
    CCTNode: dict(frame=FRAME, children={}, self_runtime=1.0, self_init=2.0),
    ImportRecord: dict(
        module="liba.pkg.mod", self_ms=2.5, cumulative_ms=4.0, parent="liba.pkg",
        order=3,
    ),
}
EVERY = {**IMMUTABLE, **MUTABLE}
DEFAULTS = {
    InvocationRecord: {"queue_ms": 0.0},
    Frame: {"line": 0},
    Sample: {"weight": 1.0, "kind": RUNTIME},
    CCTNode: {"children": {}, "self_runtime": 0.0, "self_init": 0.0},
}

by_name = pytest.mark.parametrize("cls", EVERY, ids=lambda cls: cls.__name__)
immutables = pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)


def dataclass_twin(cls):
    """The frozen, ordered dataclass ``cls`` was: same name, fields, defaults."""
    defaults = DEFAULTS.get(cls, {})

    def default(name):  # a factory, so CCTNode's dict default is legal
        return dataclasses.field(default_factory=lambda: defaults[name])

    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, object, default(name)) if name in defaults else (name, object)
            for name in EVERY[cls]
        ],
        frozen=True,
        order=True,
    )


@by_name
def test_keyword_and_positional_construction_agree(cls):
    kwargs = EVERY[cls]
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert [getattr(value, name) for name in kwargs] == list(kwargs.values())
    # Field names, order and defaults are the dataclass's.
    required = {k: v for k, v in kwargs.items() if k not in DEFAULTS.get(cls, {})}
    assert list(kwargs)[: len(required)] == list(required)
    for name, default in DEFAULTS.get(cls, {}).items():
        assert getattr(cls(**required), name) == default


@by_name
def test_repr_is_the_dataclass_spelling(cls):
    kwargs = EVERY[cls]
    assert repr(cls(**kwargs)) == repr(dataclass_twin(cls)(**kwargs))
    assert repr(KEY) == "ModuleKey(library='liba', module='pkg.mod')"


@by_name
def test_pickle_round_trips(cls):
    # The shard pool's wire, and copy.copy / deepcopy's protocol.
    value = cls(**EVERY[cls])
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value


@immutables
def test_immutables_are_tuples_without_a_dict(cls):
    # Re-dataclassing one fails here by name.
    assert issubclass(cls, tuple)
    value = cls(**IMMUTABLE[cls])
    assert not hasattr(value, "__dict__")
    assert tuple(value) == tuple(IMMUTABLE[cls].values())


@immutables
def test_assigning_a_field_raises(cls):
    value = cls(**IMMUTABLE[cls])
    for name, held in IMMUTABLE[cls].items():
        with pytest.raises(AttributeError):
            setattr(value, name, held)
        assert getattr(value, name) is held
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert value == cls(**IMMUTABLE[cls])


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutables_are_slotted(cls):
    value = cls(**MUTABLE[cls])
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.undeclared = 1
    for name, held in MUTABLE[cls].items():
        setattr(value, name, held)  # still assignable
    assert value == cls(**MUTABLE[cls])


#: A second value per field, different from IMMUTABLE's.
OTHER = {
    str: "zzz", float: 99.0, int: 7, bool: False, tuple: ("other",),
    ModuleKey: ModuleKey("libz", ""),
}


@immutables
def test_hash_and_equality_follow_the_declared_fields(cls):
    kwargs = IMMUTABLE[cls]
    twin = dataclass_twin(cls)
    one, two = cls(**kwargs), cls(**dict(kwargs))
    assert one is not two and one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    for name, held in kwargs.items():
        changed = {**kwargs, name: OTHER[type(held)]}
        if cls is InvocationRecord and name == "cold":
            changed["init_ms"] = 0.0  # a warm start carries no init time
        elif cls is Sample and name == "kind":
            changed[name] = RUNTIME
        elif cls is Sample and name == "path":
            changed[name] = (Frame("other", "f"),)
        other = cls(**changed)
        assert other != one and (other == one) == (twin(**changed) == twin(**kwargs))
        assert len({one, other}) == 2


# -- the six rejections ------------------------------------------------------

#: (type, the bad field, the parent's message); <repr> is the dataclass
#: spelling of the refused value.
REJECTIONS = [
    (InvocationRecord, {"init_ms": -1.0}, "negative latency in record: <repr>"),
    (InvocationRecord, {"exec_ms": -1.0}, "negative latency in record: <repr>"),
    (InvocationRecord, {"e2e_ms": -0.5}, "negative latency in record: <repr>"),
    (InvocationRecord, {"queue_ms": -2.0}, "negative queueing delay in record: <repr>"),
    (InvocationRecord, {"cold": False}, "warm start cannot carry init time"),
    (Sample, {"path": ()}, "sample must contain at least one frame"),
    (Sample, {"weight": 0.0}, "sample weight must be positive: 0.0"),
    (Sample, {"weight": -1.5}, "sample weight must be positive: -1.5"),
    (Sample, {"kind": "warmup"}, "unknown sample kind: 'warmup'"),
]


@pytest.mark.parametrize(
    "cls, bad, message", REJECTIONS,
    ids=[f"{cls.__name__}-{bad}" for cls, bad, _ in REJECTIONS],
)
def test_every_rejection_keeps_its_message_through_every_door(cls, bad, message):
    good = IMMUTABLE[cls]
    kwargs = {**good, **bad}
    expected = message.replace("<repr>", repr(dataclass_twin(cls)(**kwargs)))
    doors = {
        "keywords": lambda: cls(**kwargs),
        "positional": lambda: cls(*kwargs.values()),
        "_replace": lambda: cls(**good)._replace(**bad),
        "_make": lambda: cls._make(kwargs.values()),
        # What unpickling calls: see the reduce value asserted below.
        "unpickling": lambda: copyreg.__newobj__(cls, *kwargs.values()),
    }
    reduced = cls(**good).__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert reduced[:2] == (copyreg.__newobj__, (cls, *good.values()))
    for name, door in doors.items():
        with pytest.raises(ValueError) as caught:
            door()
        assert str(caught.value) == expected, name


def test_defaults_pass_the_checks_they_always_passed():
    assert Sample(path=(FRAME,)) == ((FRAME,), 1.0, RUNTIME)
    warm = InvocationRecord("app", "main", 0.0, False, 0.0, 1.0, 2.5, 64.0, "c")
    assert warm.queue_ms == 0.0 and not warm.cold
    assert warm._replace(queue_ms=3.0).queue_ms == 3.0


# -- every value the catalog produces ------------------------------------------


@pytest.fixture(scope="module")
def catalog_values():
    """``{type: set of values}`` over all 22 apps: every module key and
    function reference of every ecosystem, and the records, traces,
    segments, samples and frames of one cold burst plus one warm request
    per entry."""
    values = {cls: set() for cls in IMMUTABLE}
    for definition in APP_DEFINITIONS:
        app = instantiate(definition)
        eco = app.ecosystem
        for library in map(eco.library, eco.library_names()):
            values[ModuleKey].update(library.keys())
            for module in library.modules:
                for function in module.functions:
                    dotted = ModuleKey(library.name, module.name).dotted
                    values[FunctionRef].add(
                        eco.parse_function(f"{dotted}:{function.name}")
                    )
        platform = SimPlatform(bench_platform_config())
        platform.deploy(app.sim_config())
        entries = [entry.name for entry in app.entries]
        platform.invoke_burst(app.name, entries, at=0.0)
        for entry in entries:
            platform.invoke(app.name, entry, at=10.0)
        values[InvocationRecord].update(platform.records(app.name))
        traces = platform.traces(app.name)
        values[ExecutionTrace].update(traces)
        for trace in traces:
            values[InitSegment].update(trace.init_segments)
            values[InitSegment].update(trace.lazy_init_segments)
            values[CallSegment].update(trace.call_segments)
        samples = list(samples_from_traces(traces))
        values[Sample].update(samples)
        for sample in samples:
            values[Frame].update(sample.path)
    assert all(values.values())
    assert {record.cold for record in values[InvocationRecord]} == {True, False}
    return values


def test_sorted_is_the_dataclass_order_on_every_catalog_key(catalog_values):
    for cls, values in (
        (ModuleKey, catalog_values[ModuleKey]),
        (Frame, catalog_values[Frame]
         | {frame_for_module(key.dotted) for key in catalog_values[ModuleKey]}),
    ):
        twin = dataclass_twin(cls)
        # One shuffled input for both: set order, which is not sorted order.
        shuffled = list(values)
        assert len(shuffled) > 1000 and shuffled != sorted(shuffled)
        expected = sorted(twin(*value) for value in shuffled)
        assert [tuple(value) for value in sorted(shuffled)] == [
            dataclasses.astuple(value) for value in expected
        ]
        low, high = min(shuffled), max(shuffled)
        assert (tuple(low), tuple(high)) == tuple(
            dataclasses.astuple(value) for value in (expected[0], expected[-1])
        )
        assert low < high and low <= high and high > low and high >= low


def test_no_two_converted_types_compare_equal_on_a_catalog_value(catalog_values):
    # The one loosening a tuple brings: a NamedTuple equals any tuple of
    # the same values, another NamedTuple's included.  Equal values hash
    # equal, so one dict from plain tuple to owning type finds any pair.
    owner: dict[tuple, type] = {}
    for cls, values in catalog_values.items():
        for value in values:
            assert owner.setdefault(tuple(value), cls) is cls, value
    assert sum(map(len, catalog_values.values())) == len(owner)


# -- a count that repeats exactly ------------------------------------------------


def test_r_sa_cycle_calls_no_generated_method_of_a_converted_type():
    """Census of dataclass-generated ``__init__`` / ``__hash__`` / ``__eq__``
    calls over ``--cold-starts 50 --runs 1 cycle --app R-SA``, by receiver type.

    R-SA is the one catalog app whose cycle reaches every converted-type
    method the quick Table II reaches (``Frame.__eq__`` only here), so a
    type given back a generated method fails here as it would there.  At
    commit 5862f1f the full-volume table made 278 665 ``ModuleKey.__hash__``
    and 104 533 ``InvocationRecord.__init__`` calls of this kind.  The
    eight tuple types must make none; the two slotted dataclasses keep a
    generated ``__init__`` (one call per node / record built) and nothing
    else; no other type may reach 500 (``FunctionSpec.__init__``'s 307 is
    the highest).
    """
    counts: Counter = Counter()
    generated = {"__init__", "__hash__", "__eq__"}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == "<string>" and code.co_name in generated:
                counts[type(frame.f_locals["self"]).__name__, code.co_name] += 1

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main(["--cold-starts", "50", "--runs", "1", "cycle", "--app", "R-SA"]) == 0
    finally:
        sys.setprofile(None)
    assert "memory reduction" in printed.getvalue()
    assert counts["_SimContainer", "__init__"] > 100  # the census sees dataclasses
    tuples = {cls.__name__ for cls in IMMUTABLE}
    slotted = {cls.__name__ for cls in MUTABLE}
    assert {name for name, _ in counts} & tuples == set()
    assert {key for key in counts if key[0] in slotted} == {
        ("CCTNode", "__init__"), ("ImportRecord", "__init__"),
    }
    assert {
        key: n for key, n in counts.items() if n >= 500 and key[0] not in slotted
    } == {}
    # Exact: the run is deterministic, so is every count.
    assert counts["CCTNode", "__init__"] == 458
    assert counts["ImportRecord", "__init__"] == 265
