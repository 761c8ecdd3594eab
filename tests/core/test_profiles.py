"""Tests for import profiles and bundles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ProfilingError
from repro.core.profiles import ImportProfile, ImportRecord, ProfileBundle
from repro.core.samples import Frame, Sample, SampleSet

from tests.core.oracles import naive_children_of, naive_subtree_init_ms


def record(module: str, self_ms: float, parent=None, order=1) -> ImportRecord:
    return ImportRecord(
        module=module,
        self_ms=self_ms,
        cumulative_ms=self_ms,
        parent=parent,
        order=order,
    )


@pytest.fixture()
def profile() -> ImportProfile:
    return ImportProfile(
        [
            record("libx", 10.0),
            record("libx.core", 20.0, parent="libx", order=2),
            record("libx.core.fast", 5.0, parent="libx.core", order=3),
            record("libx.extra", 40.0, parent="libx", order=4),
            record("liby", 8.0, order=5),
        ]
    )


class TestImportProfile:
    def test_duplicate_rejected(self):
        profile = ImportProfile([record("m", 1.0)])
        with pytest.raises(ProfilingError):
            profile.add(record("m", 2.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ProfilingError):
            record("m", -1.0)

    def test_total_init_eq1(self, profile):
        assert profile.total_init_ms == 83.0

    def test_library_init_eq2(self, profile):
        assert profile.library_init_ms("libx") == 75.0
        assert profile.library_init_ms("liby") == 8.0

    def test_subtree_init_eq3(self, profile):
        assert profile.subtree_init_ms("libx.core") == 25.0

    def test_subtree_prefix_no_false_match(self):
        profile = ImportProfile([record("libx.core", 5.0), record("libx.core2", 7.0)])
        assert profile.subtree_init_ms("libx.core") == 5.0

    def test_children_of(self, profile):
        assert profile.children_of("libx") == ["libx.core", "libx.extra"]
        assert profile.children_of("libx.core") == ["libx.core.fast"]

    def test_children_of_skips_grandchildren(self):
        profile = ImportProfile([record("a", 1.0), record("a.b.c", 1.0)])
        assert profile.children_of("a") == ["a.b"]

    def test_library_names(self, profile):
        assert profile.library_names() == ["libx", "liby"]


#: Dotted module names over a three-letter alphabet, so random trees
#: share prefixes (``a.b`` beside ``a.bb`` beside ``a.b.c``), in an
#: arbitrary insertion order, with costs whose sum depends on that order.
_modules = st.lists(
    st.lists(st.sampled_from(["a", "b", "bb"]), min_size=1, max_size=4).map(".".join),
    min_size=1,
    max_size=24,
    unique=True,
)
_costs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _queries(profile):
    """Every prefix worth asking about: each record's ancestors, one miss, the top."""
    prefixes = {"", "c", "a.c"}
    for module in profile.modules():
        parts = module.split(".")
        prefixes.update(".".join(parts[:depth]) for depth in range(1, len(parts) + 1))
    return sorted(prefixes)


def _assert_matches_scans(profile):
    for prefix in _queries(profile):
        indexed = profile.subtree_init_ms(prefix)
        scanned = naive_subtree_init_ms(profile, prefix)
        assert type(indexed) is type(scanned)  # an empty subtree sums to int 0
        assert float(indexed).hex() == float(scanned).hex()
        assert float(profile.library_init_ms(prefix)).hex() == float(scanned).hex()
        assert profile.children_of(prefix) == naive_children_of(profile, prefix)


class TestHierarchyIndexMatchesPrefixScans:
    @given(modules=_modules, costs=st.lists(_costs, min_size=25, max_size=25))
    def test_same_bits_and_children_in_any_insertion_order(self, modules, costs):
        profile = ImportProfile(
            record(module, cost) for module, cost in zip(modules, costs)
        )
        _assert_matches_scans(profile)

    @given(modules=_modules, costs=st.lists(_costs, min_size=25, max_size=25))
    def test_add_after_a_query_is_seen_by_the_next(self, modules, costs):
        profile = ImportProfile(
            record(module, cost) for module, cost in zip(modules[:-1], costs)
        )
        _assert_matches_scans(profile)  # builds the index
        profile.add(record(modules[-1], costs[-1]))
        _assert_matches_scans(profile)
        assert profile.subtree_init_ms(modules[-1]) >= costs[-1]

    def test_children_of_returns_a_fresh_list(self, profile):
        profile.children_of("libx").clear()
        assert profile.children_of("libx") == ["libx.core", "libx.extra"]


class TestProfileBundle:
    def _bundle(self, app="app", cold_e2e=100.0, cold_init=80.0, colds=2):
        samples = SampleSet(
            [Sample(path=(Frame("/ws/handler.py", "h", 1),), weight=1.0)]
        )
        return ProfileBundle(
            app=app,
            import_profile=ImportProfile([record("libx", 10.0)]),
            samples=samples,
            entry_counts={"h": 5},
            handler_imports=("libx",),
            mean_cold_e2e_ms=cold_e2e,
            mean_cold_init_ms=cold_init,
            cold_starts=colds,
        )

    def test_init_ratio(self):
        assert self._bundle().init_ratio == pytest.approx(0.8)

    def test_init_ratio_zero_e2e(self):
        assert self._bundle(cold_e2e=0.0).init_ratio == 0.0
