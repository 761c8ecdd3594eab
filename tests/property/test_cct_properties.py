"""Property-based tests for the calling context tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cct import CallingContextTree
from repro.core.samples import Frame, Sample

_functions = st.sampled_from(["a", "b", "c", "d", "orchestrate", "work"])
_files = st.sampled_from(["/ws/libx/m.py", "/ws/liby/n.py", "/ws/handler.py"])


@st.composite
def samples(draw):
    depth = draw(st.integers(min_value=1, max_value=6))
    path = tuple(
        Frame(file=draw(_files), function=draw(_functions), line=draw(st.integers(1, 3)))
        for _ in range(depth)
    )
    weight = draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    kind = draw(st.sampled_from(["runtime", "init"]))
    return Sample(path=path, weight=weight, kind=kind)


sample_lists = st.lists(samples(), min_size=0, max_size=40)


@given(sample_lists)
@settings(max_examples=60)
def test_total_weight_conserved(sample_list):
    """Escalated root totals equal the sum of inserted sample weights."""
    tree = CallingContextTree.from_samples(sample_list)
    runtime = sum(s.weight for s in sample_list if s.kind == "runtime")
    init = sum(s.weight for s in sample_list if s.kind == "init")
    assert abs(tree.total_runtime() - runtime) < 1e-6 * max(1.0, runtime)
    assert abs(tree.total_init() - init) < 1e-6 * max(1.0, init)


@given(sample_lists)
@settings(max_examples=40)
def test_node_count_bounded_by_total_frames(sample_list):
    tree = CallingContextTree.from_samples(sample_list)
    assert len(dict(tree.walk())) <= sum(len(s.path) for s in sample_list)
