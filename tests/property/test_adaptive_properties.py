"""Property-based tests for the workload monitor's probability algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import invocation_probabilities, probability_shift
from repro.workloads.trace import AppTrace

window_counts = st.dictionaries(
    keys=st.sampled_from([f"h{i}" for i in range(6)]),
    values=st.integers(min_value=0, max_value=1000),
    max_size=6,
)


@given(window_counts)
@settings(max_examples=80)
def test_probabilities_form_simplex(counts):
    probabilities = invocation_probabilities(counts)
    if sum(counts.values()) == 0:
        assert probabilities == {}
    else:
        assert abs(sum(probabilities.values()) - 1.0) < 1e-9
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())


@given(window_counts, window_counts)
@settings(max_examples=80)
def test_shift_symmetric_and_bounded(a, b):
    pa = invocation_probabilities(a)
    pb = invocation_probabilities(b)
    shift = probability_shift(pa, pb)
    assert shift == probability_shift(pb, pa)
    assert 0.0 <= shift <= 2.0 + 1e-9


@given(window_counts)
@settings(max_examples=50)
def test_shift_identity_is_zero(counts):
    p = invocation_probabilities(counts)
    assert probability_shift(p, p) == 0.0


@given(window_counts, window_counts, window_counts)
@settings(max_examples=50)
def test_shift_triangle_inequality(a, b, c):
    pa = invocation_probabilities(a)
    pb = invocation_probabilities(b)
    pc = invocation_probabilities(c)
    assert probability_shift(pa, pc) <= (
        probability_shift(pa, pb) + probability_shift(pb, pc) + 1e-9
    )


@given(st.lists(window_counts, min_size=1, max_size=8))
@settings(max_examples=50)
def test_series_length(windows):
    shifts = AppTrace("app", tuple(f"h{i}" for i in range(6)), windows).shifts()
    assert len(shifts) == len(windows) - 1
