"""Deliberately naive references the workload layer is checked against."""

import math


def _clip(value, start_s, window_s):
    """Keep float arithmetic from leaking an arrival past the window end."""
    end = start_s + window_s
    return min(max(value, start_s), math.nextafter(end, start_s))


def naive_diurnal_times(model, rng, start_s, window_s, count):
    """``DiurnalArrivals.times`` as it was before its tables were built once.

    One ``random.choices`` (which rebuilds the cumulative weights) and one
    ``random.uniform`` per arrival, each clipped into the window, then
    sorted — the model's semantic definition.
    """
    if count <= 0:
        return []
    bin_s = window_s / model.sub_bins
    centers = [start_s + (index + 0.5) * bin_s for index in range(model.sub_bins)]
    weights = [model._intensity(center) for center in centers]
    bins = list(range(model.sub_bins))
    times = []
    for _ in range(count):
        index = rng.weighted_choice(bins, weights)
        low = start_s + index * bin_s
        times.append(_clip(rng.uniform(low, low + bin_s), start_s, window_s))
    times.sort()
    return times
