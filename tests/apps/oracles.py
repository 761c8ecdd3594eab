"""Calibration figures the catalog tests check the apps against."""


def expected_init_speedup(app):
    """Init speed-up if every removable module were deferred: the
    analytic figure each catalog app is calibrated to, before any
    profiling or measurement."""
    remaining = app.expected_total_init_ms - app.expected_removable_init_ms
    if remaining <= 0:
        return float("inf")
    return app.expected_total_init_ms / remaining
