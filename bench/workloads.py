"""The four benchmark workloads: what each types at the CLI, and why.

Every workload is one ``slimstart`` command line a user could type.  The
three ``replay_*`` workloads fix their request *volume* instead of
letting it float with the seed: the trace generator draws every app's
volume from ``max(50, gauss(mean, 1200))``, so the same flags yield
450k-660k requests depending on the seed — a 15 % swing in wall time
that says nothing about the code.  ``--scale`` (the CLI's own volume
multiplier) is therefore set per seed to ``target / generated total``;
the seed still picks the fleet shape, handler popularity, shift events
and every arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42
#: ``--quick`` replays this fraction of each workload's request target.
QUICK_SCALE = 0.05
#: The set-up command replays ~no requests: imports, trace generation,
#: fleet deployment and report rendering remain.
SETUP_SCALE = 0.001


@dataclass(frozen=True)
class Workload:
    """One CLI command line plus its set-up command and its reason."""

    name: str
    why: str
    #: CLI words of the timed command (``--seed``/``--scale`` appended
    #: for replays).
    words: tuple[str, ...]
    #: Simulated requests every seed is scaled to (replays only).
    target_requests: int | None = None
    #: CLI words of the set-up command when it is not "the same replay at
    #: ``SETUP_SCALE``".
    setup_words: tuple[str, ...] | None = None
    #: Global CLI words ``--quick`` puts in front (shrinks table2).
    quick_prefix: tuple[str, ...] = ()

    @property
    def is_replay(self) -> bool:
        return self.target_requests is not None


WORKLOADS = (
    Workload(
        name="replay_warm",
        why="shipped default path: plain engine via Gateway.submit_stream, "
        "per-request policy, untagged, ~99.7% warm hits; exercises the tier-2 "
        "fast path, inlined drain and vectorized compile",
        words=(
            "replay", "--apps", "32", "--duration-hours", "12",
            "--window-hours", "1", "--requests-per-window", "1340",
            "--shift-hours", "6",
        ),
        target_requests=300_000,
    ),
    Workload(
        name="replay_durable",
        why="everything the fast path bypasses: 1 s keep-alive cold/reap path, "
        "tier-0 panic-window policy, QoS accounting, checkpoint driver "
        "(stream_begin/feed/end) and journal writes",
        words=(
            "replay", "--apps", "16", "--duration-hours", "12",
            "--window-hours", "1", "--requests-per-window", "600",
            "--shift-hours", "6", "--keep-alive", "1",
            "--policy", "panic-window", "--arrival-model", "diurnal",
            "--qos-mix", "critical=1,standard=5,batch=4",
            "--checkpoint", "C", "--journal", "J", "--trace-sample", "0.01",
        ),
        target_requests=60_000,
    ),
    Workload(
        name="replay_federated",
        why="RegionFederation rides the batch submit()->run(until=) API; "
        "single-cluster changes should not move it, the one-kernel item "
        "should move it most",
        words=(
            "replay", "--apps", "16", "--duration-hours", "8",
            "--window-hours", "1", "--requests-per-window", "400",
            "--shift-hours", "4", "--regions", "us,eu",
        ),
        target_requests=30_000,
    ),
    Workload(
        name="pipeline_table2",
        why="the paper's own pipeline (build, profile, analyze, redeploy, "
        "2x500x5 cold starts per app) touches none of the replay engine: the "
        "bypass workload for replay changes; takes no seed",
        words=("table2",),
        setup_words=("apps",),
        quick_prefix=("--cold-starts", "50", "--runs", "1"),
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def generate_trace(args):
    """The production trace ``slimstart replay`` builds from parsed flags."""
    from repro.workloads.trace import TraceGenerator

    return TraceGenerator(
        app_count=args.apps,
        duration_hours=args.duration_hours,
        window_hours=args.window_hours,
        seed=args.seed,
        mean_requests_per_window=args.requests_per_window,
        shift_hours=tuple(
            float(hour) for hour in args.shift_hours.split(",") if hour.strip()
        ),
    ).generate()


def commands(
    workload: Workload, seed: int, quick: bool = False
) -> tuple[list[str], list[str]]:
    """The ``(timed, set-up)`` CLI argument lists for one seed."""
    if not workload.is_replay:
        prefix = list(workload.quick_prefix) if quick else []
        return prefix + list(workload.words), prefix + list(workload.setup_words)
    from repro.cli import build_parser

    seeded = [*workload.words, "--seed", str(seed)]
    trace = generate_trace(build_parser().parse_args(seeded))
    total = sum(app.total_invocations() for app in trace.apps)
    target = workload.target_requests * (QUICK_SCALE if quick else 1.0)
    return (
        [*seeded, "--scale", repr(target / total)],
        [*seeded, "--scale", repr(SETUP_SCALE)],
    )


# -- output checks ------------------------------------------------------------


def _labelled_int(lines: list[str], label: str) -> int:
    for line in lines:
        if line.startswith(label):
            return int(line.split(":")[1])
    raise ValueError(f"report has no {label!r} line")


def _table(lines: list[str], first_header_word: str) -> list[list[str]]:
    """Rows of the report table whose header starts with the given word."""
    for index, line in enumerate(lines):
        if line.split()[:1] == [first_header_word]:
            rows = []
            for row in lines[index + 2 :]:  # skip the dashes
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


def check_replay(stdout: str) -> tuple[int, list[str]]:
    """``(requests, problems)`` of one replay report.

    The conservation invariants hold for every seed: no request is
    created or lost between the totals, the per-window rows and the
    per-class rows.
    """
    lines = stdout.splitlines()
    arrivals = _labelled_int(lines, "arrivals")
    completed = _labelled_int(lines, "completed")
    shed = _labelled_int(lines, "shed")
    problems = []
    if arrivals != completed + shed:
        problems.append(f"arrivals {arrivals} != completed {completed} + shed {shed}")
    windows = _table(lines, "window")
    if not windows:
        problems.append("report has no window rows")
    window_arrivals = sum(int(row[2]) for row in windows)
    window_done = sum(int(row[3]) for row in windows)
    if window_arrivals != arrivals:
        problems.append(f"window arrivals sum {window_arrivals} != {arrivals}")
    if window_done != completed:
        problems.append(f"window done sum {window_done} != completed {completed}")
    classes = _table(lines, "class")
    if classes:
        class_done = sum(int(row[1]) for row in classes)
        if class_done != completed:
            problems.append(f"QoS completed sum {class_done} != {completed}")
    return arrivals, problems


def table2_rows(stdout: str) -> dict[str, list[str]]:
    """Table II as ``{app key: [printed cells after the key]}``."""
    return {row[0]: row[1:] for row in _table(stdout.splitlines(), "App")}


def check_table2(stdout: str) -> tuple[int, list[str]]:
    """``(apps, problems)`` of one Table II: every speedup is a gain."""
    rows = table2_rows(stdout)
    problems = []
    if not rows:
        problems.append("table2 printed no application rows")
    for key, cells in rows.items():
        if len(cells) != 7:
            problems.append(f"{key}: expected 7 columns, got {len(cells)}")
        elif min(float(cell) for cell in cells[3:]) < 1.0:
            problems.append(f"{key}: a speedup below 1.0 in {cells[3:]}")
    return len(rows), problems


def check_output(workload: Workload, stdout: str) -> tuple[int, list[str]]:
    """``(work units, problems)`` for one invocation's stdout."""
    try:
        if workload.is_replay:
            return check_replay(stdout)
        return check_table2(stdout)
    except (ValueError, IndexError) as error:
        return 0, [f"unparseable report: {error}"]
