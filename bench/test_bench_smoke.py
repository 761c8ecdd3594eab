"""Smoke test of the benchmark itself (outside tier-1 ``testpaths``).

    python -m pytest bench/test_bench_smoke.py -q

Runs ``bench/run.py --quick`` (1 rep at 5 % volume, digests skipped,
invariants kept) and checks that ``BENCHMARK.json`` names exactly the
workloads and metrics the code reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT)]

from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_names_the_workloads_in_the_code():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]


def test_manifest_names_the_metrics_in_the_code():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in PER_LAYER
    ]
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_quick_run_passes_and_reports_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for workload in WORKLOADS:
        for name, *_ in END_TO_END:
            assert line["metrics"][f"{workload.name}.{name}"]["value"] > 0
        for layer in PER_LAYER:
            if workload.name in layer.workloads:
                assert f"{workload.name}.{layer.name}" in line["metrics"]
        trace = json.loads((tmp_path / f"trace-{workload.name}.json").read_text())
        assert trace["spans"] and not trace["problems"]
