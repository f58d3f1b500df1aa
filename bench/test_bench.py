"""Self-test of the benchmark's tracing and run checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The traced runs here use 20 paths per workload, so a scenario's statistical
gates may fail; the tests look only at what tracing must preserve.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
from tracing import ROOT_SPAN, TRACED, Tracer, self_times, summarize, unit_of  # noqa: E402


def _write_spans(path, names, spans):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": spans}, fh)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 60] > b [20, 30]; root > c [70, 80]
    spans = [[0, 0, 100, -1, None, 0], [1, 10, 60, 0, 32, 0], [2, 20, 30, 1, 32, 0],
             [1, 70, 80, 0, 32, 0]]
    assert self_times(spans) == [40, 40, 10, 10]


def test_summarize_per_path_and_fractions(tmp_path):
    names = ["harness.run", "hilbert.op_norm", "noise.sample_path", "noise.substream"]
    us = 1000
    spans = [
        [0, 0, 10_000 * us, -1, None, 0],
        [2, 0, 400 * us, 0, 32, 3],
        [3, 0, 100 * us, 1, 32, 0],
        [1, 100 * us, 150 * us, 1, 32, 0],
        [2, 1000 * us, 1400 * us, 0, 32, 5],
        [3, 1000 * us, 1100 * us, 4, 32, 0],
    ]
    path = tmp_path / "spans.json"
    _write_spans(path, names, spans)
    m = summarize([str(path)], [0.0101], [0.01])
    assert m["noise.sample_path.self_us_per_path"] == pytest.approx(275.0)
    assert m["noise.substream.calls_per_path"] == 1.0
    assert m["noise.substream.self_us_per_path"] == pytest.approx(100.0)
    assert m["noise.jump_events_per_path"] == 4.0
    assert m["hilbert.op_norm.calls_per_path"] == 0.5
    assert m["noise.sample_path.self_us_per_path.n32"] == m["noise.sample_path.self_us_per_path"]
    assert m["noise.sample_path.self_us_per_path.n16"] == 0.0
    assert m["harness.run.self_s"] == pytest.approx(0.0092)
    assert m["trace.unattributed_frac"] == pytest.approx(1 - 0.0008 / 0.0101)
    assert m["trace.overhead_frac"] == pytest.approx(0.01)


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    reported = summarize([], [1.0], [1.0])
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit_of(name)) for name in reported
    ]


def test_tracer_rebinds_every_importer_and_restores():
    import cmvm.harness  # noqa: F401  (loads every cmvm module)

    before = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("cmvm") and mod is not None
        for attr, value in vars(mod).items()
    }
    tracer = Tracer()
    tracer.install()
    try:
        from cmvm import burkholder, harness, noise

        for module, func in TRACED:
            assert getattr(sys.modules[f"cmvm.{module}"], func).__wrapped__ is not None
        assert harness.sample_path is noise.sample_path is burkholder.sample_path
        assert harness.sample_path.__wrapped__ is before["cmvm.noise", "sample_path"]
    finally:
        assert tracer.uninstall()
    after = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("cmvm") and mod is not None
        for attr, value in vars(mod).items()
    }
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_matches_untraced_and_leaves_little_unattributed(workload, tmp_path, monkeypatch):
    small = dict(bench.WORKLOADS)
    scenario, overrides = small[workload]
    small[workload] = (scenario, overrides + ["n_paths=20"])
    monkeypatch.setattr(bench, "WORKLOADS", small)
    plain = bench.run_child(workload, 3, str(tmp_path / "plain"), None)
    spans = str(tmp_path / "spans.json")
    traced = bench.run_child(workload, 3, str(tmp_path / "traced"), spans)
    assert "error" not in plain and "error" not in traced
    assert traced["restored"] is True
    assert traced["digests"] == plain["digests"]
    with open(spans, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    roots = [s for s in doc["spans"] if s[3] == -1]
    assert [doc["names"][s[0]] for s in roots] == [ROOT_SPAN]
    metrics = summarize([spans], [traced["run_s"]], [plain["run_s"]])
    assert 0.0 <= metrics["trace.unattributed_frac"] < bench.UNATTRIBUTED_LIMIT
    assert metrics["noise.substream.calls_per_path"] > 0
