"""Self-tests for the benchmark harness.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection.  The one test that starts children uses a small CLI run, so the
file takes about ten seconds.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(("clt", "--nn", "d=1", "n=1", "m=1", "--L", "16",
                     "--ensemble", "1000", "--t", "5"), work=1000 * 16,
                    work_unit="sample-sites", exit_codes=(0, 3))


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WORK", run.BENCH_DIR / "_work" / "selftest")
    return "tiny"


def test_traced_invocations_give_the_untraced_bytes(tiny):
    runner = run.Runner(seed=7, expected={})
    plain = runner.invoke(tiny, "plain")
    spans = runner.invoke(tiny, "spans")
    memory = runner.invoke(tiny, "memory")
    assert plain.ok and spans.ok and memory.ok
    assert plain.files and plain.files == spans.files == memory.files
    assert plain.probe_s > 0 and spans.probe_s is None
    names = {s[0] for s in spans.spans}
    assert {"cli.main", "fields.gaussian_ensemble", "dynamics.FieldState",
            "stats.empirical_covariance"} <= names
    assert {name for name, _ in memory.peaks} == {
        f"{layer}.{func}" for layer, func in child.MEMORY_FUNCTIONS}


def _invocation(files, exit_code=0):
    inv = run.Invocation("ensemble-d1", "plain", exit=exit_code, setup_s=0.5, run_s=1.0,
                         probe_s=0.2)
    inv.files = dict(files)
    return inv


def test_recorded_hashes_decide_correctness():
    files = {"clt.json": "a" * 64, "manifest.json": "b" * 64}
    expected = {"ensemble-d1": {"3": {"exit": 0, "files": files}}}
    runner = run.Runner(seed=3, expected=expected)
    assert runner.check_kind("ensemble-d1") == "recorded"
    assert runner.check(_invocation(files))
    corrupted = dict(files, **{"clt.json": "c" * 64})
    assert not runner.check(_invocation(corrupted))
    assert not runner.check(_invocation(files, exit_code=3))
    assert not runner.check(_invocation({"manifest.json": files["manifest.json"]}))


def test_fallback_compares_exit_code_and_bytes_within_the_run():
    runner = run.Runner(seed=12345, expected={})
    assert runner.check_kind("ensemble-d1") == "fallback"
    files = {"clt.json": "a" * 64}
    assert runner.check(_invocation(files))
    assert runner.check(_invocation(files))
    assert not runner.check(_invocation({"clt.json": "d" * 64}))
    assert runner.check(_invocation(files, exit_code=3))
    assert not runner.check(_invocation(files, exit_code=1))
    crashed = _invocation(files)
    crashed.run_s = None
    assert not runner.check(crashed)


def test_self_time_subtracts_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 1),
        ("fields.gaussian_ensemble", 1.0, 5.0, 0, 1),
        ("dynamics.FieldState", 2.0, 3.0, 1, 1),
        ("dynamics.FieldState", 3.0, 4.0, 1, 1),
        ("stats.empirical_covariance", 6.0, 8.0, 0, 1),
    ]
    self_s, calls, layers = run.span_totals(spans)
    assert self_s["cli.main"] == pytest.approx(4.0)
    assert self_s["fields.gaussian_ensemble"] == pytest.approx(2.0)
    assert calls["dynamics.FieldState"] == 2
    assert layers == pytest.approx({"cli": 4.0, "fields": 2.0, "dynamics": 2.0, "stats": 2.0})


def test_benchmark_json_matches_the_harness():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    timed = [_invocation({}) for _ in range(3)]
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.end_to_end("ensemble-d1", timed))
    layers = {"kernel", "spectral", "dynamics", "fields", "covariance", "stats", "cli", "trace"}
    for metric in spec["per_layer"]:
        assert metric["name"].split(".", 1)[0] in layers, metric["name"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
