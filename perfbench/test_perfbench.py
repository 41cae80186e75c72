"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import bench  # noqa: E402
from feyncomb import hopf  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _installed():
    """The object at every patch target of the tracer."""
    return [vars(owner)[attr] for owner, attr, *_ in tracing.TARGETS]


def _jobs(name, tmp_path, limit=None):
    jobs = workloads.WORKLOADS[name](7, str(tmp_path / "fixtures"))
    return jobs if limit is None else jobs[:limit]


def test_corrupted_reference_is_counted_as_failure(tmp_path, monkeypatch):
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    key = sorted(reference)[0]
    reference[key][1] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFERENCE_PATH", str(corrupted))
    phase = bench.run_passes(_jobs("cli-matrix", tmp_path), seconds=0)
    metrics = bench.end_to_end_metrics([1.0], phase)
    assert [f.split(":")[0] for f in phase.failures] == [key]
    assert len(phase.failures) / len(phase.samples) > 0
    assert metrics["ok_ratio"] < 1


def test_corrupted_hopf_digest_is_counted_as_failure(tmp_path, monkeypatch):
    with open(workloads.HOPF_REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    key = "coproduct:phi4:fig4"
    reference[key] = "0" * 64
    corrupted = tmp_path / "hopf_reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(workloads, "HOPF_REFERENCE_PATH", str(corrupted))
    jobs = [j for j in _jobs("hopf-bphz", tmp_path) if j.name.endswith(":fig4")]
    phase = bench.run_passes(jobs, seconds=0)
    assert [f.split(": ")[0] for f in phase.failures] == [key]


def test_hopf_checks_catch_missing_divergent_members(tmp_path, monkeypatch):
    """Dropping divergent subgraphs keeps the Hopf axioms true; the checks must still fail."""
    jobs = [j for j in _jobs("hopf-bphz", tmp_path) if j.name.startswith(("coproduct:", "antipode:"))]
    monkeypatch.setattr(hopf.HopfAlgebra, "divergent_members", lambda self, g: [])
    failed = {f.split(": ")[0] for f in bench.run_passes(jobs, seconds=0).failures}
    for name in ("fig5", "nestedchain", "C6cut"):
        assert f"coproduct:phi4:{name}" in failed and f"antipode:phi4:{name}" in failed
    assert any(":phi4_" in f for f in failed) and any(":gw:" in f for f in failed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_counts_are_per_pass(name, tmp_path):
    jobs = _jobs(name, tmp_path, 12)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.run_passes(jobs, 0, tracer)
        one = tracing.per_layer_metrics(tracer, 1.0, 1, 1.0, passes=1)
        bench.run_passes(jobs, 0, tracer)
        two = tracing.per_layer_metrics(tracer, 1.0, 1, 1.0, passes=2)
    finally:
        tracer.uninstall()
    counts = [m for m in one if bench.unit_of(m) == "count"]
    assert any(one[m] > 0 for m in counts)
    assert {m: one[m] for m in counts} == {m: two[m] for m in counts}


def test_clean_run_has_no_failures(tmp_path):
    phase = bench.run_passes(_jobs("cli-matrix", tmp_path), seconds=0)
    assert phase.failures == []
    assert bench.end_to_end_metrics([1.0], phase)["ok_ratio"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run(name, tmp_path):
    before = _installed()
    # The layer-map check needs every job of tutte-br and hopf-bphz.
    limit = None if name in ("tutte-br", "hopf-bphz") else 12
    metrics, plain, traced = bench.traced_run(name, _jobs(name, tmp_path, limit), seconds=0, sweeps=False)

    assert plain.failures == [] and traced.failures == []
    for wall, self_sum in traced.accounting:
        assert self_sum <= wall + 1e-9
    assert metrics["trace.overhead_ratio"] > 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])

    # No wrapper stays installed, and a later untimed run uses the originals.
    after = _installed()
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(obj, "__wrapped__") for obj in after)

    if name == "hopf-bphz":
        assert metrics["share.poly"] == 0 and metrics["share.linalg"] == 0
        assert metrics["share.hopf"] > 0
    if name == "tutte-br":
        assert metrics["share.linalg"] == 0 and metrics["share.hopf"] == 0
        assert metrics["share.poly"] > 0


def test_benchmark_json_names_and_units():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END_UNITS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == bench.unit_of(m["name"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_determinism_check_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--check-determinism"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
