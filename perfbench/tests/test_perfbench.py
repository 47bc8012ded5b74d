"""Tests of the benchmark itself: smoke-size runs and the variant generator.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run as bench  # noqa: E402
import variants  # noqa: E402
from scenforge import dsl, normalize, rules, sampling, sim, synth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def smoke_size(monkeypatch):
    monkeypatch.setattr(bench, "PIPELINE_SEEDS", 4)
    monkeypatch.setattr(bench, "REPLAY_SEEDS", 2)
    monkeypatch.setattr(bench, "CHECK_REPLAY_SEEDS", 2)
    monkeypatch.setattr(bench, "FIXTURE_SETUPS", 2)
    monkeypatch.setattr(bench, "REPLAY_SETUPS", 2)


def _run(capsys, workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    status = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_checks(smoke_size, capsys, workload, trace):
    details, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert details["digests"][0]["tree"]
    if trace:
        assert result["metrics"]["failed_ratio"]["value"] == 0.0
        assert result["metrics"]["rules.monitor_ms_per_instance"]["value"] > 0.0
        assert result["metrics"]["sim.trace_from_jsonl_ms_per_instance"]["value"] > 0.0
        assert result["metrics"]["sim.simulate_ms_per_instance"]["value"] > 0.0
        assert abs(result["metrics"]["bench.unaccounted_ratio"]["value"]) < 0.05
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0.0, name


def test_pool_workers_return_their_spans(smoke_size, capsys):
    details, _ = _run(capsys, "fixtures-workers2", 1)
    workers = details["layers"]["worker_self_ms_per_instance"]
    assert workers["rules"] > 0.0 and workers["sim"] > 0.0
    assert details["layers"]["span_counts"]["cli.pool_wait"] >= 1


def test_serial_and_pool_trees_match(smoke_size, capsys):
    serial, _ = _run(capsys, "fixtures-serial", 0, seed=5)
    pooled, _ = _run(capsys, "fixtures-workers2", 0, seed=5)
    assert serial["digests"][0]["tree"] == pooled["digests"][0]["tree"]
    assert pooled["serial_reference_tree"] == pooled["digests"][0]["tree"]


def _fixture_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(bench.FIXTURES.glob("*.yaml"))]


def test_variants_are_deterministic_in_the_seed():
    for text in _fixture_texts():
        assert variants.five_actor_variant(text, 7) == variants.five_actor_variant(text, 7)
        assert len({variants.five_actor_variant(text, seed) for seed in range(8)}) > 1


@pytest.mark.parametrize("seed", range(12))
def test_variants_validate_build_and_simulate(seed):
    for text in _fixture_texts():
        spec = dsl.parse_dsl(variants.five_actor_variant(text, seed))
        assert isinstance(spec, dsl.ScenarioSpec)
        assert len(spec.actors.all_actors()) == 5
        assert dsl.validate_spec(spec) == []
        template = synth.build_template(normalize.apply_defaults(spec, seed))
        geometry = sim.build_geometry(template)
        instance = sampling.sample_instance(template, seed)
        trace = sim.simulate(instance, geometry)
        rules.monitor(trace, template.params.oracle, geometry)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "fixtures-serial",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
