from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from scenforge import cli, dsl, normalize, rules, sim, synth
from scenforge.digests import from_data

from .conftest import FIXTURES, SCENARIO_FILES
from .test_dsl import scenario_specs

STRAIGHT1 = FIXTURES / "scenarios" / "straight1.yaml"
CURVE = FIXTURES / "scenarios" / "curve.yaml"


def _tree_hash(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_pipeline_artifact_counts(tmp_path):
    out = tmp_path / "out"
    status = cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                       "--samples", "10", "--seed", "0"])
    assert status == cli.EXIT_OK
    scenario = out / "straight-1"
    assert (scenario / "straight-1.scenic").is_file()
    assert (scenario / "straight-1.template.json").is_file()
    assert (scenario / "instances.jsonl").is_file()
    assert len(list((scenario / "traces").glob("trace_*.jsonl"))) == 10
    assert len(list((scenario / "reports").glob("report_*.json"))) == 10
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    assert summary.count("\n") == 11  # header + 10 rows
    assert "straight-1" in summary


def test_pipeline_deterministic_across_runs(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out in (first, second):
        status = cli.main(["pipeline", str(STRAIGHT1), str(CURVE),
                           "--out", str(out), "--samples", "8"])
        assert status == cli.EXIT_OK
    assert _tree_hash(first) == _tree_hash(second)


COMPOSITION_SAMPLES = "5"


def _pipeline_and_stages(document: Path, sid: str, root: Path, samples: str) -> tuple[Path, Path]:
    """The scenario directory `pipeline` wrote and the one the stages wrote, both at seed 0."""
    piped = root / "piped"
    assert cli.main(["pipeline", str(document), "--out", str(piped),
                     "--samples", samples]) == cli.EXIT_OK
    staged = root / "staged"
    for stage in ("normalize", "synth"):
        assert cli.main([stage, str(document), "--out", str(staged),
                         "--seed", "0"]) == cli.EXIT_OK
    template = staged / f"{sid}.template.json"
    assert cli.main(["sample", str(template), "--samples", samples,
                     "--seed", "0", "--out", str(staged)]) == cli.EXIT_OK
    assert cli.main(["simulate", str(template), str(staged / "instances.jsonl"),
                     "--out", str(staged)]) == cli.EXIT_OK
    traces = sorted((staged / "traces").glob("trace_*.jsonl"))
    assert cli.main(["monitor", str(template), *map(str, traces),
                     "--out", str(staged)]) == cli.EXIT_OK
    return piped / sid, staged


@pytest.fixture(scope="module")
def composed(tmp_path_factory) -> dict[str, tuple[Path, Path]]:
    """Per fixture: the scenario directory `pipeline` wrote and the one the stages wrote."""
    root = tmp_path_factory.mktemp("composition")
    return {sid: _pipeline_and_stages(document, sid, root / sid, COMPOSITION_SAMPLES)
            for sid, document in SCENARIO_FILES.items()}


def _same_names(piped: Path, staged: Path, pattern: str, count: int) -> list[Path]:
    names = sorted(path.relative_to(staged) for path in staged.glob(pattern))
    assert names == sorted(path.relative_to(piped) for path in piped.glob(pattern))
    assert len(names) == count
    return names


def _assert_same_files(piped: Path, staged: Path, pattern: str,
                       count: int = int(COMPOSITION_SAMPLES)) -> None:
    for name in _same_names(piped, staged, pattern, count):
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name


def _assert_same_stage_files(piped: Path, staged: Path, sid: str, count: int) -> None:
    for name in (f"{sid}.normalized.yaml", f"{sid}.provenance.json", f"{sid}.scenic",
                 f"{sid}.template.json", "instances.jsonl"):
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name
    _assert_same_files(piped, staged, "traces/trace_*.jsonl", count)


def test_stage_composition_matches_pipeline(composed):
    for sid, (piped, staged) in composed.items():
        _assert_same_stage_files(piped, staged, sid, int(COMPOSITION_SAMPLES))
    _assert_same_files(*composed["straight-1"], "reports/report_*.json")


def _verdicts(report: Path) -> tuple:
    """What a report decides: outcome, targeted hit, (rule, actor) pairs and collisions."""
    data = json.loads(report.read_text(encoding="utf-8"))
    return (data["outcome"], data["targeted_hit"],
            sorted({(v["rule_id"], v["actor_id"]) for v in data["violations"]}),
            data["collisions"])


# A larger opt-in run of this gate, with the same derandomized examples first:
#   SCENFORGE_FUZZ_EXAMPLES=400 PYTHONPATH=src python -m pytest tests/test_cli.py -k fuzz
@given(scenario_specs())
@settings(derandomize=True, deadline=None,
          max_examples=int(os.environ.get("SCENFORGE_FUZZ_EXAMPLES", "70")))
def test_fuzzed_documents_are_rejected_at_synth_or_compose_end_to_end(spec):
    """Every valid document either fails synth with a `CompatibilityError`, or runs
    through `pipeline` and the staged commands without an error, writing the same
    files; the reports agree on every verdict (their evidence floats may differ,
    see `test_staged_reports_match_pipeline`)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        text = dsl.serialize_dsl(spec)
        document = root / "doc.yaml"
        document.write_text(text, encoding="utf-8")
        normalized = normalize.normalize_document(text, 0)
        assert isinstance(normalized, normalize.NormalizedSpec), normalized
        try:
            synth.build_template(normalized)
        except synth.CompatibilityError as exc:
            out = root / "piped"
            assert cli.main(["pipeline", str(document), "--out", str(out),
                             "--samples", "2"]) == cli.EXIT_PARTIAL
            failures = (out / "failures.txt").read_text(encoding="utf-8")
            assert failures == f"{document}: {exc}\n" and failures.startswith(f"{document}: /")
            return
        sid = normalized.spec.scenario_id
        piped, staged = _pipeline_and_stages(document, sid, root, "2")
        _assert_same_stage_files(piped, staged, sid, 2)
        for name in _same_names(piped, staged, "reports/report_*.json", 2):
            assert _verdicts(staged / name) == _verdicts(piped / name), name


@pytest.mark.parametrize("sid", [
    pytest.param(sid, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: monitoring a trace reloaded from its 6-significant-digit "
        "JSONL gives other evidence floats than monitoring the in-memory trace")))
    for sid in SCENARIO_FILES if sid != "straight-1"])
def test_staged_reports_match_pipeline(composed, sid):
    _assert_same_files(*composed[sid], "reports/report_*.json")


def test_pipeline_partial_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("environment: {weather: plasma}\n", encoding="utf-8")
    out = tmp_path / "out"
    status = cli.main(["pipeline", str(bad), str(STRAIGHT1), "--out", str(out),
                       "--samples", "2"])
    assert status == cli.EXIT_PARTIAL
    assert (out / "failures.txt").is_file()
    # the good input still produced artifacts
    assert (out / "straight-1" / "straight-1.scenic").is_file()


def test_offline_flag_requires_transcripts(tmp_path):
    report = tmp_path / "case.json"
    report.write_text(json.dumps({"case_id": "case-success", "summary_text": "crash"}),
                      encoding="utf-8")
    status = cli.main(["extract", str(report), "--offline", "--out", str(tmp_path)])
    assert status == cli.EXIT_CONFIG


def test_offline_extraction_through_cli(tmp_path):
    report = tmp_path / "case.json"
    report.write_text(json.dumps({"case_id": "case-success", "summary_text": "crash"}),
                      encoding="utf-8")
    status = cli.main([
        "extract", str(report), "--offline",
        "--transcripts", str(FIXTURES / "transcripts" / "success.json"),
        "--out", str(tmp_path / "docs"),
    ])
    assert status == cli.EXIT_OK
    assert (tmp_path / "docs" / "straight-1.yaml").is_file()


def test_offline_pipeline_from_crash_report(tmp_path):
    report = tmp_path / "case.json"
    report.write_text(json.dumps({"case_id": "case-success", "summary_text": "crash"}),
                      encoding="utf-8")
    out = tmp_path / "out"
    status = cli.main([
        "pipeline", str(report), "--out", str(out), "--samples", "3", "--offline",
        "--transcripts", str(FIXTURES / "transcripts" / "success.json"),
    ])
    assert status == cli.EXIT_OK
    assert len(list((out / "straight-1" / "reports").glob("*.json"))) == 3


def test_parse_subcommand_reports_issues(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("environment: {weather: plasma}\n", encoding="utf-8")
    status = cli.main(["parse", str(bad)])
    assert status == cli.EXIT_PARTIAL
    assert "invalid_enum" in capsys.readouterr().out


def test_validate_subcommand_ok(capsys):
    assert cli.main(["validate", str(STRAIGHT1)]) == cli.EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_eval_accuracy_subcommand(capsys):
    status = cli.main(["eval", "accuracy", str(FIXTURES / "accuracy")])
    assert status == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "overall,792,800,0.99" in out


def test_eval_kappa_subcommand(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({
        "categories": ["no", "partial", "mostly", "match"],
        "ratings": [[0, 0, 0], [1, 1, 1], [3, 3, 3], [2, 2, 2]],
    }), encoding="utf-8")
    assert cli.main(["eval", "kappa", str(matrix)]) == cli.EXIT_OK
    assert "almost_perfect" in capsys.readouterr().out


def test_eval_counts_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                     "--samples", "3"]) == cli.EXIT_OK
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"straight-1": 1}), encoding="utf-8")
    status = cli.main(["eval", "counts", str(out), str(expected)])
    assert status == cli.EXIT_OK
    assert "straight-1,1,1,true" in capsys.readouterr().out


def test_a_rerun_replaces_the_traces_and_reports_of_an_input(tmp_path, capsys):
    out = tmp_path / "out"
    for samples in ("6", "3"):
        assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                         "--samples", samples]) == cli.EXIT_OK
    scenario = out / "straight-1"
    traces = sorted(path.name for path in (scenario / "traces").iterdir())
    reports = sorted(path.name for path in (scenario / "reports").iterdir())
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    seeds = sorted(int(row.split(",")[1]) for row in summary)
    assert traces == [f"trace_{seed:05d}.jsonl" for seed in seeds] and len(seeds) == 3
    assert reports == [f"report_{seed:05d}.json" for seed in seeds]
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"straight-1": 1}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["eval", "counts", str(out), str(expected)]) == cli.EXIT_OK
    assert "straight-1,1,1,true" in capsys.readouterr().out
    # the staged commands replace theirs too, and remove nothing else
    template = scenario / "straight-1.template.json"
    (scenario / "traces" / "notes.txt").write_text("kept\n", encoding="utf-8")
    for samples in ("5", "2"):
        assert cli.main(["sample", str(template), "--samples", samples]) == cli.EXIT_OK
        assert cli.main(["simulate", str(template), str(scenario / "instances.jsonl")]) == 0
        traces = sorted((scenario / "traces").glob("trace_*.jsonl"))
        assert len(traces) == int(samples)
        assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_OK
        assert len(list((scenario / "reports").iterdir())) == int(samples)
    assert (scenario / "traces" / "notes.txt").is_file()


def test_pool_chunks_are_balanced_and_at_most_64_seeds():
    assert cli._chunksize(1, 2) == 1
    assert cli._chunksize(100, 2) == 13  # four chunks per worker, not 64 + 36
    assert cli._chunksize(2000, 2) == 64


def test_workers_flag_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(serial),
                     "--samples", "6"]) == cli.EXIT_OK
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(parallel),
                     "--samples", "6", "--workers", "2"]) == cli.EXIT_OK
    assert _tree_hash(serial) == _tree_hash(parallel)


def test_summary_matches_the_written_reports(tmp_path):
    """The summary built from in-memory reports equals one read back from disk."""
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["pipeline", str(STRAIGHT1), str(CURVE), "--out", str(out),
                         "--samples", "6", "--workers", workers]) == cli.EXIT_OK
        written = [from_data(rules.ViolationReport, json.loads(path.read_text(encoding="utf-8")))
                   for path in sorted(out.rglob("report_*.json"))]
        assert len(written) == 12
        assert (out / "summary.csv").read_text(encoding="utf-8") == rules.summary_csv(written)


def test_a_failing_seed_is_named_in_failures(tmp_path, monkeypatch):
    simulate = sim.simulate

    def fail_on_seed_3(instance, geometry):
        if instance.instance_seed == 3:
            raise ValueError("boom")
        return simulate(instance, geometry)

    monkeypatch.setattr(sim, "simulate", fail_on_seed_3)
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                         "--samples", "6", "--workers", workers]) == cli.EXIT_PARTIAL
        assert (out / "failures.txt").read_text(encoding="utf-8") == f"{STRAIGHT1}: seed 3: boom\n"


def test_unknown_flag_is_config_error():
    assert cli.main(["pipeline", "--nonsense"]) == cli.EXIT_CONFIG


def test_zero_samples_is_config_error(tmp_path):
    status = cli.main(["pipeline", str(STRAIGHT1), "--out", str(tmp_path / "o"),
                       "--samples", "0"])
    assert status == cli.EXIT_CONFIG


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, workers):
    out = tmp_path / "o"
    status = cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                       "--samples", "2", "--workers", workers])
    assert status == cli.EXIT_CONFIG
    assert not out.exists()


def test_zero_samples_is_config_error_for_sample(tmp_path):
    assert cli.main(["synth", str(STRAIGHT1), "--out", str(tmp_path)]) == cli.EXIT_OK
    status = cli.main(["sample", str(tmp_path / "straight-1.template.json"),
                       "--samples", "0", "--out", str(tmp_path)])
    assert status == cli.EXIT_CONFIG
    assert not (tmp_path / "instances.jsonl").exists()


def test_offline_pipeline_requires_transcripts(tmp_path):
    report = tmp_path / "case.json"
    report.write_text(json.dumps({"case_id": "case-success", "summary_text": "crash"}),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(report), "--out", str(out), "--offline"]) == cli.EXIT_CONFIG
    assert not out.exists()


def _fail_on_seed(fn, seed: int):
    """`fn`, except that it raises ValueError("boom") when its first argument has `seed`."""
    def failing(first, *rest):
        if first.instance_seed == seed:
            raise ValueError("boom")
        return fn(first, *rest)
    return failing


def _staged_manifest(out: Path) -> tuple[Path, Path]:
    """(template, manifest of seeds 0-3) for straight-1, written by the stages."""
    assert cli.main(["synth", str(STRAIGHT1), "--out", str(out)]) == cli.EXIT_OK
    template = out / "straight-1.template.json"
    assert cli.main(["sample", str(template), "--samples", "4", "--out", str(out)]) == cli.EXIT_OK
    return template, out / "instances.jsonl"


def test_a_failing_staged_simulate_names_its_seed(tmp_path, monkeypatch, capsys):
    template, manifest = _staged_manifest(tmp_path)
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, 2))
    capsys.readouterr()
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_PARTIAL
    assert capsys.readouterr().err == f"error: {manifest}: seed 2: boom\n"
    assert not (tmp_path / "traces").exists()


def test_a_failing_staged_monitor_names_its_seed(tmp_path, monkeypatch, capsys):
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    assert len(traces) == 4
    monkeypatch.setattr(rules, "monitor", _fail_on_seed(rules.monitor, 2))
    capsys.readouterr()
    assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_PARTIAL
    assert capsys.readouterr().err == f"error: {traces[2]}: seed 2: boom\n"
    assert not (tmp_path / "reports").exists()
    assert not (tmp_path / "summary.csv").exists()


def test_a_malformed_trace_is_named_with_its_file_and_line(tmp_path, capsys):
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    lines = traces[1].read_text(encoding="utf-8").splitlines()
    traces[1].write_text("\n".join(lines[:-1] + ['{"actors":[']) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {traces[1]}: line {len(lines)}: Expecting value at column 12\n")
    assert not (tmp_path / "reports").exists()


def _write_unparseable_document(tmp_path: Path) -> Path:
    bad = tmp_path / "bad.yaml"
    bad.write_text("environment: {weather: plasma}\n", encoding="utf-8")
    return bad


def test_extract_prints_the_issues_of_a_document_that_does_not_parse(tmp_path, capsys):
    bad = _write_unparseable_document(tmp_path)
    assert cli.main(["extract", str(bad), "--out", str(tmp_path / "docs")]) == cli.EXIT_PARTIAL
    out = capsys.readouterr().out
    assert f"{bad}: /environment/weather [invalid_enum]" in out
    assert not (tmp_path / "docs").exists()


def test_extract_prints_the_issues_without_asserts(tmp_path):
    """Under `python -O` too: the check is not an assert."""
    bad = _write_unparseable_document(tmp_path)
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "scenforge.cli", "extract", str(bad),
         "--out", str(tmp_path / "docs")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == cli.EXIT_PARTIAL, done.stderr
    assert f"{bad}: /environment/weather [invalid_enum]" in done.stdout
    assert done.stderr == ""
    assert not (tmp_path / "docs").exists()
