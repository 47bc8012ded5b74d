from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scenforge import cli, rules, sim
from scenforge.digests import from_data

from .conftest import FIXTURES

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


def test_stage_composition_matches_pipeline(tmp_path):
    piped = tmp_path / "piped"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(piped),
                     "--samples", "5"]) == cli.EXIT_OK

    staged = tmp_path / "staged"
    staged.mkdir()
    assert cli.main(["synth", str(STRAIGHT1), "--out", str(staged), "--seed", "0"]) == cli.EXIT_OK
    template = staged / "straight-1.template.json"
    assert cli.main(["sample", str(template), "--samples", "5", "--seed", "0",
                     "--out", str(staged)]) == cli.EXIT_OK
    assert cli.main(["simulate", str(template), str(staged / "instances.jsonl"),
                     "--out", str(staged)]) == cli.EXIT_OK
    traces = sorted((staged / "traces").glob("trace_*.jsonl"))
    assert cli.main(["monitor", str(template)] + [str(t) for t in traces]
                    + ["--out", str(staged)]) == cli.EXIT_OK

    pipe_dir = piped / "straight-1"
    assert (staged / "straight-1.scenic").read_bytes() == \
        (pipe_dir / "straight-1.scenic").read_bytes()
    assert (staged / "instances.jsonl").read_bytes() == \
        (pipe_dir / "instances.jsonl").read_bytes()
    for trace in traces:
        assert trace.read_bytes() == (pipe_dir / "traces" / trace.name).read_bytes()
    for report in sorted((staged / "reports").glob("report_*.json")):
        assert report.read_bytes() == (pipe_dir / "reports" / report.name).read_bytes()


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
