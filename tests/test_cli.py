from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from scenforge import cli, dsl, normalize, rules, sampling, sim, synth
from scenforge.digests import from_data

from .conftest import FIVE_ACTOR_DOCUMENTS, FIXTURES, SCENARIO_FILES, load_document_spec
from .reference_traces import (assert_round_trips_as_format_1, format1_to_jsonl, format2_to_jsonl,
                               format3_to_jsonl, format4_to_jsonl, lane_offsets)
from .test_dsl import scenario_specs
from .test_rules import reference_monitor
from .test_synth import assert_program_keeps_the_template_lines

STRAIGHT1 = FIXTURES / "scenarios" / "straight1.yaml"
INTERSECTION1 = FIXTURES / "scenarios" / "intersection1.yaml"
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
def composition_documents(tmp_path_factory) -> dict[str, Path]:
    """The six fixtures and the five-actor documents, by scenario id."""
    root = tmp_path_factory.mktemp("documents")
    documents = dict(SCENARIO_FILES)
    for sid in FIVE_ACTOR_DOCUMENTS:
        documents[sid] = root / f"{sid}.yaml"
        documents[sid].write_text(dsl.serialize_dsl(load_document_spec(sid)), encoding="utf-8")
    return documents


@pytest.fixture(scope="module")
def composed(tmp_path_factory, composition_documents) -> dict[str, tuple[Path, Path]]:
    """Per document: the scenario directory `pipeline` wrote and the one the stages wrote."""
    root = tmp_path_factory.mktemp("composition")
    return {sid: _pipeline_and_stages(document, sid, root / sid, COMPOSITION_SAMPLES)
            for sid, document in composition_documents.items()}


def _assert_same_files(piped: Path, staged: Path, pattern: str, count: int) -> None:
    names = sorted(path.relative_to(staged) for path in staged.glob(pattern))
    assert names == sorted(path.relative_to(piped) for path in piped.glob(pattern))
    assert len(names) == count
    for name in names:
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name


def _assert_same_stage_files(piped: Path, staged: Path, sid: str, count: int) -> None:
    """Every file the stages wrote equals `pipeline`'s, the summary of its one input too."""
    for name in (f"{sid}.normalized.yaml", f"{sid}.provenance.json", f"{sid}.scenic",
                 f"{sid}.template.json", "instances.jsonl"):
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name
    _assert_same_files(piped, staged, "traces/trace_*.jsonl", count)
    _assert_same_files(piped, staged, "reports/report_*.json", count)
    assert (staged / "summary.csv").read_bytes() == (piped.parent / "summary.csv").read_bytes()


def test_stage_composition_matches_pipeline(composed):
    assert len(composed) == 12
    for sid, (piped, staged) in composed.items():
        _assert_same_stage_files(piped, staged, sid, int(COMPOSITION_SAMPLES))


def test_a_pool_pipeline_writes_what_the_stages_write(tmp_path, composition_documents, composed):
    out = tmp_path / "pooled"
    assert cli.main(["pipeline", *map(str, composition_documents.values()), "--out", str(out),
                     "--samples", COMPOSITION_SAMPLES, "--workers", "2"]) == cli.EXIT_OK
    for sid, (piped, _) in composed.items():
        assert _tree_hash(out / sid) == _tree_hash(piped), sid


# A larger opt-in run of this gate, with the same derandomized examples first:
#   SCENFORGE_FUZZ_EXAMPLES=400 PYTHONPATH=src python -m pytest tests/test_cli.py -k fuzz
@given(scenario_specs())
@settings(derandomize=True, deadline=None,
          max_examples=int(os.environ.get("SCENFORGE_FUZZ_EXAMPLES", "70")))
def test_fuzzed_documents_are_rejected_at_synth_or_compose_end_to_end(spec):
    """Every valid document either fails synth with a `CompatibilityError`, or runs
    through `pipeline` and the staged commands without an error, writing the same
    files, reports included; each report is the shortcut-free reference
    monitor's report of its trace file read back.  The program has the
    template's lines, and each trace reads back from format 2 to a format-1
    round trip's floats and writes back its own text."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        text = dsl.serialize_dsl(spec)
        document = root / "doc.yaml"
        document.write_text(text, encoding="utf-8")
        normalized = normalize.normalize_document(text, 0)
        assert isinstance(normalized, normalize.NormalizedSpec), normalized
        try:
            template = synth.build_template(normalized)
        except synth.CompatibilityError as exc:
            out = root / "piped"
            assert cli.main(["pipeline", str(document), "--out", str(out),
                             "--samples", "2"]) == cli.EXIT_PARTIAL
            failures = (out / "failures.txt").read_text(encoding="utf-8")
            assert failures == f"{document}: {exc}\n" and failures.startswith(f"{document}: /")
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                status = cli.main(["synth", str(document), "--out", str(root / "staged")])
            assert status == cli.EXIT_PARTIAL
            assert stderr.getvalue() == f"error: {failures}"
            return
        assert_program_keeps_the_template_lines(template)
        sid = normalized.spec.scenario_id
        piped, staged = _pipeline_and_stages(document, sid, root, "2")
        _assert_same_stage_files(piped, staged, sid, 2)
        geometry = sim.build_geometry(template)
        for seed in range(2):
            text = (piped / "traces" / f"trace_{seed:05d}.jsonl").read_text(encoding="utf-8")
            trace = sim.simulate(sampling.sample_instance(template, seed), geometry)
            assert assert_round_trips_as_format_1(trace) == text
            expected = reference_monitor(sim.trace_from_jsonl(text), template.params.oracle,
                                         geometry).to_json() + "\n"
            name = Path("reports") / f"report_{seed:05d}.json"
            assert (piped / name).read_text(encoding="utf-8") == expected


def test_staged_synth_names_a_rejected_input_and_goes_on_to_the_next(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(STRAIGHT1.read_text(encoding="utf-8").replace(
        "number_of_ways: 2", "number_of_ways: 1"), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["synth", str(bad), str(CURVE), "--out", str(out)]) == cli.EXIT_PARTIAL
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: /road_network/number_of_ways: ")
    assert captured.err.count("\n") == 1
    assert captured.out == f"{CURVE}: synthesized -> curve.scenic\n"
    assert sorted(path.name for path in out.iterdir()) == ["curve.scenic", "curve.template.json"]


def _snapped_documents(tmp_path: Path) -> tuple[Path, Path]:
    """A straight road with 6 lanes and a curve with 4, whose maps both snap."""
    straight, curve = tmp_path / "straight.yaml", tmp_path / "curve.yaml"
    straight.write_text(STRAIGHT1.read_text(encoding="utf-8").replace(
        "number_of_lanes: 1", "number_of_lanes: 3").replace(
        "scenario_id: straight-1", "scenario_id: straight-6"), encoding="utf-8")
    curve.write_text(CURVE.read_text(encoding="utf-8").replace(
        "number_of_lanes: 1", "number_of_lanes: 2").replace(
        "scenario_id: curve", "scenario_id: curve-4"), encoding="utf-8")
    return straight, curve


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_a_snapped_lane_count_is_noted_once_under_its_input(tmp_path, capsys, command):
    straight, curve = _snapped_documents(tmp_path)
    extra = ["--samples", "1"] if command == "pipeline" else []
    status = cli.main([command, str(straight), str(curve), str(STRAIGHT1),
                       "--out", str(tmp_path / "out"), *extra])
    assert status == cli.EXIT_OK
    assert capsys.readouterr().err == (
        f"note: {straight}: straight road with 6 lanes snapped to the 4-lane configuration\n"
        f"note: {curve}: curve with 4 lanes snapped to the 2-lane Town02 configuration\n")


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


@pytest.mark.parametrize("command", ["extract", "pipeline"])
def test_a_crash_report_without_an_endpoint_is_refused_before_any_input_is_read(
        tmp_path, capsys, command):
    report = tmp_path / "case.JSON"
    report.write_text(json.dumps({"case_id": "case-success", "summary_text": "crash"}),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, str(STRAIGHT1), str(report), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "a crash-report JSON input needs --endpoint or --offline" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["extract", "pipeline"])
@pytest.mark.parametrize("content, named", [
    ([], "expected a crash-report object, got list"),
    ({"case_id": "case-success"}, "/summary_text: required field absent"),
    ({"case_id": "case-success", "summary_text": "crash", "rule_context": "CVC 21460"},
     "/rule_context: expected a list of strings, got str"),
])
def test_a_malformed_crash_report_is_named_by_its_file_and_field(tmp_path, capsys, command,
                                                                 content, named):
    report = tmp_path / "case.json"
    report.write_text(json.dumps(content), encoding="utf-8")
    status = cli.main([command, str(report), "--out", str(tmp_path / "out"), "--offline",
                       "--transcripts", str(FIXTURES / "transcripts" / "success.json")])
    assert status == cli.EXIT_PARTIAL
    assert f"error: {report}: {named}\n" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["extract", "pipeline"])
@pytest.mark.parametrize("case_id, text, named", [
    ("c1", '{"c1": "abc"}', "/c1: expected a non-empty list of strings, got str"),
    ("c1", '["x"]', "expected an object of case ids, got list"),
    ("c1", '{"c1": []}', "/c1: expected a non-empty list of strings, got an empty list"),
    ("c1", '{"c1": ["a reply", 3]}', "/c1/1: expected a string, got int"),
    ("a/b~c", '{"a/b~c": null}', "/a~1b~0c: expected a non-empty list of strings, got NoneType"),
    ("c1", '{"c1": [', "Expecting value: line 1 column 9 (char 8)"),
])
def test_a_malformed_transcript_file_is_named_before_any_reply_is_used(tmp_path, capsys, command,
                                                                      case_id, text, named):
    report = tmp_path / "case.json"
    report.write_text(json.dumps({"case_id": case_id, "summary_text": "crash"}), encoding="utf-8")
    transcripts = tmp_path / "transcripts.json"
    transcripts.write_text(text, encoding="utf-8")
    status = cli.main([command, str(report), "--out", str(tmp_path / "out"), "--offline",
                       "--transcripts", str(transcripts)])
    assert status == cli.EXIT_PARTIAL
    assert capsys.readouterr().err == f"error: {report}: {transcripts}: {named}\n"


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


def test_eval_counts_skips_the_staging_directories_of_a_killed_run(tmp_path, capsys):
    """A killed `pipeline` can leave `.<sid>.partial/` holding an empty report
    placeholder and `.<sid>.old.partial/` holding an earlier run's reports.
    Neither is a finished run: the table is the clean tree's."""
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                     "--samples", "3"]) == cli.EXIT_OK
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"straight-1": 1}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["eval", "counts", str(out), str(expected)]) == cli.EXIT_OK
    clean = capsys.readouterr().out
    assert "straight-1,1,1,true" in clean
    placeholder = out / ".straight-1.partial" / "reports" / "report_00000.json"
    placeholder.parent.mkdir(parents=True)
    placeholder.touch()
    old = out / ".straight-1.old.partial"
    shutil.copytree(out / "straight-1", old)
    report = json.loads((old / "reports" / "report_00000.json").read_text(encoding="utf-8"))
    report.update(instance_seed=-1, violations=[])  # it would be the representative report
    (old / "reports" / "report_00000.json").write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["eval", "counts", str(out), str(expected)]) == cli.EXIT_OK
    assert capsys.readouterr().out == clean


def test_eval_counts_names_a_report_that_does_not_parse(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                     "--samples", "3"]) == cli.EXIT_OK
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"straight-1": 1}), encoding="utf-8")
    empty = out / "straight-1" / "reports" / "report_00001.json"
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["eval", "counts", str(out), str(expected)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {empty}: Expecting value: line 1 column 1 (char 0)\n")


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
    assert not (scenario / ".traces.partial").exists()


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


def test_one_parser_gives_each_call_only_its_own_arguments(tmp_path, monkeypatch):
    """`main` builds the parser once per process.  A flag of one call does not
    reach the next, and a command patched after the parser was built still runs."""
    seen = []
    for name in ("run_pipeline", "_cmd_monitor"):
        monkeypatch.setattr(cli, name, lambda args, run=getattr(cli, name): (
            seen.append(dict(vars(args))) or run(args)))
    parser = cli.build_parser()
    parallel, serial = tmp_path / "parallel", tmp_path / "serial"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(parallel), "--samples", "4",
                     "--seed", "3", "--workers", "2"]) == cli.EXIT_OK
    assert cli.main(["pipeline", str(CURVE), "--out", str(serial), "--samples", "2"]) == 0
    template = parallel / "straight-1" / "straight-1.template.json"
    traces = sorted(map(str, (parallel / "straight-1" / "traces").glob("trace_*.jsonl")))
    assert len(traces) == 4
    assert cli.main(["monitor", str(template), *traces]) == cli.EXIT_OK
    assert cli.build_parser() is parser
    pipeline_defaults = {"command": "pipeline", "func": "run_pipeline", "synonyms": None,
                         "offline": False, "transcripts": None, "endpoint": "", "model": ""}
    assert seen == [
        pipeline_defaults | {"inputs": [str(STRAIGHT1)], "out": parallel, "samples": 4,
                             "seed": 3, "workers": 2},
        pipeline_defaults | {"inputs": [str(CURVE)], "out": serial, "samples": 2,
                             "seed": 0, "workers": 1},
        {"command": "monitor", "func": "_cmd_monitor", "template": str(template),
         "traces": traces, "out": None},
    ]


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


@pytest.mark.parametrize("owner, name", [(sim, "simulate"), (rules, "monitor")])
def test_a_failing_seed_is_named_in_failures(tmp_path, monkeypatch, owner, name):
    monkeypatch.setattr(owner, name, _fail_on_seed(getattr(owner, name), 3))
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


def _fail_on_seed(fn, seed: int, error: Exception = ValueError("boom")):
    """`fn`, except that it raises `error` when its first argument has `seed`."""
    def failing(first, *rest):
        if first.instance_seed == seed:
            raise error
        return fn(first, *rest)
    return failing


def _staged_manifest(out: Path, document: Path = STRAIGHT1) -> tuple[Path, Path]:
    """(template, manifest of seeds 0-3) for `document`, written by the stages."""
    assert cli.main(["synth", str(document), "--out", str(out)]) == cli.EXIT_OK
    template, = out.glob("*.template.json")
    assert cli.main(["sample", str(template), "--samples", "4", "--out", str(out)]) == cli.EXIT_OK
    return template, out / "instances.jsonl"


def test_a_failing_staged_simulate_names_its_seed(tmp_path, monkeypatch, capsys):
    template, manifest = _staged_manifest(tmp_path)
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, 2))
    capsys.readouterr()
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_PARTIAL
    assert capsys.readouterr().err == f"error: {manifest}: seed 2: boom\n"
    assert not (tmp_path / "traces").exists()
    assert not (tmp_path / ".traces.partial").exists()


@pytest.mark.parametrize("error, named", [(StopIteration(), "StopIteration"),
                                          (ValueError(""), "ValueError")])
def test_a_failure_with_an_empty_message_is_named_by_its_seed_and_type(tmp_path, monkeypatch,
                                                                       capsys, error, named):
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, 3, error))
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                         "--samples", "6", "--workers", workers]) == cli.EXIT_PARTIAL
        assert (out / "failures.txt").read_text(encoding="utf-8") == (
            f"{STRAIGHT1}: seed 3: {named}\n")
    template, manifest = _staged_manifest(tmp_path / "staged")
    capsys.readouterr()
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_PARTIAL
    assert capsys.readouterr().err == f"error: {manifest}: seed 3: {named}\n"


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


@pytest.mark.parametrize("command, prefix, nth", [("simulate", "trace_", 2),
                                                  ("monitor", "report_", 3)])
def test_a_failed_staged_write_keeps_every_earlier_file(tmp_path, monkeypatch, command, prefix,
                                                        nth):
    """An OSError on the `nth` rename of a new trace or report, in a rerun over
    seeds 2-5, leaves every file of the earlier run over seeds 0-3 in place."""
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted(map(str, (tmp_path / "traces").iterdir()))
    assert cli.main(["monitor", str(template), *traces]) == cli.EXIT_OK
    assert cli.main(["sample", str(template), "--samples", "4", "--seed", "2"]) == cli.EXIT_OK
    if command == "simulate":
        inputs = [str(manifest)]
    else:
        assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
        inputs = sorted(map(str, (tmp_path / "traces").iterdir()))
    before = set(_tree_hash(tmp_path))
    replace, calls = os.replace, []

    def failing_replace(src, dst):
        if Path(dst).name.startswith(prefix):
            calls.append(dst)
            if len(calls) == nth:
                raise OSError("no space left")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        cli.main([command, str(template), *inputs])
    assert before <= set(_tree_hash(tmp_path))
    assert not (tmp_path / ".traces.partial").exists()
    assert not (tmp_path / ".reports.partial").exists()


def _monitor_with_second_trace(tmp_path, capsys, edit) -> tuple[int, str, Path]:
    """(exit status, stderr, second trace) of a staged `monitor` over seeds 0-3
    of straight-1 whose second trace file is `edit`ed."""
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    traces[1].write_text(edit(traces[1].read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    status = cli.main(["monitor", str(template), *map(str, traces)])
    assert not (tmp_path / "reports").exists()
    return status, capsys.readouterr().err, traces[1]


@pytest.mark.parametrize("edit, reason", [
    pytest.param(lambda line: "{oops", "Expecting property name enclosed in double quotes: "
                                       "line 1 column 2 (char 1)", id="not-json"),
    pytest.param(lambda line: line.replace('"instance_seed":1', '"instance_seed":"1"'),
                 "/instance_seed: expected an int, got str", id="seed-not-an-int"),
])
def test_a_malformed_manifest_line_is_named_with_its_file_and_line(tmp_path, capsys, edit,
                                                                   reason):
    template, manifest = _staged_manifest(tmp_path)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[1] = edit(lines[1])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {manifest}: line 2: {reason}\n"
    assert not (tmp_path / "traces").exists()


def _monitor_edited_intersection1_trace(tmp_path, edit) -> dict:
    """The report of a staged `monitor` over the seed-0 trace of intersection-1
    with its lines `edit`ed."""
    template, manifest = _staged_manifest(tmp_path, INTERSECTION1)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    trace = tmp_path / "traces" / "trace_00000.jsonl"
    lines = edit(trace.read_text(encoding="utf-8").splitlines())
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["monitor", str(template), str(trace)]) == cli.EXIT_OK
    return json.loads((tmp_path / "reports" / "report_00000.json").read_text(encoding="utf-8"))


def test_a_trace_without_signal_lines_shows_no_signal_state(tmp_path):
    """A signal head that the trace does not list has no state: no red-light
    running (21453) and no signalized right of way (21800)."""
    def drop_signals(lines: list[str]) -> list[str]:
        kept = [line for line in lines if not line.startswith('{"approach":')]
        assert len(kept) == len(lines) - 4
        return kept

    report = _monitor_edited_intersection1_trace(tmp_path, drop_signals)
    assert [violation["rule_id"] for violation in report["violations"]] == ["22350"]
    assert report["targeted_hit"] is False


@pytest.mark.parametrize("offset, rule_ids", [
    pytest.param(0, ["22350", "21453", "21800"], id="green-first"),
    pytest.param(1, ["22350"], id="green-last"),
])
def test_a_signal_head_listed_twice_takes_its_later_line(tmp_path, offset, rule_ids):
    """An all-green line for npc_1's west head, before (offset 0) or after
    (offset 1) its red line: the later line's states count."""
    def repeat_west(lines: list[str]) -> list[str]:
        k = lines.index('{"approach":"west","state":"red"}') + offset
        return lines[:k] + ['{"approach":"west","state":"green"}'] + lines[k:]

    report = _monitor_edited_intersection1_trace(tmp_path, repeat_west)
    assert [violation["rule_id"] for violation in report["violations"]] == rule_ids


def _as_format2(text: str) -> str:
    """A trace file rewritten in format 2, where every column is a list."""
    return format2_to_jsonl(sim.trace_from_jsonl(text))


def test_a_malformed_trace_is_named_with_its_file_and_line(tmp_path, capsys):
    def truncate(text: str) -> str:
        lines = _as_format2(text).splitlines()
        assert len(lines) == 4 and lines[-1].startswith('{"heading":[')
        return "\n".join(lines[:-1] + ['{"heading":[']) + "\n"

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, truncate)
    assert status == cli.EXIT_CONFIG
    assert err == f"error: {trace}: line 4: Expecting value at column 13\n"


def test_a_trace_of_an_unknown_actor_type_is_a_config_error(tmp_path, capsys):
    status, err, trace = _monitor_with_second_trace(
        tmp_path, capsys, lambda text: text.replace('"ego":"car"', '"ego":"bus"', 1))
    assert status == cli.EXIT_CONFIG
    assert err == (f"error: {trace}: line 1: actor 'ego' has type 'bus', "
                   f"not one of ['car', 'truck']\n")


def test_a_trace_value_that_is_not_a_number_is_a_config_error(tmp_path, capsys):
    def spoil(text: str) -> str:
        lines = _as_format2(text).splitlines()
        row = json.loads(lines[2])
        assert row["id"] == "ego"
        row["x"][5] = "a"
        lines[2] = json.dumps(row)
        return "\n".join(lines) + "\n"

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, spoil)
    assert status == cli.EXIT_CONFIG
    assert err == f"error: {trace}: line 3: 'x' holds a value that is not a number\n"


@pytest.mark.parametrize("literal", ["true", "NaN"])
def test_a_trace_value_that_is_not_a_finite_number_is_a_config_error(tmp_path, capsys, literal):
    def spoil(text: str) -> str:
        lines = _as_format2(text).splitlines()
        row = json.loads(lines[2])
        assert row["id"] == "ego"
        row["speed"][5] = "@"
        lines[2] = json.dumps(row).replace('"@"', literal, 1)
        return "\n".join(lines) + "\n"

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, spoil)
    assert status == cli.EXIT_CONFIG
    assert err == f"error: {trace}: line 3: 'speed' holds a value that is not a finite number\n"


@pytest.mark.parametrize("literal, reason", [
    ("true", "not a finite number"), ("NaN", "not a finite number"),
    ("Infinity", "not a finite number"), ('"a"', "not a number"), ("null", "not a number"),
    ("{}", "not a number")])
def test_a_bare_trace_value_that_is_not_a_finite_number_is_a_config_error(
        tmp_path, capsys, literal, reason):
    def spoil(text: str) -> str:
        lines = text.splitlines()
        row = json.loads(lines[2])
        assert row["id"] == "ego"
        row["speed"] = "@"
        lines[2] = json.dumps(row).replace('"@"', literal, 1)
        return "\n".join(lines) + "\n"

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, spoil)
    assert status == cli.EXIT_CONFIG
    assert err == f"error: {trace}: line 3: 'speed' holds a value that is {reason}\n"


@pytest.mark.parametrize("document", [STRAIGHT1, INTERSECTION1, CURVE], ids=lambda p: p.stem)
@pytest.mark.parametrize("rewrite", [format2_to_jsonl, format3_to_jsonl, format4_to_jsonl])
def test_older_traces_are_monitored_as_their_format_5_files(tmp_path, rewrite, document):
    """Each format-5 trace rewritten in an older format, with the `lat` column
    that `simulate` gave; the format-4 files are those that `scenforge
    simulate` wrote before format 5 (`PINNED_FORMAT4_TRACE_SHA256`).  The
    reports and summary stay the same bytes."""
    template, manifest = _staged_manifest(tmp_path, document)
    geometry = sim.build_geometry(cli._load(synth.ScenarioTemplate, template))
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_OK
    reports = _tree_hash(tmp_path / "reports")
    summary = (tmp_path / "summary.csv").read_bytes()
    for trace in traces:
        text = trace.read_text(encoding="utf-8")
        reloaded = sim.trace_from_jsonl(text)
        older = rewrite(reloaded, lane_offsets(reloaded, geometry))
        assert len(older) > len(text) and '"lat":' in older
        trace.write_text(older, encoding="utf-8")
    assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_OK
    assert _tree_hash(tmp_path / "reports") == reports
    assert (tmp_path / "summary.csv").read_bytes() == summary


@pytest.mark.parametrize("literal", ["null", "{}", "3"])
def test_a_lane_that_is_not_a_string_is_a_config_error(tmp_path, capsys, literal):
    def spoil(text: str) -> str:
        lines = text.splitlines()
        row = json.loads(lines[2])
        assert row["id"] == "ego" and type(row["lane"]) is str
        row["lane"] = "@"
        lines[2] = json.dumps(row).replace('"@"', literal, 1)
        return "\n".join(lines) + "\n"

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, spoil)
    assert status == cli.EXIT_CONFIG
    assert err == f"error: {trace}: line 3: 'lane' holds a value that is not a string\n"


def test_a_format_1_trace_is_a_config_error(tmp_path, capsys):
    def format1(text: str) -> str:
        return format1_to_jsonl(sim.trace_from_jsonl(text))

    status, err, trace = _monitor_with_second_trace(tmp_path, capsys, format1)
    assert status == cli.EXIT_CONFIG
    assert err.startswith(f"error: {trace}: line 1: trace format 1: this reader reads formats "
                          f"2, 3, 4 and 5 only")


def test_pipeline_renames_a_temp_file_only_for_its_summary(tmp_path, monkeypatch):
    """An input's files land in its staging directory with plain writes, so only
    `summary.csv`, outside it, is written through `mkstemp` and a rename."""
    made, mkstemp = [], tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kw: made.append(kw["dir"]) or mkstemp(**kw))
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), str(CURVE), "--out", str(out),
                     "--samples", "2"]) == cli.EXIT_OK
    assert made == [out]


def test_staged_monitor_renames_a_temp_file_only_for_its_summary(tmp_path, monkeypatch):
    """Staged `monitor` writes its reports into `.reports.partial/` with plain
    writes, so only `summary.csv` goes through `mkstemp` and a rename."""
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    made, mkstemp = [], tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kw: made.append(kw) or mkstemp(**kw))
    assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_OK
    assert [(kw["dir"], kw["suffix"]) for kw in made] == [(tmp_path, ".csv")]
    assert len(list((tmp_path / "reports").glob("report_*.json"))) == 4


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_every_written_file_gets_the_mode_of_a_plain_open(tmp_path, umask):
    """0o666 less the umask, for `pipeline`'s files, `failures.txt` included,
    and for staged `synth`, `sample`, `simulate` and `monitor`; `mkstemp`
    alone would leave an atomically written file at 0o600."""
    old = os.umask(umask)
    try:
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        bad = _write_unparseable_document(tmp_path)
        assert cli.main(["pipeline", str(STRAIGHT1), str(bad), "--out", str(piped),
                         "--samples", "2"]) == cli.EXIT_PARTIAL
        template, manifest = _staged_manifest(staged)
        assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
        traces = sorted((staged / "traces").glob("trace_*.jsonl"))
        assert cli.main(["monitor", str(template), *map(str, traces)]) == cli.EXIT_OK
    finally:
        os.umask(old)
    modes = {path.relative_to(tmp_path).as_posix(): stat.S_IMODE(path.stat().st_mode)
             for root in (piped, staged) for path in root.rglob("*") if path.is_file()}
    for name in ("piped/summary.csv", "piped/failures.txt", "piped/straight-1/instances.jsonl",
                 "piped/straight-1/straight-1.normalized.yaml",
                 "piped/straight-1/straight-1.provenance.json",
                 "piped/straight-1/straight-1.scenic", "piped/straight-1/straight-1.template.json",
                 "piped/straight-1/traces/trace_00001.jsonl",
                 "piped/straight-1/reports/report_00001.json", "staged/straight-1.scenic",
                 "staged/straight-1.template.json", "staged/instances.jsonl",
                 "staged/traces/trace_00003.jsonl", "staged/reports/report_00003.json",
                 "staged/summary.csv"):
        assert name in modes
    assert {name: oct(mode) for name, mode in modes.items() if mode != 0o666 & ~umask} == {}


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


def _child_env() -> dict[str, str]:
    """This process's environment with the package's source first on PYTHONPATH."""
    src = Path(cli.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_extract_prints_the_issues_without_asserts(tmp_path):
    """Under `python -O` too: the check is not an assert."""
    bad = _write_unparseable_document(tmp_path)
    env = _child_env()
    done = subprocess.run(
        [sys.executable, "-O", "-m", "scenforge.cli", "extract", str(bad),
         "--out", str(tmp_path / "docs")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == cli.EXIT_PARTIAL, done.stderr
    assert f"{bad}: /environment/weather [invalid_enum]" in done.stdout
    assert done.stderr == ""
    assert not (tmp_path / "docs").exists()


def test_a_clean_rerun_removes_an_old_failures_file(tmp_path):
    bad = _write_unparseable_document(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(bad), str(STRAIGHT1), "--out", str(out),
                     "--samples", "2"]) == cli.EXIT_PARTIAL
    assert (out / "failures.txt").is_file()
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                     "--samples", "2"]) == cli.EXIT_OK
    assert not (out / "failures.txt").exists()


def test_a_second_input_with_the_same_scenario_id_fails(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), str(STRAIGHT1), "--out", str(out),
                     "--samples", "3"]) == cli.EXIT_PARTIAL
    assert (out / "failures.txt").read_text(encoding="utf-8") == (
        f"{STRAIGHT1}: scenario id 'straight-1' was already written by {STRAIGHT1}\n")
    assert (out / "summary.csv").read_text(encoding="utf-8").count("\n") == 4  # header + 3
    assert sorted(path.name for path in out.iterdir()) == [
        "failures.txt", "straight-1", "summary.csv"]
    assert len(list((out / "straight-1" / "traces").iterdir())) == 3


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", [0, 4, 7])
def test_a_failing_seed_leaves_no_scenario_or_staging_directory(tmp_path, monkeypatch,
                                                                 workers, seed):
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, seed))
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out), "--samples", "8",
                     "--workers", workers]) == cli.EXIT_PARTIAL
    assert (out / "failures.txt").read_text(encoding="utf-8") == f"{STRAIGHT1}: seed {seed}: boom\n"
    assert sorted(path.name for path in out.iterdir()) == ["failures.txt", "summary.csv"]


def test_a_failing_rerun_keeps_the_earlier_scenario_directory(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out), "--samples", "4"]) == 0
    before = _tree_hash(out / "straight-1")
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, 5))
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out),
                     "--samples", "6"]) == cli.EXIT_PARTIAL
    assert _tree_hash(out / "straight-1") == before
    assert not (out / ".straight-1.partial").exists()


def test_earlier_chunks_are_on_disk_when_the_last_chunk_starts(tmp_path, monkeypatch):
    """Serially, 8 seeds run in chunks of 2; seed 6 starts the last chunk.  The
    files written so far are the non-empty ones: `pipeline`'s creator child may
    have made later seeds' files as empty placeholders."""
    assert cli._chunks(list(range(8)), 1) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    simulate, watched, seen = sim.simulate, [], []

    def listing_simulate(instance, geometry):
        if instance.instance_seed == 6:
            seen.append(sorted(path.name for directory in watched
                               for path in directory.iterdir() if path.stat().st_size))
        return simulate(instance, geometry)

    monkeypatch.setattr(sim, "simulate", listing_simulate)
    staging = tmp_path / "out" / ".straight-1.partial"
    watched[:] = [staging / "traces", staging / "reports"]
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(tmp_path / "out"),
                     "--samples", "8"]) == cli.EXIT_OK
    traces = [f"trace_{seed:05d}.jsonl" for seed in range(6)]
    assert seen == [sorted(traces + [f"report_{seed:05d}.json" for seed in range(6)])]

    template = tmp_path / "out" / "straight-1" / "straight-1.template.json"
    staged = tmp_path / "staged"
    assert cli.main(["sample", str(template), "--samples", "8", "--out", str(staged)]) == 0
    watched[:] = [staged / ".traces.partial"]
    assert cli.main(["simulate", str(template), str(staged / "instances.jsonl")]) == cli.EXIT_OK
    assert seen[1:] == [traces]
    assert len(list((staged / "traces").iterdir())) == 8


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_rerun_over_stale_staging_equals_a_fresh_run(tmp_path, workers):
    """Staging directories a killed run left are removed, and a rerun replaces
    `<sid>/` whole, files it did not write included."""
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    args = [str(STRAIGHT1), str(CURVE), "--samples", "5", "--workers", workers]
    assert cli.main(["pipeline", *args, "--out", str(fresh)]) == cli.EXIT_OK
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(rerun), "--samples", "9"]) == 0
    (rerun / "straight-1" / "notes.txt").write_text("old\n", encoding="utf-8")
    for stale in (".straight-1.partial/traces", ".curve.partial", ".gone.partial/reports"):
        (rerun / stale).mkdir(parents=True, exist_ok=True)
        (rerun / stale / "trace_00099.jsonl").write_text("{}\n", encoding="utf-8")
    assert cli.main(["pipeline", *args, "--out", str(rerun)]) == cli.EXIT_OK
    assert _tree_hash(rerun) == _tree_hash(fresh)


def test_an_unsafe_scenario_id_fails_and_removes_nothing(tmp_path):
    """An id that is not one plain path component never reaches the file system:
    '.', '..', an absolute path and 'a/../b' would each name a directory that
    replacing `<sid>/` would delete."""
    victim = tmp_path / "victim"
    victim.mkdir()
    (victim / "keep.txt").write_text("keep\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out), "--samples", "2"]) == 0
    (tmp_path / "a").mkdir()
    text = STRAIGHT1.read_text(encoding="utf-8")
    documents = []
    for n, scenario_id in enumerate([".", "..", str(victim), "a/../victim"]):
        document = tmp_path / f"unsafe{n}.yaml"
        document.write_text(text.replace("scenario_id: straight-1", f"scenario_id: {scenario_id!r}"),
                            encoding="utf-8")
        documents.append(document)
    before = _tree_hash(tmp_path)
    assert cli.main(["pipeline", *map(str, documents), "--out", str(out),
                     "--samples", "2"]) == cli.EXIT_PARTIAL
    failures = (out / "failures.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(": ", 1)[0] for line in failures] == list(map(str, documents))
    assert all("/scenario_id" in line for line in failures)
    after = _tree_hash(tmp_path)
    assert sorted(after) == sorted([*before, "out/failures.txt"])
    del before["out/summary.csv"]  # rewritten with no rows
    assert {name: after[name] for name in before} == before


def test_a_failed_swap_restores_the_earlier_scenario_directory(tmp_path):
    target = tmp_path / "straight-1"
    target.mkdir()
    (target / "old.txt").write_text("old\n", encoding="utf-8")
    before = _tree_hash(tmp_path)
    with pytest.raises(FileNotFoundError):
        cli._swap_in(tmp_path / ".straight-1.partial", target)  # no staging directory
    assert _tree_hash(tmp_path) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["straight-1"]


def test_the_stale_staging_sweep_keeps_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".notes.partial").write_text("mine\n", encoding="utf-8")
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out), "--samples", "2"]) == 0
    assert (out / ".notes.partial").read_text(encoding="utf-8") == "mine\n"


def _assert_no_child_process_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_pipeline_leaves_no_child_process_and_no_empty_file(tmp_path, workers):
    """The creator child is reaped before `pipeline` returns, and every
    placeholder it made is filled by the writers."""
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), str(CURVE), "--out", str(out),
                     "--samples", "9", "--workers", workers]) == cli.EXIT_OK
    _assert_no_child_process_left()
    for sid in ("straight-1", "curve"):
        files = [path for kind in ("traces", "reports") for path in (out / sid / kind).iterdir()]
        assert len(files) == 18
        assert [path.name for path in files if not path.stat().st_size] == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failing_seed_leaves_no_child_process(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(sim, "simulate", _fail_on_seed(sim.simulate, 3))
    out = tmp_path / "out"
    assert cli.main(["pipeline", str(STRAIGHT1), "--out", str(out), "--samples", "200",
                     "--workers", workers]) == cli.EXIT_PARTIAL
    _assert_no_child_process_left()
    assert not (out / ".straight-1.partial").exists()
    assert sorted(path.name for path in out.iterdir()) == ["failures.txt", "summary.csv"]


def test_a_failed_fork_writes_the_same_tree(tmp_path, monkeypatch):
    """Without the creator child, because the fork fails or the platform has
    no `os.fork`, the writers create every file themselves."""
    args = [str(STRAIGHT1), str(CURVE), "--samples", "6"]
    assert cli.main(["pipeline", *args, "--out", str(tmp_path / "forked")]) == cli.EXIT_OK

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["pipeline", *args, "--out", str(tmp_path / "unforked")]) == cli.EXIT_OK
    assert _tree_hash(tmp_path / "unforked") == _tree_hash(tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    assert cli.main(["pipeline", *args, "--out", str(tmp_path / "forkless")]) == cli.EXIT_OK
    assert _tree_hash(tmp_path / "forkless") == _tree_hash(tmp_path / "forked")


def test_importing_the_cli_loads_the_pipeline_and_nothing_it_does_not_run():
    """`import scenforge.cli` loads what `pipeline` runs over DSL documents in
    one process; the extraction client, the evaluators and the process pool
    are imported by the commands that use them."""
    env = _child_env()
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n"
                               "before = set(sys.modules)\n"
                               "import scenforge.cli\n"
                               "print(json.dumps(sorted(set(sys.modules) - before)))\n"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert added >= {"yaml", *(f"scenforge.{name}" for name in
                               ("dsl", "normalize", "synth", "sampling", "sim", "rules",
                                "digests"))}
    assert added.isdisjoint({"scenforge.extract", "scenforge.evaluate",
                             "concurrent.futures.process", "multiprocessing"})


# the modules that map OpenSSL's libcrypto and libssl, and the HTTP client's
NETWORK_MODULES = {"hashlib", "_hashlib", "ssl", "_ssl", "http.client", "urllib.request"}


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="the interpreter has no built-in _sha256 module")
@pytest.mark.parametrize("workers, crash_report", [
    pytest.param("1", False, id="1"),
    pytest.param("2", False, id="2"),
    pytest.param("1", True, id="offline-crash-report"),
])
def test_the_cli_and_a_pipeline_run_load_no_openssl(tmp_path, workers, crash_report):
    """SHA-256 comes from the built-in `_sha256` and the chat client imports
    `urllib.request` only when it sends a request, so neither the import nor a
    `pipeline` run, offline extraction included, loads OpenSSL or the HTTP client."""
    inputs = [str(STRAIGHT1)]
    if crash_report:
        inputs = [str(tmp_path / "case.json"), "--offline",
                  "--transcripts", str(FIXTURES / "transcripts" / "success.json")]
        Path(inputs[0]).write_text(json.dumps({"case_id": "case-success",
                                               "summary_text": "crash"}), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n"
                               "import scenforge.cli\n"
                               f"watched = {sorted(NETWORK_MODULES)!r}\n"
                               "loaded = [sorted(set(watched) & set(sys.modules))]\n"
                               "status = scenforge.cli.main(sys.argv[1:])\n"
                               "loaded.append(sorted(set(watched) & set(sys.modules)))\n"
                               "print(json.dumps([status, loaded]))\n",
         "pipeline", *inputs, "--out", str(tmp_path / "out"), "--samples", "2",
         "--workers", workers],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [cli.EXIT_OK, [[], []]]
    assert len(list((tmp_path / "out" / "straight-1" / "reports").glob("report_*.json"))) == 2


def test_a_pool_is_built_from_the_class_the_cli_holds_when_it_runs(tmp_path, monkeypatch):
    built = []

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    assert cli.main(["pipeline", str(STRAIGHT1), str(CURVE), "--out", str(tmp_path / "out"),
                     "--samples", "4", "--workers", "2"]) == cli.EXIT_OK
    assert len(built) == 2  # one pool per input
    with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
        cli.ThreadPoolExecutor


@pytest.mark.parametrize("command", ["parse", "validate", "sample", "monitor"])
def test_an_input_that_is_a_directory_is_a_configuration_error(tmp_path, capsys, command):
    template, _ = _staged_manifest(tmp_path)
    directory = tmp_path / "a-directory"
    directory.mkdir()
    inputs = [str(template), str(directory)] if command == "monitor" else [str(directory)]
    capsys.readouterr()
    assert cli.main([command, *inputs]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err


def test_a_manifest_that_repeats_a_seed_is_refused(tmp_path, capsys):
    """Each seed has one trace file, so a manifest may list a seed only once."""
    template, manifest = _staged_manifest(tmp_path)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {manifest}: seed 1 is listed more than once\n"
    assert not (tmp_path / "traces").exists()
    assert not (tmp_path / ".traces.partial").exists()


def test_a_trace_listed_twice_is_refused(tmp_path, capsys):
    """Each seed has one report file, so staged `monitor` refuses a seed given
    twice and writes nothing."""
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    trace = tmp_path / "traces" / "trace_00001.jsonl"
    capsys.readouterr()
    assert cli.main(["monitor", str(template), str(trace), str(trace)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed 1 is listed more than once\n"
    assert not (tmp_path / "reports").exists()
    assert not (tmp_path / "summary.csv").exists()
    assert not (tmp_path / ".reports.partial").exists()


def test_an_empty_manifest_is_refused_and_keeps_the_earlier_traces(tmp_path, capsys):
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    before = _tree_hash(tmp_path / "traces")
    assert len(before) == 4
    for text in ("", "\n \n"):
        manifest.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {manifest}: no instance line\n"
        assert _tree_hash(tmp_path / "traces") == before
        assert not (tmp_path / ".traces.partial").exists()


def test_a_template_that_is_not_json_is_named(tmp_path, capsys):
    template, manifest = _staged_manifest(tmp_path)
    assert cli.main(["simulate", str(template), str(manifest)]) == cli.EXIT_OK
    trace = sorted((tmp_path / "traces").iterdir())[0]
    capsys.readouterr()
    assert cli.main(["monitor", str(STRAIGHT1), str(trace)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {STRAIGHT1}: Expecting value: line 1 column 1 (char 0)\n")


def test_a_ratings_matrix_that_is_not_an_object_is_named(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[]", encoding="utf-8")
    assert cli.main(["eval", "kappa", str(matrix)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {matrix}: RatingsMatrix: expected an object, got list\n")


def test_a_ratings_matrix_of_strings_is_named(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"categories": "nmpq", "ratings": ["0123", "0123"]}', encoding="utf-8")
    assert cli.main(["eval", "kappa", str(matrix)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {matrix}: /ratings/0: expected a list, got str\n"


def test_a_ratings_matrix_with_a_rating_of_another_type_names_its_path(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"categories": ["a", "b"], "ratings": [[0, 1], 1]}', encoding="utf-8")
    assert cli.main(["eval", "kappa", str(matrix)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {matrix}: /ratings/1: expected a list, got int\n"


@pytest.mark.parametrize("text, reason", [
    ("[]", "expected an object, got list"),
    ('{"straight-1": "x"}', "/straight-1: expected an int, got str"),
])
def test_a_bad_expected_counts_file_is_named(tmp_path, capsys, text, reason):
    expected = tmp_path / "expected.json"
    expected.write_text(text, encoding="utf-8")
    assert cli.main(["eval", "counts", str(tmp_path), str(expected)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {expected}: {reason}\n"
