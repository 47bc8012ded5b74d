"""Command line front end: one subcommand per pipeline stage plus `pipeline`.

All intermediate artifacts are files, written atomically
(temp-then-rename), so stages compose: running them separately over the
intermediate files writes what `pipeline` writes in one go, except that a
staged `monitor` reads traces back at 6 significant digits, so its report
evidence floats can differ from the in-memory ones.

Exit codes: 0 success, 1 partial failure (some input failed a stage),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from . import dsl, evaluate, extract, normalize, rules, sampling, sim, synth
from .digests import from_data, to_data

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, data) -> None:
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_normalized(out_dir: Path, normalized: normalize.NormalizedSpec) -> None:
    scenario_id = normalized.spec.scenario_id
    _atomic_write(out_dir / f"{scenario_id}.normalized.yaml", normalized.serialize())
    _write_json(out_dir / f"{scenario_id}.provenance.json", normalized.provenance)


def _write_template(out_dir: Path, template: synth.ScenarioTemplate) -> None:
    scenario_id = template.params.scenario_id
    _atomic_write(out_dir / f"{scenario_id}.scenic", synth.render_scenic(template).file_text())
    _write_json(out_dir / f"{scenario_id}.template.json", to_data(template))


def _write_manifest(out_dir: Path, instances: list[sampling.ScenarioInstance]) -> Path:
    path = out_dir / "instances.jsonl"
    _atomic_write(path, sampling.write_manifest(instances))
    return path


def _write_trace(out_dir: Path, seed: int, trace_text: str) -> None:
    _atomic_write(out_dir / "traces" / f"trace_{seed:05d}.jsonl", trace_text)


def _write_report(out_dir: Path, report: rules.ViolationReport) -> None:
    _atomic_write(out_dir / "reports" / f"report_{report.instance_seed:05d}.json",
                  report.to_json() + "\n")


def _clear(directory: Path, pattern: str) -> None:
    """Removes an earlier run's traces or reports, so a rerun leaves no stale seed."""
    for path in directory.glob(pattern):
        path.unlink()


def _write_summary(out_dir: Path, reports: list[rules.ViolationReport]) -> None:
    _atomic_write(out_dir / "summary.csv", rules.summary_csv(reports))


def _print_issues(path, issues: list[dsl.ValidationIssue]) -> int:
    """Prints each issue under its input; returns the partial-failure exit code."""
    for issue in issues:
        print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
    return EXIT_PARTIAL


def _failed(path, error) -> int:
    print(f"error: {path}: {error}", file=sys.stderr)
    return EXIT_PARTIAL


@contextmanager
def _seed_named(seed: int):
    """Re-raises any failure of one instance's work as `seed <n>: <error>`."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"seed {seed}: {exc}") from exc


def _document_from_input(path: Path, args) -> str:
    """DSL documents pass through; crash-report JSON goes through extraction."""
    if path.suffix.lower() != ".json":
        return path.read_text(encoding="utf-8")
    raw = json.loads(path.read_text(encoding="utf-8"))
    sketch = None
    if raw.get("sketch_base64"):
        import base64
        sketch = (base64.b64decode(raw["sketch_base64"]), raw.get("sketch_media_type", "image/png"))
    report = extract.CrashReport(
        case_id=raw.get("case_id", path.stem),
        summary_text=raw["summary_text"],
        sketch=sketch,
        rule_context=tuple(raw.get("rule_context", ())),
    )
    client = extract.ClientConfig(endpoint_url=args.endpoint, model_name=args.model)
    transport = extract.FixtureTransport.from_file(args.transcripts) if args.offline else None
    return dsl.serialize_dsl(extract.extract_and_validate(report, client, transport))


def _run_instance(template: synth.ScenarioTemplate, geometry: sim.RoadGeometry,
                  instance: sampling.ScenarioInstance) -> tuple[str, rules.ViolationReport]:
    """(trace jsonl, report) for one instance; a failure names the seed."""
    with _seed_named(instance.instance_seed):
        trace = sim.simulate(instance, geometry)
        report = rules.monitor(trace, template.params.oracle, geometry)
        return sim.trace_to_jsonl(trace), report


def _chunksize(seeds: int, workers: int) -> int:
    """Four chunks per worker, at most 64 seeds each."""
    return min(64, math.ceil(seeds / (4 * workers)))


def _simulate_one(template: synth.ScenarioTemplate, seed: int) -> tuple[str, rules.ViolationReport]:
    """Worker entry: returns (trace jsonl, report) for one seed."""
    return _run_instance(template, sim.build_geometry(template),
                         sampling.sample_instance(template, seed))


def run_pipeline(args) -> int:
    """parse -> validate -> normalize -> synth -> sample -> simulate -> monitor."""
    table = normalize.load_synonym_table(args.synonyms) if args.synonyms else None
    failures: list[str] = []
    all_reports: list[rules.ViolationReport] = []

    for input_path in map(Path, args.inputs):
        try:
            document = _document_from_input(input_path, args)
            normalized = normalize.normalize_document(document, args.seed, table)
            if isinstance(normalized, list):
                details = "; ".join(f"{i.path}: {i.message}" for i in normalized)
                raise ValueError(f"document rejected: {details}")
            template = synth.build_template(normalized)
            scenario_dir = args.out / template.params.scenario_id
            _write_normalized(scenario_dir, normalized)
            _write_template(scenario_dir, template)
            instances = sampling.sample_batch(template, args.samples, args.seed)
            _write_manifest(scenario_dir, instances)

            seeds = [inst.instance_seed for inst in instances]
            if args.workers > 1:
                with ProcessPoolExecutor(max_workers=args.workers) as pool:
                    results = list(pool.map(_simulate_one, [template] * len(seeds), seeds,
                                            chunksize=_chunksize(len(seeds), args.workers)))
            else:
                geometry = sim.build_geometry(template)
                results = [_run_instance(template, geometry, inst) for inst in instances]

            _clear(scenario_dir / "traces", "trace_*.jsonl")
            _clear(scenario_dir / "reports", "report_*.json")
            for seed, (trace_text, report) in zip(seeds, results):
                _write_trace(scenario_dir, seed, trace_text)
                _write_report(scenario_dir, report)
                all_reports.append(report)
        except Exception as exc:
            failures.append(f"{input_path}: {exc}")

    _write_summary(args.out, all_reports)
    if failures:
        _atomic_write(args.out / "failures.txt", "\n".join(failures) + "\n")
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args) -> int:
    status = EXIT_OK
    for path in args.inputs:
        result = dsl.parse_dsl(Path(path).read_text(encoding="utf-8"))
        if isinstance(result, list):
            status = _print_issues(path, result)
        else:
            print(f"{path}: ok ({result.scenario_id})")
    return status


def _cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.inputs:
        result = dsl.parse_and_validate(Path(path).read_text(encoding="utf-8"))
        if isinstance(result, list):
            status = _print_issues(path, result)
        else:
            print(f"{path}: ok")
    return status


def _normalize_each(args, stage) -> int:
    """Normalizes every input; `stage(path, normalized, out_dir)` takes each one that passes."""
    table = normalize.load_synonym_table(args.synonyms) if args.synonyms else None
    status = EXIT_OK
    for path in args.inputs:
        result = normalize.normalize_document(Path(path).read_text(encoding="utf-8"),
                                              args.seed, table)
        if isinstance(result, list):
            status = _print_issues(path, result)
        else:
            stage(path, result, args.out or Path(path).parent)
    return status


def _cmd_normalize(args) -> int:
    def stage(path, normalized, out_dir):
        _write_normalized(out_dir, normalized)
        print(f"{path}: normalized -> {normalized.spec.scenario_id}.normalized.yaml")
    return _normalize_each(args, stage)


def _cmd_synth(args) -> int:
    def stage(path, normalized, out_dir):
        template = synth.build_template(normalized)
        _write_template(out_dir, template)
        print(f"{path}: synthesized -> {template.params.scenario_id}.scenic")
    return _normalize_each(args, stage)


def _load(cls, path):
    """A value of dataclass `cls` from its JSON file."""
    return from_data(cls, json.loads(Path(path).read_text(encoding="utf-8")))


def _cmd_sample(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    instances = sampling.sample_batch(template, args.samples, args.seed)
    out = _write_manifest(args.out or Path(args.template).parent, instances)
    print(f"{args.template}: {len(instances)} instances -> {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    geometry = sim.build_geometry(template)
    instances = sampling.read_manifest(Path(args.instances).read_text(encoding="utf-8"))
    traces = []
    try:
        for instance in instances:
            with _seed_named(instance.instance_seed):
                traces.append(sim.trace_to_jsonl(sim.simulate(instance, geometry)))
    except RuntimeError as exc:
        return _failed(args.instances, exc)
    out_dir = args.out or Path(args.instances).parent
    _clear(out_dir / "traces", "trace_*.jsonl")
    for instance, trace_text in zip(instances, traces):
        _write_trace(out_dir, instance.instance_seed, trace_text)
    print(f"{args.instances}: {len(instances)} traces -> {out_dir}")
    return EXIT_OK


def _cmd_monitor(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    geometry = sim.build_geometry(template)
    reports = []
    try:
        for trace_path in args.traces:
            try:
                trace = sim.trace_from_jsonl(Path(trace_path).read_text(encoding="utf-8"))
            except ValueError as exc:  # a malformed file is a configuration error
                raise ValueError(f"{trace_path}: {exc}") from exc
            with _seed_named(trace.instance_seed):
                reports.append(rules.monitor(trace, template.params.oracle, geometry))
    except RuntimeError as exc:
        return _failed(trace_path, exc)
    out_dir = args.out or Path(args.traces[0]).parent.parent
    _clear(out_dir / "reports", "report_*.json")
    for report in reports:
        _write_report(out_dir, report)
    _write_summary(out_dir, reports)
    print(f"{len(reports)} reports -> {out_dir}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    status = EXIT_OK
    for path in map(Path, args.inputs):
        try:
            document = _document_from_input(path, args)
        except Exception as exc:
            status = _failed(path, exc)
            continue
        parsed = dsl.parse_dsl(document)
        if isinstance(parsed, list):
            status = _print_issues(path, parsed)
            continue
        out = Path(args.out or ".") / f"{parsed.scenario_id}.yaml"
        _atomic_write(out, document)
        print(f"{path}: extracted -> {out}")
    return status


def _cmd_eval_accuracy(args) -> int:
    pairs_dir = Path(args.pairs_dir)
    results = []
    for candidate_path in sorted(pairs_dir.glob("*.candidate.yaml")):
        golden_path = candidate_path.with_name(
            candidate_path.name.replace(".candidate.", ".golden."))
        candidate = dsl.parse_dsl(candidate_path.read_text(encoding="utf-8"))
        golden = dsl.parse_dsl(golden_path.read_text(encoding="utf-8"))
        if isinstance(candidate, list) or isinstance(golden, list):
            return _failed(candidate_path, "unparseable pair")
        results.append(evaluate.compare_specs(candidate, golden))
    if not results:
        print("error: no *.candidate.yaml files found", file=sys.stderr)
        return EXIT_CONFIG
    aggregate = evaluate.aggregate_accuracy(results)
    csv_text = evaluate.accuracy_csv(aggregate)
    if args.out:
        _atomic_write(Path(args.out) / "accuracy.csv", csv_text)
        _write_json(Path(args.out) / "accuracy_detail.json", aggregate.per_field)
    print(csv_text, end="")
    return EXIT_OK


def _cmd_eval_kappa(args) -> int:
    matrix = _load(evaluate.RatingsMatrix, args.matrix)
    kappa, band = evaluate.fleiss_kappa(matrix)
    print(f"kappa: {kappa:.6f} ({band})")
    return EXIT_OK


def _cmd_eval_counts(args) -> int:
    expected = {k: int(v) for k, v in
                json.loads(Path(args.expected).read_text(encoding="utf-8")).items()}
    grouped: dict[str, list[rules.ViolationReport]] = {}
    for report_path in sorted(Path(args.reports_dir).rglob("report_*.json")):
        report = _load(rules.ViolationReport, report_path)
        grouped.setdefault(report.scenario_id, []).append(report)
    table = evaluate.compare_violation_counts(grouped, expected)
    csv_text = table.to_csv()
    if args.out:
        _atomic_write(Path(args.out) / "violation_counts.csv", csv_text)
    print(csv_text, end="")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenforge",
                                     description="scenario compilation and simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, summary):
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    def add_common(p, seed=True, synonyms=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if synonyms:
            p.add_argument("--synonyms", type=Path, default=None)
        if out:
            p.add_argument("--out", type=Path, default=None)

    def add_extraction(p):
        p.add_argument("--offline", action="store_true")
        p.add_argument("--transcripts", type=Path, default=None)
        p.add_argument("--endpoint", default="")
        p.add_argument("--model", default="")

    p = add(sub, "parse", _cmd_parse, "strict-parse documents")
    p.add_argument("inputs", nargs="+")

    p = add(sub, "validate", _cmd_validate, "parse plus cross-field validation")
    p.add_argument("inputs", nargs="+")

    p = add(sub, "normalize", _cmd_normalize, "canonicalize tokens and apply defaults")
    p.add_argument("inputs", nargs="+")
    add_common(p)

    p = add(sub, "synth", _cmd_synth, "compile to template and Scenic text")
    p.add_argument("inputs", nargs="+")
    add_common(p)

    p = add(sub, "sample", _cmd_sample, "draw instances from a template")
    p.add_argument("template")
    p.add_argument("--samples", type=_positive_int, default=sampling.DEFAULT_BATCH_SIZE)
    add_common(p, synonyms=False)

    p = add(sub, "simulate", _cmd_simulate, "simulate an instance manifest")
    p.add_argument("template")
    p.add_argument("instances")
    add_common(p, seed=False, synonyms=False)

    p = add(sub, "monitor", _cmd_monitor, "evaluate traces against the rule registry")
    p.add_argument("template")
    p.add_argument("traces", nargs="+")
    add_common(p, seed=False, synonyms=False)

    p = add(sub, "extract", _cmd_extract, "crash report JSON -> scenario document")
    p.add_argument("inputs", nargs="+")
    add_extraction(p)
    add_common(p, seed=False, synonyms=False)

    p_eval = sub.add_parser("eval", help="scoring utilities")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)

    p = add(eval_sub, "accuracy", _cmd_eval_accuracy, "score candidate/golden document pairs")
    p.add_argument("pairs_dir")
    add_common(p, seed=False, synonyms=False)

    p = add(eval_sub, "kappa", _cmd_eval_kappa, "weighted multi-rater agreement")
    p.add_argument("matrix")

    p = add(eval_sub, "counts", _cmd_eval_counts, "distinct-violation counts vs expected")
    p.add_argument("reports_dir")
    p.add_argument("expected")
    add_common(p, seed=False, synonyms=False)

    p = add(sub, "pipeline", run_pipeline, "run every stage end to end")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--samples", type=_positive_int, default=sampling.DEFAULT_BATCH_SIZE)
    add_common(p, out=False)
    add_extraction(p)
    p.add_argument("--workers", type=_positive_int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "offline", False) and args.transcripts is None:
            parser.error("--offline requires --transcripts")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
