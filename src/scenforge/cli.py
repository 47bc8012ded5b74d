"""Command line front end: one subcommand per pipeline stage plus `pipeline`.

All intermediate artifacts are files, written atomically
(temp-then-rename), so stages compose: running them separately over the
intermediate files produces exactly what `pipeline` writes in one go.

Exit codes: 0 success, 1 partial failure (some input failed a stage),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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


@dataclass
class PipelineConfig:
    inputs: list[Path]
    out_dir: Path
    samples: int = sampling.DEFAULT_BATCH_SIZE
    base_seed: int = 0
    offline: bool = False
    transcripts: Path | None = None
    synonyms: Path | None = None
    endpoint_url: str = ""
    model_name: str = ""
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.offline and self.transcripts is None:
            raise ValueError("--offline requires --transcripts")


def _load_synonyms(path: Path | None):
    if path is None:
        return None
    return normalize.load_synonym_table(path)


def _client_config(config: PipelineConfig) -> extract.ClientConfig:
    return extract.ClientConfig(endpoint_url=config.endpoint_url, model_name=config.model_name)


def _transport(config: PipelineConfig):
    if config.offline:
        return extract.FixtureTransport.from_file(config.transcripts)
    return None


def _document_from_input(path: Path, config: PipelineConfig) -> str:
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
    spec = extract.extract_and_validate(report, _client_config(config), _transport(config))
    return dsl.serialize_dsl(spec)


def _run_instance(template: synth.ScenarioTemplate, geometry: sim.RoadGeometry,
                  instance: sampling.ScenarioInstance) -> tuple[str, rules.ViolationReport]:
    """(trace jsonl, report) for one instance; a failure names the seed."""
    try:
        trace = sim.simulate(instance, geometry)
        report = rules.monitor(trace, template.params.oracle, geometry)
        return sim.trace_to_jsonl(trace), report
    except Exception as exc:
        raise RuntimeError(f"seed {instance.instance_seed}: {exc}") from exc


def _simulate_one(template: synth.ScenarioTemplate, seed: int) -> tuple[str, rules.ViolationReport]:
    """Worker entry: returns (trace jsonl, report) for one seed."""
    return _run_instance(template, sim.build_geometry(template),
                         sampling.sample_instance(template, seed))


def run_pipeline(config: PipelineConfig) -> int:
    """parse -> validate -> normalize -> synth -> sample -> simulate -> monitor."""
    table = _load_synonyms(config.synonyms)
    failures: list[str] = []
    all_reports: list[rules.ViolationReport] = []

    for input_path in config.inputs:
        try:
            document = _document_from_input(input_path, config)
            normalized = normalize.normalize_document(document, config.base_seed, table)
            if isinstance(normalized, list):
                details = "; ".join(f"{i.path}: {i.message}" for i in normalized)
                raise ValueError(f"document rejected: {details}")
            template = synth.build_template(normalized)
            scenario_id = template.params.scenario_id
            scenario_dir = config.out_dir / scenario_id

            program = synth.render_scenic(template)
            _atomic_write(scenario_dir / f"{scenario_id}.scenic", program.file_text())
            _atomic_write(scenario_dir / f"{scenario_id}.template.json",
                          json.dumps(to_data(template), indent=2, sort_keys=True) + "\n")
            _atomic_write(scenario_dir / f"{scenario_id}.normalized.yaml", normalized.serialize())
            _atomic_write(scenario_dir / f"{scenario_id}.provenance.json",
                          json.dumps(normalized.provenance, indent=2, sort_keys=True) + "\n")

            instances = sampling.sample_batch(template, config.samples, config.base_seed)
            _atomic_write(scenario_dir / "instances.jsonl", sampling.write_manifest(instances))

            seeds = [inst.instance_seed for inst in instances]
            if config.workers > 1:
                with ProcessPoolExecutor(max_workers=config.workers) as pool:
                    results = list(pool.map(_simulate_one, [template] * len(seeds), seeds,
                                            chunksize=64))
            else:
                geometry = sim.build_geometry(template)
                results = [_run_instance(template, geometry, inst) for inst in instances]

            for seed, (trace_text, report) in zip(seeds, results):
                _atomic_write(scenario_dir / "traces" / f"trace_{seed:05d}.jsonl", trace_text)
                _atomic_write(scenario_dir / "reports" / f"report_{seed:05d}.json",
                              report.to_json() + "\n")
                all_reports.append(report)
        except Exception as exc:
            failures.append(f"{input_path}: {exc}")

    _atomic_write(config.out_dir / "summary.csv", rules.summary_csv(all_reports))
    if failures:
        _atomic_write(config.out_dir / "failures.txt", "\n".join(failures) + "\n")
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
            status = EXIT_PARTIAL
            for issue in result:
                print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
        else:
            print(f"{path}: ok ({result.scenario_id})")
    return status


def _cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.inputs:
        result = dsl.parse_dsl(Path(path).read_text(encoding="utf-8"))
        issues = result if isinstance(result, list) else dsl.validate_spec(result)
        if issues:
            status = EXIT_PARTIAL
            for issue in issues:
                print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
        else:
            print(f"{path}: ok")
    return status


def _cmd_normalize(args) -> int:
    table = _load_synonyms(args.synonyms)
    status = EXIT_OK
    for path in args.inputs:
        result = normalize.normalize_document(Path(path).read_text(encoding="utf-8"),
                                              args.seed, table)
        if isinstance(result, list):
            status = EXIT_PARTIAL
            for issue in result:
                print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
            continue
        scenario_id = result.spec.scenario_id
        out_dir = args.out or Path(path).parent
        _atomic_write(Path(out_dir) / f"{scenario_id}.normalized.yaml", result.serialize())
        _atomic_write(Path(out_dir) / f"{scenario_id}.provenance.json",
                      json.dumps(result.provenance, indent=2, sort_keys=True) + "\n")
        print(f"{path}: normalized -> {scenario_id}.normalized.yaml")
    return status


def _cmd_synth(args) -> int:
    table = _load_synonyms(args.synonyms)
    status = EXIT_OK
    for path in args.inputs:
        result = normalize.normalize_document(Path(path).read_text(encoding="utf-8"),
                                              args.seed, table)
        if isinstance(result, list):
            status = EXIT_PARTIAL
            for issue in result:
                print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
            continue
        template = synth.build_template(result)
        program = synth.render_scenic(template)
        scenario_id = template.params.scenario_id
        out_dir = Path(args.out or Path(path).parent)
        _atomic_write(out_dir / f"{scenario_id}.scenic", program.file_text())
        _atomic_write(out_dir / f"{scenario_id}.template.json",
                      json.dumps(to_data(template), indent=2, sort_keys=True) + "\n")
        print(f"{path}: synthesized -> {scenario_id}.scenic")
    return status


def _load_template(path: str) -> synth.ScenarioTemplate:
    return from_data(synth.ScenarioTemplate, json.loads(Path(path).read_text(encoding="utf-8")))


def _cmd_sample(args) -> int:
    template = _load_template(args.template)
    instances = sampling.sample_batch(template, args.samples, args.seed)
    out = Path(args.out or Path(args.template).parent) / "instances.jsonl"
    _atomic_write(out, sampling.write_manifest(instances))
    print(f"{args.template}: {len(instances)} instances -> {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    template = _load_template(args.template)
    geometry = sim.build_geometry(template)
    instances = sampling.read_manifest(Path(args.instances).read_text(encoding="utf-8"))
    out_dir = Path(args.out or Path(args.instances).parent) / "traces"
    for instance in instances:
        trace = sim.simulate(instance, geometry)
        _atomic_write(out_dir / f"trace_{instance.instance_seed:05d}.jsonl",
                      sim.trace_to_jsonl(trace))
    print(f"{args.instances}: {len(instances)} traces -> {out_dir}")
    return EXIT_OK


def _cmd_monitor(args) -> int:
    template = _load_template(args.template)
    geometry = sim.build_geometry(template)
    reports = []
    out_dir = Path(args.out or Path(args.traces[0]).parent.parent) / "reports"
    for trace_path in args.traces:
        trace = sim.trace_from_jsonl(Path(trace_path).read_text(encoding="utf-8"))
        report = rules.monitor(trace, template.params.oracle, geometry)
        reports.append(report)
        _atomic_write(out_dir / f"report_{trace.instance_seed:05d}.json", report.to_json() + "\n")
    _atomic_write(out_dir.parent / "summary.csv", rules.summary_csv(reports))
    print(f"{len(reports)} reports -> {out_dir}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    config = PipelineConfig(
        inputs=[Path(p) for p in args.inputs], out_dir=Path(args.out or "."),
        offline=args.offline, transcripts=args.transcripts,
        endpoint_url=args.endpoint or "", model_name=args.model or "",
    )
    status = EXIT_OK
    for path in config.inputs:
        try:
            document = _document_from_input(path, config)
        except Exception as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            status = EXIT_PARTIAL
            continue
        parsed = dsl.parse_dsl(document)
        assert isinstance(parsed, dsl.ScenarioSpec)
        out = config.out_dir / f"{parsed.scenario_id}.yaml"
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
            print(f"error: {candidate_path}: unparseable pair", file=sys.stderr)
            return EXIT_PARTIAL
        results.append(evaluate.compare_specs(candidate, golden))
    if not results:
        print("error: no *.candidate.yaml files found", file=sys.stderr)
        return EXIT_CONFIG
    aggregate = evaluate.aggregate_accuracy(results)
    csv_text = evaluate.accuracy_csv(aggregate)
    if args.out:
        _atomic_write(Path(args.out) / "accuracy.csv", csv_text)
        detail = {path: ok for path, ok in sorted(aggregate.per_field.items())}
        _atomic_write(Path(args.out) / "accuracy_detail.json",
                      json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(csv_text, end="")
    return EXIT_OK


def _cmd_eval_kappa(args) -> int:
    matrix = from_data(evaluate.RatingsMatrix,
                       json.loads(Path(args.matrix).read_text(encoding="utf-8")))
    kappa, band = evaluate.fleiss_kappa(matrix)
    print(f"kappa: {kappa:.6f} ({band})")
    return EXIT_OK


def _cmd_eval_counts(args) -> int:
    expected = {k: int(v) for k, v in
                json.loads(Path(args.expected).read_text(encoding="utf-8")).items()}
    grouped: dict[str, list[rules.ViolationReport]] = {}
    for report_path in sorted(Path(args.reports_dir).rglob("report_*.json")):
        report = from_data(rules.ViolationReport,
                           json.loads(report_path.read_text(encoding="utf-8")))
        grouped.setdefault(report.scenario_id, []).append(report)
    table = evaluate.compare_violation_counts(grouped, expected)
    csv_text = table.to_csv()
    if args.out:
        _atomic_write(Path(args.out) / "violation_counts.csv", csv_text)
    print(csv_text, end="")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = PipelineConfig(
        inputs=[Path(p) for p in args.inputs],
        out_dir=Path(args.out),
        samples=args.samples,
        base_seed=args.seed,
        offline=args.offline,
        transcripts=args.transcripts,
        synonyms=args.synonyms,
        endpoint_url=args.endpoint or "",
        model_name=args.model or "",
        workers=args.workers,
    )
    return run_pipeline(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenforge",
                                     description="scenario compilation and simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, synonyms=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if synonyms:
            p.add_argument("--synonyms", type=Path, default=None)
        if out:
            p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("parse", help="strict-parse documents")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", help="parse plus cross-field validation")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="canonicalize tokens and apply defaults")
    p.add_argument("inputs", nargs="+")
    add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("synth", help="compile to template and Scenic text")
    p.add_argument("inputs", nargs="+")
    add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sample", help="draw instances from a template")
    p.add_argument("template")
    p.add_argument("--samples", type=int, default=sampling.DEFAULT_BATCH_SIZE)
    add_common(p, synonyms=False)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="simulate an instance manifest")
    p.add_argument("template")
    p.add_argument("instances")
    add_common(p, seed=False, synonyms=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("monitor", help="evaluate traces against the rule registry")
    p.add_argument("template")
    p.add_argument("traces", nargs="+")
    add_common(p, seed=False, synonyms=False)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("extract", help="crash report JSON -> scenario document")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--transcripts", type=Path, default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    add_common(p, seed=False, synonyms=False)
    p.set_defaults(func=_cmd_extract)

    p_eval = sub.add_parser("eval", help="scoring utilities")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)

    p = eval_sub.add_parser("accuracy", help="score candidate/golden document pairs")
    p.add_argument("pairs_dir")
    add_common(p, seed=False, synonyms=False)
    p.set_defaults(func=_cmd_eval_accuracy)

    p = eval_sub.add_parser("kappa", help="weighted multi-rater agreement")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_eval_kappa)

    p = eval_sub.add_parser("counts", help="distinct-violation counts vs expected")
    p.add_argument("reports_dir")
    p.add_argument("expected")
    add_common(p, seed=False, synonyms=False)
    p.set_defaults(func=_cmd_eval_counts)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--samples", type=int, default=sampling.DEFAULT_BATCH_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--transcripts", type=Path, default=None)
    p.add_argument("--synonyms", type=Path, default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
