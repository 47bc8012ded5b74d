"""Command line front end: one subcommand per pipeline stage plus `pipeline`.

All intermediate artifacts are files, so stages compose: running them
separately writes every artifact, reports included, byte for byte as
`pipeline` does, since `pipeline` and the `simulate` and `monitor`
subcommands share one simulate step and one monitor step per instance.

`pipeline` writes each input into a staging directory `--out/.<sid>.partial/`
with plain writes, chunk by chunk, and on success renames it onto `<sid>/`,
replacing an earlier run's directory whole; a failing input leaves no
staging directory and no new `<sid>/`.  Before the instances run, a forked
"creator" child makes every seed's trace and report file in the staging
directory as an empty placeholder, so creating files runs beside the
instances; the writers fill the placeholders, and the child is reaped before
the rename or the removal.  If the fork fails, the writers create the files
themselves.  Staged `simulate` and `monitor` write their traces or reports
alike: into `.traces.partial/` or `.reports.partial/`, moved into `traces/`
or `reports/` once all are written, and only then is an earlier run's file of
another seed removed.  Other single files are written atomically
(temp-then-rename), with the mode a plain `open()` gives.

Importing this module loads every module that `pipeline` runs over DSL
documents in one process.  The extraction client (`extract`) is imported
when an input is crash-report JSON, the evaluators (`evaluate`) when an
`eval` command runs, and `ProcessPoolExecutor` when `pipeline --workers`
above 1 starts its first pool.

Exit codes: 0 success, 1 partial failure (some input failed a stage),
2 configuration error (an input that is missing, a directory or
unreadable included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from . import dsl, normalize, rules, sampling, sim, synth
from .digests import from_data, to_data

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use (PEP 562) and kept as a
    module attribute, which `_run_input` reads when it starts a pool, so a
    replacement assigned to it is the pool that runs."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _atomic_write(path: Path, data: str) -> None:
    """Writes `data` to a temp file beside `path` and renames it onto `path`.
    The file gets the mode a plain `open()` gives, 0o666 less the umask, in
    place of `mkstemp`'s 0o600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_", suffix=path.suffix)
    try:
        umask = os.umask(0o022)  # `umask` only reads the mask by setting it, so
        os.umask(umask)          # set it back at once
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, data, write=_atomic_write) -> None:
    write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# Each `_write_*` below writes atomically unless `write` is `_write_staged`, which
# `pipeline` passes for files in its staging directory.
def _write_normalized(out_dir: Path, normalized: normalize.NormalizedSpec,
                      write=_atomic_write) -> None:
    scenario_id = normalized.spec.scenario_id
    write(out_dir / f"{scenario_id}.normalized.yaml", normalized.serialize())
    _write_json(out_dir / f"{scenario_id}.provenance.json", normalized.provenance, write)


def _write_template(out_dir: Path, template: synth.ScenarioTemplate,
                    write=_atomic_write) -> None:
    scenario_id = template.params.scenario_id
    write(out_dir / f"{scenario_id}.scenic", synth.render_scenic(template).file_text())
    _write_json(out_dir / f"{scenario_id}.template.json", to_data(template), write)


def _write_manifest(out_dir: Path, instances: list[sampling.ScenarioInstance],
                    write=_atomic_write) -> Path:
    path = out_dir / "instances.jsonl"
    write(path, sampling.write_manifest(instances))
    return path


# A seed's trace and report file names, as formats of the seed
TRACE_NAME, REPORT_NAME = "trace_{:05d}.jsonl", "report_{:05d}.json"


def _glob(name_format: str) -> str:
    """The glob of every file name of `name_format`, whatever its seed."""
    return name_format.replace("{:05d}", "*")


def _write_staged(path: Path, data: str) -> None:
    """A plain write of `data` as UTF-8: the staging directory it lands in moves
    into place whole.  The open does not truncate, since every file in a
    staging directory is new (`_staged` empties the directory first) or an
    empty placeholder of the creator child, and each is written once (a
    batch's seeds are distinct; `_publish` refuses a repeated one)."""
    raw = memoryview(data.encode("utf-8"))
    # O_BINARY (Windows only): no newline translation, as the bytes are final
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while raw:
            raw = raw[os.write(fd, raw):]
    finally:
        os.close(fd)


@contextmanager
def _staged(staging: Path):
    """A fresh, empty staging directory that is removed if the body raises."""
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _publish(directory: Path, name_format: str, texts: Iterable[tuple[int, str]]) -> None:
    """Writes each `(seed, text)` into `.<directory>.partial/`, named by
    `name_format`, moves every file into `directory` once all are written, and
    only then removes an earlier run's files of other seeds; other files stay.
    A seed given twice raises ValueError before its second write."""
    names: set[str] = set()
    with _staged(directory.with_name(f".{directory.name}.partial")) as staging:
        for seed, text in texts:
            name = name_format.format(seed)
            if name in names:
                raise ValueError(f"seed {seed} is listed more than once")
            names.add(name)
            _write_staged(staging / name, text)
        directory.mkdir(exist_ok=True)
        for name in sorted(names):
            os.replace(staging / name, directory / name)
        staging.rmdir()
    for path in directory.glob(_glob(name_format)):
        if path.name not in names:
            path.unlink()


def _print_issues(path, issues: list[dsl.ValidationIssue]) -> int:
    """Prints each issue under its input; returns the partial-failure exit code."""
    for issue in issues:
        print(f"{path}: {issue.path} [{issue.kind}] {issue.message}")
    return EXIT_PARTIAL


def _failed(path, error) -> int:
    print(f"error: {path}: {error}", file=sys.stderr)
    return EXIT_PARTIAL


def _note_snap(path, template: synth.ScenarioTemplate) -> None:
    """Prints synth's note on the template of `path`, if its lane count was snapped."""
    if note := synth.snap_note(template):
        print(f"note: {path}: {note}", file=sys.stderr)


def _seed_failure(seed: int, exc: Exception) -> RuntimeError:
    """A failure of one instance's work as `seed <n>: <message>`, or the type's
    name in place of an empty message (a bare `StopIteration`)."""
    return RuntimeError(f"seed {seed}: {str(exc) or type(exc).__name__}")


def _is_crash_report(path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _document_from_input(path: Path, args) -> str:
    """DSL documents pass through; crash-report JSON goes through extraction."""
    if not _is_crash_report(path):
        return path.read_text(encoding="utf-8")
    from . import extract
    report = extract.read_crash_report(path)
    transport = (extract.FixtureTransport.from_file(args.transcripts, report.case_id)
                 if args.offline else extract.HttpTransport(args.endpoint, args.model))
    return dsl.serialize_dsl(extract.run_extraction(report, transport).spec)


def _simulate_step(instance: sampling.ScenarioInstance, geometry: sim.RoadGeometry) -> str:
    """The trace file text of one instance; a failure names the seed."""
    try:
        return sim.trace_to_jsonl(sim.simulate(instance, geometry))
    except Exception as exc:
        raise _seed_failure(instance.instance_seed, exc) from exc


def _monitor_step(text: str, oracle: tuple[dsl.OracleEntry, ...],
                  geometry: sim.RoadGeometry) -> rules.ViolationReport:
    """The report of a trace file text; a failure names the seed, a malformed text
    raises ValueError."""
    trace = sim.trace_from_jsonl(text)
    try:
        return rules.monitor(trace, oracle, geometry)
    except Exception as exc:
        raise _seed_failure(trace.instance_seed, exc) from exc


def _chunksize(seeds: int, workers: int) -> int:
    """Four chunks per worker, at most 64 seeds each."""
    return min(64, math.ceil(seeds / (4 * workers)))


def _chunks(items: list, workers: int) -> list[list]:
    """`items` in consecutive runs of `_chunksize(len(items), workers)`."""
    size = _chunksize(len(items), workers)
    return [items[start:start + size] for start in range(0, len(items), size)]


def _run_chunk(template: synth.ScenarioTemplate, geometry: sim.RoadGeometry, staging: Path,
               instances: list[sampling.ScenarioInstance]) -> list[rules.ViolationReport]:
    """Runs a chunk of instances, writes its traces and reports into `staging`
    once the whole chunk is done, and returns the reports."""
    texts = [_simulate_step(instance, geometry) for instance in instances]
    reports = [_monitor_step(text, template.params.oracle, geometry) for text in texts]
    for text, report in zip(texts, reports):
        _write_staged(staging / "traces" / TRACE_NAME.format(report.instance_seed), text)
        _write_staged(staging / "reports" / REPORT_NAME.format(report.instance_seed),
                      report.to_json() + "\n")
    return reports


def _simulate_one(job: tuple[synth.ScenarioTemplate, Path],
                  instances: list[sampling.ScenarioInstance]) -> list[rules.ViolationReport]:
    """Pool entry: `_run_chunk` over one chunk, with the geometry built once per chunk."""
    template, staging = job
    return _run_chunk(template, sim.build_geometry(template), staging, instances)


@contextmanager
def _placeholders(staging: Path, instances: list[sampling.ScenarioInstance]):
    """While the body runs, a forked "creator" child makes each seed's trace and
    report file in `staging` as an empty placeholder, in the order the writers
    fill them, so inode creation runs beside the instances instead of on their
    path.  The child neither truncates nor writes, so each placeholder is empty
    until its writer, the only one, fills it; `_write_staged` opens without
    truncating and creates a file the child has not reached, and either order
    gives the same bytes.  The child is reaped when the body ends, so no file
    appears after it; if the fork fails, or the platform has no `os.fork`, the
    body runs without a child.  Enter it while the process has no thread."""
    fork = getattr(os, "fork", None)
    try:
        pid = fork() if fork else None
    except OSError:
        pid = None
    if pid == 0:
        try:
            traces, reports = f"{staging}/traces/", f"{staging}/reports/"
            for instance in instances:
                seed = instance.instance_seed
                for path in (traces + TRACE_NAME.format(seed), reports + REPORT_NAME.format(seed)):
                    try:
                        os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
                    except OSError:
                        pass
        finally:
            os._exit(0)
    try:
        yield
    finally:
        if pid is not None:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _swap_in(staging: Path, target: Path) -> None:
    """Renames `staging` onto `target`.  An earlier `target` is renamed aside
    first, restored if the rename fails, and removed only once the new one is
    in place."""
    aside = target.with_name(f".{target.name}.old.partial")
    if target.exists():
        target.rename(aside)
    try:
        staging.rename(target)
    except BaseException:
        if aside.exists():
            aside.rename(target)
        raise
    shutil.rmtree(aside, ignore_errors=True)  # a leftover is swept by the next run


def _run_input(args, normalized: normalize.NormalizedSpec,
               template: synth.ScenarioTemplate) -> list[rules.ViolationReport]:
    """Writes one input's scenario directory through its staging directory and
    returns its reports; a failure removes the staging directory and leaves an
    earlier run's `<sid>/` as it was."""
    scenario_id = template.params.scenario_id
    with _staged(args.out / f".{scenario_id}.partial") as staging:
        _write_normalized(staging, normalized, _write_staged)
        _write_template(staging, template, _write_staged)
        instances = sampling.sample_batch(template, args.samples, args.seed)
        _write_manifest(staging, instances, _write_staged)
        (staging / "traces").mkdir()
        (staging / "reports").mkdir()
        with _placeholders(staging, instances):  # before the pool starts a thread
            chunks = _chunks(instances, args.workers)
            if args.workers > 1:
                pool_class = sys.modules[__name__].ProcessPoolExecutor
                with pool_class(max_workers=args.workers) as pool:
                    per_chunk = list(pool.map(_simulate_one,
                                              [(template, staging)] * len(chunks), chunks))
            else:
                geometry = sim.build_geometry(template)
                per_chunk = [_run_chunk(template, geometry, staging, chunk) for chunk in chunks]
        _swap_in(staging, args.out / scenario_id)
    return [report for reports in per_chunk for report in reports]


def run_pipeline(args) -> int:
    """parse -> validate -> normalize -> synth -> sample -> simulate -> monitor."""
    table = normalize.load_synonym_table(args.synonyms) if args.synonyms else None
    failures: list[str] = []
    all_reports: list[rules.ViolationReport] = []
    written: dict[str, Path] = {}  # scenario id -> the input that wrote it in this run
    for stale in args.out.glob(".*.partial"):  # left by a run that was killed
        if stale.is_dir():
            shutil.rmtree(stale)

    for input_path in map(Path, args.inputs):
        try:
            document = _document_from_input(input_path, args)
            normalized = normalize.normalize_document(document, args.seed, table)
            if isinstance(normalized, list):
                details = "; ".join(f"{i.path}: {i.message}" for i in normalized)
                raise ValueError(f"document rejected: {details}")
            template = synth.build_template(normalized)
            _note_snap(input_path, template)
            scenario_id = template.params.scenario_id
            if scenario_id in written:
                raise ValueError(f"scenario id {scenario_id!r} was already written by "
                                 f"{written[scenario_id]}")
            all_reports += _run_input(args, normalized, template)
            written[scenario_id] = input_path
        except Exception as exc:
            failures.append(f"{input_path}: {exc}")

    _atomic_write(args.out / "summary.csv", rules.summary_csv(all_reports))
    if failures:
        _atomic_write(args.out / "failures.txt", "\n".join(failures) + "\n")
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_PARTIAL
    (args.out / "failures.txt").unlink(missing_ok=True)
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
    """Normalizes every input; `stage(path, normalized, out_dir)` takes each one that
    passes, and returns EXIT_PARTIAL if it fails that input."""
    table = normalize.load_synonym_table(args.synonyms) if args.synonyms else None
    status = EXIT_OK
    for path in args.inputs:
        result = normalize.normalize_document(Path(path).read_text(encoding="utf-8"),
                                              args.seed, table)
        if isinstance(result, list):
            status = _print_issues(path, result)
        else:
            status = stage(path, result, args.out or Path(path).parent) or status
    return status


def _cmd_normalize(args) -> int:
    def stage(path, normalized, out_dir):
        _write_normalized(out_dir, normalized)
        print(f"{path}: normalized -> {normalized.spec.scenario_id}.normalized.yaml")
    return _normalize_each(args, stage)


def _cmd_synth(args) -> int:
    def stage(path, normalized, out_dir):
        try:
            template = synth.build_template(normalized)
        except synth.CompatibilityError as exc:
            return _failed(path, exc)
        _note_snap(path, template)
        _write_template(out_dir, template)
        print(f"{path}: synthesized -> {template.params.scenario_id}.scenic")
    return _normalize_each(args, stage)


def _load(cls, path):
    """A value of type `cls` from its JSON file; a file that does not parse as
    one raises ValueError naming the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return from_data(cls, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_sample(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    instances = sampling.sample_batch(template, args.samples, args.seed)
    out = _write_manifest(args.out or Path(args.template).parent, instances)
    print(f"{args.template}: {len(instances)} instances -> {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    geometry = sim.build_geometry(template)
    out_dir = args.out or Path(args.instances).parent
    try:
        instances = sampling.read_manifest(Path(args.instances).read_text(encoding="utf-8"))
        _publish(out_dir / "traces", TRACE_NAME,
                 ((instance.instance_seed, _simulate_step(instance, geometry))
                  for instance in instances))
    except ValueError as exc:
        raise ValueError(f"{args.instances}: {exc}") from exc
    except RuntimeError as exc:
        return _failed(args.instances, exc)
    print(f"{args.instances}: {len(instances)} traces -> {out_dir}")
    return EXIT_OK


def _cmd_monitor(args) -> int:
    template = _load(synth.ScenarioTemplate, args.template)
    geometry = sim.build_geometry(template)
    reports = []
    for trace_path in args.traces:
        try:
            reports.append(_monitor_step(Path(trace_path).read_text(encoding="utf-8"),
                                         template.params.oracle, geometry))
        except ValueError as exc:  # a malformed file is a configuration error
            raise ValueError(f"{trace_path}: {exc}") from exc
        except RuntimeError as exc:
            return _failed(trace_path, exc)
    out_dir = args.out or Path(args.traces[0]).parent.parent
    _publish(out_dir / "reports", REPORT_NAME,
             [(report.instance_seed, report.to_json() + "\n") for report in reports])
    _atomic_write(out_dir / "summary.csv", rules.summary_csv(reports))
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
    from . import evaluate
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
    from . import evaluate
    matrix = _load(evaluate.RatingsMatrix, args.matrix)
    kappa, band = evaluate.fleiss_kappa(matrix)
    print(f"kappa: {kappa:.6f} ({band})")
    return EXIT_OK


def _cmd_eval_counts(args) -> int:
    from . import evaluate
    expected = _load(dict[str, int], args.expected)
    grouped: dict[str, list[rules.ViolationReport]] = {}
    root = Path(args.reports_dir)
    for report_path in sorted(root.rglob(_glob(REPORT_NAME))):
        if any(part.startswith(".") and part.endswith(".partial")
               for part in report_path.relative_to(root).parts[:-1]):
            continue  # a staging directory, such as `.<sid>.partial/` or `.reports.partial/`
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse fills a fresh namespace.

    A subcommand's `func` is the name of its function, looked up when it
    runs, so a function wrapped or replaced after the first call still runs.
    """
    parser = argparse.ArgumentParser(prog="scenforge",
                                     description="scenario compilation and simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, summary):
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func.__name__)
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
        if ("endpoint" in args and not (args.endpoint or args.offline)
                and any(map(_is_crash_report, args.inputs))):
            parser.error("a crash-report JSON input needs --endpoint or --offline")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[args.func](args)
    except (ValueError, KeyError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
