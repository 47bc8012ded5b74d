#!/usr/bin/env python3
"""scenforge benchmark: drives the CLI from outside and prints one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixtures-serial --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md gives the rationale and the layer map):

- fixtures-serial: `scenforge pipeline` over each of the six fixtures, --workers 1.
- fixtures-workers2: the same calls with --workers 2.
- monitor-replay: `scenforge monitor`, one call per scenario, over traces
  that set-up wrote for the fixtures and their five-actor variants.

Each timed job is a fresh process (perfbench/job.py) that makes the CLI
calls in groups, timing a fixed reference task between groups.  Jobs run
back to back until --seconds have passed (a closed loop with one client).
With --trace 1 untraced and traced jobs alternate and the traced ones give
the per-layer metrics.  The last line of stdout is the result object; the
line before it holds the details (environment, digests, raw job times,
layer self times).  Spans of the last traced job go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from reference import NOMINAL_S, reference_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures" / "scenarios"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# Fixture file -> (scenario id, distinct rules every instance must violate).
# The counts are those of acceptance criterion 3.
FIXTURE_RULE_COUNTS = {
    "straight1.yaml": ("straight-1", 1),
    "straight2.yaml": ("straight-2", 2),
    "intersection1.yaml": ("intersection-1", 3),
    "intersection2.yaml": ("intersection-2", 3),
    "t_intersection.yaml": ("t-intersection", 2),
    "curve.yaml": ("curve", 2),
}
FIXTURE_IDS = tuple(sid for sid, _ in FIXTURE_RULE_COUNTS.values())
RULE_IDS = ("21453", "21460", "21461", "21800", "21801", "21802", "21803", "21804",
            "22107", "22108", "22349", "22350", "22450")

PIPELINE_SEEDS = 100   # instances per fixture in one fixtures-* job
REPLAY_SEEDS = 10      # stored traces per document in monitor-replay
CHECK_REPLAY_SEEDS = 10  # traces per fixture replayed after a traced fixtures-* run
# Set-ups per run: a fixtures set-up is one interpreter start (about 0.25 s),
# a replay set-up includes a staging pipeline run (about 4 s).
FIXTURE_SETUPS = 9
REPLAY_SETUPS = 3
RUN_LIMIT_S = 170.0     # a job still running then is killed, so a run ends within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One finished job process: its result file plus what the parent saw."""

    def __init__(self, spawned: float, returncode: int, stderr: str, result: dict | None,
                 instances: int):
        self.spawned, self.returncode, self.stderr = spawned, returncode, stderr
        self.result, self.instances = result, instances

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.result is not None

    @property
    def startup_s(self) -> float:
        return self.result["ready"] - self.spawned

    @property
    def wall_s(self) -> float:
        return sum(g["wall_s"] for g in self.result["groups"])

    @property
    def cpu_s(self) -> float:
        return sum(g["cpu_s"] for g in self.result["groups"])

    @property
    def median_reference_s(self) -> float:
        return statistics.median(r for g in self.result["groups"] for r in g["reference_s"])

    def scaled(self, key: str) -> float:
        """Sum over groups of wall_s or cpu_s in units of the reference task's time."""
        return sum(g[key] / statistics.mean(g["reference_s"]) for g in self.result["groups"])


def run_job(run: Run, name: str, groups: list[list[list[str]]], trace: bool,
            instances: int) -> Job:
    spec_path = run.work / f"{name}.spec.json"
    result_path = run.work / f"{name}.result.json"
    spec_path.write_text(json.dumps({"groups": groups, "trace": trace}), encoding="utf-8")
    timeout = max(1.0, run.deadline - time.monotonic())
    spawned = time.monotonic()
    # A session of its own lets a timeout kill the job's pool workers too.
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "job.py"), str(spec_path),
                             str(result_path)], cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\njob killed after {timeout:.0f} s"
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return Job(spawned, proc.returncode, stderr, result, instances)


def startup_probe(run: Run, name: str) -> float:
    """Interpreter start plus imports, measured on a job that makes no call."""
    job = run_job(run, name, [], False, 0)
    if not job.ok:
        raise BenchError(f"start-up probe failed: {job.stderr.strip()}")
    return job.startup_s


# ---------------------------------------------------------------------------
# output checks


def tree_digests(root: Path) -> dict:
    """Digest of every file under root (path and bytes), plus stream digests."""
    tree, traces, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        tree.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
        if path.parent.name == "traces":
            traces.update(data)
        elif path.parent.name == "reports":
            reports.update(data)
        files += 1
        size += len(data)
    return {"tree": tree.hexdigest(), "traces": traces.hexdigest(),
            "reports": reports.hexdigest(), "files": files, "bytes": size}


def check_fixture_verdicts(out: Path, seeds: int) -> list[str]:
    """Every fixture yields one rule set of the expected size, always targeted."""
    problems = []
    rows: dict[str, list[dict]] = defaultdict(list)
    for summary in sorted(out.glob("*/summary.csv")):
        with summary.open(encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                rows[row["scenario_id"]].append(row)
    for sid, expected in FIXTURE_RULE_COUNTS.values():
        got = rows.get(sid, [])
        if len(got) != seeds:
            problems.append(f"{sid}: {len(got)} summary rows, expected {seeds}")
            continue
        untargeted = sum(row["targeted_hit"] != "true" for row in got)
        if untargeted:
            problems.append(f"{sid}: {untargeted}/{seeds} instances not a targeted hit")
        sets = {tuple(r for r in RULE_IDS if int(row[f"cvc_{r}"]) > 0) for row in got}
        if len(sets) != 1 or len(next(iter(sets))) != expected:
            problems.append(f"{sid}: rule sets {sorted(sets)}, expected one of size {expected}")
    return problems


def failed_instances(job: Job, per_call: int) -> int:
    """Failed instances of a job; a call that fails counts all of its instances.

    A pipeline call over one document fails as a whole when the document is
    rejected or one of its instances raises; a job whose process died
    counts every instance it held.
    """
    if not job.ok:
        return job.instances
    return min(job.instances, sum(status != 0 for status in job.result["statuses"]) * per_call)


# ---------------------------------------------------------------------------
# per-layer metrics from spans


class Span:
    __slots__ = ("name", "duration", "self_time", "counts", "in_parent")

    def __init__(self, name, duration, self_time, counts, in_parent):
        self.name, self.duration, self.self_time = name, duration, self_time
        self.counts, self.in_parent = counts or {}, in_parent


def job_spans(job: Job) -> list[Span]:
    """Spans of the job process and of its pool workers, with self times."""
    batches = [(job.result["spans"], True)]
    batches += [(batch["spans"], False) for batch in job.result["child_batches"]]
    out = []
    for records, in_parent in batches:
        covered = [0.0] * len(records)
        for _, parent, start, end, _ in records:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _, start, end, counts), child_time in zip(records, covered):
            out.append(Span(name, end - start, end - start - child_time, counts, in_parent))
    return out


def _mean_ms(spans: list[Span]) -> float:
    return 1000.0 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def layer_metrics(timed: list[Job], aux: list[Job], overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced timed jobs.

    A function the timed jobs never call (the pipeline layers in
    monitor-replay, the trace reader in the fixtures-* workloads) is taken
    from the traced auxiliary job instead: the staging pipeline, or the
    replay of the last pipeline output.
    """
    timed_spans = [s for job in timed for s in job_spans(job)]
    aux_spans = [s for job in aux for s in job_spans(job)]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in timed_spans:
        by_name[span.name].append(span)
    aux_by_name: dict[str, list[Span]] = defaultdict(list)
    for span in aux_spans:
        aux_by_name[span.name].append(span)

    def pick(name: str, anchor: str | None = None) -> list[Span]:
        """Spans of name from the timed jobs if they call anchor (default: name)."""
        source = by_name if (anchor or name) in by_name else aux_by_name
        return source.get(name, [])

    instances = sum(job.instances for job in timed)
    monitors = pick("rules.monitor")
    rule_calls = pick("rules.evaluate_rule", "rules.monitor")
    detect_calls = pick("rules.detect_collisions", "rules.monitor")
    simulates = pick("sim.simulate")
    # The traces the timed part handled: simulated, or read back in monitor-replay.
    traces_seen = by_name.get("sim.simulate") or by_name.get("sim.trace_from_jsonl", [])
    trace_texts = by_name.get("sim.trace_to_jsonl") or by_name.get("sim.trace_from_jsonl", [])
    batches = pick("sampling.sample_batch")
    n_monitor = max(len(monitors), 1)

    m = {
        "rules.monitor_ms_per_instance": _mean_ms(monitors),
        "rules.monitor_us_per_frame": 1e6 * sum(s.duration for s in monitors)
        / max(sum(s.counts["frames"] for s in monitors), 1),
        "rules.detect_collisions_ms_per_instance":
            1000.0 * sum(s.duration for s in detect_calls) / n_monitor,
        "rules.report_to_json_us_per_instance": 1000.0 * _mean_ms(pick("rules.report_to_json")),
        "rules.summary_csv_ms": _mean_ms(pick("rules.summary_csv")),
        "rules.violations_per_instance":
            sum(s.counts["violations"] for s in monitors) / n_monitor,
        "rules.targeted_hit_rate": sum(s.counts["targeted"] for s in monitors) / n_monitor,
        "sim.simulate_ms_per_instance": _mean_ms(simulates),
        "sim.frames_per_s": sum(s.counts["frames"] for s in simulates)
        / max(sum(s.duration for s in simulates), 1e-9),
        "sim.frames_per_instance":
            sum(s.counts["frames"] for s in traces_seen) / max(len(traces_seen), 1),
        "sim.collision_end_ratio":
            sum(s.counts["collision_end"] for s in traces_seen) / max(len(traces_seen), 1),
        "sim.trace_to_jsonl_ms_per_instance": _mean_ms(pick("sim.trace_to_jsonl")),
        "sim.trace_bytes_per_instance":
            sum(s.counts["bytes"] for s in trace_texts) / max(len(trace_texts), 1),
        "sim.trace_from_jsonl_ms_per_instance": _mean_ms(pick("sim.trace_from_jsonl")),
        "sim.build_geometry_ms": _mean_ms(pick("sim.build_geometry")),
        "sampling.sample_batch_us_per_instance": 1e6 * sum(s.duration for s in batches)
        / max(sum(s.counts["instances"] for s in batches), 1),
        "normalize.normalize_document_ms": _mean_ms(pick("normalize.normalize_document")),
        "dsl.parse_dsl_ms": _mean_ms(pick("dsl.parse_dsl")),
        "dsl.validate_spec_ms": _mean_ms(pick("dsl.validate_spec")),
        "synth.build_template_ms": _mean_ms(pick("synth.build_template")),
        "synth.render_scenic_ms": _mean_ms(pick("synth.render_scenic")),
        "cli.self_ms_per_instance": 1000.0 * sum(
            s.self_time for s in timed_spans
            if s.in_parent and s.name in ("cli.main", "cli.run_pipeline")) / max(instances, 1),
        "cli.pool_wait_ms_per_instance": 1000.0 * sum(
            s.duration for s in by_name.get("cli.pool_wait", [])) / max(instances, 1),
        "bench.trace_overhead_ratio": overhead,
    }
    for sid in FIXTURE_IDS:
        m[f"rules.monitor_ms.{sid}"] = _mean_ms(
            [s for s in monitors if s.counts["scenario"] == sid])
        m[f"sim.simulate_ms.{sid}"] = _mean_ms(
            [s for s in simulates if s.counts["scenario"] == sid])
    for rule in RULE_IDS:
        m[f"rules.evaluate_rule_ms.{rule}"] = 1000.0 * sum(
            s.duration for s in rule_calls if s.counts["rule"] == rule) / n_monitor

    # Self times of the job process's spans add up to its root spans; what
    # the timed wall holds beyond them is the unaccounted remainder.
    wall = sum(job.wall_s for job in timed)
    self_by_layer: dict[str, float] = defaultdict(float)
    worker_self_by_layer: dict[str, float] = defaultdict(float)
    for span in timed_spans:
        target = self_by_layer if span.in_parent else worker_self_by_layer
        target[span.name.split(".")[0]] += span.self_time
    m["bench.unaccounted_ratio"] = (wall - sum(self_by_layer.values())) / wall
    details = {
        "traced_wall_s": wall,
        "traced_instances": instances,
        "self_ms_per_instance": {k: 1000.0 * v / max(instances, 1)
                                 for k, v in sorted(self_by_layer.items())},
        "worker_self_ms_per_instance": {k: 1000.0 * v / max(instances, 1)
                                        for k, v in sorted(worker_self_by_layer.items())},
        "span_counts": {k: len(v) for k, v in sorted(by_name.items())},
        "aux_span_counts": {k: len(v) for k, v in sorted(aux_by_name.items())},
        "monitor_ms_by_scenario": {
            sid: _mean_ms([s for s in monitors if s.counts["scenario"] == sid])
            for sid in sorted({s.counts["scenario"] for s in monitors})},
    }
    return m, details


# ---------------------------------------------------------------------------
# workloads


class Run:
    """State shared by the workloads: arguments, work directory, tallies."""

    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.details: dict = {}

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)

    def timed_loop(self, make_job) -> tuple[list[Job], list[Job]]:
        """Run jobs back to back for --seconds; returns (untraced, traced).

        With --trace 1 every second job is traced, and there is at least one
        of each kind.
        """
        untraced, traced = [], []
        deadline = time.monotonic() + self.args.seconds
        k = 0
        while k < (2 if self.args.trace else 1) or time.monotonic() < deadline:
            is_traced = bool(self.args.trace) and k % 2 == 1
            (traced if is_traced else untraced).append(make_job(k, is_traced))
            k += 1
        return untraced, traced

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()},
        }


def scaled_setups(run: Run, setup, repeats: int) -> list[float]:
    """Set up `repeats` times; return each time at the reference's nominal speed.

    `setup(r)` does repetition r and returns its duration, which is divided
    by the mean of the reference readings taken just before and after it.
    The raw seconds go to the details.
    """
    readings, raw = [reference_s()], []
    for r in range(repeats):
        raw.append(setup(r))
        readings.append(reference_s())
    run.details["setup_raw_s"] = raw
    return [seconds * NOMINAL_S / statistics.mean(readings[k:k + 2])
            for k, seconds in enumerate(raw)]


def end_to_end_metrics(run: Run, jobs: list[Job], setup_s: float, artifacts: list[dict]) -> dict:
    good = [job for job in jobs if job.ok]
    if not good or not artifacts:
        raise BenchError("no timed job completed")
    run.details["jobs"] = [{"instances": j.instances, "wall_s": j.wall_s, "cpu_s": j.cpu_s,
                            "startup_s": j.startup_s, "reference_s": j.median_reference_s}
                           for j in good]
    return {
        "instances_per_ref": statistics.median(j.instances / j.scaled("wall_s") for j in good),
        "cpu_ref_per_instance": statistics.median(j.scaled("cpu_s") / j.instances for j in good),
        "peak_rss_mb": max(j.result["peak_rss_kb"] for j in good) / 1024.0,
        "setup_s": setup_s,
        "artifact_bytes_per_instance": statistics.median(a["bytes"] / a["instances"]
                                                         for a in artifacts),
        "artifact_files_per_instance": statistics.median(a["files"] / a["instances"]
                                                         for a in artifacts),
    }


def raw_metrics(jobs: list[Job]) -> dict:
    """The unscaled figures behind instances_per_ref and cpu_ref_per_instance."""
    good = [job for job in jobs if job.ok]
    return {
        "bench.instances_per_s": statistics.median(j.instances / j.wall_s for j in good),
        "bench.cpu_ms_per_instance": statistics.median(1000.0 * j.cpu_s / j.instances
                                                       for j in good),
        "bench.reference_ms": 1000.0 * statistics.median(j.median_reference_s for j in good),
    }


def fixture_inputs() -> list[Path]:
    return [FIXTURES / name for name in FIXTURE_RULE_COUNTS]


def pipeline_argv(inputs: list[Path], out: Path, seeds: int, seed: int, workers: int) -> list[str]:
    return ["pipeline", *map(str, inputs), "--out", str(out), "--samples", str(seeds),
            "--seed", str(seed), "--workers", str(workers)]


def fixture_groups(out: Path, seed: int, workers: int) -> list[list[list[str]]]:
    """One pipeline call per fixture, each its own group and output directory."""
    return [[pipeline_argv([path], out / path.stem, PIPELINE_SEEDS, seed, workers)]
            for path in fixture_inputs()]


def scenario_dirs(tree: Path) -> list[Path]:
    return sorted(path.parent for path in tree.rglob("*.template.json"))


def replay_commands(tree: Path, out: Path, seeds: int | None = None) -> list[list[str]]:
    """One `scenforge monitor` call per scenario directory found under tree."""
    commands = []
    for scenario_dir in scenario_dirs(tree):
        sid = scenario_dir.name
        traces = sorted((scenario_dir / "traces").glob("trace_*.jsonl"))[:seeds]
        commands.append(["monitor", str(scenario_dir / f"{sid}.template.json"),
                         *map(str, traces), "--out", str(out / sid)])
    return commands


def replay_groups(stage: Path, out: Path) -> list[list[list[str]]]:
    """The monitor calls of a replay job, one group per fixture and its variant."""
    import variants

    families: dict[str, list[list[str]]] = defaultdict(list)
    for command in replay_commands(stage, out):
        sid = Path(command[1]).parent.name
        families[sid.removesuffix(variants.VARIANT_SUFFIX)].append(command)
    return [families[name] for name in sorted(families)]


def staged_mismatch(tree: Path, replay: Path) -> tuple[int, int]:
    """(replayed reports whose bytes differ from the pipeline's, replayed reports)."""
    staged_dirs = {path.name: path for path in scenario_dirs(tree)}
    differ = total = 0
    for report in sorted(replay.glob("*/reports/report_*.json")):
        staged = staged_dirs[report.parent.parent.name] / "reports" / report.name
        total += 1
        differ += not staged.is_file() or staged.read_bytes() != report.read_bytes()
    return differ, total


def fixtures_workload(run: Run, workers: int) -> dict:
    args = run.args
    instances = PIPELINE_SEEDS * len(FIXTURE_RULE_COUNTS)

    def setup(r: int) -> float:
        started = time.monotonic()
        missing = [str(path) for path in fixture_inputs() if not path.is_file()]
        if missing:
            raise BenchError(f"fixture documents missing: {missing}")
        return time.monotonic() - started + startup_probe(run, f"probe{r}")

    setups = scaled_setups(run, setup, FIXTURE_SETUPS)

    digests: list[dict] = []
    last_out: Path | None = None

    def make_job(k: int, traced: bool) -> Job:
        nonlocal last_out
        out = run.work / f"job{k}"
        job = run_job(run, f"job{k}", fixture_groups(out, args.seed, workers), traced, instances)
        run.attempted += instances
        failed = failed_instances(job, PIPELINE_SEEDS)
        run.failed += failed
        if failed or not job.ok:
            run.problem(f"job {k}: exit {job.returncode}, {failed} failed instances: "
                        f"{job.stderr.strip()[-400:]}")
        else:
            for text in check_fixture_verdicts(out, PIPELINE_SEEDS):
                run.problem(f"job {k}: {text}")
            digests.append(dict(tree_digests(out), instances=instances))
        if last_out is not None:
            shutil.rmtree(last_out, ignore_errors=True)
        last_out = out
        return job

    untraced, traced = run.timed_loop(make_job)
    if len({d["tree"] for d in digests}) > 1:
        run.problem(f"artifact tree digest differs between jobs: {[d['tree'] for d in digests]}")

    aux: list[Job] = []
    staged = None
    if args.trace and last_out is not None and last_out.is_dir():
        replay_out = run.work / "check_replay"
        commands = replay_commands(last_out, replay_out, CHECK_REPLAY_SEEDS)
        job = run_job(run, "check_replay", [commands], True, CHECK_REPLAY_SEEDS * len(commands))
        if not job.ok or any(job.result["statuses"]):
            run.problem(f"replay of the pipeline output failed: {job.stderr.strip()[-400:]}")
        else:
            aux.append(job)
            staged = staged_mismatch(last_out, replay_out)
    if workers > 1:
        # The pool must write exactly what a serial run writes.
        out = run.work / "serial_reference"
        job = run_job(run, "serial_reference", fixture_groups(out, args.seed, 1), False, instances)
        reference = tree_digests(out)["tree"] if job.ok else None
        if reference is None or any(d["tree"] != reference for d in digests):
            run.problem("the pool's artifact tree differs from a serial run's")
        run.details["serial_reference_tree"] = reference

    run.details["digests"] = digests[:1]
    e2e = end_to_end_metrics(run, untraced, statistics.median(setups), digests)
    if not args.trace:
        return run.result(e2e)
    return run.result(traced_metrics(run, untraced, traced, aux, staged))


def replay_workload(run: Run) -> dict:
    args = run.args
    import variants  # needs src/ on sys.path, which main() arranges

    fixture_texts = {path: path.read_text(encoding="utf-8") for path in fixture_inputs()}
    stage_digests: list[str] = []
    stage: Path | None = None
    aux: list[Job] = []

    def setup(r: int) -> float:
        nonlocal stage
        started = time.monotonic()
        docs = run.work / f"setup{r}" / "docs"
        docs.mkdir(parents=True)
        inputs = list(fixture_texts)
        for path, text in fixture_texts.items():
            variant = docs / f"{path.stem}_x5.yaml"
            variant.write_text(variants.five_actor_variant(text, args.seed), encoding="utf-8")
            inputs.append(variant)
        out = run.work / f"setup{r}" / "stage"
        traced = bool(args.trace) and r == REPLAY_SETUPS - 1
        job = run_job(run, f"stage{r}", [[pipeline_argv(inputs, out, REPLAY_SEEDS, args.seed, 1)]],
                      traced, REPLAY_SEEDS * len(inputs))
        if not job.ok or job.result["statuses"] != [0]:
            raise BenchError(f"staging pipeline failed: exit {job.returncode} "
                             f"{job.stderr.strip()[-400:]}")
        seconds = time.monotonic() - started + startup_probe(run, f"probe{r}")
        stage_digests.append(tree_digests(out)["tree"])
        if stage is not None:
            shutil.rmtree(stage.parent, ignore_errors=True)
        stage = out
        if traced:
            aux.append(job)
        return seconds

    setups = scaled_setups(run, setup, REPLAY_SETUPS)
    if len(set(stage_digests)) > 1:
        run.problem(f"staged tree digest differs between set-ups: {stage_digests}")

    commands_count = len(scenario_dirs(stage))
    instances = REPLAY_SEEDS * commands_count
    digests: list[dict] = []
    mismatch: list[tuple[int, int]] = []

    def make_job(k: int, traced: bool) -> Job:
        out = run.work / f"job{k}"
        job = run_job(run, f"job{k}", replay_groups(stage, out), traced, instances)
        run.attempted += instances
        failed = failed_instances(job, REPLAY_SEEDS)
        run.failed += failed
        if failed or not job.ok:
            run.problem(f"job {k}: exit {job.returncode}, {failed} failed instances: "
                        f"{job.stderr.strip()[-400:]}")
        else:
            reports = len(list(out.glob("*/reports/report_*.json")))
            if reports != instances:
                run.problem(f"job {k}: {reports} reports, expected {instances}")
            digests.append(dict(tree_digests(out), instances=instances))
            if not mismatch:
                mismatch.append(staged_mismatch(stage, out))
        shutil.rmtree(out, ignore_errors=True)
        return job

    untraced, traced = run.timed_loop(make_job)
    if len({d["tree"] for d in digests}) > 1:
        run.problem("replayed report tree digest differs between jobs")
    run.details["stage_tree"] = stage_digests[-1]
    run.details["digests"] = digests[:1]
    e2e = end_to_end_metrics(run, untraced, statistics.median(setups), digests)
    if not args.trace:
        return run.result(e2e)
    return run.result(traced_metrics(run, untraced, traced, aux,
                                     mismatch[0] if mismatch else None))


def traced_metrics(run: Run, untraced: list[Job], traced: list[Job], aux: list[Job],
                   staged: tuple[int, int] | None) -> dict:
    untraced_ok = [j for j in untraced if j.ok]
    traced_ok = [j for j in traced if j.ok]
    if not untraced_ok or not traced_ok:
        raise BenchError("no traced or no untraced job completed")
    overhead = (statistics.median(j.scaled("wall_s") / j.instances for j in traced_ok)
                / statistics.median(j.scaled("wall_s") / j.instances for j in untraced_ok) - 1.0)
    metrics, details = layer_metrics(traced_ok, aux, overhead)
    metrics.update(raw_metrics(untraced_ok))
    metrics["failed_ratio"] = run.failed / max(run.attempted, 1)
    if staged is None:
        run.problem("no replay to compare staged and one-shot reports")
        staged = (0, 1)
    metrics["staged_mismatch_ratio"] = staged[0] / staged[1]
    run.details["layers"] = details
    run.details["staged_mismatch"] = {"differ": staged[0], "replayed": staged[1]}
    OUT_ROOT.mkdir(exist_ok=True)
    spans_file = OUT_ROOT / f"{run.args.workload}-seed{run.args.seed}-spans.json"
    spans_file.write_text(json.dumps({"job": traced_ok[-1].result,
                                      "aux": [j.result for j in aux]}), encoding="utf-8")
    run.details["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics


UNITS = {
    "instances_per_ref": "1/ref", "cpu_ref_per_instance": "ref", "peak_rss_mb": "MB",
    "setup_s": "s", "artifact_bytes_per_instance": "B", "artifact_files_per_instance": "count",
    "rules.monitor_ms_per_instance": "ms", "rules.monitor_us_per_frame": "us",
    "rules.detect_collisions_ms_per_instance": "ms", "rules.report_to_json_us_per_instance": "us",
    "rules.summary_csv_ms": "ms", "rules.violations_per_instance": "count",
    "rules.targeted_hit_rate": "ratio", "sim.simulate_ms_per_instance": "ms",
    "sim.frames_per_s": "1/s", "sim.frames_per_instance": "count",
    "sim.collision_end_ratio": "ratio", "sim.trace_to_jsonl_ms_per_instance": "ms",
    "sim.trace_bytes_per_instance": "B", "sim.trace_from_jsonl_ms_per_instance": "ms",
    "sim.build_geometry_ms": "ms", "sampling.sample_batch_us_per_instance": "us",
    "normalize.normalize_document_ms": "ms", "dsl.parse_dsl_ms": "ms",
    "dsl.validate_spec_ms": "ms", "synth.build_template_ms": "ms",
    "synth.render_scenic_ms": "ms", "cli.self_ms_per_instance": "ms",
    "cli.pool_wait_ms_per_instance": "ms", "bench.trace_overhead_ratio": "ratio",
    "bench.unaccounted_ratio": "ratio", "bench.instances_per_s": "1/s",
    "bench.cpu_ms_per_instance": "ms", "bench.reference_ms": "ms",
    "failed_ratio": "ratio", "staged_mismatch_ratio": "ratio",
    **{f"rules.monitor_ms.{sid}": "ms" for sid in FIXTURE_IDS},
    **{f"sim.simulate_ms.{sid}": "ms" for sid in FIXTURE_IDS},
    **{f"rules.evaluate_rule_ms.{rule}": "ms" for rule in RULE_IDS},
}

WORKLOADS = {
    "fixtures-serial": lambda run: fixtures_workload(run, 1),
    "fixtures-workers2": lambda run: fixtures_workload(run, 2),
    "monitor-replay": replay_workload,
}


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "scenforge").rglob("*.py")):
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": source.hexdigest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scenforge" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no scenforge source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        result = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"environment": environment(args), **run.details,
                      "problems": run.problems}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
