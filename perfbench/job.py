"""One benchmark job: a fresh process that makes scenforge CLI calls.

Usage: python3 perfbench/job.py SPEC.json RESULT.json

SPEC holds {"groups": [[argv, ...], ...], "trace": bool}.  Each argv goes to
`scenforge.cli.main` in turn.  Before each group, and after the last one,
the job times a fixed reference task (see reference.py).  RESULT receives,
per group, the wall and CPU time of its calls (CPU includes reaped pool
workers) and the reference readings around it; the start-up end time, the
peak resident set, each call's exit status and, when tracing, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from reference import reference_s  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from scenforge import cli

    recorder = None
    if spec["trace"]:
        import tracer
        recorder = tracer.install()
    ready = time.monotonic()
    statuses, groups = [], []
    reference = reference_s() if spec["groups"] else 0.0
    for group in spec["groups"]:
        started, cpu_started = time.perf_counter(), _cpu_s()
        statuses += [cli.main(list(argv)) for argv in group]
        wall, cpu = time.perf_counter() - started, _cpu_s() - cpu_started
        after = reference_s()
        groups.append({"wall_s": wall, "cpu_s": cpu, "reference_s": [reference, after]})
        reference = after

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"ready": ready, "groups": groups, "peak_rss_kb": peak_kb, "statuses": statuses}
    if recorder is not None:
        result["spans"] = recorder.spans
        result["child_batches"] = recorder.child_batches
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
