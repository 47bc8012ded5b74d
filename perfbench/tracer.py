"""In-memory spans around the public calls the scenforge CLI makes.

`install()` replaces module attributes (for example `sim.simulate`) with
wrappers that record a span per call: name, parent span, start and end on
the monotonic clock, plus a few counts read off the arguments or the
result.  Nothing in the package changes; callers reach the wrappers because
the package calls these functions through module attributes.

With `--workers 2` the pipeline runs `cli._simulate_one` in forked pool
workers.  The wrapper installed there records the worker's spans and sends
them back inside the result: the carrier object unpickles in the parent as
the plain `(trace, report)` tuple the CLI expects, and leaves the spans with
the parent's recorder.
"""

from __future__ import annotations

import functools
import os
import time

from scenforge import cli, dsl, normalize, rules, sampling, sim, synth

_FULL_TRACE_FRAMES = int(round(sim.HORIZON_S / sim.TIMESTEP_S)) + 1


def _trace_counts(trace) -> dict:
    frames = len(trace.frames)
    return {"scenario": trace.scenario_id, "frames": frames,
            "collision_end": frames < _FULL_TRACE_FRAMES}


# (span name, owner, attribute, function giving the span's counts or None)
TARGETS = (
    ("cli.main", cli, "main", None),
    ("cli.run_pipeline", cli, "run_pipeline", None),
    ("normalize.normalize_document", normalize, "normalize_document", None),
    ("dsl.parse_dsl", dsl, "parse_dsl", None),
    ("dsl.validate_spec", dsl, "validate_spec", None),
    ("synth.build_template", synth, "build_template", None),
    ("synth.render_scenic", synth, "render_scenic", None),
    ("sampling.sample_batch", sampling, "sample_batch",
     lambda args, result: {"instances": len(result)}),
    ("sim.build_geometry", sim, "build_geometry", None),
    ("sim.simulate", sim, "simulate", lambda args, result: _trace_counts(result)),
    ("sim.trace_to_jsonl", sim, "trace_to_jsonl",
     lambda args, result: {"bytes": len(result)}),  # the JSON is ASCII
    ("sim.trace_from_jsonl", sim, "trace_from_jsonl",
     lambda args, result: dict(_trace_counts(result), bytes=len(args[0]))),
    ("rules.monitor", rules, "monitor",
     lambda args, result: {"scenario": result.scenario_id, "frames": len(args[0].frames),
                           "violations": len(result.violations),
                           "targeted": result.targeted_hit}),
    ("rules.evaluate_rule", rules, "evaluate_rule",
     lambda args, result: {"rule": args[0] if isinstance(args[0], str) else args[0].rule_id}),
    ("rules.detect_collisions", rules, "detect_collisions", None),
    ("rules.summary_csv", rules, "summary_csv", None),
    ("rules.report_to_json", rules.ViolationReport, "to_json", None),
)


class Recorder:
    """Spans as lists `[name, parent index, start, end, counts]`; index = id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.child_batches: list[dict] = []

    def reset(self) -> None:
        self.spans, self.stack, self.child_batches = [], [], []

    def wrap(self, name: str, fn, counts=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = recorder.spans, recorder.stack
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, result)
            return result

        return traced


# The pool's result thread unpickles worker results by calling `_deliver`,
# which can only reach the recorder through a module-level name.
_RECORDER: Recorder | None = None
_ORIGINAL_SIMULATE_ONE = cli._simulate_one


class _Carrier:
    def __init__(self, result, spans) -> None:
        self.result, self.spans = result, spans

    def __reduce__(self):
        return (_deliver, (self.result, {"pid": os.getpid(), "spans": self.spans}))


def _deliver(result, batch):
    if _RECORDER is not None:
        _RECORDER.child_batches.append(batch)
    return result


def simulate_one(template_data, seed):
    """Pool entry installed as `cli._simulate_one`; runs in the worker."""
    recorder = _RECORDER
    recorder.reset()  # a forked worker starts with a copy of the parent's spans
    result = recorder.wrap("cli._simulate_one", _ORIGINAL_SIMULATE_ONE)(template_data, seed)
    return _Carrier(result, recorder.spans)


class _TracedPool(cli.ProcessPoolExecutor):
    def map(self, fn, *iterables, **kwargs):
        # Collecting the results here makes the span cover the whole wait.
        return _RECORDER.wrap("cli.pool_wait", lambda: list(super(_TracedPool, self).map(
            fn, *iterables, **kwargs)))()


def install() -> Recorder:
    """Wrap every target; returns the recorder that collects the spans."""
    global _RECORDER
    _RECORDER = recorder = Recorder()
    for name, owner, attribute, counts in TARGETS:
        setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute), counts))
    cli._simulate_one = simulate_one
    cli.ProcessPoolExecutor = _TracedPool
    return recorder
