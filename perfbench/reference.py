"""Machine-speed reading: the time of a fixed pure-Python task.

The host this benchmark was built on (a 2-vCPU VM on a shared machine)
drifts in speed by about 20% over tens of seconds; the pipeline drifts with
it.  Timing this task next to the work it brackets, and dividing by it,
cancels most of that drift.  The task uses no scenforge code, so no change
to the package moves it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

LOOPS = 15000
# A fixed conversion from reference units back to seconds, for setup_s,
# whose unit is seconds: the task's typical time on that host.
NOMINAL_S = 0.04


def reference_s() -> float:
    """Seconds the task takes right now; median of three timings."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0.0
        for i in range(LOOPS):
            record = {"id": f"a{i}", "x": i * 0.5, "y": math.sin(i), "v": (i, i + 1.5, -i)}
            total += math.hypot(record["x"], record["y"]) + sum(record["v"])
            if i % 8 == 0:
                total += len(json.dumps(record, sort_keys=True))
        times.append(time.perf_counter() - started)
    return statistics.median(times)
