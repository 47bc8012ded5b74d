#!/usr/bin/env python3
"""What `import scenforge.cli` costs at process start, module by module.

Runs `python -X importtime -c "import scenforge.cli"` in a fresh interpreter
with this checkout's `src/` first on PYTHONPATH, then prints the self and
cumulative import time in µs of each `scenforge` module, the `--top`
heaviest rows of other modules by self time, and the child's peak resident
set size (`ru_maxrss`) once the import is done, in MB of 1024 kB as the
benchmark reports `peak_rss_mb`.  On Linux it then lists each shared
object (`.so`) mapped into the child, largest first, with its resident kB
summed over its mappings in `/proc/self/smaps`, so a dependency that maps
a large library (OpenSSL's libcrypto holds about 3.4 MB) shows up by name;
elsewhere that list is skipped with a note.  The times include compiling
the source when no bytecode is cached (`PYTHONDONTWRITEBYTECODE=1`, or a
fresh checkout), so run it the way the processes to be sized run.

Run from the repository root:

    python scripts/import_cost.py [--top N]
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# the child: the import, then `<resident kB> <path>` per mapped shared object
# on stdout, if the platform has /proc/self/smaps
CHILD = """
import scenforge.cli
try:
    smaps = open("/proc/self/smaps", encoding="utf-8")
except OSError:
    raise SystemExit
resident, path = {}, None
with smaps:
    for line in smaps:
        fields = line.split()
        if not fields[0].endswith(":"):  # a mapping's header: range, perms, ..., path
            path = fields[5] if len(fields) > 5 and ".so" in fields[5].rpartition("/")[2] else None
        elif fields[0] == "Rss:" and path:
            resident[path] = resident.get(path, 0) + int(fields[1])
for path, kb in resident.items():
    print(kb, path)
"""


def measure() -> tuple[list[tuple[int, int, str]], list[tuple[int, str]]]:
    """(self µs, cumulative µs, module) per `-X importtime` row, in import
    order, and (resident kB, path) per mapped shared object, largest first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                    if p]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD],
                          capture_output=True, text=True, env=env, check=True)
    rows = []
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), int(fields[1]), fields[2].strip()))
    objects = sorted(((int(kb), path) for kb, path in
                      (line.split(" ", 1) for line in done.stdout.splitlines())), reverse=True)
    return rows, objects


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--top", type=int, default=15,
                        help="other modules to list, heaviest self time first")
    args = parser.parse_args(argv)

    rows, objects = measure()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ours = [row for row in rows if row[2].partition(".")[0] == "scenforge"]
    others = sorted((row for row in rows if row[2].partition(".")[0] != "scenforge"),
                    reverse=True)[:args.top]
    print(f"{'self us':>9} {'cumul us':>9}  module")
    for self_us, cumulative_us, name in ours:
        print(f"{self_us:9d} {cumulative_us:9d}  {name}")
    print(f"{sum(row[0] for row in ours):9d} {'':9}  (scenforge, self total)")
    print(f"\nheaviest {len(others)} of {len(rows) - len(ours)} other modules by self time:")
    for self_us, cumulative_us, name in others:
        print(f"{self_us:9d} {cumulative_us:9d}  {name}")
    print(f"\n{sum(row[0] for row in rows):9d} {'':9}  "
          "(every row, self total, interpreter start-up included)")
    print(f"ru_maxrss after the import: {peak_kb / 1024:.2f} MB")
    if not objects:
        print("\nshared objects: skipped, no /proc/self/smaps on this platform")
        return 0
    print(f"\n{len(objects)} shared objects mapped, by resident kB:")
    for kb, path in objects:
        print(f"{kb:9d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
