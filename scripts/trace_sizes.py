#!/usr/bin/env python3
"""Mean bytes of a trace file, and of each column key in it, as `pipeline` writes them.

Each document (by default the six fixtures under fixtures/scenarios/) is
normalized with `--seed`, and `--samples` instances from seed `--seed` on are
simulated and written with `sim.trace_to_jsonl`, as `scenforge pipeline
--seed N --samples M` does.  The table gives the mean bytes per trace of the
header line, of each key's `"key":value` members over all lines, and of the
braces, commas and newlines around them; the rows add up to the total.

Run from the repository root:

    PYTHONPATH=src python scripts/trace_sizes.py [DOCUMENT ...] [--seed N] [--samples N]
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from pathlib import Path

from scenforge import normalize, sampling, sim, synth
from scenforge.digests import canonical_json

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((REPO_ROOT / "fixtures" / "scenarios").glob("*.yaml"))
PUNCTUATION = "(braces, commas, newlines)"


def trace_texts(document: Path, seed: int, samples: int):
    spec = normalize.normalize_document(document.read_text(encoding="utf-8"), seed)
    if isinstance(spec, list):
        raise SystemExit(f"{document}: " + "; ".join(f"{i.path}: {i.message}" for i in spec))
    template = synth.build_template(spec)
    geometry = sim.build_geometry(template)
    for instance in sampling.sample_batch(template, samples, seed):
        yield sim.trace_to_jsonl(sim.simulate(instance, geometry))


def add_sizes(text: str, sizes: collections.Counter) -> None:
    """Adds the bytes of each part of one trace text to `sizes`."""
    header, *lines = text.split("\n")
    sizes["header"] += len(header) + 1
    for line in filter(None, lines):
        members = {key: len(canonical_json({key: value})) - 2
                   for key, value in json.loads(line).items()}
        sizes.update(members)
        sizes[PUNCTUATION] += len(line) + 1 - sum(members.values())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("documents", nargs="*", type=Path, default=FIXTURES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=100)
    args = parser.parse_args(argv)

    sizes: collections.Counter = collections.Counter()
    total = traces = 0
    for document in args.documents:
        for text in trace_texts(document, args.seed, args.samples):
            add_sizes(text, sizes)
            total += len(text)
            traces += 1
    assert sum(sizes.values()) == total
    print(f"{traces} traces: {len(args.documents)} documents x {args.samples} samples "
          f"from seed {args.seed}, trace format {sim.TRACE_FORMAT}")
    print(f"{'bytes per trace':>28} {total / traces:10.1f}")
    for key, size in sizes.most_common():
        print(f"{key:>28} {size / traces:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
