"""Trace bytes pinned across changes to the simulator and the trace writer.

Criterion 3 compares two runs of the same code, so a writer that is wrong
the same way in every run passes it.  These digests were recorded with the
dict-per-frame writer that `sim.trace_to_jsonl` replaced; any change to
them means the trace files changed.
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import sampling, sim

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template

SEEDS = range(50)

# SHA-256 of sim.trace_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_TRACE_SHA256 = {
    "straight-1": "3ca88d5e00f4c6b0261f41a08a62d297c5a0a79651c156ab2f9d7185ee8cb0a7",
    "straight-2": "c98cac422edb79b87e74f734a2dfb71e5d8fdc21db48e474db6bfcaf63e3237f",
    "intersection-1": "7a858648df46e07673cbbd2bd3119a931b35a564f5e8f0dbed9437571dca5b24",
    "intersection-2": "e75fe746e3757f516c1e3789ec31fbb3132b5b7a55e52e4f73525557ba447935",
    "t-intersection": "4c1ddf467185506a70f2a0896ecb198d55ab29900f6277ebee400945b05678ab",
    "curve": "574ed5cb6f013930c0c4049094c43f0da7b2b4bcde7b73b00363b45035219598",
    "intersection-1-multi": "01f282b81109d92671b52034f049f3b82289382d99b5539e87cafa2abaf0604f",
    "curve-multi": "49d0f83c260560aed48bebfb43367d848684bcee3f97496eb4c0e774b7427fde",
}


def _trace_digest(name: str) -> str:
    template = load_document_template(name)
    geometry = sim.build_geometry(template)
    digest = hashlib.sha256()
    for seed in SEEDS:
        trace = sim.simulate(sampling.sample_instance(template, seed), geometry)
        digest.update(sim.trace_to_jsonl(trace).encode("utf-8"))
    return digest.hexdigest()


def test_pins_cover_every_fixture_and_both_multi_actor_documents():
    assert set(PINNED_TRACE_SHA256) == set(EXPECTED_RULE_COUNTS) | set(MULTI_ACTOR_DOCUMENTS)


@pytest.mark.parametrize("name", sorted(PINNED_TRACE_SHA256))
def test_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name) == PINNED_TRACE_SHA256[name]
