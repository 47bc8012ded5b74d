"""Trace bytes pinned across changes to the simulator and the trace writer.

Criterion 3 compares two runs of the same code, so a writer that is wrong
the same way in every run passes it.

`PINNED_TRACE_SHA256` guards `simulate`: its digests were recorded with the
dict-per-frame writer of trace format 1, and are computed through the
test-side copy of that writer, so they move only when a simulated float,
lane or signal state moves.  `PINNED_FORMAT2_TRACE_SHA256` was recorded from
the format-2 writer that format 3 replaced, and is computed through its
test-side copy, so it moves only when a simulated value moves at 6
significant digits.  `PINNED_FORMAT3_TRACE_SHA256` was recorded from the
format-3 writer that format 4 replaced, and is computed through its
test-side copy.  `PINNED_FORMAT4_TRACE_SHA256` guards the trace files: the
bytes `sim.trace_to_jsonl` writes in format 4.
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import sampling, sim

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template
from .reference_traces import exact, format1_to_jsonl, format2_to_jsonl, format3_to_jsonl

SEEDS = range(50)

# SHA-256 of format1_to_jsonl(trace) over SEEDS, one digest per document.
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

# SHA-256 of format2_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT2_TRACE_SHA256 = {
    "straight-1": "14c2446253f0a0a03d4165cd4bd57ae1d5881eba2e420919e0b53fbc8474eb27",
    "straight-2": "24620d40a56f1a9ea627d14dea1ed8f53e1c85ff2aed3aa12c219712481dbb9e",
    "intersection-1": "319567296a739386f66d10038dde1628e20fc2a94b6d2de02d877e93f917596c",
    "intersection-2": "83d34b0f3405bc68839acc5f99b6c9ab4a91c0df120d4c472d38dc0d93153d2c",
    "t-intersection": "cc0ba7a82bdf099a8bde1bdd87451bf59fd8a90c13eb7be30d4099b16fcb0607",
    "curve": "e19e6d55d3ebc2cdba9c3760306747e81af2b06a9897eec881246755997a39e7",
    "intersection-1-multi": "54c993a6e34a5c52fe201717ea74e39c293d7962d18539f9d81eec7731ae1e5f",
    "curve-multi": "ed2969f335617d4777e34447639c6be80038f6087f3cfc014d79bc66d2ac099b",
}

# SHA-256 of format3_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT3_TRACE_SHA256 = {
    "straight-1": "95cea2c45d5b4d99ba66236ffc4f6cc89b68adc5602a291ebbadbe29f99bccc4",
    "straight-2": "9fa6676c992c052f842a300ee0a56222e2ed18a7263fd21755e92868db5599d3",
    "intersection-1": "90a3efad962d2acb6c38be04887dda5af9f50ebb95d24dace254e719d9d28fd5",
    "intersection-2": "5c54052f99171fe98a5232d87e1db792df7d762b9f1aad86481eccda2a3d2411",
    "t-intersection": "701f9a99171e090e8b4729ab78091eeb122fb807e9a074ca3fbcc2fc5fe6f913",
    "curve": "2e8268fae12dd046db1180dea7548bf13d55793543b62c506a3e45362999119d",
    "intersection-1-multi": "07f9885d559d851734176395e2fbfa5517a3c1a326684618464751a57367084e",
    "curve-multi": "de9faf5e7c2165296ef15eaccc9bc873d002c264f4ebf22aae0dc39a20f8e8f7",
}

# SHA-256 of sim.trace_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT4_TRACE_SHA256 = {
    "straight-1": "50d4f3dd5c16b1aaa640f2605d7430a17e1e64d50f8798917ff053656d7c5e3a",
    "straight-2": "1597ae27e8fc8e829da59da19747bd53958a7d301293b862334cb7a2adcbff16",
    "intersection-1": "1b7c70d2a9a8e0df42f1a96e2a9b17726ae81f91d6e4273afc7e015d6a58a033",
    "intersection-2": "b621b48946615675f2c5897ff36a378e169eca485022fde0bf1ee7fe1e718e88",
    "t-intersection": "aa99357aea268562a6a180e400f35c655885c41ffacc0909964efbd0bc7b4e87",
    "curve": "c721a81b06f0b245c20b3589fc6d32557bf0213286072a4e480244b10ac0bb31",
    "intersection-1-multi": "b073c4854bc64a7ff0c6a758c2540be3a63547678e345a717747672378d8b461",
    "curve-multi": "b50b672a4854704b1df30e34f4ddecebfed6dbdfc8c13288ea533e48a42f0c18",
}


def _traces(name: str):
    template = load_document_template(name)
    geometry = sim.build_geometry(template)
    for seed in SEEDS:
        yield sim.simulate(sampling.sample_instance(template, seed), geometry)


def _trace_digest(name: str, write) -> str:
    digest = hashlib.sha256()
    for trace in _traces(name):
        digest.update(write(trace).encode("utf-8"))
    return digest.hexdigest()


def test_pins_cover_every_fixture_and_both_multi_actor_documents():
    assert set(PINNED_TRACE_SHA256) == set(EXPECTED_RULE_COUNTS) | set(MULTI_ACTOR_DOCUMENTS)
    assert set(PINNED_FORMAT2_TRACE_SHA256) == set(PINNED_TRACE_SHA256)
    assert set(PINNED_FORMAT3_TRACE_SHA256) == set(PINNED_TRACE_SHA256)
    assert set(PINNED_FORMAT4_TRACE_SHA256) == set(PINNED_TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(PINNED_TRACE_SHA256))
def test_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format1_to_jsonl) == PINNED_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT2_TRACE_SHA256))
def test_format2_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format2_to_jsonl) == PINNED_FORMAT2_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT3_TRACE_SHA256))
def test_format3_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format3_to_jsonl) == PINNED_FORMAT3_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT4_TRACE_SHA256))
def test_format4_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, sim.trace_to_jsonl) == PINNED_FORMAT4_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT3_TRACE_SHA256))
def test_format3_trace_reads_back_as_the_format2_round_trip(name):
    """A format-3 file reads back to the bits of a format-2 round trip."""
    for trace in _traces(name):
        assert exact(sim.trace_from_jsonl(format3_to_jsonl(trace))) == exact(
            sim.trace_from_jsonl(format2_to_jsonl(trace)))


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT4_TRACE_SHA256))
def test_format4_trace_reads_back_as_the_format3_round_trip(name):
    """The format-4 text reads back to the bits of a format-3 round trip, signs
    of zero included, and writes back to itself."""
    for trace in _traces(name):
        text = sim.trace_to_jsonl(trace)
        reloaded = sim.trace_from_jsonl(text)
        assert exact(reloaded) == exact(sim.trace_from_jsonl(format3_to_jsonl(trace)))
        assert sim.trace_to_jsonl(reloaded) == text
