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
test-side copy.  These three were recorded again when format 5 dropped the
`lat` column, with `lat` left out of each writer; on the simulator from
before format 5, the same writers give the same digests.

`PINNED_FORMAT4_TRACE_SHA256` holds the bytes that `sim.trace_to_jsonl` wrote
in format 4, `lat` included.  The test-side format-4 writer, given the
offsets of the full lane search, still writes them, so its files stand for
the format-4 files that earlier runs left.  `PINNED_FORMAT5_TRACE_SHA256`
guards the trace files: the bytes `sim.trace_to_jsonl` writes in format 5.
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import sampling, sim

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template
from .reference_traces import (exact, format1_to_jsonl, format2_to_jsonl, format3_to_jsonl,
                               format4_to_jsonl, lane_offsets)

SEEDS = range(50)

# SHA-256 of format1_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_TRACE_SHA256 = {
    "straight-1": "a599334df578f2aad4d7859b74b0680d50944a7726acb5a9f94b6471892626c7",
    "straight-2": "4c73777eb5bad366c06881a00be0612cce0b753ab32955374c6ea0e5b9b11954",
    "intersection-1": "e4485d65c7b59546a7e1617557f49301d3cb31bec23d77797d96212d5a7ae1eb",
    "intersection-2": "66245f6a2d30bcdb3be292257179810999c887fb7c0e341cdcb8db13c699e323",
    "t-intersection": "11d1d77222d74b91fcbf134e3912bd25ab61c736304bff81dc36ab5e5e02cda6",
    "curve": "eed9ff44ad810f8fb6b038091b835749de69973447f391ae5060cfc0e0fa409c",
    "intersection-1-multi": "67cff2cde3f327e8d3162650a3643c00e86b6bc6e4056398b9c5b51168f29c98",
    "curve-multi": "1c30343eb04239350cf2d5e7bb91fe72b097a0eeea7304c90509373add28e7ff",
}

# SHA-256 of format2_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT2_TRACE_SHA256 = {
    "straight-1": "0ac8b3cef948200a650ff673419393f8733d8122e9df6be42636c28a54830101",
    "straight-2": "7463a93cd9b3af27777ba58df05b12c992068c4dc2767b4423cf58903e4d17b0",
    "intersection-1": "ddb0f06045d0bba1018d911c123df45028d3502abc692699af9db196cee01b2a",
    "intersection-2": "078bfc08d9eb94afd1e665a950f49d7a16cc5702c43e473a0b75e8d82d68b99c",
    "t-intersection": "cc24c20b5f2ed1f95aa963d0f532adcd454ffb570547bd2e8659183015638d78",
    "curve": "608ebe408f7b9119b2b1c513b5c5a8e91a40a48f378a2fcf3acc0edaad2378c6",
    "intersection-1-multi": "cb6b529b9923c025618d5e16d859079468f27d631c04cd4811b191a8672cfbb9",
    "curve-multi": "efe769adffd5c46c9870738be0fd32efc188f5538ba339a6afc8ea6262183d87",
}

# SHA-256 of format3_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT3_TRACE_SHA256 = {
    "straight-1": "4c53ecd48cc84484e29636eb72bba7b94c91475188d7350b64fb7a49e94e95cc",
    "straight-2": "839e48cacd4f4e681a77c3cf124d2d758f2e8beaf5f7fa8381e4a4c282bc3612",
    "intersection-1": "fbd641921a531f6fb1ac59503a2372ee5d6a8527479629b3ab8207c02b23aadc",
    "intersection-2": "4378a994c1de3c5a3f7095525dd2d21a401db9a55d6c4757e347c414df6a4d1f",
    "t-intersection": "49b30ee6e2fa25547688bba900db870af6a719722c6e243ff03de4af8040395f",
    "curve": "7d7a683ec30da8ac8d3e658066292cd45ecd300d4025f8e733c4e27a17446cd6",
    "intersection-1-multi": "e954af68b824714b44451f562488836b6463adf5b0bc2a4fe53890fa8ad4471d",
    "curve-multi": "4873a1d4f242530dd6fecc28a0f0242c00b05b2355c98d20e1d5e56f1f8b914c",
}

# SHA-256 of format4_to_jsonl(trace, lane_offsets(trace, geometry)) over SEEDS, one
# digest per document.
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

# SHA-256 of sim.trace_to_jsonl(trace) over SEEDS, one digest per document.
PINNED_FORMAT5_TRACE_SHA256 = {
    "straight-1": "191c29fae00036c093e0e9569f670c8295afc449c335cca2666af5ec9447daea",
    "straight-2": "61ffb978f4c073e288a8b032a595c7f5d4fa4240179e94e3a88fe4a49389100f",
    "intersection-1": "04dd8f4fe88ac8de5a7014cbfd45c396911b15984440ead9141adf40b2e614a2",
    "intersection-2": "7f12d777f6900bb069209c2c34769215690e4cf7259a394d6c285a22bab6261f",
    "t-intersection": "299930b1449fa1026e40471102719ee6fd84c479916a07c14f0732bb37f9d95d",
    "curve": "fada4d7ad4ecf841b78e7e59fde0b0be3a73fc397f98ff7a0f978cc7fd8ed474",
    "intersection-1-multi": "e9bfcf6f4d8ed9f58b18eee2c0de41cef66d30152a84c87ef283ae6d3bc3449b",
    "curve-multi": "02c0ca5ec014eab87ff62ad6e536f697fc72debfd8d29945401fa997c1814aaf",
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
    assert set(PINNED_FORMAT5_TRACE_SHA256) == set(PINNED_TRACE_SHA256)


@pytest.mark.parametrize("name", sorted(PINNED_TRACE_SHA256))
def test_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format1_to_jsonl) == PINNED_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT2_TRACE_SHA256))
def test_format2_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format2_to_jsonl) == PINNED_FORMAT2_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT3_TRACE_SHA256))
def test_format3_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, format3_to_jsonl) == PINNED_FORMAT3_TRACE_SHA256[name]


def _format4_writer(name: str):
    """The test-side format-4 writer, with the `lat` column that `simulate` gave."""
    geometry = sim.build_geometry(load_document_template(name))
    return lambda trace: format4_to_jsonl(trace, lane_offsets(trace, geometry))


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT4_TRACE_SHA256))
def test_format4_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, _format4_writer(name)) == PINNED_FORMAT4_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT5_TRACE_SHA256))
def test_format5_trace_bytes_match_pinned_digest(name):
    assert _trace_digest(name, sim.trace_to_jsonl) == PINNED_FORMAT5_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT3_TRACE_SHA256))
def test_format3_trace_reads_back_as_the_format2_round_trip(name):
    """A format-3 file reads back to the bits of a format-2 round trip."""
    for trace in _traces(name):
        assert exact(sim.trace_from_jsonl(format3_to_jsonl(trace))) == exact(
            sim.trace_from_jsonl(format2_to_jsonl(trace)))


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT5_TRACE_SHA256))
def test_format5_trace_reads_back_as_the_format3_round_trip(name):
    """The format-5 text reads back to the bits of a format-3 round trip, signs
    of zero included, and writes back to itself; no actor line holds `lat`."""
    for trace in _traces(name):
        text = sim.trace_to_jsonl(trace)
        reloaded = sim.trace_from_jsonl(text)
        assert exact(reloaded) == exact(sim.trace_from_jsonl(format3_to_jsonl(trace)))
        assert sim.trace_to_jsonl(reloaded) == text
        assert '"lat"' not in text


@pytest.mark.parametrize("name", sorted(PINNED_FORMAT4_TRACE_SHA256))
def test_a_format4_trace_reads_back_as_its_format5_rewrite(name):
    """A format-4 file as `simulate` wrote it, `lat` included, reads back to the
    bits of the format-5 file, which it writes back as."""
    write4 = _format4_writer(name)
    for trace in _traces(name):
        text = sim.trace_to_jsonl(trace)
        older = sim.trace_from_jsonl(write4(trace))
        assert exact(older) == exact(sim.trace_from_jsonl(text))
        assert sim.trace_to_jsonl(older) == text
