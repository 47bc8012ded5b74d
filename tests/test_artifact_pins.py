"""Template, geometry and instance-manifest bytes pinned across codec changes.

The template JSON file, the template and geometry digests and the
instance manifest are what later stages and later runs read back.  These
digests were recorded before the hand-written `to_dict`/`from_dict` pairs
were replaced by `digests.to_data`/`from_data`; any change to them means
an artifact format changed.  The manifest digests were re-recorded when
manifest lines dropped their `fixed` member, a copy of the template's
`fixed_parameters`.
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import cli, dsl, sampling, sim

from .conftest import (
    EXPECTED_RULE_COUNTS,
    MULTI_ACTOR_DOCUMENTS,
    SCENARIO_FILES,
    load_document_template,
    load_multi_actor_spec,
)

MANIFEST_SEEDS = 50

# SHA-256 of: the template file `scenforge synth` writes, template.digest(),
# the geometry's digest() and write_manifest over MANIFEST_SEEDS instances.
PINNED_ARTIFACT_SHA256 = {
    "curve": (
        "d2b508c983656429f981bdb2ec86013e94fe5fe730edaf243ff620adc2bd8872",
        "e8bcd34e912c1f828ecc207a1452d9e8658864e937390ce3e7c71864f95f28ea",
        "0bd4ecf205914d6ff71e21263372bdb3569fa4bf02c42e5cf6580da050d39439",
        "069b3307d9de2d35451cc574b83ff755fe416c6183b9d9818f92201f10603bb4",
    ),
    "curve-multi": (
        "cf4c17873653494ebb2103031a13f1dbf76be5af9067dede350c909540ba2b2d",
        "bbe61b8e5e1c32f743ab389db1ccfc4574c552acd909cee8a69cc77fed9503e8",
        "3e8b13e1099287ee85e4b78942d018d12dbb54c6ee826b7531cfc304145d06f3",
        "2448972e26476d7e71be3e7d450986a73d873fe455a8e37e631b5b3b21110701",
    ),
    "intersection-1": (
        "ecbf7f98e6c909c5b72ddcffa12b96541cfe4de75b1956437b38a2c12a7ce13f",
        "90b46f08afe4e906dc867a9449be0a52a3748cef860f1c36dfcabe213c694ddb",
        "1b54207910c8f98b0b21de3d1243b7f35bb8f761d3c72ce499d2bf207d9ae117",
        "61e882b38acfcefd073aefc931d7db1e6c4a6dc2a67c67f27511ac60ffc4d857",
    ),
    "intersection-1-multi": (
        "b74315ae0d1e12ecfa8afd1ae78da58308f581ce572c40d6479d7f51b47aa378",
        "b4830e23de231d6f538afa0bec22db87f766f57b1b1c5fdb0e9f373620e9e087",
        "0197abfa82a144ee40fb864b2319cb910b8fc4febc6bb4bf8b05b9cca0f6988d",
        "e023c9854377390989a049715698893becbcdc50d06842f2ee34a0fa1ae5bfa8",
    ),
    "intersection-2": (
        "1ba55ad37738dd2ac7838eb8d86fb64b325ca0c87154540faa2187ff5f12b5e8",
        "acce44979106bc747bd426ad74d28636ec2358c8d5084e5e61c65cf6525ed5aa",
        "d68cc6fc4b21b3364d71eb33607159b0981ab570352256c2b96d64bde220573e",
        "85190ca9c3c3607c8355ce6ab2aaf34a91ee4d7b0f3beff3093c338552d0dd72",
    ),
    "straight-1": (
        "9f62469e0ef56060a9390c6182a1b33b1febaf0e5d833cd7b56058d7cbe904c2",
        "0caf19772a7735de0d7a06b1bee51932bb5eb2e3bc8426884978495a97b2cbfe",
        "a9936eeb1522b7085296c856cd30b22e53f0076cc1f7e2e8094e8576854c32c3",
        "6d4d5862d76a4389367a774ce0e0c4116d5474ee12ee8222fdc124c7c6545d5e",
    ),
    "straight-2": (
        "76f94a7d5326f80792c124ac9847eaa7d457dc2e483568c064d664055f5223ae",
        "b4ef82aec3604acadf7716c6670fc746509147ff1012660f791100087f427f72",
        "0b4da07009bf5463e2d7056581d7807c44ea1288b18e2d0583ec35b51ae23aca",
        "3c9964b0ee0cefa23e112e4d328446fa2cb5321b572e9a27dfd4ec50ba7cfbb8",
    ),
    "t-intersection": (
        "7a6a74ab656672ac6b13c05f3412080114d238010f496c90a0228b7fabd994cc",
        "5c1cef6b65da51218a20006efda65da1732a149167e1bfa3697508b97ce2cf2f",
        "fc237dd7e1cf608d726dc8671ca0de349c9df468c9f3b0d00dd347d9d0cbdd94",
        "10bf2c0fced2d3d8e7ec24151f4062d4dc30d4d3984066da4cf45522b1003311",
    ),
}


def _template_file_text(name: str, tmp_path) -> str:
    if name in MULTI_ACTOR_DOCUMENTS:
        document = tmp_path / f"{name}.yaml"
        document.write_text(dsl.serialize_dsl(load_multi_actor_spec(name.removesuffix("-multi"))),
                            encoding="utf-8")
    else:
        document = SCENARIO_FILES[name]
    assert cli.main(["synth", str(document), "--out", str(tmp_path)]) == cli.EXIT_OK
    (written,) = tmp_path.glob("*.template.json")
    return written.read_text(encoding="utf-8")


def _artifact_digests(name: str, tmp_path) -> tuple[str, ...]:
    template = load_document_template(name)
    template_text = _template_file_text(name, tmp_path)
    manifest = sampling.write_manifest(sampling.sample_batch(template, MANIFEST_SEEDS))
    return tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (
        template_text, template.digest(), sim.build_geometry(template).digest(), manifest))


def test_pins_cover_every_fixture_and_both_multi_actor_documents():
    assert set(PINNED_ARTIFACT_SHA256) == set(EXPECTED_RULE_COUNTS) | set(MULTI_ACTOR_DOCUMENTS)


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACT_SHA256))
def test_artifact_bytes_match_pinned_digests(name, tmp_path):
    assert _artifact_digests(name, tmp_path) == PINNED_ARTIFACT_SHA256[name]
