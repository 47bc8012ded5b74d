"""Provenance maps and per-field accuracy pinned across changes to the field walk.

`normalize` tags every field of a resolved spec and `evaluate.compare_specs`
scores every field of a spec pair.  These digests were recorded before both
were rewritten over `dsl.field_values`; a changed digest means a field
gained, lost or changed its tag or its score.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from scenforge import dsl, normalize
from scenforge.digests import canonical_json
from scenforge.evaluate import compare_specs

from .conftest import FIXTURES, load_spec

# A lenient document: synonyms, a folded sign, a `not_mentioned` sign and
# time, and open speeds, models and heading relations.
LENIENT = """\
scenario_id: lenient
environment: {weather: Clear, time_of_day: not_mentioned}
road_network: {road_type: Straight, number_of_ways: 2, number_of_lanes: 2,
               road_markers: not_mentioned,
               traffic_signs: [Speed Limit Sign, not_mentioned], speed_limit_value: 15}
actors:
  ego: {actor_type: car, behavior: Go Forward}
  npcs:
    - {actor_id: npc_1, actor_type: truck, behavior: go_forward,
       position: {spatial_relation: In Front}}
    - {actor_id: npc_2, actor_type: car, behavior: stop, speed_mps: 4,
       position: {reference: npc_1, spatial_relation: behind, heading_relation: same_direction}}
oracle:
  - {rule: CVC_21460, violation_type: lane_crossing, description: "crossed"}
"""

# SHA-256 of canonical_json(provenance) of `normalize_document(text, seed=0)`
# for every fixture and accuracy-corpus document, and for LENIENT.
PINNED_PROVENANCE_SHA256 = {
    "accuracy/case00.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case00.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case01.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case01.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case02.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case02.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case03.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case03.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case04.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case04.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case05.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case05.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case06.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case06.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case07.candidate.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case07.golden.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case08.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case08.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case09.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case09.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case10.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case10.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case11.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case11.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case12.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case12.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case13.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case13.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case14.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case14.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case15.candidate.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case15.golden.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case16.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case16.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case17.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case17.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case18.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case18.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case19.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case19.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case20.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case20.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case21.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case21.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case22.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case22.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case23.candidate.yaml":
        "4af3a1fba31e6a8d12f7b9c8ff97d0108caf458d98c95fad480e0a5460c5524f",
    "accuracy/case23.golden.yaml":
        "4af3a1fba31e6a8d12f7b9c8ff97d0108caf458d98c95fad480e0a5460c5524f",
    "accuracy/case24.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case24.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case25.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case25.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case26.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case26.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case27.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case27.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case28.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case28.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case29.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case29.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case30.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case30.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case31.candidate.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case31.golden.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case32.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case32.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case33.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case33.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case34.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case34.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case35.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case35.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case36.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case36.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case37.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case37.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case38.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case38.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case39.candidate.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case39.golden.yaml":
        "c78cd8eab4aaf3feec6f1aeec53820a7ec9c92e18cc1c687022dcc0e54122641",
    "accuracy/case40.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case40.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case41.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case41.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case42.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case42.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case43.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case43.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case44.candidate.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case44.golden.yaml":
        "7f0cc58a764162c000f032f71a17e3ad1ea957d5c7f6d5b3891dac7953d3db8e",
    "accuracy/case45.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case45.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case46.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case46.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case47.candidate.yaml":
        "4af3a1fba31e6a8d12f7b9c8ff97d0108caf458d98c95fad480e0a5460c5524f",
    "accuracy/case47.golden.yaml":
        "4af3a1fba31e6a8d12f7b9c8ff97d0108caf458d98c95fad480e0a5460c5524f",
    "accuracy/case48.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case48.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case49.candidate.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "accuracy/case49.golden.yaml":
        "329a322ad1cdaf2cdcecb0b1c3b9426588ced0b9756f13287da1ad03d425ed90",
    "lenient":
        "e6c4a97d2e7954ce4c6bc9f5550b9cc8fd3805daee5c8ddc31d142f498646c3b",
    "scenarios/curve.yaml":
        "282d76b4c5c647acedaa0d50ddf8dc744eadc092f466ca8fce70e243ecc44d88",
    "scenarios/intersection1.yaml":
        "3179b090ed5ae96a9fae24b514c3ae8c2097640a42bed7bd0ab2e15db69cb498",
    "scenarios/intersection2.yaml":
        "3179b090ed5ae96a9fae24b514c3ae8c2097640a42bed7bd0ab2e15db69cb498",
    "scenarios/straight1.yaml":
        "9fa0a671d25a2f9e162357287db4e67b74e5741c12bbac6dff5919f50ad950d0",
    "scenarios/straight2.yaml":
        "282d76b4c5c647acedaa0d50ddf8dc744eadc092f466ca8fce70e243ecc44d88",
    "scenarios/t_intersection.yaml":
        "1babfc3fea55beb5a282001051b907bb00c555e5645725bcd5ae0eb548649268",
}

# SHA-256 of canonical_json(per_field) of `compare_specs(candidate, golden)`
# for the accuracy corpus's pairs and the edge pairs below.
PINNED_PER_FIELD_SHA256 = {
    "case00":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case01":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case02":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case03":
        "32186e2fbece6343bf539e5b919bbb0ff2e7e51f440703986d7419ab7bad9a03",
    "case04":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case05":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case06":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case07":
        "42183529216149c0e276bc5e2fd1aa493117797b4a8c1e24c70839029b897326",
    "case08":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case09":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case10":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case11":
        "a08ddba65f81636eecad063501130a31bcdceb24212828d89fbfb3c0d9e939a9",
    "case12":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case13":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case14":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case15":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case16":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case17":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case18":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case19":
        "aff12d1d37990cca1f0ba827be2ca851deb0450ff2b74404f1bcd313efa95183",
    "case20":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case21":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case22":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case23":
        "93e4a54fc58a5f0e301af0145a8a30bce5e10b44693e5bef90bc5b86e0ee82b9",
    "case24":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case25":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case26":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case27":
        "6e2eb3a86b489b950e080222c2a92cf13aaaefa1270606e993e4bf59734a55dc",
    "case28":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case29":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case30":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case31":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case32":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case33":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case34":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case35":
        "32186e2fbece6343bf539e5b919bbb0ff2e7e51f440703986d7419ab7bad9a03",
    "case36":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case37":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case38":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case39":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case40":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case41":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case42":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case43":
        "aff12d1d37990cca1f0ba827be2ca851deb0450ff2b74404f1bcd313efa95183",
    "case44":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case45":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case46":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case47":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case48":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "case49":
        "ff8965732d576948ac078cf91195f158e813b37bf6fc878c35d1e85b6cd7f41c",
    "extra-npc":
        "53929d79098aa7380aa07431a693519664062b4b70b3904d3107712b5793e4e8",
    "extra-oracle-entry":
        "b676bafa7181e8d95491276b8ee18b71d41d6fc34a28e04b1a3a81a6bf73bac7",
    "fewer-signs":
        "6ae5df4005313bbffcac48a51eec57b0a913415cf5706357791b2ba61c47b93c",
    "heading-open-on-both-sides":
        "6ebed47ae5bfa10fd3c9d204ca15acd6471f050483fda451b220cf8c7a691559",
    "heading-open-on-one-side":
        "1739775316d81b3b64e7f2669cf16f8f971b84ebc47fd8f80d4841dd0ac52a3b",
    "missing-npc":
        "53929d79098aa7380aa07431a693519664062b4b70b3904d3107712b5793e4e8",
    "missing-oracle-entry":
        "b676bafa7181e8d95491276b8ee18b71d41d6fc34a28e04b1a3a81a6bf73bac7",
    "more-signs":
        "6ae5df4005313bbffcac48a51eec57b0a913415cf5706357791b2ba61c47b93c",
}


def _sha256(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _documents() -> dict[str, str]:
    paths = sorted((FIXTURES / "scenarios").glob("*.yaml")) + \
        sorted((FIXTURES / "accuracy").glob("*.yaml"))
    texts = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
             for path in paths}
    return {**texts, "lenient": LENIENT}


def _corpus_pairs() -> dict[str, tuple[dsl.ScenarioSpec, dsl.ScenarioSpec]]:
    pairs = {}
    for candidate_path in sorted((FIXTURES / "accuracy").glob("*.candidate.yaml")):
        golden_path = candidate_path.with_name(
            candidate_path.name.replace(".candidate.", ".golden."))
        pairs[candidate_path.name.removesuffix(".candidate.yaml")] = (
            dsl.parse_dsl(candidate_path.read_text(encoding="utf-8")),
            dsl.parse_dsl(golden_path.read_text(encoding="utf-8")))
    return pairs


def _edge_pairs() -> dict[str, tuple[dsl.ScenarioSpec, dsl.ScenarioSpec]]:
    golden = load_spec("intersection-1")
    replace = dataclasses.replace
    no_npc = replace(golden, actors=replace(golden.actors, npcs=()))
    extra_entry = replace(golden, oracle=golden.oracle + (golden.oracle[0],))
    npc = golden.actors.npcs[0]
    open_heading = replace(golden, actors=replace(golden.actors, npcs=(
        replace(npc, position=replace(npc.position, heading_relation=None)),)))
    more_signs = replace(golden, road_network=replace(
        golden.road_network, traffic_signs=("stop_sign", "traffic_light", "speed_limit_sign"),
        speed_limit_value=12.0))
    return {
        "missing-npc": (no_npc, golden),
        "extra-npc": (golden, no_npc),
        "extra-oracle-entry": (extra_entry, golden),
        "missing-oracle-entry": (golden, extra_entry),
        "heading-open-on-both-sides": (open_heading, open_heading),
        "heading-open-on-one-side": (open_heading, golden),
        "more-signs": (more_signs, golden),
        "fewer-signs": (golden, more_signs),
    }


def _all_pairs() -> dict[str, tuple[dsl.ScenarioSpec, dsl.ScenarioSpec]]:
    return {**_corpus_pairs(), **_edge_pairs()}


def test_the_pins_cover_every_document_and_pair():
    assert set(PINNED_PROVENANCE_SHA256) == set(_documents())
    assert len(_corpus_pairs()) == 50
    assert set(PINNED_PER_FIELD_SHA256) == set(_all_pairs())


@pytest.mark.parametrize("name", sorted(PINNED_PROVENANCE_SHA256))
def test_provenance_is_pinned(name):
    result = normalize.normalize_document(_documents()[name], seed=0)
    assert isinstance(result, normalize.NormalizedSpec)
    assert _sha256(result.provenance) == PINNED_PROVENANCE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PINNED_PER_FIELD_SHA256))
def test_per_field_accuracy_is_pinned(name):
    candidate, golden = _all_pairs()[name]
    assert _sha256(compare_specs(candidate, golden).per_field) == PINNED_PER_FIELD_SHA256[name]
