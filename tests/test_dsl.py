from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import dsl

from .conftest import SCENARIO_FILES, load_spec


MINIMAL_DOC = """\
scenario_id: demo
environment:
  weather: sunny
  time_of_day: daytime
road_network:
  road_type: straight
  number_of_ways: 2
  number_of_lanes: 1
  road_markers: solid_line
actors:
  ego:
    actor_type: car
    behavior: go_forward
  npcs:
    - actor_id: npc_1
      actor_type: car
      behavior: go_forward
      position:
        spatial_relation: front
        heading_relation: opposite_direction
oracle:
  - rule: CVC_21460
    violation_type: opposite_lane_crossing
    description: "crossed into the opposing lane"
"""


def test_parse_minimal_document():
    spec = dsl.parse_dsl(MINIMAL_DOC)
    assert isinstance(spec, dsl.ScenarioSpec)
    assert spec.environment.weather == "sunny"
    assert spec.environment.time_of_day == "daytime"
    assert spec.road_network.road_type == "straight"
    assert spec.road_network.number_of_ways == 2
    assert spec.road_network.number_of_lanes == 1
    assert spec.actors.ego.behavior == "go_forward"
    npc = spec.actors.npcs[0]
    assert npc.position.spatial_relation == "front"
    assert npc.position.heading_relation == "opposite_direction"
    assert npc.position.reference == "ego"
    assert spec.oracle[0].rule_id == "21460"
    # violating_actor defaults to the first npc
    assert spec.oracle[0].violating_actor == "npc_1"



@pytest.mark.parametrize("scenario_id", [".", "..", "/home/user", "a/../b", ".hidden",
                                         "a b", "a.b", ""])
def test_scenario_id_must_be_one_safe_path_component(scenario_id):
    document = MINIMAL_DOC.replace("scenario_id: demo", f"scenario_id: {scenario_id!r}")
    issues = dsl.parse_dsl(document)
    assert [(issue.path, issue.kind) for issue in issues] == [("/scenario_id", dsl.INCONSISTENT)]


@pytest.mark.parametrize("scenario_id", ["demo", "straight-1", "acc_case_7", "A-1"])
def test_scenario_ids_of_letters_digits_dash_and_underscore_parse(scenario_id):
    document = MINIMAL_DOC.replace("scenario_id: demo", f"scenario_id: {scenario_id}")
    assert dsl.parse_dsl(document).scenario_id == scenario_id

def test_empty_document_reports_all_missing_sections():
    issues = dsl.parse_dsl("")
    assert isinstance(issues, list)
    assert [(i.path, i.kind) for i in issues] == [
        ("/actors", dsl.MISSING_SECTION),
        ("/environment", dsl.MISSING_SECTION),
        ("/oracle", dsl.MISSING_SECTION),
        ("/road_network", dsl.MISSING_SECTION),
    ]


def test_invalid_weather_enum_lists_all_tokens():
    issues = dsl.parse_dsl(MINIMAL_DOC.replace("weather: sunny", "weather: plasma"))
    assert isinstance(issues, list)
    issue = next(i for i in issues if i.path == "/environment/weather")
    assert issue.kind == dsl.INVALID_ENUM
    assert issue.allowed == dsl.WEATHER_TOKENS
    assert len(issue.allowed) == 8


def test_unknown_top_level_key_is_strict_error():
    issues = dsl.parse_dsl(MINIMAL_DOC + "extra_section:\n  foo: 1\n")
    assert isinstance(issues, list)
    assert any(i.path == "/extra_section" and i.kind == dsl.UNKNOWN_FIELD for i in issues)


def test_unknown_nested_key_is_strict_error():
    doc = MINIMAL_DOC.replace("  time_of_day: daytime", "  time_of_day: daytime\n  humidity: low")
    issues = dsl.parse_dsl(doc)
    assert isinstance(issues, list)
    assert any(i.path == "/environment/humidity" and i.kind == dsl.UNKNOWN_FIELD for i in issues)


def test_malformed_markup_single_issue_at_root():
    issues = dsl.parse_dsl("environment: [unclosed\n  weather: {")
    assert isinstance(issues, list)
    assert len(issues) == 1
    assert issues[0].path == "/"


def test_non_mapping_document_rejected():
    issues = dsl.parse_dsl("- just\n- a\n- list\n")
    assert isinstance(issues, list)
    assert issues[0].path == "/"


def test_ego_with_position_rejected():
    doc = MINIMAL_DOC.replace(
        "    behavior: go_forward\n  npcs:",
        "    behavior: go_forward\n    position:\n      spatial_relation: front\n  npcs:")
    issues = dsl.parse_dsl(doc)
    assert isinstance(issues, list)
    assert any(i.path == "/actors/ego/position" for i in issues)


def test_speed_out_of_range():
    doc = MINIMAL_DOC.replace("behavior: go_forward\n  npcs:",
                              "behavior: go_forward\n    speed_mps: 50.0\n  npcs:")
    issues = dsl.parse_dsl(doc)
    assert isinstance(issues, list)
    assert any(i.kind == dsl.RANGE_VIOLATION and i.path == "/actors/ego/speed_mps" for i in issues)


def test_unsupported_rule_code():
    issues = dsl.parse_dsl(MINIMAL_DOC.replace("CVC_21460", "CVC_99999"))
    assert isinstance(issues, list)
    issue = next(i for i in issues if i.path == "/oracle/0/rule")
    assert issue.kind == dsl.INVALID_ENUM
    assert issue.allowed == dsl.KNOWN_RULE_IDS


@pytest.mark.parametrize("name", sorted(SCENARIO_FILES))
def test_fixture_round_trip(name):
    spec = load_spec(name)
    assert dsl.parse_dsl(dsl.serialize_dsl(spec)) == spec


def test_key_order_invariance_byte_identical():
    reordered = """\
oracle:
  - description: "crossed into the opposing lane"
    violation_type: opposite_lane_crossing
    rule: CVC_21460
actors:
  npcs:
    - position:
        heading_relation: opposite_direction
        spatial_relation: front
      behavior: go_forward
      actor_type: car
      actor_id: npc_1
  ego:
    behavior: go_forward
    actor_type: car
road_network:
  road_markers: solid_line
  number_of_lanes: 1
  number_of_ways: 2
  road_type: straight
environment:
  time_of_day: daytime
  weather: sunny
scenario_id: demo
"""
    a = dsl.parse_dsl(MINIMAL_DOC)
    b = dsl.parse_dsl(reordered)
    assert isinstance(a, dsl.ScenarioSpec) and isinstance(b, dsl.ScenarioSpec)
    assert dsl.serialize_dsl(a) == dsl.serialize_dsl(b)


def test_npc_order_preserved():
    spec = load_spec("straight-1")
    second = dsl.ActorSpec(
        actor_id="npc_2", actor_type="truck", behavior="static",
        position=dsl.PositionSpec("ego", "behind", "same_direction"))
    two = dsl.ScenarioSpec(
        scenario_id=spec.scenario_id,
        environment=spec.environment,
        road_network=spec.road_network,
        actors=dsl.ActorSet(ego=spec.actors.ego, npcs=spec.actors.npcs + (second,)),
        oracle=spec.oracle,
    )
    reparsed = dsl.parse_dsl(dsl.serialize_dsl(two))
    assert [n.actor_id for n in reparsed.actors.npcs] == ["npc_1", "npc_2"]


def test_validate_junction_way_consistency():
    spec = load_spec("intersection-1")
    assert dsl.validate_spec(spec) == []
    bad_road = dsl.RoadNetwork(
        road_type="t_intersection", number_of_ways=4,
        number_of_lanes=1, road_markers="not_mentioned",
        traffic_signs=("stop_sign",))
    bad = dsl.ScenarioSpec(spec.scenario_id, spec.environment, bad_road, spec.actors, spec.oracle)
    issues = dsl.validate_spec(bad)
    assert [(i.path, i.kind) for i in issues] == [
        ("/road_network/number_of_ways", dsl.INCONSISTENT)]


def test_validate_dangling_reference():
    spec = load_spec("straight-1")
    npc = spec.actors.npcs[0]
    ghost = dsl.ActorSpec(
        actor_id=npc.actor_id, actor_type=npc.actor_type, behavior=npc.behavior,
        speed_mps=npc.speed_mps,
        position=dsl.PositionSpec("ghost", "front", "opposite_direction"))
    bad = dsl.ScenarioSpec(
        spec.scenario_id, spec.environment, spec.road_network,
        dsl.ActorSet(ego=spec.actors.ego, npcs=(ghost,)), spec.oracle)
    issues = dsl.validate_spec(bad)
    assert any(i.path == "/actors/npcs/0/position/reference" and i.kind == dsl.INCONSISTENT
               for i in issues)


def test_validate_reference_cycle():
    spec = load_spec("straight-1")
    a = dsl.ActorSpec("npc_1", "car", "go_forward",
                      position=dsl.PositionSpec("npc_2", "front", "same_direction"))
    b = dsl.ActorSpec("npc_2", "car", "go_forward",
                      position=dsl.PositionSpec("npc_1", "front", "same_direction"))
    bad = dsl.ScenarioSpec(
        spec.scenario_id, spec.environment, spec.road_network,
        dsl.ActorSet(ego=spec.actors.ego, npcs=(a, b)), spec.oracle)
    issues = dsl.validate_spec(bad)
    assert any("cycle" in i.message for i in issues)


def test_validate_sign_limit_pairing():
    spec = load_spec("straight-1")
    road = dsl.RoadNetwork("straight", 2, 1, "solid_line", (), speed_limit_value=13.89)
    bad = dsl.ScenarioSpec(spec.scenario_id, spec.environment, road, spec.actors, spec.oracle)
    issues = dsl.validate_spec(bad)
    assert [i.path for i in issues] == ["/road_network/speed_limit_value"]


def test_error_completeness_k_defects():
    doc = (MINIMAL_DOC
           .replace("weather: sunny", "weather: plasma")
           .replace("behavior: go_forward\n  npcs:", "behavior: dance\n  npcs:")
           .replace("road_markers: solid_line", "road_markers: solid_line\n  lane_color: red"))
    issues = dsl.parse_dsl(doc)
    assert isinstance(issues, list)
    assert len(issues) >= 3
    paths = {i.path for i in issues}
    assert {"/environment/weather", "/actors/ego/behavior", "/road_network/lane_color"} <= paths


def test_issue_ordering_is_sorted_and_stable():
    doc = MINIMAL_DOC.replace("weather: sunny", "weather: plasma") + "zzz: 1\naaa: 2\n"
    first = dsl.parse_dsl(doc)
    second = dsl.parse_dsl(doc)
    assert first == second
    assert [i.path for i in first] == sorted(i.path for i in first)


# -- generated round-trip property ------------------------------------------

_TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12)
_TEXT = st.text(alphabet=st.characters(exclude_categories=("Cs",)), min_size=1, max_size=60)
_SPEED = st.floats(min_value=0.5, max_value=45.0, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_specs(draw) -> dsl.ScenarioSpec:
    road_type = draw(st.sampled_from(dsl.ROAD_TYPES))
    if road_type == "intersection":
        ways = 4
    elif road_type == "t_intersection":
        ways = 3
    else:
        ways = draw(st.sampled_from([1, 2]))
    signs = draw(st.lists(
        st.sampled_from(("stop_sign", "traffic_light", "not_mentioned")), max_size=3))
    has_limit = draw(st.booleans())
    if has_limit:
        signs = signs + ["speed_limit_sign"]
    npc_count = draw(st.integers(0, dsl.MAX_NPCS))
    npcs = []
    for i in range(npc_count):
        reference = "ego" if i == 0 else draw(
            st.sampled_from(["ego"] + [f"npc_{j + 1}" for j in range(i)]))
        npcs.append(dsl.ActorSpec(
            actor_id=f"npc_{i + 1}",
            actor_type=draw(st.sampled_from(dsl.ACTOR_TYPES)),
            behavior=draw(st.sampled_from(dsl.BEHAVIOR_TOKENS)),
            speed_mps=draw(st.none() | _SPEED),
            position=dsl.PositionSpec(
                reference=reference,
                spatial_relation=draw(st.sampled_from(dsl.SPATIAL_TOKENS)),
                heading_relation=draw(st.none() | st.sampled_from(dsl.HEADING_TOKENS)),
            ),
            model_id=draw(st.none() | _TOKEN),
        ))
    oracle = tuple(
        dsl.OracleEntry(
            rule_id=draw(st.sampled_from(dsl.KNOWN_RULE_IDS)),
            violation_type=draw(_TOKEN),
            description=draw(_TEXT),
            violating_actor=draw(st.sampled_from(
                ["ego"] + [n.actor_id for n in npcs])) if npcs else "ego",
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    return dsl.ScenarioSpec(
        scenario_id=draw(_TOKEN),
        environment=dsl.Environment(
            weather=draw(st.sampled_from(dsl.WEATHER_TOKENS)),
            time_of_day=draw(st.sampled_from(dsl.TIME_TOKENS)),
        ),
        road_network=dsl.RoadNetwork(
            road_type=road_type,
            number_of_ways=ways,
            number_of_lanes=draw(st.integers(1, dsl.MAX_LANES)),
            road_markers=draw(st.sampled_from(dsl.MARKER_TOKENS)),
            traffic_signs=tuple(signs),
            speed_limit_value=draw(_SPEED) if has_limit else None,
        ),
        actors=dsl.ActorSet(
            ego=dsl.ActorSpec(
                actor_id="ego",
                actor_type=draw(st.sampled_from(dsl.ACTOR_TYPES)),
                behavior=draw(st.sampled_from(dsl.BEHAVIOR_TOKENS)),
                speed_mps=draw(st.none() | _SPEED),
                model_id=draw(st.none() | _TOKEN),
            ),
            npcs=tuple(npcs),
        ),
        oracle=oracle,
    )


@given(scenario_specs())
@settings(max_examples=200, deadline=None)
def test_round_trip_property(spec):
    text = dsl.serialize_dsl(spec)
    reparsed = dsl.parse_dsl(text)
    assert reparsed == spec
    assert dsl.serialize_dsl(reparsed) == text


@pytest.mark.parametrize("char", ["\r", "\x85", "\x00", "\x7f", "\u2028", "\t"])
def test_strings_holding_breaks_and_control_characters_round_trip(char):
    spec = dsl.parse_dsl(MINIMAL_DOC)
    text = f"{char}a {char} b{char}"
    oracle = (dsl.OracleEntry("21460", text, text, "ego"),)
    ego = dataclasses.replace(spec.actors.ego, model_id=text)
    spec = dataclasses.replace(spec, actors=dsl.ActorSet(ego), oracle=oracle)
    serialized = dsl.serialize_dsl(spec)
    assert serialized.isascii()
    assert dsl.parse_dsl(serialized) == spec


@given(scenario_specs())
@settings(max_examples=50, deadline=None)
def test_generated_specs_validate(spec):
    assert dsl.validate_spec(spec) == []


def test_docs_schema_matches_packaged_copy():
    from importlib import resources
    from .conftest import REPO_ROOT

    packaged = resources.files("scenforge").joinpath("data/dsl_schema.md").read_text("utf-8")
    published = (REPO_ROOT / "docs" / "dsl_schema.md").read_text("utf-8")
    assert packaged == published
