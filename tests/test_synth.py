from __future__ import annotations

import ast
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings

from scenforge import dsl, normalize, rules, sampling, sim, synth
from scenforge.digests import digest64_text, from_data, to_data
from scenforge.synth import (
    CompatibilityError,
    ParamRange,
    build_template,
    map_time,
    map_weather,
    render_scenic,
    select_map,
    widen_to_range,
)

from .conftest import FIXTURES, load_spec, load_template
from .test_dsl import _TEXT, scenario_specs


_VERIFAI_RE = re.compile(r"^(\w+) = VerifaiRange\(([^,]+), ([^)]+)\)$", re.MULTILINE)


def scan_verifai_ranges(source_text: str) -> dict[str, tuple[float, float]]:
    """Parse back every VerifaiRange assignment (template/text agreement check)."""
    found: dict[str, tuple[float, float]] = {}
    for match in _VERIFAI_RE.finditer(source_text):
        name = match.group(1)
        if name in found:
            raise ValueError(f"parameter {name} rendered more than once")
        found[name] = (float(match.group(2)), float(match.group(3)))
    return found


def load_program_file(text: str) -> synth.ScenicProgram:
    """Re-read an emitted .scenic file, checking the digest header."""
    first, _, rest = text.partition("\n")
    if not first.startswith("# digest: "):
        raise ValueError("missing digest header")
    digest = first[len("# digest: "):].strip()
    program = synth.ScenicProgram(source_text=rest, content_digest=digest64_text(rest))
    if program.content_digest != digest:
        raise ValueError("digest header does not match program text")
    return program


def test_map_time_values():
    assert map_time("daytime") == 12
    assert map_time("nighttime") == 22


def test_map_time_rejects_unresolved_token():
    with pytest.raises(ValueError):
        map_time("not_mentioned")


def test_map_weather_fixed_rows():
    assert map_weather("sunny", "nighttime") == "ClearNight"
    assert map_weather("cloudy", "daytime") == "CloudyNoon"
    assert map_weather("rainy", "daytime") == "HardRainNoon"


def test_map_weather_total():
    for weather in dsl.WEATHER_TOKENS:
        for time in dsl.TIME_TOKENS:
            preset = map_weather(weather, time)
            assert preset and preset[0].isupper()


def test_select_map_rows():
    assert select_map("straight", 2) == "Town02"
    assert select_map("straight", 4) == "Town04"
    assert select_map("curve", 2) == "Town02"
    assert select_map("intersection", 2) == "Town05"
    assert select_map("t_intersection", 2) == "Town05"


def test_select_map_snaps_unsupported_lane_counts():
    assert select_map("straight", 1) == "Town02"
    assert select_map("straight", 3) == "Town02"   # tie snaps down
    assert select_map("straight", 6) == "Town04"
    assert select_map("curve", 4) == "Town02"


def test_widen_to_range_speed():
    r = widen_to_range(10.0, "speed")
    assert (r.low, r.high, r.unit) == (8.0, 12.0, "m/s")
    degenerate = widen_to_range(0.0, "speed")
    assert (degenerate.low, degenerate.high) == (0.0, 0.0)


def test_widen_to_range_init_dist():
    for base in (0.0, 5.0, 99.0):
        r = widen_to_range(base, "init_dist")
        assert (r.low, r.high, r.unit) == (15.0, 20.0, "m")


def test_param_range_invariants():
    with pytest.raises(ValueError):
        ParamRange("x", 5.0, 4.0, "m")
    with pytest.raises(ValueError):
        ParamRange("x", -1.0, 4.0, "m/s")


@pytest.mark.parametrize("name,configuration", [
    ("straight-1", "head_on"),
    ("straight-2", "head_on"),
    ("curve", "head_on"),
    ("intersection-1", "junction_conflict"),
    ("intersection-2", "junction_conflict"),
    ("t-intersection", "junction_conflict"),
])
def test_build_template_configurations(name, configuration):
    template = load_template(name)
    assert template.params.configuration == configuration


def test_build_template_car_following():
    spec = load_spec("straight-1")
    npc = spec.actors.npcs[0]
    follower = dsl.ActorSpec(
        npc.actor_id, npc.actor_type, npc.behavior, npc.speed_mps,
        dsl.PositionSpec("ego", "front", "same_direction"), npc.model_id)
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, spec.road_network,
                            dsl.ActorSet(spec.actors.ego, (follower,)), spec.oracle)
    template = build_template(normalize.apply_defaults(spec, 0))
    assert template.params.configuration == "car_following"


def test_build_template_junction_approach():
    assert load_template("intersection-1").params.approach == "left"
    assert load_template("intersection-2").params.approach == "right"
    assert load_template("t-intersection").params.approach == "right"


def test_build_template_incompatible_pair():
    spec = load_spec("straight-1")
    npc = spec.actors.npcs[0]
    crossing = dsl.ActorSpec(
        npc.actor_id, npc.actor_type, npc.behavior, npc.speed_mps,
        dsl.PositionSpec("ego", "left", "from_left"), npc.model_id)
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, spec.road_network,
                            dsl.ActorSet(spec.actors.ego, (crossing,)), spec.oracle)
    with pytest.raises(CompatibilityError) as excinfo:
        build_template(normalize.apply_defaults(spec, 0))
    assert str(excinfo.value).startswith("/actors/npcs/0/position/heading_relation: ")
    assert "from_left" in str(excinfo.value)
    assert "straight" in str(excinfo.value)
    # the path counts the adversary's place among the npcs
    follower = dsl.ActorSpec("npc_0", "car", "go_forward", 8.0,
                             dsl.PositionSpec("ego", "behind", "same_direction"))
    spec = replace(spec, actors=dsl.ActorSet(spec.actors.ego, (follower, crossing)))
    with pytest.raises(CompatibilityError, match=r"^/actors/npcs/1/position/heading_relation: "):
        build_template(normalize.apply_defaults(spec, 0))


def test_build_template_rejects_an_open_road_heading_on_a_junction():
    variant = _junction_variant("t-intersection", "go_forward", "same_direction")
    with pytest.raises(CompatibilityError) as excinfo:
        build_template(normalize.apply_defaults(variant, 0))
    assert str(excinfo.value).startswith("/actors/npcs/0/position/heading_relation: ")
    assert "same_direction" in str(excinfo.value) and "t_intersection" in str(excinfo.value)


@pytest.mark.parametrize("name", ["straight-1", "curve"])
def test_build_template_rejects_head_on_on_a_one_way_road(name):
    spec = load_spec(name)
    assert spec.actors.npcs[0].position.heading_relation == "opposite_direction"
    one_way = replace(spec, road_network=replace(spec.road_network, number_of_ways=1))
    assert dsl.validate_spec(one_way) == []
    with pytest.raises(CompatibilityError) as excinfo:
        build_template(normalize.apply_defaults(one_way, 0))
    assert str(excinfo.value).startswith("/road_network/number_of_ways: ")
    assert "opposite_direction" in str(excinfo.value)


def _junction_variant(name: str, behavior: str, heading: str) -> dsl.ScenarioSpec:
    spec = load_spec(name)
    npcs = tuple(replace(n, behavior=behavior, position=replace(n.position, heading_relation=heading))
                 for n in spec.actors.npcs)
    variant = replace(spec, actors=replace(spec.actors, npcs=npcs))
    assert dsl.validate_spec(variant) == []
    return variant


@pytest.mark.parametrize("name", ["intersection-1", "intersection-2"])
@pytest.mark.parametrize("heading", ["from_left", "from_right"])
def test_build_template_rejects_turn_right_on_a_four_way_intersection(name, heading):
    with pytest.raises(CompatibilityError) as excinfo:
        build_template(normalize.apply_defaults(_junction_variant(name, "turn_right", heading), 0))
    assert str(excinfo.value).startswith("/actors/npcs/0/behavior: ")
    assert "turn_right" in str(excinfo.value)
    assert "intersection" in str(excinfo.value)


@pytest.mark.parametrize("name", ["intersection-1", "intersection-2", "t-intersection"])
def test_every_synthesizable_junction_behavior_simulates(name):
    for behavior in dsl.BEHAVIOR_TOKENS:
        for heading in ("from_left", "from_right"):
            try:
                template = build_template(
                    normalize.apply_defaults(_junction_variant(name, behavior, heading), 0))
            except CompatibilityError:
                assert behavior == "turn_right" and name != "t-intersection"
                continue
            geometry = sim.build_geometry(template)
            trace = sim.simulate(sampling.sample_instance(template, 0), geometry)
            rules.monitor(trace, template.params.oracle, geometry)


def test_template_free_parameters():
    template = load_template("straight-1")
    assert {r.name for r in template.free_parameters} == set(dsl.FREE_PARAMETER_NAMES)
    assert not set(template.fixed_parameters) & {r.name for r in template.free_parameters}


def test_template_json_round_trip():
    template = load_template("intersection-2")
    data = json.loads(json.dumps(to_data(template)))
    assert from_data(synth.ScenarioTemplate, data) == template
    assert from_data(synth.ScenarioTemplate, data).digest() == template.digest()


def test_template_invariant_rejects_bad_configuration():
    template = load_template("straight-1")
    with pytest.raises(ValueError):
        synth.ScenarioTemplate(
            params=replace(template.params, configuration="junction_conflict"),
            free_parameters=template.free_parameters,
            fixed_parameters=template.fixed_parameters,
        )


def test_render_contains_verifai_range():
    program = render_scenic(load_template("straight-1"))
    assert "VerifaiRange(8, 12)" in program.source_text


def test_render_deterministic():
    a = render_scenic(load_template("straight-1"))
    b = render_scenic(load_template("straight-1"))
    assert a.content_digest == b.content_digest
    assert a.source_text == b.source_text


def test_render_header_tokens_once():
    template = load_template("intersection-1")
    program = render_scenic(template)
    assert program.source_text.count("Town05") == 1
    assert program.source_text.count(template.params.weather_preset) == 1


def test_render_parse_back_agreement():
    for name in ("straight-1", "straight-2", "intersection-1", "t-intersection", "curve"):
        template = load_template(name)
        found = scan_verifai_ranges(render_scenic(template).source_text)
        expected = {r.name: (r.low, r.high) for r in template.free_parameters}
        assert found == expected


@pytest.mark.parametrize("scenario_id,fixture", [
    ("straight-1", "straight-1.scenic"),
    ("intersection-1", "intersection-1.scenic"),
])
def test_render_matches_golden_file(scenario_id, fixture):
    name = {"straight-1": "straight-1", "intersection-1": "intersection-1"}[scenario_id]
    template = load_template(name)
    golden = (FIXTURES / "golden" / fixture).read_text(encoding="utf-8")
    assert render_scenic(template).file_text() == golden


def test_program_file_round_trip():
    program = render_scenic(load_template("curve"))
    loaded = load_program_file(program.file_text())
    assert loaded == program
    with pytest.raises(ValueError):
        load_program_file("# digest: 0000000000000000\n" + program.source_text)


def test_fmt_number():
    assert synth.fmt_number(8.0) == "8"
    assert synth.fmt_number(12.5) == "12.5"
    assert synth.fmt_number(13.89) == "13.89"
    assert synth.fmt_number(29.0576) == "29.0576"


_STAND_IN = "STAND_IN"


def assert_program_keeps_the_template_lines(template: synth.ScenarioTemplate) -> None:
    """The program of `template` has exactly the lines of the program whose
    document strings (model ids and oracle violation types) are a plain stand-in,
    and where the stand-in stands, a literal or comment text that reads back
    as the document's string.  `load_program_file` reads the program back,
    and `scan_verifai_ranges` finds the four ranges."""
    p = template.params
    ego_model = p.ego_model if p.ego_model == normalize.TRUCK_MODEL else _STAND_IN
    strings = iter(([p.ego_model] if ego_model == _STAND_IN else [])
                   + [npc.model_id for npc in p.npcs] + [e.violation_type for e in p.oracle])
    plain = replace(template, params=replace(
        p, ego_model=ego_model, npcs=tuple(replace(npc, model_id=_STAND_IN) for npc in p.npcs),
        oracle=tuple(replace(entry, violation_type=_STAND_IN) for entry in p.oracle)))
    program = render_scenic(template)
    lines = program.source_text.split("\n")
    assert program.source_text.splitlines() == lines[:-1]  # no other line breaks
    expected = render_scenic(plain).source_text.split("\n")
    assert len(lines) == len(expected)
    for line, plain_line in zip(lines, expected):
        if _STAND_IN not in plain_line:
            assert line == plain_line
            continue
        head, tail = plain_line.split(_STAND_IN)
        assert line.startswith(head) and line.endswith(tail), (line, plain_line)
        assert ast.literal_eval(f"'{line[len(head):len(line) - len(tail)]}'") == next(strings)
    assert next(strings, None) is None
    assert load_program_file(program.file_text()) == program
    assert set(scan_verifai_ranges(program.source_text)) == set(dsl.FREE_PARAMETER_NAMES)


def test_the_fixture_programs_keep_the_template_lines():
    for name in ("straight-1", "straight-2", "intersection-1", "intersection-2",
                 "t-intersection", "curve"):
        assert_program_keeps_the_template_lines(load_template(name))


@pytest.mark.parametrize("text", [
    "x\nparam carla_map = 'Town99'", "it's", 'say "hi"', "'\"", "back\\slash'", "\r", "\x85",
    "\u2028", "\u2029", "\x0b\x0c\x1c\x1d\x1e", "\x00\x7f", "\t", "caf\u00e9 \U0001f697"])
def test_document_strings_cannot_add_program_lines(text):
    """A model id or an oracle violation type holding quotes, backslashes or any
    line break renders as an escaped literal or comment text on its own line."""
    template = load_template("intersection-1")
    p = template.params
    hostile = replace(template, params=replace(
        p, ego_model=text, npcs=tuple(replace(npc, model_id=text + "1") for npc in p.npcs),
        oracle=tuple(replace(entry, violation_type=text) for entry in p.oracle)))
    assert_program_keeps_the_template_lines(hostile)
    lines = render_scenic(hostile).source_text.split("\n")
    assert [line for line in lines if line.startswith("param carla_map")] == [
        "param carla_map = 'Town05'"]


@given(scenario_specs(), _TEXT, _TEXT)
@settings(max_examples=200, deadline=None)
def test_generated_documents_render_the_template_lines(spec, model_id, violation_type):
    """Criterion 5's generated specs, with a model id and a violation type drawn
    from every code point, render only the template's lines."""
    ego = replace(spec.actors.ego, model_id=model_id)
    spec = replace(spec, actors=replace(spec.actors, ego=ego), oracle=tuple(
        replace(entry, violation_type=violation_type) for entry in spec.oracle))
    assert dsl.parse_dsl(dsl.serialize_dsl(spec)) == spec
    try:
        template = build_template(normalize.apply_defaults(spec, 0))
    except CompatibilityError:
        return
    assert_program_keeps_the_template_lines(template)


@pytest.mark.parametrize("npc_id, reason", [
    ("npc_speed", "a name the Scenic program already assigns"),
    ("EGO_INIT_DIST", "a name the Scenic program already assigns"),
    ("ego", "a name the Scenic program already assigns"),
    *((name, "a name the Scenic program already assigns or reads") for name in dsl.PROGRAM_NAMES),
    ("npc 1", "not an identifier"),
    ("1npc", "not an identifier"),
    ("npc-1", "not an identifier"),
    ("class", "not an identifier"),
    ("npc_1\nparam carla_map = 'Town99'", "not an identifier"),
])
def test_an_npc_id_the_program_cannot_assign_is_rejected_at_parse(npc_id, reason):
    spec = load_spec("straight-1")
    (npc,) = spec.actors.npcs
    spec = replace(spec, actors=replace(spec.actors, npcs=(replace(npc, actor_id=npc_id),)),
                   oracle=tuple(replace(entry, violating_actor=npc_id) for entry in spec.oracle))
    issues = dsl.parse_dsl(dsl.serialize_dsl(spec))
    assert [(issue.path, issue.kind) for issue in issues] == [
        ("/actors/npcs/0/actor_id", dsl.INCONSISTENT)]
    assert reason in issues[0].message


def test_an_ego_id_that_is_not_an_identifier_is_rejected_at_parse():
    spec = load_spec("straight-1")
    spec = replace(spec, actors=replace(spec.actors, ego=replace(spec.actors.ego,
                                                                  actor_id="my ego")))
    issues = dsl.parse_dsl(dsl.serialize_dsl(spec))
    assert [(issue.path, issue.kind) for issue in issues] == [
        ("/actors/ego/actor_id", dsl.INCONSISTENT)]
    renamed = replace(spec, actors=replace(spec.actors, ego=replace(spec.actors.ego,
                                                                     actor_id="npc_speed")))
    assert dsl.parse_dsl(dsl.serialize_dsl(renamed)) == renamed  # the ego's id is not rendered


@pytest.mark.parametrize("ego_model, kind", [
    ("vehicle.custom.european_hgv", "car"),
    (normalize.TRUCK_MODEL, "truck"),
    (normalize.DEFAULT_EGO_MODEL, "car"),
])
def test_the_program_and_the_trace_give_the_ego_one_vehicle_type(ego_model, kind):
    template = load_template("straight-1")
    template = replace(template, params=replace(template.params, ego_model=ego_model))
    lines = render_scenic(template).source_text.splitlines()
    assert f"ego = new {kind.title()} on road," in lines
    trace = sim.simulate(sampling.sample_instance(template, 0), sim.build_geometry(template))
    assert trace.actor_types["ego"] == kind
