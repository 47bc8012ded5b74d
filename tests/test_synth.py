from __future__ import annotations

import json
from dataclasses import replace

import pytest

from scenforge import dsl, normalize, rules, sampling, sim, synth
from scenforge.digests import from_data, to_data
from scenforge.synth import (
    CompatibilityError,
    ParamRange,
    build_template,
    map_time,
    map_weather,
    render_scenic,
    scan_verifai_ranges,
    select_map,
    widen_to_range,
)

from .conftest import FIXTURES, load_spec, load_template


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
    assert {r.name for r in template.free_parameters} == set(synth.FREE_PARAMETER_NAMES)
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
    loaded = synth.load_program_file(program.file_text())
    assert loaded == program
    with pytest.raises(ValueError):
        synth.load_program_file("# digest: 0000000000000000\n" + program.source_text)


def test_fmt_number():
    assert synth.fmt_number(8.0) == "8"
    assert synth.fmt_number(12.5) == "12.5"
    assert synth.fmt_number(13.89) == "13.89"
    assert synth.fmt_number(29.0576) == "29.0576"
