from __future__ import annotations

import dataclasses
import math

import pytest

from scenforge import dsl, normalize, rules, sampling, sim, synth

from .conftest import (EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template,
                       load_spec, load_template)


def _template_from(spec: dsl.ScenarioSpec) -> synth.ScenarioTemplate:
    return synth.build_template(normalize.apply_defaults(spec, 0))


def _solo_spec(speed: float = 10.0, limit: float | None = None,
               road: dsl.RoadNetwork | None = None) -> dsl.ScenarioSpec:
    signs = ("speed_limit_sign",) if limit is not None else ()
    road = road or dsl.RoadNetwork("straight", 2, 1, "solid_line", signs, limit)
    return dsl.ScenarioSpec(
        scenario_id="solo",
        environment=dsl.Environment("sunny", "daytime"),
        road_network=road,
        actors=dsl.ActorSet(dsl.ActorSpec("ego", "car", "go_forward", speed)),
        oracle=(dsl.OracleEntry("22350", "speeding", "baseline", "ego"),),
    )


def make_trace(geometry: sim.RoadGeometry, actor_types: dict[str, str],
               rows: list[list[tuple[str, float, float, float, float]]],
               scenario_id: str = "synthetic", seed: int = 0) -> sim.Trace:
    """Build a trace from per-frame (actor_id, x, y, heading, speed) tuples.

    Every row lists the same actors in the same order, as simulated frames do.
    """
    lanes = sim._lane_table(geometry)
    times = tuple(round(k * sim.TIMESTEP_S, 9) for k in range(len(rows)))
    tracks = []
    for states in zip(*rows):  # one actor's state in each frame
        actor_id = states[0][0]
        assert all(state[0] == actor_id for state in states)
        _, xs, ys, headings, speeds = zip(*states)
        lane_ids, laterals = zip(*(sim._locate_lane(lanes, x, y) for x, y in zip(xs, ys)))
        tracks.append(sim.ActorTrack(actor_id, xs, ys, headings, speeds, lane_ids, laterals))
    return sim.Trace(
        scenario_id=scenario_id,
        instance_seed=seed,
        timestep_s=sim.TIMESTEP_S,
        horizon_s=sim.HORIZON_S,
        geometry_ref=geometry.digest(),
        actor_types=actor_types,
        times=times,
        signals=tuple(tuple((leg, sched.state(t)) for leg, sched in geometry.signal_heads)
                      for t in times),
        tracks=tuple(tracks),
    )


def _evaluate(rule_id: str, trace: sim.Trace, geo: sim.RoadGeometry) -> list[rules.Violation]:
    return rules.evaluate_rule(rule_id, rules.TraceView(trace, geo))


def _drive_rows(actor_id: str, x0: float, y: float, speed, n: int):
    """Straight-line frames heading +x; speed may be a constant or per-frame list."""
    rows = []
    x = x0
    for k in range(n):
        v = speed[k] if isinstance(speed, list) else speed
        rows.append([(actor_id, x, y, 0.0, v)])
        x += v * sim.TIMESTEP_S
    return rows


def test_registry_matches_supported_rule_ids():
    assert tuple(sorted(rules.REGISTRY)) == tuple(sorted(dsl.KNOWN_RULE_IDS))
    assert len(rules.REGISTRY) == 13
    categories = {spec.category for spec in rules.REGISTRY.values()}
    assert categories == {"signal", "stop_sign", "speed", "overtaking",
                          "lane_maneuver", "right_of_way"}


def test_unknown_rule_rejected():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    with pytest.raises(KeyError):
        _evaluate("99999", trace, geo)


def test_geometry_mismatch_rejected():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    other = sim.build_geometry(load_template("curve"))
    with pytest.raises(ValueError):
        rules.monitor(trace, template.params.oracle, other)


def test_speed_violation_spans_whole_trace():
    geo = sim.build_geometry(_template_from(_solo_spec(limit=10.0)))
    trace = make_trace(geo, {"ego": "car"}, _drive_rows("ego", 10.0, -1.75, 15.0, 31))
    found = _evaluate("22350", trace, geo)
    assert len(found) == 1
    v = found[0]
    assert v.actor_id == "ego"
    assert v.t_start == 0.0
    assert v.t_end == pytest.approx(3.0)
    assert v.evidence["limit_mps"] == 10.0


def test_speed_within_tolerance_is_clean():
    geo = sim.build_geometry(_template_from(_solo_spec(limit=10.0)))
    trace = make_trace(geo, {"ego": "car"}, _drive_rows("ego", 10.0, -1.75, 10.4, 31))
    assert _evaluate("22350", trace, geo) == []


def test_speed_burst_below_sustain_threshold_is_clean():
    geo = sim.build_geometry(_template_from(_solo_spec(limit=10.0)))
    speeds = [10.0] * 10 + [15.0] * 8 + [10.0] * 10  # 0.7 s burst
    trace = make_trace(geo, {"ego": "car"}, _drive_rows("ego", 10.0, -1.75, speeds, len(speeds)))
    assert _evaluate("22350", trace, geo) == []


def test_absolute_maximum_speed_rule():
    geo = sim.build_geometry(_template_from(_solo_spec()))
    fast = make_trace(geo, {"ego": "car"}, _drive_rows("ego", 10.0, -1.75, 31.0, 31))
    found = _evaluate("22349", fast, geo)
    assert len(found) == 1 and found[0].evidence["limit_mps"] == rules.ABSOLUTE_MAX_SPEED
    legal = make_trace(geo, {"ego": "car"}, _drive_rows("ego", 10.0, -1.75, 25.0, 31))
    assert _evaluate("22349", legal, geo) == []


def _stop_sign_rows(min_zone_speed: float):
    """West-approach profile: approach, slow to min_zone_speed in the zone, cross."""
    rows = []
    x = -20.0
    for _ in range(40):
        front = x + 2.25
        dist = -4.5 - front  # distance to the stop line
        if 0.0 <= dist <= 5.0:
            v = min_zone_speed
        elif dist > 5.0:
            v = 6.0
        else:
            v = 6.0
        rows.append([("npc_1", x, -1.75, 0.0, v)])
        x += v * sim.TIMESTEP_S
    return rows


def test_stop_sign_compliant_and_violating():
    geo = sim.build_geometry(load_template("intersection-2"))
    compliant = make_trace(geo, {"npc_1": "car"}, _stop_sign_rows(0.05))
    assert _evaluate("22450", compliant, geo) == []
    violating = make_trace(geo, {"npc_1": "car"}, _stop_sign_rows(2.0))
    found = _evaluate("22450", violating, geo)
    assert len(found) == 1
    assert found[0].actor_id == "npc_1"
    assert found[0].evidence["min_zone_speed_mps"] == pytest.approx(2.0)


def test_red_light_crossing_at_computed_frame():
    geo = sim.build_geometry(load_template("intersection-1"))
    # constant 10 m/s from x0 = -30 along the west approach; the front edge
    # (x + 2.25) first reaches the stop line at x = -4.5 at frame
    # ceil((-4.5 - (-30 + 2.25)) / (10 * 0.1)) = 24, i.e. t = 2.4 s, inside
    # the red window [0, 15) of the crossing approaches.
    v, x0 = 10.0, -30.0
    expected_frame = math.ceil((-4.5 - (x0 + 2.25)) / (v * sim.TIMESTEP_S))
    trace = make_trace(geo, {"npc_1": "car"}, _drive_rows("npc_1", x0, -1.75, v, 40))
    found = _evaluate("21453", trace, geo)
    assert len(found) == 1
    assert found[0].t_start == pytest.approx(expected_frame * sim.TIMESTEP_S)
    assert found[0].evidence["signal_state"] == "red"


def test_green_crossing_is_clean():
    geo = sim.build_geometry(load_template("intersection-1"))
    # the south approach holds green during the first 12 s
    rows = []
    y = -30.0
    for _ in range(40):
        rows.append([("ego", 1.75, y, math.pi / 2.0, 10.0)])
        y += 1.0
    trace = make_trace(geo, {"ego": "car"}, rows)
    assert _evaluate("21453", trace, geo) == []


def test_divider_crossing_interval_matches_closed_form():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 11)
    trace = sim.simulate(instance, geo)
    found = _evaluate("21460", trace, geo)
    assert len(found) == 1
    v = found[0]
    assert v.actor_id == "npc_1"

    # closed form: trigger frame from the linear gap, then the footprint
    # corner (half width 1.0) crosses once the ramp passes 0.75 m
    ve = instance.bindings["ego_speed"]
    vn = instance.bindings["npc_speed"]
    e0 = instance.bindings["EGO_INIT_DIST"]
    n0 = instance.bindings["NPC_INIT_DIST"]
    trigger_k = next(
        k for k in range(len(trace.times))
        if math.hypot((e0 + n0) - (ve + vn) * k * sim.TIMESTEP_S, 3.5) <= n0)
    cross_k = next(
        k for k in range(trigger_k, len(trace.times))
        if 3.5 * min((k - trigger_k) * sim.TIMESTEP_S / 2.0, 1.0) > 0.75)
    assert v.t_start == pytest.approx(cross_k * sim.TIMESTEP_S)
    assert v.t_end == pytest.approx(trace.times[-1])


def test_broken_marker_exempts_21460_but_not_21461():
    template = load_template("straight-2")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 4), geo)
    assert _evaluate("21460", trace, geo) == []
    passing = _evaluate("21461", trace, geo)
    assert len(passing) == 1 and passing[0].actor_id == "npc_1"


def test_headway_reported_under_22350():
    geo = sim.build_geometry(_template_from(_solo_spec()))
    rows = []
    for k in range(31):
        x = 10.0 + k
        rows.append([("ego", x, -1.75, 0.0, 10.0), ("npc_1", x + 10.0, -1.75, 0.0, 10.0)])
    trace = make_trace(geo, {"ego": "car", "npc_1": "car"}, rows)
    found = _evaluate("22350", trace, geo)
    assert len(found) == 1
    assert found[0].actor_id == "ego"
    assert found[0].evidence.get("kind") == "headway"


def test_lane_change_with_close_traffic_22107():
    spec = load_spec("straight-1")
    road = dsl.RoadNetwork("straight", 2, 2, "broken_line", ())
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, road, spec.actors, spec.oracle)
    geo = sim.build_geometry(_template_from(spec))
    rows = []
    for k in range(25):
        x = 10.0 + k
        y = -1.75 if k < 12 else -5.25  # jump to the second forward lane
        rows.append([("ego", x, y, 0.0, 10.0), ("npc_1", x + 8.0, -5.25, 0.0, 10.0)])
    trace = make_trace(geo, {"ego": "car", "npc_1": "car"}, rows)
    found = _evaluate("22107", trace, geo)
    assert len(found) == 1
    assert found[0].actor_id == "ego"


def test_lane_change_near_junction_22108():
    spec = load_spec("intersection-2")
    road = dsl.RoadNetwork("intersection", 4, 2, "not_mentioned", ("stop_sign",))
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, road, spec.actors, spec.oracle)
    geo = sim.build_geometry(_template_from(spec))
    rows = []
    x = -20.0
    for k in range(30):
        y = -1.75 if k < 14 else -5.25  # swap west-approach lanes near the region
        rows.append([("npc_1", x, y, 0.0, 8.0)])
        x += 0.8
    trace = make_trace(geo, {"npc_1": "car"}, rows)
    found = _evaluate("22108", trace, geo)
    assert len(found) == 1
    assert found[0].evidence["region_distance_m"] <= rules.JUNCTION_CHANGE_M


def test_right_of_way_signalized_attribution():
    template = load_template("intersection-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    found = _evaluate("21800", trace, geo)
    assert len(found) == 1 and found[0].actor_id == "npc_1"
    assert _evaluate("21801", trace, geo) == []
    assert _evaluate("21802", trace, geo) == []


def test_right_of_way_stop_sign_attribution():
    template = load_template("t-intersection")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    found = _evaluate("21802", trace, geo)
    assert len(found) == 1 and found[0].actor_id == "npc_1"
    assert _evaluate("21800", trace, geo) == []
    assert _evaluate("21801", trace, geo) == []


def test_right_of_way_uncontrolled_left_turn_21801():
    spec = load_spec("t-intersection")
    road = dsl.RoadNetwork("t_intersection", 3, 1, "not_mentioned", ())
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, road, spec.actors,
                            (dsl.OracleEntry("21801", "left_turn", "yield", "npc_1"),))
    template = _template_from(spec)
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    found = _evaluate("21801", trace, geo)
    assert len(found) == 1 and found[0].actor_id == "npc_1"
    assert _evaluate("21802", trace, geo) == []


def test_yield_and_driveway_sections_are_evaluable_but_vacuous():
    template = load_template("intersection-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    assert _evaluate("21803", trace, geo) == []
    assert _evaluate("21804", trace, geo) == []


def _bump_speeds(trace: sim.Trace, delta: float) -> sim.Trace:
    return dataclasses.replace(trace, tracks=tuple(
        dataclasses.replace(track, speed=tuple(speed + delta for speed in track.speed))
        for track in trace.tracks))


def test_speed_rule_monotone_in_speed():
    template = load_template("straight-2")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 9), geo)
    base = _evaluate("22350", trace, geo)
    assert any(v.actor_id == "npc_1" for v in base)
    for delta in (0.5, 2.0, 10.0):
        bumped = _evaluate("22350", _bump_speeds(trace, delta), geo)
        assert any(v.actor_id == "npc_1" for v in bumped)
        # every actor violating before still violates after the bump
        assert {v.actor_id for v in base} <= {v.actor_id for v in bumped}


def test_interval_maximality_across_fixtures():
    for name in EXPECTED_RULE_COUNTS:
        template = load_template(name)
        geo = sim.build_geometry(template)
        trace = sim.simulate(sampling.sample_instance(template, 1), geo)
        report = rules.monitor(trace, template.params.oracle, geo)
        by_key: dict[tuple[str, str], list[rules.Violation]] = {}
        for v in report.violations:
            by_key.setdefault((v.rule_id, v.actor_id), []).append(v)
        for group in by_key.values():
            group.sort(key=lambda v: v.t_start)
            for prev, cur in zip(group, group[1:]):
                assert cur.t_start > prev.t_end + trace.timestep_s


def test_clean_baseline_empty_straight_road():
    template = _template_from(_solo_spec())
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    report = rules.monitor(trace, template.params.oracle, geo)
    assert report.violations == ()
    assert report.collisions == ()
    assert report.outcome == "clean"
    assert report.targeted_hit is False


@pytest.mark.parametrize("name", sorted(EXPECTED_RULE_COUNTS))
def test_monitor_distinct_rule_counts(name):
    template = load_template(name)
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    report = rules.monitor(trace, template.params.oracle, geo)
    assert len(report.distinct_rules()) == EXPECTED_RULE_COUNTS[name]
    assert report.targeted_hit is True


def test_monitor_outcome_both_when_collision_and_violation():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    report = rules.monitor(trace, template.params.oracle, geo)
    assert report.outcome == "both"
    assert report.targeted_hit is True


def test_targeted_hit_requires_matching_actor():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    wrong_actor = (dsl.OracleEntry("21460", "opposite_lane_crossing", "x", "ego"),)
    report = rules.monitor(trace, wrong_actor, geo)
    assert report.targeted_hit is False


def test_monitor_rejects_empty_oracle():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    with pytest.raises(ValueError):
        rules.monitor(trace, (), geo)


def test_summary_csv_shape():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    reports = []
    for seed in (1, 0):
        trace = sim.simulate(sampling.sample_instance(template, seed), geo)
        reports.append(rules.monitor(trace, template.params.oracle, geo))
    text = rules.summary_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:4] == ["scenario_id", "seed", "outcome", "targeted_hit"]
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "0"  # ordered by seed
    assert "cvc_21460" in lines[0]


@pytest.mark.parametrize("name", sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS))
def test_monitor_matches_standalone_rule_evaluation(name):
    """The shared trace view gives the verdicts each rule gives on its own."""
    template = load_document_template(name)
    geo = sim.build_geometry(template)
    for seed in range(5):
        trace = sim.simulate(sampling.sample_instance(template, seed), geo)
        for replayed in (trace, sim.trace_from_jsonl(sim.trace_to_jsonl(trace))):
            report = rules.monitor(replayed, template.params.oracle, geo)
            standalone = [v for rule_id in sorted(rules.REGISTRY)
                          for v in _evaluate(rule_id, replayed, geo)]
            assert list(report.violations) == rules._merge(standalone, replayed.timestep_s)
            assert list(report.collisions) == rules.detect_collisions(
                rules.TraceView(replayed, geo))


def test_monitor_calls_each_rule_and_collisions_once_through_module_names(monkeypatch):
    template = load_template("intersection-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    calls = []
    evaluate_rule, detect_collisions = rules.evaluate_rule, rules.detect_collisions

    def counting_evaluate_rule(rule_id, view):
        calls.append((rule_id, view))
        return evaluate_rule(rule_id, view)

    def counting_detect_collisions(view):
        calls.append(("collisions", view))
        return detect_collisions(view)

    monkeypatch.setattr(rules, "evaluate_rule", counting_evaluate_rule)
    monkeypatch.setattr(rules, "detect_collisions", counting_detect_collisions)
    rules.monitor(trace, template.params.oracle, geo)
    view = calls[0][1]
    assert isinstance(view, rules.TraceView) and view.trace is trace
    # one view, shared by every rule and by collision detection
    assert calls == [(rule_id, view) for rule_id in sorted(rules.REGISTRY)] + [
        ("collisions", view)]


def test_view_rejects_a_different_geometry():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    assert rules.TraceView(trace, geo).geometry is geo
    other = sim.build_geometry(load_template("curve"))
    with pytest.raises(ValueError, match="different geometry"):
        rules.TraceView(trace, other)


def _all_corner_divider_flags(view: rules.TraceView, actor_id: str) -> list[bool]:
    """Divider flags with every corner of every footprint located."""
    direction = view.travel_direction(actor_id)
    locate = view.geometry.axis.locate
    return [any(direction * locate(cx, cy)[1] > 0 for cx, cy in footprint.corners)
            for footprint in view.footprints[actor_id]]


@pytest.mark.parametrize("name", sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS))
def test_divider_flags_match_the_all_corners_computation(name):
    template = load_document_template(name)
    geo = sim.build_geometry(template)
    if geo.axis is None:
        assert template.params.topology in ("intersection", "t_intersection")
        return
    for seed in range(10):
        view = rules.TraceView(sim.simulate(sampling.sample_instance(template, seed), geo), geo)
        for actor_id in view.actor_ids:
            assert view.divider_flags(actor_id) == _all_corner_divider_flags(view, actor_id)


def test_divider_flags_at_the_edges_of_the_far_skips():
    """Footprints 1e-7 m on either side of each skip bound and of the divider itself."""
    geo = sim.build_geometry(load_template("straight-1"))
    half_width = sim.VEHICLE_DIMS["car"][1] / 2.0
    reach = half_width + sim.OVERLAP_MARGIN_M
    # lateral offset of the centre, across the divider counted positive
    offsets = (-reach - 1e-7,       # both ends far on their own side: skipped
               -reach + 1e-7,       # inside the margin: corners located
               -half_width - 1e-7,  # a corner 1e-7 m short of the divider
               -half_width + 1e-7,  # a corner 1e-7 m across
               reach - 1e-7,        # inside the margin: corners located
               reach + 1e-7)        # an end far across: skipped
    # the ego drives with the road axis (y = 0), the npc against it
    rows = [[("ego", 50.0, d, 0.0, 10.0), ("npc_1", 150.0, -d, math.pi, 10.0)]
            for d in offsets]
    view = rules.TraceView(make_trace(geo, {"ego": "car", "npc_1": "car"}, rows), geo)
    assert view.travel_direction("ego") == 1 and view.travel_direction("npc_1") == -1
    expected = [False, False, False, True, True, True]
    for actor_id in ("ego", "npc_1"):
        assert view.divider_flags(actor_id) == expected
        assert _all_corner_divider_flags(view, actor_id) == expected
