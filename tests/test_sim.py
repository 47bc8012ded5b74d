from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import dsl, normalize, rules, sampling, sim, synth
from scenforge.digests import canonical_json

from .conftest import (EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template,
                       load_spec, load_template)


def _template_from(spec: dsl.ScenarioSpec, seed: int = 0) -> synth.ScenarioTemplate:
    return synth.build_template(normalize.apply_defaults(spec, seed))


def _solo_spec(speed: float = 10.0, limit: float | None = None) -> dsl.ScenarioSpec:
    signs = ("speed_limit_sign",) if limit is not None else ()
    return dsl.ScenarioSpec(
        scenario_id="solo",
        environment=dsl.Environment("sunny", "daytime"),
        road_network=dsl.RoadNetwork("straight", 2, 1, "solid_line", signs, limit),
        actors=dsl.ActorSet(dsl.ActorSpec("ego", "car", "go_forward", speed)),
        oracle=(dsl.OracleEntry("22350", "speeding", "solo baseline", "ego"),),
    )


def _with_npc(base: str, behavior: str, heading: str, spatial: str = "front",
              speed: float = 10.0) -> dsl.ScenarioSpec:
    spec = load_spec(base)
    npc = dsl.ActorSpec("npc_1", "car", behavior, speed,
                        dsl.PositionSpec("ego", spatial, heading))
    return dsl.ScenarioSpec(spec.scenario_id, spec.environment, spec.road_network,
                            dsl.ActorSet(spec.actors.ego, (npc,)), spec.oracle)


# -- geometry ----------------------------------------------------------------

def test_straight_geometry_two_opposing_lanes():
    geo = sim.build_geometry(load_template("straight-1"))
    assert geo.town == "Town02"
    assert len(geo.lanes) == 2
    assert {lane.direction for lane in geo.lanes} == {1, -1}
    assert all(lane.width == 3.5 for lane in geo.lanes)
    assert geo.conflict_region is None
    assert geo.axis is not None


def test_four_lane_straight_geometry():
    spec = load_spec("straight-1")
    road = dsl.RoadNetwork("straight", 2, 2, "broken_line", ())
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, road, spec.actors, spec.oracle)
    geo = sim.build_geometry(_template_from(spec))
    assert geo.town == "Town04"
    assert len(geo.lanes) == 4
    assert sum(1 for lane in geo.lanes if lane.direction == 1) == 2


def test_t_intersection_geometry():
    geo = sim.build_geometry(load_template("t-intersection"))
    assert geo.conflict_region is not None
    assert len(geo.approaches()) == 3
    assert geo.town == "Town05"


def test_intersection_geometry():
    geo = sim.build_geometry(load_template("intersection-1"))
    assert len(geo.approaches()) == 4
    assert len(geo.signal_heads) == 4
    # the ego approach holds green at t=0, the crossing approaches red
    states = {leg: sched.state(0.0) for leg, sched in geo.signal_heads}
    assert states["south"] == "green"
    assert states["west"] == "red"
    assert states["east"] == "red"


def test_stop_lines_one_meter_before_region():
    geo = sim.build_geometry(load_template("intersection-2"))
    half = max(x for x, _ in geo.conflict_region)
    for sl in geo.stop_lines:
        assert abs(sl.coord) == half + 1.0


def test_curve_heading_change():
    geo = sim.build_geometry(load_template("curve"))
    lane = geo.lanes[0]
    start = sim.path_point(lane.path, 0.0)[2]
    end = sim.path_point(lane.path, sim.path_length(lane.path))[2]
    change = abs(sim.normalize_heading(end - start))
    assert change >= math.radians(30.0)


def test_speed_limit_default_and_posted():
    assert sim.build_geometry(load_template("straight-1")).speed_limit == pytest.approx(13.89)
    geo = sim.build_geometry(_template_from(_solo_spec(limit=10.0)))
    assert geo.speed_limit == 10.0


def test_signal_schedule_phases():
    sched = sim.SignalSchedule(offset_s=0.0)
    assert sched.state(0.0) == "green"
    assert sched.state(11.9) == "green"
    assert sched.state(12.5) == "yellow"
    assert sched.state(20.0) == "red"
    assert sched.state(30.0) == "green"  # periodic
    crossing = sim.SignalSchedule(offset_s=15.0)
    assert crossing.state(5.0) == "red"
    assert crossing.state(16.0) == "green"


# -- simulation --------------------------------------------------------------

def test_static_actor_fixpoint():
    spec = _with_npc("straight-1", "static", "same_direction")
    template = _template_from(spec)
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    npc = next(track for track in trace.tracks if track.actor_id == "npc_1")
    assert set(zip(npc.x, npc.y, npc.speed)) == {(npc.x[0], npc.y[0], 0.0)}


def test_go_forward_closed_form_displacement():
    template = _template_from(_solo_spec())
    geo = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 4)
    v = instance.bindings["ego_speed"]
    trace = sim.simulate(instance, geo)
    ego = trace.tracks[0]
    for k, x in enumerate(ego.x):
        expected = ego.x[0] + v * (k * sim.TIMESTEP_S)
        assert x == pytest.approx(expected, abs=1e-9)
        assert ego.speed[k] == v  # exact: constant-speed kinematics


def test_solo_run_spans_full_horizon():
    template = _template_from(_solo_spec())
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 1), geo)
    assert len(trace.times) == int(sim.HORIZON_S / sim.TIMESTEP_S) + 1
    assert trace.times[-1] == pytest.approx(60.0)


def test_collision_truncates_one_second_after():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    events = rules.detect_collisions(rules.TraceView(trace, geo))
    assert events, "head-on fixture must collide"
    assert trace.times[-1] == pytest.approx(events[0].t + 1.0, abs=1e-9)


def test_head_on_ramp_matches_closed_form():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 11)
    ve = instance.bindings["ego_speed"]
    vn = instance.bindings["npc_speed"]
    e0 = instance.bindings["EGO_INIT_DIST"]
    n0 = instance.bindings["NPC_INIT_DIST"]
    trace = sim.simulate(instance, geo)

    # independent reconstruction: positions are linear until the trigger
    # frame (first frame with euclidean gap <= NPC_INIT_DIST), then the
    # npc lateral offset ramps linearly over 2 s from +1.75 to -1.75.
    dt = sim.TIMESTEP_S
    trigger_k = None
    for k in range(len(trace.times)):
        dx = (e0 + n0) - (ve + vn) * (k * dt)
        if math.hypot(dx, 3.5) <= n0:
            trigger_k = k
            break
    assert trigger_k is not None

    npc = next(track for track in trace.tracks if track.actor_id == "npc_1")
    for k, y in enumerate(npc.y):
        if trigger_k is None or k < trigger_k:
            expected_y = 1.75
        else:
            progress = min((k - trigger_k) * dt / 2.0, 1.0)
            expected_y = 1.75 - 3.5 * progress
        assert y == pytest.approx(expected_y, abs=1e-9)

    # the offset relative to the road axis changes sign during the ramp
    assert npc.y[0] > 0
    assert min(npc.y) < 0


def test_custom_ego_id_flows_into_traces():
    spec = load_spec("straight-1")
    ego = spec.actors.ego
    renamed_ego = dsl.ActorSpec("subject_car", ego.actor_type, ego.behavior, ego.speed_mps)
    npc = spec.actors.npcs[0]
    renamed_npc = dsl.ActorSpec(npc.actor_id, npc.actor_type, npc.behavior, npc.speed_mps,
                                dsl.PositionSpec("subject_car", "front", "opposite_direction"))
    renamed = dsl.ScenarioSpec(spec.scenario_id, spec.environment, spec.road_network,
                               dsl.ActorSet(renamed_ego, (renamed_npc,)), spec.oracle)
    assert dsl.validate_spec(renamed) == []
    template = _template_from(renamed)
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    assert set(trace.actor_types) == {"subject_car", "npc_1"}


def test_simulation_deterministic_bytes():
    template = load_template("intersection-2")
    geo = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 42)
    a = sim.trace_to_jsonl(sim.simulate(instance, geo))
    b = sim.trace_to_jsonl(sim.simulate(instance, geo))
    assert a == b


def test_digest_mismatch_rejected():
    geo = sim.build_geometry(load_template("straight-1"))
    other = sampling.sample_instance(load_template("curve"), 0)
    with pytest.raises(sim.DigestMismatchError):
        sim.simulate(other, geo)


def test_trace_jsonl_round_trip():
    template = load_template("curve")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 3), geo)
    text = sim.trace_to_jsonl(trace)
    loaded = sim.trace_from_jsonl(text)
    assert loaded.scenario_id == trace.scenario_id
    assert loaded.instance_seed == trace.instance_seed
    assert len(loaded.times) == len(trace.times)
    assert sim.trace_to_jsonl(loaded) == text


def _straight1_trace_lines() -> list[str]:
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    return sim.trace_to_jsonl(sim.simulate(sampling.sample_instance(template, 0), geo)).splitlines()


def _with_actors(line: str, edit) -> str:
    frame = json.loads(line)
    frame["actors"] = edit(frame["actors"])
    return canonical_json(frame)


def _truncated_last(lines):
    return lines[:-1] + [lines[-1][:len('{"actors":[')]], len(lines)


def _not_json(lines):
    return lines[:4] + ["", "not json"] + lines[5:], 6  # the blank line is counted


def _missing_actor(lines):
    return lines[:4] + [_with_actors(lines[4], lambda actors: actors[:1])] + lines[5:], 5


def _reordered_actors(lines):
    return lines[:4] + [_with_actors(lines[4], lambda actors: actors[::-1])] + lines[5:], 5


def _header_mismatch(lines):
    header = json.loads(lines[0])
    header["actor_types"] = {"ego": "car", "npc_2": "car"}
    return [canonical_json(header)] + lines[1:], 2


@pytest.mark.parametrize("malform, reason", [
    (_truncated_last, r"Expecting value at column 12"),
    (_not_json, r"Expecting value at column 1"),
    (_missing_actor, r"actors \['ego'\] differ in set or order from the first frame's"),
    (_reordered_actors,
     r"actors \['npc_1', 'ego'\] differ in set or order from the first frame's"),
    (_header_mismatch, r"actors \['ego', 'npc_1'\] do not match the header actor_types"),
])
def test_a_malformed_trace_names_the_line_at_fault(malform, reason):
    lines, line_number = malform(_straight1_trace_lines())
    with pytest.raises(ValueError, match=rf"^line {line_number}: {reason}"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


def _reference_sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _reference_trace_to_jsonl(trace: sim.Trace) -> str:
    """The dict-per-frame writer that `sim.trace_to_jsonl` replaced."""
    header = {
        "actor_types": trace.actor_types,
        "geometry_ref": trace.geometry_ref,
        "horizon_s": trace.horizon_s,
        "instance_seed": trace.instance_seed,
        "scenario_id": trace.scenario_id,
        "timestep_s": trace.timestep_s,
    }
    lines = [canonical_json(header)]
    for k, t in enumerate(trace.times):
        lines.append(canonical_json({
            "t": _reference_sig6(t),
            "actors": [
                {"id": a.actor_id, "x": _reference_sig6(a.x[k]), "y": _reference_sig6(a.y[k]),
                 "heading": _reference_sig6(a.heading[k]), "speed": _reference_sig6(a.speed[k]),
                 "lane": a.lane_id[k], "lat": _reference_sig6(a.lateral[k])}
                for a in trace.tracks
            ],
            "signals": [{"approach": ap, "state": st} for ap, st in trace.signals[k]],
        }))
    return "\n".join(lines) + "\n"


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers())
@settings(max_examples=2000, deadline=None)
def test_sig6_json_matches_the_reference_formatter(x):
    assert sim._sig6_json(x) == canonical_json(_reference_sig6(x))


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 20.0, -20.0, 999999.5, -999999.5, 1e16, -1e16, 1e-4, -1e-4,
    1.5e-05, -1.5e-05, 5e-324, -5e-324, 123456.7, 0.000123456, 100000.0, 1e300])
def test_sig6_json_matches_the_reference_formatter_at_edges(x):
    assert sim._sig6_json(x) == canonical_json(_reference_sig6(x))


def test_sig6_json_keeps_the_sign_of_zero_and_writes_rounded_exponents_in_full():
    assert sim._sig6_json(-0.0) == "-0.0"
    assert sim._sig6_json(0.0) == "0.0"
    assert sim._sig6_json(999999.5) == "1000000.0"
    assert sim._sig6_json(1.5e-05) == "1.5e-05"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_sig6_json_rejects_non_finite_values(x):
    with pytest.raises(ValueError):
        sim._sig6_json(x)


def test_trace_writer_matches_the_reference_writer_on_escaped_ids():
    template = load_template("straight-2")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 5), geo)
    renames = {actor_id: f'{actor_id}"\\\u00e9\u2028' for actor_id in trace.actor_types}
    tracks = tuple(
        dataclasses.replace(track, actor_id=renames[track.actor_id], y=(-0.0,) + track.y[1:],
                            lane_id=tuple(f'{lane}\t"\u00fc' for lane in track.lane_id))
        for track in trace.tracks)
    escaped = dataclasses.replace(
        trace, actor_types={renames[a]: kind for a, kind in trace.actor_types.items()},
        tracks=tracks)
    text = sim.trace_to_jsonl(escaped)
    assert '\\"' in text and "\\u00e9" in text and '"y":-0.0' in text
    assert text == _reference_trace_to_jsonl(escaped)


def test_trace_writer_matches_the_reference_writer_with_signals():
    template = load_template("intersection-1")
    geo = sim.build_geometry(template)
    assert geo.signal_heads
    for seed in range(3):
        trace = sim.simulate(sampling.sample_instance(template, seed), geo)
        assert sim.trace_to_jsonl(trace) == _reference_trace_to_jsonl(trace)
    # signal states that change between frames, one of them seen twice
    cycle = [tuple((leg, sched.state(t)) for leg, sched in geo.signal_heads)
             for t in (0.0, 13.0, 20.0)]
    cycle.append(cycle[0])
    assert len(set(cycle)) > 1
    switching = dataclasses.replace(trace, signals=tuple(
        cycle[k % len(cycle)] for k in range(len(trace.times))))
    assert sim.trace_to_jsonl(switching) == _reference_trace_to_jsonl(switching)


def _trace_with_columns(**columns) -> sim.Trace:
    """A one-actor, one-lane trace whose columns are given, the rest filled in."""
    frames = len(next(iter(columns.values())))
    filled = {key: columns.get(key, (1.0,) * frames)
              for key in ("x", "y", "heading", "speed", "lateral")}
    template = load_template("straight-1")
    trace = sim.simulate(sampling.sample_instance(template, 0), sim.build_geometry(template))
    track = sim.ActorTrack("ego", lane_id=("f0",) * frames, **filled)
    return dataclasses.replace(trace, actor_types={"ego": "car"}, times=sim._FRAME_TIMES[:frames],
                               signals=((),) * frames, tracks=(track,))


def test_trace_writer_formats_again_only_where_a_column_changes():
    columns = {
        "x": (0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0),          # zeros alternate in sign
        "y": (2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5),              # one value repeated
        "heading": (1.0, 1.0, 3.25, 3.25, 1.0, 1e-7, 1e-7),    # repeats switch with new values
        "speed": (5.0, 5, 5.0, 1234567.0, 1234567.0, 5.0, 5),  # ints equal to floats, exponents
        "lateral": (-0.0, -0.0, 0.1, 0.1, -0.0, 0.0, -0.0),
    }
    trace = _trace_with_columns(**columns)
    text = sim.trace_to_jsonl(trace)
    assert text == _reference_trace_to_jsonl(trace)
    assert '"x":-0.0' in text and '"x":0.0' in text and '"lat":-0.0' in text


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", ["x", "heading", "lateral"])
def test_trace_writer_raises_on_non_finite_values_after_repeats(column, bad):
    with pytest.raises(ValueError):
        sim.trace_to_jsonl(_trace_with_columns(**{column: (2.0, 2.0, bad, bad, 2.0)}))


def _lane_search_geometries() -> list[sim.RoadGeometry]:
    """Straight and curve roads with one or two ways and one or two lanes each way."""
    spec = load_spec("straight-2")
    geometries = []
    for road_type in ("straight", "curve"):
        for ways in (1, 2):
            for lanes in (1, 2):
                road = dsl.RoadNetwork(road_type, ways, lanes, "solid_line")
                solo = dataclasses.replace(spec, road_network=road, actors=dsl.ActorSet(
                    spec.actors.ego))
                geometries.append(sim.build_geometry(_template_from(solo)))
    return geometries


def _points_at_the_lane_bounds(geo: sim.RoadGeometry, rng) -> list[tuple[float, float]]:
    """Points within 1e-7 m of every bound `sim._lane_finder` uses, and off the road ends."""
    lanes = sim._lane_table(geo)
    radii = [path[0].radius if isinstance(path[0], sim.ArcSeg) else 1.0 for _, path, _ in lanes]
    half = sim.LANE_WIDTH / 2.0
    points = []
    for (_, path, s_max), radius in zip(lanes, radii):
        seg = path[0]
        past = 5.0 * radius / min(radii)  # where every lane is left behind
        for _ in range(40):
            eps = rng.choice((-1e-7, 1e-7))
            lat = rng.choice((1, -1)) * (half + eps)
            points.append(seg.point(rng.uniform(-5.0, s_max), lat))   # near a lane's half-width
            lat = rng.uniform(-2 * sim.LANE_WIDTH, 2 * sim.LANE_WIDTH)
            for s in (-5.0 + eps, s_max + eps, -past + eps, seg.length + past + eps,
                      rng.uniform(-60.0, -5.0), rng.uniform(s_max, s_max + 60.0)):
                points.append(seg.point(s, lat))
    return [(x, y) for x, y, _ in points]


def test_lane_finder_matches_the_full_search(monkeypatch):
    """The hinted lane search gives the full search's answer for every hint: on
    simulated actor positions of every document, and at the edges of its bounds."""
    import random

    full_searches = []
    locate_lane = sim._locate_lane
    monkeypatch.setattr(sim, "_locate_lane", lambda *args: full_searches.append(args) or
                        locate_lane(*args))
    rng = random.Random(8)
    cases = []
    for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS):
        template = load_document_template(name)
        geo = sim.build_geometry(template)
        points = [(x, y) for seed in range(20)
                  for track in sim.simulate(sampling.sample_instance(template, seed), geo).tracks
                  for x, y in zip(track.x, track.y)]
        cases.append((geo, points))
    cases += [(geo, _points_at_the_lane_bounds(geo, rng)) for geo in _lane_search_geometries()]
    calls = searched = 0
    for geo, points in cases:
        lanes = sim._lane_table(geo)
        find = sim._lane_finder(geo)
        full_searches.clear()
        for x, y in points:
            expected = locate_lane(lanes, x, y)
            for hint in range(len(lanes)):
                assert find(x, y, hint) == expected, (geo.topology, x, y, hint)
        if geo.topology in ("straight", "curve"):
            calls, searched = calls + len(points) * len(lanes), searched + len(full_searches)
    # on straight and curve roads the bounds answer most calls without the full search
    assert calls > 50_000 and searched < 0.3 * calls, (calls, searched)


def _mirrored_specs(road_type: str):
    base = "intersection-1" if road_type == "intersection" else "t-intersection"
    spec = load_spec(base)
    npc = spec.actors.npcs[0]
    variants = {}
    for heading, spatial in (("from_left", "left"), ("from_right", "right")):
        moved = dsl.ActorSpec(npc.actor_id, npc.actor_type, npc.behavior, npc.speed_mps,
                              dsl.PositionSpec("ego", spatial, heading), npc.model_id)
        variants[heading] = dsl.ScenarioSpec(
            spec.scenario_id, spec.environment, spec.road_network,
            dsl.ActorSet(spec.actors.ego, (moved,)), spec.oracle)
    return variants


def test_four_way_mirror_symmetry():
    variants = _mirrored_specs("intersection")
    traces = {}
    for heading, spec in variants.items():
        template = _template_from(spec)
        geo = sim.build_geometry(template)
        traces[heading] = sim.simulate(sampling.sample_instance(template, 6), geo)
    left, right = traces["from_left"], traces["from_right"]
    axis_x = sim.LANE_WIDTH / 2.0  # the ego approach line
    assert len(left.times) == len(right.times)
    for al, ar in zip(left.tracks, right.tracks):
        for k in range(len(left.times)):
            assert ar.x[k] == pytest.approx(2.0 * axis_x - al.x[k], abs=1e-9)
            assert ar.y[k] == pytest.approx(al.y[k], abs=1e-9)
            assert ar.speed[k] == pytest.approx(al.speed[k], abs=1e-9)
            expected_heading = sim.normalize_heading(math.pi - al.heading[k])
            diff = sim.normalize_heading(ar.heading[k] - expected_heading)
            assert abs(diff) < 1e-9


def test_t_junction_mirror_symmetry():
    variants = _mirrored_specs("t_intersection")
    traces = {}
    for heading, spec in variants.items():
        template = _template_from(spec)
        geo = sim.build_geometry(template)
        traces[heading] = sim.simulate(sampling.sample_instance(template, 2), geo)
    right, left = traces["from_right"], traces["from_left"]
    axis_y = -sim.LANE_WIDTH / 2.0
    assert len(left.times) == len(right.times)
    for ar, al in zip(right.tracks, left.tracks):
        for k in range(len(right.times)):
            assert al.x[k] == pytest.approx(ar.x[k], abs=1e-9)
            assert al.y[k] == pytest.approx(2.0 * axis_y - ar.y[k], abs=1e-9)
            expected_heading = sim.normalize_heading(-ar.heading[k])
            diff = sim.normalize_heading(al.heading[k] - expected_heading)
            assert abs(diff) < 1e-9


# -- collision detection ------------------------------------------------------

def test_full_overlap_collides():
    a = sim.rect_corners(0.0, 0.0, 0.3, 4.5, 2.0)
    b = sim.rect_corners(0.0, 0.0, 0.3, 4.5, 2.0)
    assert sim.rects_overlap(a, b)


def test_far_apart_never_collides():
    a = sim.rect_corners(0.0, 0.0, 0.0, 4.5, 2.0)
    b = sim.rect_corners(100.0, 0.0, 1.0, 4.5, 2.0)
    assert not sim.rects_overlap(a, b)


def test_collision_reports_first_frame_per_pair():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 5), geo)
    events = rules.detect_collisions(rules.TraceView(trace, geo))
    assert len(events) == 1
    assert events[0].actor_a == "ego" and events[0].actor_b == "npc_1"
    # the pair overlaps at the event frame and not in the frame before
    k = round(events[0].t / sim.TIMESTEP_S)
    corners = {
        a.actor_id: sim.rect_corners(a.x[k - 1], a.y[k - 1], a.heading[k - 1],
                                     *sim.VEHICLE_DIMS[trace.actor_types[a.actor_id]])
        for a in trace.tracks
    }
    assert not sim.rects_overlap(corners["ego"], corners["npc_1"])


def _sat_vs_sampled(rng, n_pairs: int) -> None:
    import numpy as np

    grid = np.linspace(-0.5, 0.5, 100)
    gx, gy = np.meshgrid(grid, grid)
    unit = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def sample_overlap(rect_a, rect_b) -> bool:
        (xa, ya, ha, la, wa), (xb, yb, hb, lb, wb) = rect_a, rect_b
        ca, sa = math.cos(ha), math.sin(ha)
        pts = np.empty_like(unit)
        pts[:, 0] = xa + unit[:, 0] * la * ca - unit[:, 1] * wa * sa
        pts[:, 1] = ya + unit[:, 0] * la * sa + unit[:, 1] * wa * ca
        cb, sb = math.cos(hb), math.sin(hb)
        dx, dy = pts[:, 0] - xb, pts[:, 1] - yb
        lx = dx * cb + dy * sb
        ly = -dx * sb + dy * cb
        return bool(np.any((np.abs(lx) <= lb / 2) & (np.abs(ly) <= wb / 2)))

    disagreements = 0
    for _ in range(n_pairs):
        rect_a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi),
                  rng.uniform(3, 8), rng.uniform(1.5, 3))
        rect_b = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi),
                  rng.uniform(3, 8), rng.uniform(1.5, 3))
        sat = sim.rects_overlap(sim.rect_corners(*rect_a), sim.rect_corners(*rect_b))
        sampled = sample_overlap(rect_a, rect_b) or sample_overlap(rect_b, rect_a)
        if sat != sampled:
            disagreements += 1
            # sampling only misses slivers: SAT must be positive, and
            # shrinking both rectangles by 1 cm must clear the overlap
            assert sat and not sampled
            shrunk_a = sim.rect_corners(rect_a[0], rect_a[1], rect_a[2],
                                        rect_a[3] - 0.02, rect_a[4] - 0.02)
            shrunk_b = sim.rect_corners(rect_b[0], rect_b[1], rect_b[2],
                                        rect_b[3] - 0.02, rect_b[4] - 0.02)
            assert not sim.rects_overlap(shrunk_a, shrunk_b)
    assert disagreements <= n_pairs * 0.05


def test_sat_agrees_with_point_sampling_oracle():
    import random

    _sat_vs_sampled(random.Random(1234), 200)


def test_rect_corners_match_the_rolled_form_bit_for_bit():
    import random

    def rolled(x, y, heading, length, width):
        c, s = math.cos(heading), math.sin(heading)
        hl, hw = length / 2.0, width / 2.0
        return tuple((x + c * dx - s * dy, y + s * dx + c * dy)
                     for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)))

    rng = random.Random(99)
    for _ in range(20000):
        args = (rng.uniform(-400, 400), rng.uniform(-400, 400), rng.uniform(-7, 7),
                rng.choice((4.5, 8.0, rng.uniform(0, 10))), rng.choice((2.0, 2.5, 0.0)))
        assert repr(sim.rect_corners(*args)) == repr(rolled(*args))


def _corner_to_corner_pair(rng):
    """Two car/truck footprints whose centre distance is within 1 cm of the
    sum of their circumradii, mostly turned so that a corner of each points
    at the other (the only way such a pair can touch)."""
    type_a, type_b = rng.choice(("car", "truck")), rng.choice(("car", "truck"))
    (la, wa), (lb, wb) = sim.VEHICLE_DIMS[type_a], sim.VEHICLE_DIMS[type_b]
    ra, rb = math.hypot(la / 2, wa / 2), math.hypot(lb / 2, wb / 2)
    theta = rng.uniform(-math.pi, math.pi)
    # offsets at three scales, so that a skip too eager by a few micrometres shows
    gap = ra + rb + rng.choice((1e-2, 1e-5, 1e-7)) * rng.uniform(-1.0, 1.0)
    if rng.random() < 0.8:
        jitter = rng.choice((0.02, 1e-6, 0.0))
        corner_a = rng.choice((1, -1)) * math.atan2(wa, la) + rng.choice((0.0, math.pi))
        corner_b = rng.choice((1, -1)) * math.atan2(wb, lb) + rng.choice((0.0, math.pi))
        heading_a = theta - corner_a + rng.uniform(-jitter, jitter)
        heading_b = theta + math.pi - corner_b + rng.uniform(-jitter, jitter)
    else:
        heading_a, heading_b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    xa, ya = rng.uniform(-300, 300), rng.uniform(-300, 300)
    return ((xa, ya, heading_a, la, wa),
            (xa + gap * math.cos(theta), ya + gap * math.sin(theta), heading_b, lb, wb))


def test_overlap_prefilter_agrees_with_rects_overlap_near_the_radius_sum():
    import random

    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    skipped = 0
    for _ in range(20000):
        rect_a, rect_b = _corner_to_corner_pair(rng)
        asked = []

        def outline(x, y, heading, length, width):
            """A one-frame outline that records each request for its corners."""
            def corners(k):
                asked.append(k)
                return sim.rect_corners(x, y, heading, length, width)
            return (x,), (y,), sim.circumradius(length, width), corners

        fast = sim.first_overlap(outline(*rect_a), outline(*rect_b)) == 0
        skipped += not asked
        exact = sim.rects_overlap(sim.rect_corners(*rect_a), sim.rect_corners(*rect_b))
        assert fast == exact, (rect_a, rect_b)
        verdicts[exact] += 1
    # both verdicts occur, and far pairs never compute their corners
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert skipped > 1000


def test_region_footprint_encloses_the_polygon():
    region = ((-3.5, -3.5), (3.5, -3.5), (3.5, 3.5), (-3.5, 3.5))
    xs, ys, radius, corners = sim.polygon_outline(region, 2)
    assert (xs, ys) == ((0.0, 0.0), (0.0, 0.0))
    assert radius == pytest.approx(3.5 * math.sqrt(2.0))
    assert corners(1) == region

