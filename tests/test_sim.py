from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import dsl, normalize, sampling, sim, synth
from scenforge.digests import canonical_json

from .conftest import load_spec, load_template


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
    npc_states = [next(a for a in f.actors if a.actor_id == "npc_1") for f in trace.frames]
    first = npc_states[0]
    assert all((s.x, s.y, s.speed) == (first.x, first.y, 0.0) for s in npc_states)


def test_go_forward_closed_form_displacement():
    template = _template_from(_solo_spec())
    geo = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 4)
    v = instance.bindings["ego_speed"]
    trace = sim.simulate(instance, geo)
    x0 = trace.frames[0].actors[0].x
    for k, frame in enumerate(trace.frames):
        expected = x0 + v * (k * sim.TIMESTEP_S)
        assert frame.actors[0].x == pytest.approx(expected, abs=1e-9)
        assert frame.actors[0].speed == v  # exact: constant-speed kinematics


def test_solo_run_spans_full_horizon():
    template = _template_from(_solo_spec())
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 1), geo)
    assert len(trace.frames) == int(sim.HORIZON_S / sim.TIMESTEP_S) + 1
    assert trace.frames[-1].t == pytest.approx(60.0)


def test_collision_truncates_one_second_after():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    events = sim.detect_collisions(trace)
    assert events, "head-on fixture must collide"
    assert trace.frames[-1].t == pytest.approx(events[0].t + 1.0, abs=1e-9)


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
    for k in range(len(trace.frames)):
        dx = (e0 + n0) - (ve + vn) * (k * dt)
        if math.hypot(dx, 3.5) <= n0:
            trigger_k = k
            break
    assert trigger_k is not None

    for k, frame in enumerate(trace.frames):
        npc = next(a for a in frame.actors if a.actor_id == "npc_1")
        if trigger_k is None or k < trigger_k:
            expected_y = 1.75
        else:
            progress = min((k - trigger_k) * dt / 2.0, 1.0)
            expected_y = 1.75 - 3.5 * progress
        assert npc.y == pytest.approx(expected_y, abs=1e-9)

    # the offset relative to the road axis changes sign during the ramp
    ys = [next(a for a in f.actors if a.actor_id == "npc_1").y for f in trace.frames]
    assert ys[0] > 0
    assert min(ys) < 0


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
    assert len(loaded.frames) == len(trace.frames)
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


def test_trace_rows_are_built_from_the_tracks():
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    trace = sim.simulate(sampling.sample_instance(template, 0), geo)
    frames = trace.frames
    assert len(frames) == len(trace.times)
    assert frames[-1] == frames[len(frames) - 1] == list(frames)[-1]
    assert frames[1:3] == (frames[1], frames[2])
    frame = frames[3]
    assert frame.t == trace.times[3] and frame.signals == trace.signals[3]
    assert [a.actor_id for a in frame.actors] == [track.actor_id for track in trace.tracks]
    ego = trace.tracks[0]
    assert frame.actors[0] == sim.ActorState(ego.actor_id, ego.x[3], ego.y[3], ego.heading[3],
                                             ego.speed[3], ego.lane_id[3], ego.lateral[3])
    with pytest.raises(IndexError):
        frames[len(frames)]


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
    for frame in trace.frames:
        lines.append(canonical_json({
            "t": _reference_sig6(frame.t),
            "actors": [
                {"id": a.actor_id, "x": _reference_sig6(a.x), "y": _reference_sig6(a.y),
                 "heading": _reference_sig6(a.heading), "speed": _reference_sig6(a.speed),
                 "lane": a.lane_id, "lat": _reference_sig6(a.lateral)}
                for a in frame.actors
            ],
            "signals": [{"approach": ap, "state": st} for ap, st in frame.signals],
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
    assert len(left.frames) == len(right.frames)
    for fl, fr in zip(left.frames, right.frames):
        for al, ar in zip(fl.actors, fr.actors):
            assert ar.x == pytest.approx(2.0 * axis_x - al.x, abs=1e-9)
            assert ar.y == pytest.approx(al.y, abs=1e-9)
            assert ar.speed == pytest.approx(al.speed, abs=1e-9)
            expected_heading = sim.normalize_heading(math.pi - al.heading)
            diff = sim.normalize_heading(ar.heading - expected_heading)
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
    assert len(left.frames) == len(right.frames)
    for fr, fl in zip(right.frames, left.frames):
        for ar, al in zip(fr.actors, fl.actors):
            assert al.x == pytest.approx(ar.x, abs=1e-9)
            assert al.y == pytest.approx(2.0 * axis_y - ar.y, abs=1e-9)
            expected_heading = sim.normalize_heading(-ar.heading)
            diff = sim.normalize_heading(al.heading - expected_heading)
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
    events = sim.detect_collisions(trace)
    assert len(events) == 1
    assert events[0].actor_a == "ego" and events[0].actor_b == "npc_1"
    # the pair overlaps at the event frame and not in the frame before
    k = round(events[0].t / sim.TIMESTEP_S)
    prev = trace.frames[k - 1]
    corners = {
        a.actor_id: sim.rect_corners(a.x, a.y, a.heading,
                                     *sim.VEHICLE_DIMS[trace.actor_types[a.actor_id]])
        for a in prev.actors
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
    a = sim.Footprint(xa, ya, heading_a, la, wa)
    b = sim.Footprint(xa + gap * math.cos(theta), ya + gap * math.sin(theta), heading_b, lb, wb)
    return a, b


def test_overlap_prefilter_agrees_with_rects_overlap_near_the_radius_sum():
    import random

    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    skipped = 0
    for _ in range(20000):
        a, b = _corner_to_corner_pair(rng)
        fast = sim.footprints_overlap(a, b)
        skipped += a._corners is None
        exact = sim.rects_overlap(
            sim.rect_corners(a.x, a.y, a.heading, a.length, a.width),
            sim.rect_corners(b.x, b.y, b.heading, b.length, b.width))
        assert fast == exact, (a.x, a.y, a.heading, b.x, b.y, b.heading)
        verdicts[exact] += 1
    # both verdicts occur, and far pairs never compute their corners
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert skipped > 1000


def test_region_footprint_encloses_the_polygon():
    region = ((-3.5, -3.5), (3.5, -3.5), (3.5, 3.5), (-3.5, 3.5))
    footprint = sim.Footprint.of_polygon(region)
    assert (footprint.x, footprint.y) == (0.0, 0.0)
    assert footprint.radius == pytest.approx(3.5 * math.sqrt(2.0))
    assert footprint.corners == region

