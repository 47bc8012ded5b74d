from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import dsl, normalize, rules, sampling, sim, synth
from scenforge.digests import canonical_json

from .conftest import (EXPECTED_RULE_COUNTS, FIVE_ACTOR_DOCUMENTS, FIXTURES,
                       MULTI_ACTOR_DOCUMENTS, load_document_template, load_spec, load_template)
from .reference_traces import (assert_round_trips_as_format_1, exact, format1_to_jsonl,
                               format2_from_jsonl, format2_to_jsonl, format3_to_jsonl,
                               format5_to_jsonl, sig6)
from .test_dsl import scenario_specs


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
    assert len({stop_line.approach for stop_line in geo.stop_lines}) == 3
    assert geo.town == "Town05"


def test_intersection_geometry():
    geo = sim.build_geometry(load_template("intersection-1"))
    assert len({stop_line.approach for stop_line in geo.stop_lines}) == 4
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


@pytest.mark.parametrize(
    "name", sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS) + list(FIVE_ACTOR_DOCUMENTS))
def test_collision_truncates_one_second_after(name):
    """`simulate` and `rules.detect_collisions` take the same collision
    decision: a trace whose first event is at frame k ends at frame
    min(k + 10, 600), and one without events runs the full horizon."""
    template = load_document_template(name)
    geo = sim.build_geometry(template)
    horizon = len(sim._FRAME_TIMES) - 1
    collided = 0
    for seed in range(30):
        trace = sim.simulate(sampling.sample_instance(template, seed), geo)
        events = rules.detect_collisions(rules.TraceView(trace, geo))
        if events:
            k = trace.times.index(events[0].t)
            assert len(trace.times) == min(k + 10, horizon) + 1, (name, seed)
            collided += 1
        else:
            assert len(trace.times) == horizon + 1, (name, seed)
    assert collided or name == "straight-2", name  # its npc passes the ego without contact


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


def _frame_major_simulate(instance: sampling.ScenarioInstance, geometry: sim.RoadGeometry
                          ) -> sim.Trace:
    """The frame-major loop that `sim.simulate` replaced, kept as its reference:
    every frame, every mover takes one step.  Positions come from `path_point`
    and lanes from the full search, so neither of `simulate`'s shortcuts is used.
    """
    if instance.template_digest != geometry.template_digest:
        raise sim.DigestMismatchError(
            f"instance was sampled from template {instance.template_digest}, "
            f"geometry was built from {geometry.template_digest}")

    p = geometry.scenario
    movers = sim._build_movers(instance, geometry)
    actor_types = {m.actor_id: m.actor_type for m in movers}
    dims = [sim.VEHICLE_DIMS[m.actor_type] for m in movers]
    points = [functools.partial(sim.path_point, m.path) for m in movers]
    lanes = sim._lane_table(geometry)
    lane_names = [lane.lane_id for lane in geometry.lanes]
    hints = [0] * len(movers)
    radii = [math.hypot(length / 2.0, width / 2.0) for length, width in dims]
    pairs = [(i, j, radii[i] + radii[j] + sim.OVERLAP_MARGIN_M)
             for i in range(len(movers)) for j in range(i + 1, len(movers))]

    columns = [([], [], [], [], []) for _ in movers]
    end_frame = len(sim._FRAME_TIMES) - 1
    collided = False

    ego, ego_point = movers[0], points[0]
    for k, t in enumerate(sim._FRAME_TIMES):
        for m, point in zip(movers[1:], points[1:]):
            if m.incursion:
                if m.trigger_t is None:
                    ex, ey, _ = ego_point(ego.s, ego.lateral)
                    mx, my, _ = point(m.s, m.lateral)
                    if math.hypot(ex - mx, ey - my) <= m.trigger_gap:
                        m.trigger_t = t
                if m.trigger_t is not None:
                    progress = min((t - m.trigger_t) / sim.RAMP_DURATION_S, 1.0)
                    m.lateral = sim.LANE_WIDTH * progress

        frame = []
        for n, (m, point, (xs, ys, headings, speeds, lane_ids)) in enumerate(
                zip(movers, points, columns)):
            x, y, heading = state = point(m.s, m.lateral)
            hints[n] = sim._locate_lane(lanes, x, y)[0]
            xs.append(x)
            ys.append(y)
            headings.append(heading)
            speeds.append(m.speed)
            lane_ids.append(lane_names[hints[n]])
            frame.append(state)

        if not collided:
            for i, j, reach in pairs:
                (xi, yi, hi), (xj, yj, hj) = frame[i], frame[j]
                if math.hypot(xi - xj, yi - yj) > reach:
                    continue
                if sim.rects_overlap(sim.rect_corners(xi, yi, hi, *dims[i]),
                                     sim.rect_corners(xj, yj, hj, *dims[j])):
                    collided = True
                    end_frame = min(end_frame, k + int(1.0 / sim.TIMESTEP_S))
                    break

        if k >= end_frame:
            break

        for m in movers:
            if m.behavior == "static":
                continue
            if m.behavior == "stop" and m.stop_s is not None:
                remaining = m.stop_s - m.s
                if remaining <= m.speed * m.speed / (2.0 * sim.BRAKE_DECEL):
                    m.speed = max(0.0, m.speed - sim.BRAKE_DECEL * sim.TIMESTEP_S)
            m.s += m.speed * sim.TIMESTEP_S
            if m.stop_s is not None and m.s > m.stop_s:
                m.s = m.stop_s
                m.speed = 0.0

    times = sim._FRAME_TIMES[:len(columns[0][0])]
    return sim.Trace(
        scenario_id=p.scenario_id,
        instance_seed=instance.instance_seed,
        timestep_s=sim.TIMESTEP_S,
        horizon_s=sim.HORIZON_S,
        geometry_ref=geometry.digest(),
        actor_types=actor_types,
        times=times,
        signals=tuple((leg, tuple(map(sched.state, times)))
                      for leg, sched in geometry.signal_heads),
        tracks=tuple(sim.ActorTrack(m.actor_id, *map(tuple, cols))
                     for m, cols in zip(movers, columns)),
    )


def _bits(column) -> bytes:
    """The floats of a column as bytes, so that the sign of zero counts."""
    return struct.pack(f"<{len(column)}d", *column)


def _assert_same_simulation(template: synth.ScenarioTemplate, seeds) -> int:
    """`simulate` equals the frame-major reference bit for bit; returns the frames compared."""
    geo = sim.build_geometry(template)
    frames = 0
    for seed in seeds:
        instance = sampling.sample_instance(template, seed)
        trace, expected = sim.simulate(instance, geo), _frame_major_simulate(instance, geo)
        where = (template.params.scenario_id, seed)
        assert len(trace.times) == len(expected.times), where
        assert _bits(trace.times) == _bits(expected.times), where
        assert trace.signals == expected.signals, where
        assert trace.actor_types == expected.actor_types, where
        assert [t.actor_id for t in trace.tracks] == [t.actor_id for t in expected.tracks], where
        for track, reference in zip(trace.tracks, expected.tracks):
            assert track.lane_id == reference.lane_id, (where, track.actor_id)
            for key in ("x", "y", "heading", "speed"):
                assert _bits(getattr(track, key)) == _bits(getattr(reference, key)), (
                    where, track.actor_id, key)
        assert trace == expected, where
        frames += len(trace.times)
    return frames


def _corpus_templates() -> list[synth.ScenarioTemplate]:
    """Every golden accuracy document that synth accepts."""
    templates = []
    for path in sorted((FIXTURES / "accuracy").glob("*.golden.yaml")):
        normalized = normalize.normalize_document(path.read_text(encoding="utf-8"), 0)
        assert isinstance(normalized, normalize.NormalizedSpec), path
        try:
            templates.append(synth.build_template(normalized))
        except synth.CompatibilityError:
            continue
    return templates


def test_simulate_matches_the_frame_major_reference():
    """Mover-major `simulate` gives the frame-major loop's floats, lanes, signals
    and trace length on every fixture, both multi-actor documents and the
    accuracy corpus, including static, stop and turning actors."""
    templates = [load_document_template(name)
                 for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS)]
    corpus = _corpus_templates()
    behaviors = {behavior for template in corpus for behavior in (
        template.params.ego_behavior, *(npc.behavior for npc in template.params.npcs))}
    assert {"static", "stop", "turn_left", "turn_right"} <= behaviors, behaviors
    frames = sum(_assert_same_simulation(template, range(30))
                 for template in templates + corpus)
    assert frames > 100_000, frames


@pytest.mark.parametrize("block", [1, 3, 7])
def test_simulate_matches_the_frame_major_reference_at_any_block_size(monkeypatch, block):
    """Block boundaries fall before, during and after the incursion ramp and at
    collision frames; none of them changes the trace."""
    monkeypatch.setattr(sim, "_BLOCK_FRAMES", block)
    for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS):
        _assert_same_simulation(load_document_template(name), range(10))


def test_simulate_matches_the_frame_major_reference_without_the_gap_decision(monkeypatch):
    """The corners decide every pair within reach: the fallback of the collision
    scan, which real traces almost never reach, gives the same traces."""
    monkeypatch.setattr(sim, "gap_verdict", lambda *args: None)
    for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS):
        _assert_same_simulation(load_document_template(name), range(5))


@given(scenario_specs())
@settings(derandomize=True, deadline=None, max_examples=50)
def test_simulate_matches_the_frame_major_reference_on_fuzzed_documents(spec):
    normalized = normalize.normalize_document(dsl.serialize_dsl(spec), 0)
    assert isinstance(normalized, normalize.NormalizedSpec), normalized
    try:
        template = synth.build_template(normalized)
    except synth.CompatibilityError:
        return
    _assert_same_simulation(template, range(3))


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


def _straight1_trace_lines(write=format2_to_jsonl) -> list[str]:
    """Header, times, then the lines of the ego and of npc_1, in format 2 unless
    `write` is another writer: every column is a list, so a test can edit one
    value of it."""
    template = load_template("straight-1")
    geo = sim.build_geometry(template)
    return write(sim.simulate(sampling.sample_instance(template, 0), geo)).splitlines()


def _edited(line: str, edit) -> str:
    row = json.loads(line)
    edit(row)
    return canonical_json(row)


def _truncated_last(lines):
    return lines[:-1] + [lines[-1][:len('{"heading":')]], len(lines)


def _not_json(lines):
    return lines[:2] + ["", "not json"] + lines[3:], 4  # the blank line is counted


def _missing_actor(lines):
    return lines[:3], 1


def _header_mismatch(lines):
    header = json.loads(lines[0])
    header["actor_types"] = {"ego": "car", "npc_2": "car"}
    return [canonical_json(header)] + lines[1:], 4


def _duplicated_actor(lines):
    return lines + [lines[2]], 5


def _unknown_actor(lines):
    return lines + [_edited(lines[3], lambda row: row.update(id="npc_9"))], 5


def _short_column(lines):
    return lines[:2] + [_edited(lines[2], lambda row: row["x"].pop())] + lines[3:], 3


def _missing_key(lines):
    return lines[:3] + [_edited(lines[3], lambda row: row.pop("speed"))], 4


def _signal_after_actor(lines):
    frames = len(json.loads(lines[1])["t"])
    return lines + [canonical_json({"approach": "west", "state": ["red"] * frames})], 5


def _short_signal_column(lines):
    return lines[:2] + [canonical_json({"approach": "west", "state": ["red"]})] + lines[2:], 3


def _no_times(lines):
    return lines[:1] + ['{"t":[]}'] + lines[2:], 2


def _bare_times(lines):
    return lines[:1] + ['{"t":0.0}'] + lines[2:], 2


def _header_only(lines):
    return lines[:1], 1


def _header_missing_key(lines):
    return [_edited(lines[0], lambda row: row.pop("geometry_ref"))] + lines[1:], 1


def _unknown_actor_type(lines):
    return [_edited(lines[0], lambda row: row["actor_types"].update(ego="bus"))] + lines[1:], 1


def _format_1(lines):
    template = load_template("straight-1")
    trace = sim.simulate(sampling.sample_instance(template, 0), sim.build_geometry(template))
    return format1_to_jsonl(trace).splitlines(), 1


def _format_6(lines):
    return [_edited(lines[0], lambda row: row.update(format=6))] + lines[1:], 1


@pytest.mark.parametrize("malform, reason", [
    (_truncated_last, r"Expecting value at column 12"),
    (_not_json, r"Expecting value at column 1"),
    (_missing_actor, r"actors \['ego'\] differ from the header's actor_types"),
    (_header_mismatch,
     r"actors \['ego', 'npc_1'\] differ from the header's actor_types \['ego', 'npc_2'\]"),
    (_duplicated_actor, r"actors \['ego', 'npc_1', 'ego'\] differ from the header's"),
    (_unknown_actor, r"actors \['ego', 'npc_1', 'npc_9'\] differ from the header's"),
    (_short_column, r"'x' is not a list of \d+ values, one per time"),
    (_missing_key, r"missing key 'speed'"),
    (_signal_after_actor, r"missing key 'id'"),
    (_short_signal_column, r"'state' is not a list of \d+ values, one per time"),
    (_no_times, r"'t' is not a list of one or more times"),
    (_bare_times, r"'t' is not a list of one or more times"),
    (_header_only, r"no time line after the header"),
    (_header_missing_key, r"missing key 'geometry_ref'"),
    (_unknown_actor_type, r"actor 'ego' has type 'bus', not one of \['car', 'truck'\]"),
    (_format_1, r"trace format 1: this reader reads formats 2, 3, 4 and 5 only"),
    (_format_6, r"trace format 6: this reader reads formats 2, 3, 4 and 5 only"),
])
def test_a_malformed_trace_names_the_line_at_fault(malform, reason):
    lines, line_number = malform(_straight1_trace_lines())
    with pytest.raises(ValueError, match=rf"^line {line_number}: {reason}"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


def _format5_lines() -> list[str]:
    """straight-1 at seed 0 in format 5: 28 frames written `{"t":28}`, the ego
    on line 3 with a bare lane, and npc_1 on line 4 with the runs
    `"lane":[["r0",18],["f0",10]]` and `"y":[[1.75,9],1.575,...]`."""
    lines = _straight1_trace_lines(sim.trace_to_jsonl)
    assert lines[1] == '{"t":28}' and '"lane":"f0",' in lines[2]
    assert '"lane":[["r0",18],["f0",10]],' in lines[3] and '"y":[[1.75,9],1.575,' in lines[3]
    return lines


def _replaced(line: str, old: str, new: str) -> str:
    assert line.count(old) == 1
    return line.replace(old, new)


_RUN_REASON = r"'y' holds a run that is not \[value, count\] with an integer count of 2 or more"


@pytest.mark.parametrize("run, reason", [
    ("[1.75,0]", _RUN_REASON),
    ("[1.75,-1]", _RUN_REASON),
    ("[1.75,1]", _RUN_REASON),
    ("[1.75,true]", _RUN_REASON),
    ("[1.75,2.0]", _RUN_REASON),
    ("[1.75,9.0]", _RUN_REASON),
    ('[1.75,"3"]', _RUN_REASON),
    ('[1.75,"9"]', _RUN_REASON),
    ("[1.75]", _RUN_REASON),
    ("[1.75,9,1]", _RUN_REASON),
    ("[]", _RUN_REASON),
    ("[[1.75,9],9]", r"'y' holds a value that is not a number"),  # a run inside a run
    ("[1.75,10]", r"'y' is not a list of 28 values, one per time"),  # one frame too many
    ("[1.75,8]", r"'y' is not a list of 28 values, one per time"),  # one frame too few
    ("[1.75,1000000000000]", r"'y' is not a list of 28 values, one per time"),
    ("[null,9]", r"'y' holds a value that is not a number"),
    ("[NaN,9]", r"'y' holds a value that is not a finite number"),
    ("[true,9]", r"'y' holds a value that is not a finite number"),
])
def test_a_malformed_run_names_its_line(run, reason):
    """The npc's `[1.75,9]` y run, spoiled; a count is checked before its
    copies are made."""
    lines = _format5_lines()
    lines[3] = _replaced(lines[3], "[1.75,9]", run)
    with pytest.raises(ValueError, match=rf"^line 4: {reason}$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("lanes", ['[["r0",19],["f0",10]]', '[["r0",18],["f0",9]]'])
def test_lane_runs_that_miss_the_frame_count_name_their_line(lanes):
    lines = _format5_lines()
    lines[3] = _replaced(lines[3], '[["r0",18],["f0",10]]', lanes)
    with pytest.raises(ValueError,
                       match=r"^line 4: 'lane' is not a list of 28 values, one per time$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


def test_runs_are_read_in_formats_4_and_5_only():
    """In a format-3 file a list with runs is a list of the wrong length."""
    lines = _format5_lines()
    lines[0] = _replaced(lines[0], '"format":5', '"format":3')
    lines[1] = canonical_json({"t": list(sim._FRAME_TIMES[:28])})
    with pytest.raises(ValueError,
                       match=r"^line 4: '\w+' is not a list of 28 values, one per time$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("header, times, reason", [
    ({}, '{"t":0}', r"'t' counts 0 frames, not 1 to 601"),
    ({}, '{"t":-28}', r"'t' counts -28 frames, not 1 to 601"),
    ({}, '{"t":602}', r"'t' counts 602 frames, not 1 to 601"),
    ({"horizon_s": 2.6}, '{"t":28}', r"'t' counts 28 frames, not 1 to 27"),
    ({"timestep_s": 0.05}, '{"t":28}',
     r"'t' is a frame count, but timestep_s 0.05 is not the frame grid's 0.1"),
    ({}, '{"t":true}', r"'t' is not a frame count or a list of one or more times"),
    ({}, '{"t":28.0}', r"'t' is not a frame count or a list of one or more times"),
    ({}, '{"t":"28"}', r"'t' is not a frame count or a list of one or more times"),
    ({"format": 3}, '{"t":28}', r"'t' is not a list of one or more times"),
    ({"format": 2}, '{"t":28}', r"'t' is not a list of one or more times"),
    ({}, '{"t":[[0.0,3],0.3]}', r"'t' holds a value that is not a number"),  # a run in `t`
])
def test_a_malformed_frame_count_names_its_line(header, times, reason):
    lines = _format5_lines()
    lines[0] = _edited(lines[0], lambda row: row.update(header))
    lines[1] = times
    with pytest.raises(ValueError, match=rf"^line 2: {reason}$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


def test_a_frame_count_stands_for_the_frame_grid():
    """Up to the header's horizon, and over the whole grid."""
    lines = _format5_lines()
    trace = _assert_reads_as_the_reference("\n".join(lines) + "\n")
    assert trace.times == sim._FRAME_TIMES[:28]
    lines[0] = _edited(lines[0], lambda row: row.update(horizon_s=2.7))
    assert sim.trace_from_jsonl("\n".join(lines) + "\n").times == trace.times
    whole = [canonical_json({"actor_types": {"a": "car"}, "format": 4, "geometry_ref": "g",
                             "horizon_s": 60.0, "instance_seed": 0, "scenario_id": "s",
                             "timestep_s": 0.1}), '{"t":601}',
             '{"heading":0.0,"id":"a","lane":"f0","lat":0.0,"speed":1.0,"x":1.0,"y":2.0}']
    assert _assert_reads_as_the_reference("\n".join(whole) + "\n").times == sim._FRAME_TIMES


_NOT_STRINGS = {"null": "null", "object": "{}", "number": "3"}


@pytest.mark.parametrize("form", ["bare", "list", "run"])
@pytest.mark.parametrize("literal", list(_NOT_STRINGS.values()), ids=list(_NOT_STRINGS))
@pytest.mark.parametrize("key", ["lane", "state"])
def test_a_lane_or_signal_state_that_is_not_a_string_names_its_line(key, literal, form):
    """The ego's lane, or the state of a signal line put before it, as a bare
    value, in a list, or as a run's value."""
    lines = _format5_lines()
    lines.insert(2, '{"approach":"north","state":"red"}')
    n = 3 if key == "state" else 4
    old = '"state":"red"' if key == "state" else '"lane":"f0"'
    value = {"bare": literal, "list": f'["f0",{literal}' + ',"f0"' * 26 + "]",
             "run": f'["f0",[{literal},27]]'}[form]
    lines[n - 1] = _replaced(lines[n - 1], old, f'"{key}":{value}')
    with pytest.raises(ValueError,
                       match=rf"^line {n}: '{key}' holds a value that is not a string$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("literal", list(_NOT_STRINGS.values()), ids=list(_NOT_STRINGS))
def test_a_signal_approach_that_is_not_a_string_names_its_line(literal):
    lines = _format5_lines()
    lines.insert(2, f'{{"approach":{literal},"state":"red"}}')
    with pytest.raises(ValueError, match=r"^line 3: 'approach' is not a string$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("key", ["t", "x", "y", "heading", "speed"])
@pytest.mark.parametrize("value", ["a", None, [1.0], {"v": 1.0}])
def test_a_value_that_is_not_a_number_names_its_line(key, value):
    lines = _straight1_trace_lines()
    n = 1 if key == "t" else len(lines) - 1

    def spoil(row):
        row[key][3] = value

    lines[n] = _edited(lines[n], spoil)
    with pytest.raises(ValueError,
                       match=rf"^line {n + 1}: '{key}' holds a value that is not a number$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


_NOT_FINITE = {"true": "true", "false": "false", "NaN": "NaN", "Infinity": "Infinity",
               "-Infinity": "-Infinity", "1e400": "1e400", "int-beyond-float": "1" + "0" * 400}


@pytest.mark.parametrize("key", ["t", "x", "y", "heading", "speed"])
@pytest.mark.parametrize("literal", list(_NOT_FINITE.values()), ids=list(_NOT_FINITE))
def test_a_value_that_is_not_a_finite_number_names_its_line(key, literal):
    lines = _straight1_trace_lines()
    n = 1 if key == "t" else len(lines) - 1

    def spoil(row):
        row[key][3] = "@"

    lines[n] = _edited(lines[n], spoil).replace('"@"', literal, 1)
    with pytest.raises(ValueError, match=rf"^line {n + 1}: '{key}' holds a value that is "
                                         rf"not a finite number$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("key", ["x", "y", "heading", "speed"])
@pytest.mark.parametrize("literal, reason", [
    ("true", "not a finite number"), ("false", "not a finite number"),
    ("NaN", "not a finite number"), ("Infinity", "not a finite number"),
    ("-Infinity", "not a finite number"), ("1e400", "not a finite number"),
    ('"a"', "not a number"), ("null", "not a number"), ("{}", "not a number")])
def test_a_bare_value_that_is_not_a_finite_number_names_its_line(key, literal, reason):
    """A bare value gets a list value's checks and messages."""
    lines = _straight1_trace_lines(sim.trace_to_jsonl)
    n = len(lines) - 1
    lines[n] = _edited(lines[n], lambda row: row.update({key: "@"})).replace('"@"', literal, 1)
    with pytest.raises(ValueError, match=rf"^line {n + 1}: '{key}' holds a value that is "
                                         rf"{reason}$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("version", [2, 3, 4])
@pytest.mark.parametrize("literal", ["0.5", "[0.5]", "NaN", "null", '"a"', "[[0.5,0]]", "{}"])
def test_the_lat_column_of_an_older_format_is_not_read(version, literal):
    """Files of formats 2 to 4 hold `lat`, the offset from the lane's centre;
    the reader skips it, whatever it holds."""
    lines = _straight1_trace_lines()
    expected = sim.trace_from_jsonl("\n".join(lines) + "\n")
    lines[0] = _edited(lines[0], lambda row: row.update(format=version))
    lines[2:] = [_replaced(line, '"speed":', f'"lat":{literal},"speed":') for line in lines[2:]]
    assert exact(sim.trace_from_jsonl("\n".join(lines) + "\n")) == exact(expected)


def test_a_bare_value_holds_in_every_frame():
    lines = _straight1_trace_lines()
    frames = len(json.loads(lines[1])["t"])
    lines[2] = _edited(lines[2], lambda row: row.update(speed=7.25, lane="l", y=-0.0))
    lines.insert(2, '{"approach":"north","state":"red"}')
    trace = _assert_reads_as_the_reference("\n".join(lines) + "\n")
    ego = trace.tracks[0]
    assert ego.speed == (7.25,) * frames and ego.lane_id == ("l",) * frames
    assert _bits(ego.y) == _bits((-0.0,) * frames)
    assert trace.signals == (("north", ("red",) * frames),)


def test_a_lane_or_a_large_sum_does_not_make_a_column_fail():
    """`true` in a lane id runs the bool scan, and a sum beyond the float range
    the finite scan; neither finds a bad value in the number columns."""
    lines = _straight1_trace_lines()
    lines[-1] = _edited(lines[-1], lambda row: row.update(
        lane=["true"] * len(row["lane"]), x=[1e308] * len(row["x"])))
    trace = sim.trace_from_jsonl("\n".join(lines) + "\n")
    assert trace.tracks[-1].lane_id[0] == "true" and trace.tracks[-1].x[0] == 1e308


def test_actor_lines_give_the_track_order():
    """Track order is the order of the actor lines, whatever the header's."""
    lines = _straight1_trace_lines()
    trace = sim.trace_from_jsonl("\n".join(lines) + "\n")
    swapped = sim.trace_from_jsonl("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    assert [track.actor_id for track in trace.tracks] == ["ego", "npc_1"]
    assert swapped.tracks == trace.tracks[::-1]
    assert swapped.actor_types == trace.actor_types


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_a_lane_holding_a_raw_unicode_line_break_reads_back(separator):
    """JSON allows U+0085, U+2028 and U+2029 unescaped inside a string, and
    the reader breaks lines at "\\n" only, so such a lane stays in its line."""
    lines = _straight1_trace_lines()
    row = json.loads(lines[2])
    lane = row["lane"][2] = f"lane{separator}1"
    lines[2] = json.dumps(row, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    assert separator in lines[2]
    trace = sim.trace_from_jsonl("\n".join(lines) + "\n")
    expected = sim.trace_from_jsonl("\n".join(_straight1_trace_lines()) + "\n")
    lanes = list(expected.tracks[0].lane_id)
    lanes[2] = lane
    assert trace.tracks[0].lane_id == tuple(lanes)
    assert trace.tracks[1:] == expected.tracks[1:]


def test_a_crlf_trace_reads_as_its_lf_form():
    lines = _straight1_trace_lines()
    lf = sim.trace_from_jsonl("\n".join(lines) + "\n")
    assert exact(sim.trace_from_jsonl("\r\n".join(lines) + "\r\n")) == exact(lf)


def _assert_reads_as_the_reference(text: str) -> sim.Trace:
    trace = sim.trace_from_jsonl(text)
    assert exact(trace) == exact(format2_from_jsonl(text))
    return trace


def test_trace_reader_matches_the_reference_reader_on_simulated_traces():
    """On the fixtures, the multi-actor and the five-actor documents, seeds 0-29,
    a format-3 round trip gives a format-1 round trip's floats bit for bit and
    writes back the text it read, and the format-2 file reads to the same
    trace."""
    for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS) + list(
            FIVE_ACTOR_DOCUMENTS):
        template = load_document_template(name)
        geo = sim.build_geometry(template)
        for seed in range(30):
            trace = sim.simulate(sampling.sample_instance(template, seed), geo)
            text = assert_round_trips_as_format_1(trace)
            assert exact(_assert_reads_as_the_reference(text)) == exact(
                _assert_reads_as_the_reference(format2_to_jsonl(trace)))


_HEADER_LINE = canonical_json({
    "actor_types": {}, "format": 3, "geometry_ref": "g", "horizon_s": 10.0, "instance_seed": 0,
    "scenario_id": "s", "timestep_s": 0.05})


def _number_texts():
    """JSON number texts: finite floats (subnormals included) written as `.6g`,
    `repr`, `.17g` and exponent forms, plus decimal texts of up to 40 digits
    whose integers stay inside 64 bits."""
    formats = st.sampled_from(["{:.6g}", "{!r}", "{:.17g}", "{:e}", "{:.3E}", "{:.20e}"])
    floats = st.builds(str.format, formats, st.floats(allow_nan=False, allow_infinity=False))
    decimals = st.builds(
        "{}{}{}{}".format, st.sampled_from(["", "-"]), st.integers(0, 10**18 - 1),
        st.just("") | st.text("0123456789", min_size=1, max_size=22).map(".".__add__),
        st.just("") | st.builds("{}{}".format, st.sampled_from(["e", "E", "e+", "E-"]),
                                st.integers(0, 999)))
    return floats | decimals


def _string_texts(strings):
    """JSON string texts, written with `\\u` escapes (surrogate pairs beyond the
    BMP) or as they are, unless that would break the line."""
    return st.builds(lambda s, ascii_only: json.dumps(s, ensure_ascii=ascii_only),
                     strings, st.booleans()).filter(lambda text: len(text.splitlines()) == 1)


def _header_listing(id_texts) -> str:
    """The test header line, listing these actors as cars."""
    return _HEADER_LINE.replace('"actor_types":{}', '"actor_types":{' + ",".join(
        f'{text}:"car"' for text in id_texts) + "}")


@st.composite
def _trace_texts(draw):
    """Format-3, 4 and 5 texts with arbitrary number, id, lane and signal
    texts; every column but the times may be a bare value.  In formats 4 and
    5 a list may hold runs, and the times may be a frame count.  Formats 3
    and 4 hold a `lat` column, which the reader skips."""
    version = draw(st.sampled_from([3, 4, 5]))
    runs = version >= 4
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    id_texts = [draw(_string_texts(st.just(actor_id))) for actor_id in ids]
    frames = draw(st.integers(1, 6))
    num, lane = _number_texts(), _string_texts(st.text(max_size=4))

    def listed(values, runs=runs) -> str:
        items, left = [], frames
        while left:
            count = draw(st.integers(2, left)) if runs and left > 1 and draw(st.booleans()) else 1
            items.append(f"[{draw(values)},{count}]" if count > 1 else draw(values))
            left -= count
        return "[" + ",".join(items) + "]"

    def column(values) -> str:
        return draw(values) if draw(st.booleans()) else listed(values)

    header = _header_listing(id_texts)
    times = listed(num, runs=False)
    if runs:
        header = header.replace('"format":3', f'"format":{version}')
        if draw(st.booleans()):
            header, times = header.replace('"timestep_s":0.05', '"timestep_s":0.1'), str(frames)
    lines = [header, f'{{"t":{times}}}']
    lines += [f'{{"approach":{draw(lane)},"state":{column(lane)}}}'
              for _ in range(draw(st.integers(0, 2)))]
    def lat() -> str:
        return f'"lat":{column(num)},' if version < 5 else ""

    lines += [f'{{"heading":{column(num)},"id":{id_text},"lane":{column(lane)},{lat()}'
              f'"speed":{column(num)},"x":{column(num)},"y":{column(num)}}}'
              for id_text in id_texts]
    return "\n".join(lines) + "\n"


@given(_trace_texts())
@settings(max_examples=200, deadline=None)
def test_trace_reader_matches_the_reference_reader_on_generated_frame_lines(text):
    """A number text beyond the double range reads as an infinity, which the
    reader rejects; every other text reads as the reference reads it."""
    reference = format2_from_jsonl(text)
    numbers = itertools.chain(reference.times, *(
        column for track in reference.tracks
        for column in (track.x, track.y, track.heading, track.speed)))
    if all(map(math.isfinite, numbers)):
        _assert_reads_as_the_reference(text)
    else:
        with pytest.raises(ValueError, match="holds a value that is not a finite number$"):
            sim.trace_from_jsonl(text)


def test_trace_reader_matches_the_reference_reader_on_random_float_bits():
    """Finite doubles drawn uniformly over their bit patterns, one per column
    value, written as `.6g`, `repr`, `.17g` and `.16e` texts."""
    rng = random.Random(12)
    values = [x for x in struct.unpack("<40000d", rng.randbytes(8 * 40000)) if math.isfinite(x)]
    texts = [form.format(x) for x, form in zip(values, itertools.cycle(
        ["{:.6g}", "{!r}", "{:.17g}", "{:.16e}"]))]
    frames = len(texts) // 5
    assert frames > 6000
    t, heading, speed, x, y = (",".join(texts[k * frames:(k + 1) * frames]) for k in range(5))
    lanes = ",".join(['"l"'] * frames)
    lines = [_header_listing(['"a"']), f'{{"t":[{t}]}}',
             f'{{"heading":[{heading}],"id":"a","lane":[{lanes}],'
             f'"speed":[{speed}],"x":[{x}],"y":[{y}]}}']
    _assert_reads_as_the_reference("\n".join(lines) + "\n")


def _one_frame_trace_lines() -> list[str]:
    """straight-1 at seed 0, cut to its first frame."""
    template = load_template("straight-1")
    trace = sim.simulate(sampling.sample_instance(template, 0), sim.build_geometry(template))
    return sim.trace_to_jsonl(dataclasses.replace(trace, times=trace.times[:1], tracks=tuple(
        sim.ActorTrack(track.actor_id, *(column[:1] for column in dataclasses.astuple(track)[1:]))
        for track in trace.tracks))).splitlines()


@pytest.mark.parametrize("old, new", [
    ('"speed":', '"speed_":[NaN],"speed":'),
    ('"speed":', '"speed_":[Infinity],"speed":'),
    ('"speed":', '"speed_":[-Infinity],"speed":'),
    ('"speed":', '"speed_":[1e400],"speed":'),
    ('"lane":', '"lane":["\\ud800"],"l":'),
    ('"lane":', '"lane":["\\udc00\\ud83d"],"l":'),
])
def test_trace_reader_reads_what_only_json_accepts_as_the_reference_does(old, new):
    """A one-frame trace whose ego line holds a value outside strict JSON that
    `json` reads: in a key the reader ignores, next to the speed column, or a
    lone surrogate in the lane column, whose old value moves to an ignored
    key.  Neither place is rejected."""
    lines = _one_frame_trace_lines()
    lines[2] = lines[2].replace(old, new, 1)
    _assert_reads_as_the_reference("\n".join(lines) + "\n")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_lane_that_only_json_reads_as_a_number_is_not_a_string(literal):
    """`json` reads these lanes as floats, which the lane check refuses."""
    lines = _one_frame_trace_lines()
    lines[2] = lines[2].replace('"lane":', f'"lane":[{literal}],"l":', 1)
    with pytest.raises(ValueError, match=r"^line 3: 'lane' holds a value that is not a string$"):
        sim.trace_from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("integer", [2**64, 10**30, -2**63 - 1])
def test_trace_reader_reads_an_integer_outside_64_bits_as_the_reference_does(integer):
    """The reader decodes with `json`, so such an integer stays an int, as in the
    reference reader.  The writer writes no integer into a column."""
    lines = _one_frame_trace_lines()
    lines[2] = lines[2].replace('"speed":', f'"speed":[{integer}],"s":', 1)
    speed = _assert_reads_as_the_reference("\n".join(lines) + "\n").tracks[0].speed[0]
    assert type(speed) is int and speed == integer


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers())
@settings(max_examples=2000, deadline=None)
def test_sig6_json_matches_the_reference_formatter(x):
    assert sim._sig6_json(x) == canonical_json(sig6(x))


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 20.0, -20.0, 999999.5, -999999.5, 1e16, -1e16, 1e-4, -1e-4,
    1.5e-05, -1.5e-05, 5e-324, -5e-324, 123456.7, 0.000123456, 100000.0, 1e300])
def test_sig6_json_matches_the_reference_formatter_at_edges(x):
    assert sim._sig6_json(x) == canonical_json(sig6(x))


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
    assert '\\"' in text and "\\u00e9" in text and '"y":[-0.0,' in text
    assert text == format5_to_jsonl(escaped)
    assert_round_trips_as_format_1(escaped)


def test_trace_writer_matches_the_reference_writer_with_signals():
    template = load_template("intersection-1")
    geo = sim.build_geometry(template)
    assert geo.signal_heads
    for seed in range(3):
        trace = sim.simulate(sampling.sample_instance(template, seed), geo)
        assert sim.trace_to_jsonl(trace) == format5_to_jsonl(trace)
    # signal states that change between frames, each seen again later
    cycle = (0.0, 13.0, 20.0, 0.0)
    switching = dataclasses.replace(trace, signals=tuple(
        (leg, tuple(sched.state(cycle[k % len(cycle)]) for k in range(len(trace.times))))
        for leg, sched in geo.signal_heads))
    assert all(len(set(states)) > 1 for _, states in switching.signals)
    assert sim.trace_to_jsonl(switching) == format5_to_jsonl(switching)
    assert_round_trips_as_format_1(switching)


def test_trace_writer_matches_the_reference_writer_off_the_frame_times():
    """Times other than `simulate`'s, and a reloaded trace's, are written as the
    reference writer writes them."""
    template = load_template("curve")
    trace = sim.simulate(sampling.sample_instance(template, 2), sim.build_geometry(template))
    reloaded = sim.trace_from_jsonl(sim.trace_to_jsonl(trace))
    assert reloaded.times == trace.times
    n = len(trace.times)
    variants = [reloaded] + [dataclasses.replace(trace, times=times) for times in (
        (-0.0,) + trace.times[1:],                      # the grid but for the sign of a zero
        (0,) + trace.times[1:],                         # an int zero
        tuple(t + 0.05 for t in trace.times),           # off the grid
        sim._FRAME_TIMES[1:n + 1],                      # on the grid, one frame late
        tuple(t * (1.0 + 1e-12) for t in trace.times),  # within the 6 digits of the grid
    )]
    for variant in variants:
        assert sim.trace_to_jsonl(variant) == format5_to_jsonl(variant)
    assert sim.trace_to_jsonl(variants[1]).splitlines()[1].startswith('{"t":[-0.0,0.1,')


def _trace_with_columns(**columns) -> sim.Trace:
    """A one-actor trace whose columns are given, the rest filled in: the lane
    `f0`, and 1.0 in the number columns."""
    frames = len(next(iter(columns.values())))
    filled = {key: columns.get(key, (1.0,) * frames)
              for key in ("x", "y", "heading", "speed")}
    template = load_template("straight-1")
    trace = sim.simulate(sampling.sample_instance(template, 0), sim.build_geometry(template))
    track = sim.ActorTrack("ego", lane_id=columns.get("lane_id", ("f0",) * frames), **filled)
    return dataclasses.replace(trace, actor_types={"ego": "car"}, times=sim._FRAME_TIMES[:frames],
                               signals=(), tracks=(track,))


def test_trace_writer_formats_again_only_where_a_column_changes():
    columns = {
        "x": (0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0),          # zeros alternate in sign
        "y": (-0.0, -0.0, 0.1, 0.1, -0.0, 0.0, -0.0),          # and in a column with runs
        "heading": (1.0, 1.0, 3.25, 3.25, 1.0, 1e-7, 1e-7),    # repeats switch with new values
        "speed": (5.0, 5, 5.0, 1234567.0, 1234567.0, 5.0, 5),  # ints equal to floats, exponents
    }
    trace = _trace_with_columns(**columns)
    text = sim.trace_to_jsonl(trace)
    assert text == format5_to_jsonl(trace)
    assert '"x":[0.0,-0.0,0.0,-0.0,-0.0,0.0,0.0]' in text
    assert '"y":[-0.0,-0.0,0.1,0.1,-0.0,0.0,-0.0]}' in text and '"lane":"f0",' in text


def test_trace_writer_formats_a_run_of_equal_zeros_once(monkeypatch):
    """A repeated zero takes its sign's text without another `_sig6_json` call;
    a zero after another value is formatted again."""
    calls, sig6_json = [], sim._sig6_json
    monkeypatch.setattr(sim, "_sig6_json", lambda x: calls.append(x) or sig6_json(x))
    column = (0.0, 0.0, 0.0, -0.0, -0.0, 0, 0.0, 2.5, 2.5, -0.0, -0.0, 0.0)
    assert sim._sig6_texts(column) == [
        "0.0", "0.0", "0.0", "-0.0", "-0.0", "0.0", "0.0", "2.5", "2.5", "-0.0", "-0.0", "0.0"]
    assert _bits(calls) == _bits([0.0, 2.5, -0.0])
    calls.clear()
    assert sim._sig6_texts((-0.0,) * 50) == ["-0.0"] * 50
    assert _bits(calls) == _bits([-0.0])


def test_trace_writer_decides_a_bare_column_from_its_texts():
    """Distinct floats with one 6-digit text make a bare column; zeros of both
    signs, equal as floats, do not."""
    trace = _trace_with_columns(heading=(-3.5, -3.5000000001, -3.4999999999),
                                x=(0.0, 0.0, -0.0), y=(-0.0,) * 3, speed=(12, 12.0, 12.0))
    text = sim.trace_to_jsonl(trace)
    assert text == format5_to_jsonl(trace)
    assert '"heading":-3.5,' in text and '"x":[0.0,0.0,-0.0]' in text
    assert '"y":-0.0}' in text and '"speed":12.0,' in text
    assert_round_trips_as_format_1(trace)


def _assert_reads_as_the_format3_round_trip(trace: sim.Trace) -> str:
    """The format-5 text of `trace`, after checking that it is the reference
    writer's text and reads back to the bits of the format-3 file."""
    text = sim.trace_to_jsonl(trace)
    assert text == format5_to_jsonl(trace)
    assert exact(sim.trace_from_jsonl(text)) == exact(
        sim.trace_from_jsonl(format3_to_jsonl(trace)))
    assert sim.trace_to_jsonl(sim.trace_from_jsonl(text)) == text
    return text


def test_trace_writer_writes_runs_of_three_or_more_equal_texts():
    trace = _trace_with_columns(
        y=(0.0,) * 3 + (-0.0,) * 3 + (0.0,) * 4 + (-0.0,) * 3,  # zero runs split by sign
        heading=(1.0, 2.0, 2.0, 3.0, 3.0, 3.0, -0.0, 0.0, 0.0,  # runs of length 1, 2 and 3
                 2.5000000001, 2.5, 2.4999999999, 7.0),        # distinct floats, one text
        speed=(5.0,) * 4 + (6.0,) * 3 + (5.0,) * 6,             # a column of runs only
        x=(0.0,) * 5 + (1.0,) * 8,                               # `x` keeps every text
        lane_id=("a", "a") + ("b",) * 3 + ("a",) * 8)
    text = _assert_reads_as_the_format3_round_trip(trace)
    assert text.splitlines()[1:] == [
        '{"t":13}',
        '{"heading":[1.0,2.0,2.0,[3.0,3],-0.0,0.0,0.0,[2.5,3],7.0],"id":"ego",'
        '"lane":["a","a",["b",3],["a",8]],"speed":[[5.0,4],[6.0,3],[5.0,6]],'
        '"x":[0.0,0.0,0.0,0.0,0.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0],'
        '"y":[[0.0,3],[-0.0,3],[0.0,4],[-0.0,3]]}']


def test_trace_writer_writes_the_frame_count_only_for_the_frame_grid():
    """A one-frame trace; the grid with another timestep, or beyond the
    horizon; times that print as the grid's; and times that do not."""
    one = _trace_with_columns(x=(2.0,), y=(-0.0,))
    assert _assert_reads_as_the_format3_round_trip(one).splitlines()[1:] == [
        '{"t":1}', '{"heading":1.0,"id":"ego","lane":"f0","speed":1.0,"x":2.0,"y":-0.0}']
    trace = _trace_with_columns(y=(0.0,) * 4 + (1.0,) * 3)
    assert _assert_reads_as_the_format3_round_trip(trace).splitlines()[1] == '{"t":7}'
    listed = '{"t":[0.0,0.1,0.2,0.3,0.4,0.5,0.6]}'
    for variant in (dataclasses.replace(trace, timestep_s=0.05),
                    dataclasses.replace(trace, horizon_s=0.5)):
        assert _assert_reads_as_the_format3_round_trip(variant).splitlines()[1] == listed
    near = tuple(t * (1.0 + 1e-12) for t in trace.times)  # within the 6 digits of the grid
    for variant in (dataclasses.replace(trace, horizon_s=1.0),
                    dataclasses.replace(trace, times=(0,) + trace.times[1:]),
                    dataclasses.replace(trace, times=near)):
        assert _assert_reads_as_the_format3_round_trip(variant).splitlines()[1] == '{"t":7}'
    for variant, line in (
            (dataclasses.replace(trace, times=sim._FRAME_TIMES[1:8]), '{"t":[0.1,0.2,'),
            (dataclasses.replace(trace, times=(-0.0,) + trace.times[1:]), '{"t":[-0.0,0.1,'),
            (dataclasses.replace(trace, times=tuple(t + 0.05 for t in trace.times)),
             '{"t":[0.05,0.15,')):
        assert _assert_reads_as_the_format3_round_trip(variant).splitlines()[1].startswith(line)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", ["x", "heading", "y"])
@pytest.mark.parametrize("values", [(2.0, 2.0, "bad", "bad", 2.0), ("bad",) * 5])
def test_trace_writer_raises_on_non_finite_values(column, bad, values):
    """After repeats, and in a column that would be bare."""
    with pytest.raises(ValueError):
        sim.trace_to_jsonl(_trace_with_columns(**{column: tuple(
            bad if value == "bad" else value for value in values)}))


@st.composite
def _columnar_traces(draw):
    """Traces of 1-6 frames whose columns draw from a few values each: runs,
    one value throughout, zeros of both signs, and distinct floats that
    print alike at 6 digits."""
    frames = draw(st.integers(1, 6))
    timestep = draw(st.sampled_from([0.05, sim.TIMESTEP_S]))  # the latter writes a frame count
    numbers = (st.sampled_from([0.0, -0.0, 2.5, -3.5, -3.5000000001, -3.4999999999, 1e-7])
               | st.floats(allow_nan=False, allow_infinity=False))

    def column(values) -> tuple:
        pool = draw(st.lists(values, min_size=1, max_size=3))
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=frames, max_size=frames)))

    ids = draw(st.lists(st.sampled_from(["ego", "npc_1", "npc_2"]), min_size=1, max_size=3,
                        unique=True))
    heads = draw(st.lists(st.sampled_from(["north", "south"]), max_size=2, unique=True))
    states = [column(st.sampled_from(["red", "green"])) for _ in heads]
    return sim.Trace(
        "s", 0, timestep, 10.0, "g", {actor_id: "car" for actor_id in ids},
        times=sim._FRAME_TIMES[:frames],
        signals=tuple(zip(heads, states)),
        tracks=tuple(sim.ActorTrack(actor_id, column(numbers), column(numbers), column(numbers),
                                    column(numbers), column(st.sampled_from(["a", "b"])))
                     for actor_id in ids))


@given(_columnar_traces())
@settings(max_examples=300, deadline=None)
def test_trace_writer_round_trips_columns_with_runs_and_repeats(trace):
    """The writer writes the reference's text, which reads back to a format-1
    round trip's bits and writes back to itself."""
    assert_round_trips_as_format_1(trace)


def _lane_search_geometries() -> list[sim.RoadGeometry]:
    """Straight and curve roads with one or two ways and one or two lanes each way."""
    spec = load_spec("straight-2")
    oracle = tuple(dataclasses.replace(entry, violating_actor="ego") for entry in spec.oracle)
    geometries = []
    for road_type in ("straight", "curve"):
        for ways in (1, 2):
            for lanes in (1, 2):
                road = dsl.RoadNetwork(road_type, ways, lanes, "solid_line")
                solo = dataclasses.replace(spec, road_network=road, actors=dsl.ActorSet(
                    spec.actors.ego), oracle=oracle)
                geometries.append(sim.build_geometry(_template_from(solo)))
    return geometries


def _junction_templates() -> list[synth.ScenarioTemplate]:
    """4-way and T junctions with one and two lanes per direction."""
    templates = []
    for name in ("intersection-1", "t-intersection"):
        spec = load_spec(name)
        for lanes in (1, 2):
            road = dataclasses.replace(spec.road_network, number_of_lanes=lanes)
            templates.append(_template_from(dataclasses.replace(spec, road_network=road)))
    return templates


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


def _points_at_the_junction_bounds(geo: sim.RoadGeometry, rng) -> list[tuple[float, float]]:
    """Points within 1e-7 m of the conflict square's edges and of |lat| = LANE_WIDTH / 2
    on every leg."""
    square = sim.LANE_WIDTH * geo.scenario.lanes  # half the conflict square's side
    half = sim.LANE_WIDTH / 2.0
    points = []
    for _, path, s_max in sim._lane_table(geo):
        seg = path[0]
        # a point's coordinates along and across the lane's axis-parallel line
        along0, across0 = seg.x0 * seg.dx + seg.y0 * seg.dy, -seg.dy * seg.x0 + seg.dx * seg.y0
        for _ in range(40):
            def near(bound):
                return rng.choice((1, -1)) * (bound + rng.choice((-1e-7, 1e-7)))
            edge_s = near(square) - along0  # across a square edge that crosses the lane
            for lat in (near(half), rng.uniform(-2 * sim.LANE_WIDTH, 2 * sim.LANE_WIDTH)):
                points.append(seg.point(edge_s, lat))
            s = rng.uniform(-5.0, s_max)
            points.append(seg.point(s, near(half)))
            points.append(seg.point(s, near(square) - across0))  # beside a square edge
            points.append(seg.point(near(square) - along0, near(square) - across0))  # corners
    return [(x, y) for x, y, _ in points]


def test_lane_finder_matches_the_full_search(monkeypatch):
    """The hinted lane search gives the full search's answer for every hint: on
    simulated actor positions of every document, and at the edges of its bounds.
    Most of `simulate`'s calls, at junctions too, skip the full search."""
    import random

    full_searches, finds = [], []
    locate_lane, lane_finder = sim._locate_lane, sim._lane_finder
    monkeypatch.setattr(sim, "_locate_lane", lambda *args: full_searches.append(args) or
                        locate_lane(*args))

    def counted_finder(geometry):
        find = lane_finder(geometry)
        return lambda xs, ys, hint: finds.extend(xs) or find(xs, ys, hint)

    monkeypatch.setattr(sim, "_lane_finder", counted_finder)
    rng = random.Random(8)
    cases = []
    junction_calls = junction_searched = 0
    templates = [load_document_template(name)
                 for name in sorted(EXPECTED_RULE_COUNTS) + list(MULTI_ACTOR_DOCUMENTS)]
    for template in templates + _junction_templates():
        geo = sim.build_geometry(template)
        finds.clear()
        full_searches.clear()
        points = [(x, y) for seed in range(20)
                  for track in sim.simulate(sampling.sample_instance(template, seed), geo).tracks
                  for x, y in zip(track.x, track.y)]
        if geo.topology not in ("straight", "curve"):
            junction_calls += len(finds)
            junction_searched += len(full_searches)
            points += _points_at_the_junction_bounds(geo, rng)
        cases.append((geo, points))
    cases += [(geo, _points_at_the_lane_bounds(geo, rng)) for geo in _lane_search_geometries()]
    calls = searched = 0
    for geo, points in cases:
        lanes = sim._lane_table(geo)
        find = lane_finder(geo)
        full_searches.clear()
        for x, y in points:
            expected = locate_lane(lanes, x, y)
            for hint in range(len(lanes)):
                assert find([x], [y], hint) == [expected[0]], (
                    geo.topology, x, y, hint)
        if geo.topology in ("straight", "curve"):
            calls, searched = calls + len(points) * len(lanes), searched + len(full_searches)
    # on straight and curve roads the bounds answer most calls without the full search
    assert calls > 50_000 and searched < 0.3 * calls, (calls, searched)
    # at junctions the hint answers most of `simulate`'s calls
    assert junction_calls > 20_000 and junction_searched < 0.3 * junction_calls, (
        junction_calls, junction_searched)


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
            return ((x,), (y,), (heading,), length / 2.0, width / 2.0, corners)

        fast = sim.first_overlap(outline(*rect_a), outline(*rect_b)) == 0
        skipped += not asked
        exact = sim.rects_overlap(sim.rect_corners(*rect_a), sim.rect_corners(*rect_b))
        assert fast == exact, (rect_a, rect_b)
        verdicts[exact] += 1
    # both verdicts occur, and far pairs never compute their corners
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert skipped > 1000


def _half_extent(heading: float, length: float, width: float, nx: float, ny: float) -> float:
    """Half the extent of a rectangle's projection on the unit axis (nx, ny)."""
    c, s = math.cos(heading), math.sin(heading)
    return (length * abs(c * nx + s * ny) + width * abs(c * ny - s * nx)) / 2.0


def _place_at_gap(rect, heading: float, length: float, width: float,
                  theta: float, gap: float) -> tuple[float, float]:
    """The centre of a second rectangle (heading, length, width) on the ray
    from `rect`'s centre at angle theta at which the pair's largest
    separating-axis gap equals `gap`.

    Along the ray every gap grows linearly from minus the axis' half extents,
    so the largest reaches `gap` at the smallest distance at which any does.
    """
    x, y, rect_heading, rect_length, rect_width = rect
    distance = math.inf
    for h in (rect_heading, heading):
        for nx, ny in ((math.cos(h), math.sin(h)), (-math.sin(h), math.cos(h))):
            along = abs(math.cos(theta) * nx + math.sin(theta) * ny)
            extents = (_half_extent(rect_heading, rect_length, rect_width, nx, ny)
                       + _half_extent(heading, length, width, nx, ny))
            if along > 1e-9:
                distance = min(distance, (gap + extents) / along)
    return x + distance * math.cos(theta), y + distance * math.sin(theta)


def test_gap_verdict_at_the_margins_agrees_with_rects_overlap():
    """Car/car, car/truck and footprint/conflict-square pairs, parallel,
    perpendicular, at 45 degrees and at random headings, placed so that their
    largest separating-axis gap lies 1e-7 m on either side of -margin and of
    +margin.  Every verdict equals `rects_overlap`'s, and exactly the pairs
    whose gap lies within the margin of 0 have their corners built."""
    import random

    rng = random.Random(7)
    margin = sim.OVERLAP_MARGIN_M
    gaps = (-margin - 1e-7, -margin + 1e-7, margin - 1e-7, margin + 1e-7)
    verdicts = {True: 0, False: 0}
    for pair in ("car/car", "car/truck", "car/region", "truck/region"):
        kind_a, kind_b = pair.split("/")
        for turn in (0.0, math.pi / 2.0, math.pi / 4.0, None):
            for _ in range(40):
                if kind_b == "region":
                    half = rng.choice((3.5, 7.0))
                    region = ((-half, -half), (half, -half), (half, half), (-half, half))
                    rect_b = (0.0, 0.0, 0.0, 2.0 * half, 2.0 * half)
                else:
                    rect_b = (rng.uniform(-300, 300), rng.uniform(-300, 300),
                              rng.uniform(-math.pi, math.pi), *sim.VEHICLE_DIMS[kind_b])
                heading_a = rect_b[2] + (rng.uniform(-math.pi, math.pi) if turn is None
                                         else turn + rng.choice((0.0, math.pi)))
                # towards a face, towards a corner, or anywhere
                theta = rng.choice((rect_b[2], rect_b[2] + math.pi / 2.0, heading_a,
                                    rect_b[2] + math.atan2(rect_b[4], rect_b[3]),
                                    rng.uniform(-math.pi, math.pi)))
                for gap in gaps:
                    asked = []
                    xa, ya = _place_at_gap(rect_b, heading_a, *sim.VEHICLE_DIMS[kind_a],
                                           theta, gap)
                    rect_a = (xa, ya, heading_a, *sim.VEHICLE_DIMS[kind_a])
                    corners_a = sim.rect_corners(*rect_a)
                    corners_b = region if kind_b == "region" else sim.rect_corners(*rect_b)
                    outline_a = ((xa,), (ya,), (heading_a,), rect_a[3] / 2.0, rect_a[4] / 2.0,
                                 lambda k: asked.append(k) or corners_a)
                    if kind_b == "region":
                        outline_b = sim.polygon_outline(region, 1)
                    else:
                        outline_b = ((rect_b[0],), (rect_b[1],), (rect_b[2],),
                                     rect_b[3] / 2.0, rect_b[4] / 2.0, lambda k: corners_b)
                    exact = sim.rects_overlap(corners_a, corners_b)
                    where = (pair, rect_a, rect_b, gap)
                    assert (sim.first_overlap(outline_a, outline_b) == 0) == exact, where
                    assert bool(asked) == (abs(gap) < margin), where
                    assert exact == (gap < 0), where
                    verdicts[exact] += 1
    assert verdicts[True] == verdicts[False] == 4 * 4 * 40 * 2


def test_region_footprint_encloses_the_polygon():
    region = ((-3.5, -3.5), (3.5, -3.5), (3.5, 3.5), (-3.5, 3.5))
    xs, ys, headings, half_length, half_width, corners = sim.polygon_outline(region, 2)
    assert (xs, ys) == ((0.0, 0.0), (0.0, 0.0))
    assert (headings, half_length, half_width) == ((0.0, 0.0), 3.5, 3.5)
    assert math.hypot(half_length, half_width) == pytest.approx(3.5 * math.sqrt(2.0))
    assert corners(1) == region
    with pytest.raises(ValueError, match="axis-aligned rectangle"):
        sim.polygon_outline(((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), 2)

