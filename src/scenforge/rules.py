"""Trace-level evaluation of California Vehicle Code rule oracles.

Thirteen CVC sections are evaluable.  The statutes name the checks; the
quantitative thresholds are fixed here and documented in docs/rules.md:

 - 22349/22350  speed: above limit + 0.5 m/s sustained >= 1.0 s
                (22349 uses the 65 mph absolute maximum); a same-lane
                time headway below 2.0 s sustained >= 1.0 s is reported
                under 22350 with headway evidence
 - 22450        stop sign: minimum speed above 0.1 m/s anywhere in the
                5 m zone before the stop line, judged at the crossing
 - 21453        red light: front edge crosses the stop line on red
 - 21460/21461  a footprint corner crosses the direction divider into
                opposing traffic; solid markers violate 21460, broken
                markers violate 21461 when oncoming traffic is within
                30 m (the broken marker exempts 21460)
 - 22107/22108  lane change between parallel same-direction lanes with
                a vehicle inside 2.0 s time headway (22107) or initiated
                within 2 m of a junction conflict region (22108)
 - 21800-21804  entering the conflict region while an actor with
                priority reaches it within 2.0 s; the section is chosen
                by approach control: signalized 21800, stop-controlled
                21802, uncontrolled left turns 21801, otherwise 21800.
                21803 (yield signs) and 21804 (driveway entries) are
                registered but cannot trigger on the built topologies.

Stop signs and signals control the non-ego approaches; the ego leg is
the priority road (matching the adversary-violates design of the
scenario fixtures).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Any, Iterable

from .digests import canonical_json, to_data
from .dsl import KNOWN_RULE_IDS, OracleEntry
from .sim import (
    ActorTrack,
    ArcSeg,
    CollisionEvent,
    LEG_HEADINGS,
    OVERLAP_MARGIN_M,
    RoadGeometry,
    StopLine,
    Trace,
    VEHICLE_DIMS,
    approach_of,
    ego_leg,
    first_overlap,
    lateral_function,
    normalize_heading,
    polygon_outline,
    rect_corners,
)

SPEED_TOLERANCE = 0.5          # m/s over the limit before a violation
SPEED_SUSTAIN_S = 1.0
ABSOLUTE_MAX_SPEED = 29.0576   # 65 mph, CVC 22349
STOP_ZONE_M = 5.0
STOP_SPEED_MAX = 0.1           # m/s counted as "stopped"
HEADWAY_S = 2.0
HEADWAY_SUSTAIN_S = 1.0
ONCOMING_RANGE_M = 30.0        # 21461 passing window
PRIORITY_WINDOW_S = 2.0
JUNCTION_CHANGE_M = 2.0        # 22108 proxy distance

_EPS = 1e-9


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    category: str
    parameters: dict[str, float]


@dataclass(frozen=True)
class Violation:
    rule_id: str
    actor_id: str
    t_start: float
    t_end: float
    evidence: dict[str, Any]


@dataclass(frozen=True)
class ViolationReport:
    scenario_id: str
    instance_seed: int
    violations: tuple[Violation, ...]
    collisions: tuple[CollisionEvent, ...]
    outcome: str
    targeted_hit: bool

    def distinct_rules(self) -> tuple[str, ...]:
        return tuple(sorted({v.rule_id for v in self.violations}))

    def to_json(self) -> str:
        return canonical_json(to_data(self))


REGISTRY: dict[str, RuleSpec] = {
    "21453": RuleSpec("21453", "signal", {}),
    "21460": RuleSpec("21460", "overtaking", {}),
    "21461": RuleSpec("21461", "overtaking", {"oncoming_range_m": ONCOMING_RANGE_M}),
    "21800": RuleSpec("21800", "right_of_way", {"window_s": PRIORITY_WINDOW_S}),
    "21801": RuleSpec("21801", "right_of_way", {"window_s": PRIORITY_WINDOW_S}),
    "21802": RuleSpec("21802", "right_of_way", {"window_s": PRIORITY_WINDOW_S}),
    "21803": RuleSpec("21803", "right_of_way", {"window_s": PRIORITY_WINDOW_S}),
    "21804": RuleSpec("21804", "right_of_way", {"window_s": PRIORITY_WINDOW_S}),
    "22107": RuleSpec("22107", "lane_maneuver", {"headway_s": HEADWAY_S}),
    "22108": RuleSpec("22108", "lane_maneuver", {"junction_margin_m": JUNCTION_CHANGE_M}),
    "22349": RuleSpec("22349", "speed", {"limit_mps": ABSOLUTE_MAX_SPEED}),
    "22350": RuleSpec("22350", "speed", {"tolerance_mps": SPEED_TOLERANCE}),
    "22450": RuleSpec("22450", "stop_sign", {"zone_m": STOP_ZONE_M, "max_speed_mps": STOP_SPEED_MAX}),
}

assert tuple(sorted(REGISTRY)) == tuple(sorted(KNOWN_RULE_IDS))


def _intervals(flags: list[bool], times: list[float]) -> list[tuple[float, float]]:
    """Maximal runs of consecutive true flags as (t_start, t_end)."""
    out: list[tuple[float, float]] = []
    start: float | None = None
    for flag, t in zip(flags, times):
        if flag and start is None:
            start = t
        elif not flag and start is not None:
            out.append((start, prev))
            start = None
        prev = t
    if start is not None:
        out.append((start, times[-1]))
    return out


def _merge(violations: list[Violation], gap: float) -> list[Violation]:
    """Merge adjacent/overlapping violations of the same (rule, actor)."""
    merged: dict[tuple[str, str], list[Violation]] = {}
    for v in sorted(violations, key=lambda v: (v.rule_id, v.actor_id, v.t_start)):
        bucket = merged.setdefault((v.rule_id, v.actor_id), [])
        if bucket and v.t_start <= bucket[-1].t_end + gap + _EPS:
            last = bucket[-1]
            bucket[-1] = Violation(last.rule_id, last.actor_id, last.t_start,
                                   max(last.t_end, v.t_end), last.evidence)
        else:
            bucket.append(v)
    out = [v for bucket in merged.values() for v in bucket]
    return sorted(out, key=lambda v: (v.t_start, v.rule_id, v.actor_id))


def _front_point(x: float, y: float, heading: float, length: float) -> tuple[float, float]:
    half = length / 2.0
    return x + half * math.cos(heading), y + half * math.sin(heading)


def _parallel_lanes(geometry: RoadGeometry, lane_a: str, lane_b: str) -> bool:
    la = next((l for l in geometry.lanes if l.lane_id == lane_a), None)
    lb = next((l for l in geometry.lanes if l.lane_id == lane_b), None)
    if la is None or lb is None or lane_a == lane_b:
        return False
    if la.approach is not None or lb.approach is not None:
        return la.approach == lb.approach
    return la.direction == lb.direction


class TraceView:
    """What the rule checks read from one trace, each piece computed once.

    `monitor` builds one view per trace and passes it to every check.  The
    checks read the trace's per-actor tracks directly; derived data
    (approaches, footprint corners, stop-line crossings, conflict-region entries,
    divider flags, lane changes) is computed on first use and kept here,
    never on the frozen trace.  A view is only valid with the geometry the
    trace was produced on.
    """

    def __init__(self, trace: Trace, geometry: RoadGeometry):
        if trace.geometry_ref != geometry.digest():
            raise ValueError("trace was produced on a different geometry")
        self.trace = trace
        self.geometry = geometry
        self.times = trace.times
        self.signals = trace.signals
        self.actor_ids = sorted(trace.actor_types)
        self.tracks: dict[str, ActorTrack] = {track.actor_id: track for track in trace.tracks}
        self.dims = {actor_id: VEHICLE_DIMS[kind] for actor_id, kind in trace.actor_types.items()}
        self._corners: dict[tuple[str, int], tuple[tuple[float, float], ...]] = {}
        self._memo: dict[tuple[str, str], Any] = {}

    def _cached(self, kind: str, actor_id: str, compute):
        key = (kind, actor_id)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def outline(self, actor_id: str):
        """The actor's footprints as a `sim.first_overlap` outline."""
        track = self.tracks[actor_id]
        length, width = self.dims[actor_id]
        return (track.x, track.y, track.heading, length / 2.0, width / 2.0,
                functools.partial(self.corners, actor_id))

    def corners(self, actor_id: str, k: int) -> tuple[tuple[float, float], ...]:
        """The corners of the actor's footprint in frame k, computed on first use."""
        corners = self._corners.get((actor_id, k))
        if corners is None:
            track = self.tracks[actor_id]
            corners = self._corners[actor_id, k] = rect_corners(
                track.x[k], track.y[k], track.heading[k], *self.dims[actor_id])
        return corners

    def approach(self, actor_id: str) -> str:
        """The approach the actor is on in the first frame."""
        return self._cached("approach", actor_id,
                            lambda: approach_of(self.tracks[actor_id].heading[0]))

    def travel_direction(self, actor_id: str) -> int:
        """+1 with the road axis, -1 against it (taken from the first frame)."""
        def compute() -> int:
            track = self.tracks[actor_id]
            axis = self.geometry.axis
            _, _, axis_heading = axis.point(axis.locate(track.x[0], track.y[0])[0], 0.0)
            return 1 if math.cos(track.heading[0] - axis_heading) >= 0 else -1
        return self._cached("direction", actor_id, compute)

    def stop_line_crossing(self, actor_id: str) -> tuple[StopLine, int] | None:
        """The actor's approach stop line and the frame its front edge first crosses it inbound."""
        def compute():
            approach = self.approach(actor_id)
            stop_line = next((sl for sl in self.geometry.stop_lines if sl.approach == approach),
                             None)
            if stop_line is None:
                return None
            length, _ = VEHICLE_DIMS[self.trace.actor_types[actor_id]]
            track = self.tracks[actor_id]
            prev_delta = None
            for k, (x, y, heading) in enumerate(zip(track.x, track.y, track.heading)):
                fx, fy = _front_point(x, y, heading, length)
                c = fx if stop_line.axis == "x" else fy
                other = fy if stop_line.axis == "x" else fx
                delta = (c - stop_line.coord) * stop_line.inbound
                if prev_delta is not None and prev_delta < 0 <= delta:
                    if stop_line.lo - 2.0 <= other <= stop_line.hi + 2.0:
                        return stop_line, k
                prev_delta = delta
            return None
        return self._cached("stop_line", actor_id, compute)

    def zone_min_speed(self, actor_id: str, stop_line: StopLine, crossing_frame: int) -> float:
        length, _ = VEHICLE_DIMS[self.trace.actor_types[actor_id]]
        track = self.tracks[actor_id]
        speeds = []
        for _, x, y, heading, speed in zip(range(crossing_frame + 1), track.x, track.y,
                                           track.heading, track.speed):
            fx, fy = _front_point(x, y, heading, length)
            c = fx if stop_line.axis == "x" else fy
            dist = (stop_line.coord - c) * stop_line.inbound
            if 0.0 <= dist <= STOP_ZONE_M:
                speeds.append(speed)
        if not speeds:
            return track.speed[crossing_frame]
        return min(speeds)

    def lateral_offsets(self, actor_id: str) -> tuple[float, ...]:
        """The lateral offset of the actor's centre from the road axis, per frame."""
        lateral = lateral_function(self.geometry.axis)
        track = self.tracks[actor_id]
        return self._cached("lateral", actor_id,
                            lambda: tuple(map(lateral, track.x, track.y)))

    def divider_flags(self, actor_id: str) -> list[bool]:
        """Per frame: any footprint corner across the divider into opposing traffic."""
        def compute() -> list[bool]:
            axis = self.geometry.axis
            direction = self.travel_direction(actor_id)
            track = self.tracks[actor_id]
            cos, sin = map(math.cos, track.heading), map(math.sin, track.heading)
            length, width = self.dims[actor_id]
            hl, hw = length / 2.0, width / 2.0
            offsets = self.lateral_offsets(actor_id)
            # Per frame a bound on how far across the farthest corner lies, and
            # the edge beyond which the bound decides: the margin, plus on an arc
            # the slack of the bound (docs/rules.md).  Only a footprint whose
            # bound lies within the edge of 0 has its corners located.
            if isinstance(axis, ArcSeg):
                cx, cy, radius, sign = axis.cx, axis.cy, axis.radius, axis.sign
                slack = (hl * hl + hw * hw) / 2.0  # circumradius squared, halved
                bounds = []
                for x, y, c, s, lat in zip(track.x, track.y, cos, sin, offsets):
                    dist = radius - sign * lat  # of the centre from the arc's centre
                    if dist > 0.0:
                        qx, qy = x - cx, y - cy
                        bounds.append((direction * lat + (hl * abs(qx * c + qy * s)
                                                          + hw * abs(qy * c - qx * s)) / dist,
                                       OVERLAP_MARGIN_M + slack / dist))
                    else:
                        bounds.append((0.0, math.inf))
            else:
                ux, uy = axis.dx, axis.dy
                bounds = [(direction * lat + hl * abs(s * ux - c * uy) + hw * abs(c * ux + s * uy),
                           OVERLAP_MARGIN_M) for c, s, lat in zip(cos, sin, offsets)]
            lateral = lateral_function(axis)
            flags = []
            for k, (bound, edge) in enumerate(bounds):
                if bound > edge or bound < -edge:
                    flags.append(bound > edge)
                else:
                    flags.append(any(direction * lateral(px, py) > 0
                                     for px, py in self.corners(actor_id, k)))
            return flags
        return self._cached("divider", actor_id, compute)

    def max_abs_lateral(self, actor_id: str) -> float:
        return self._cached("max_lateral", actor_id,
                            lambda: max(map(abs, self.lateral_offsets(actor_id))))

    def oncoming_within(self, actor_id: str, k: int, range_m: float) -> bool:
        me = self.tracks[actor_id]
        for other_id in self.actor_ids:
            if other_id == actor_id:
                continue
            other = self.tracks[other_id]
            if math.cos(me.heading[k] - other.heading[k]) < -0.5:
                if math.hypot(other.x[k] - me.x[k], other.y[k] - me.y[k]) <= range_m:
                    return True
        return False

    def region_entries(self) -> dict[str, int]:
        """First frame index where each actor's footprint reaches the conflict region."""
        def compute() -> dict[str, int]:
            region = polygon_outline(self.geometry.conflict_region, len(self.times))
            entries = {actor_id: first_overlap(self.outline(actor_id), region)
                       for actor_id in self.actor_ids}
            return {actor_id: k for actor_id, k in entries.items() if k is not None}
        return self._cached("region_entries", "", compute)

    def turns_left(self, actor_id: str, entry_frame: int) -> bool:
        headings = self.tracks[actor_id].heading
        delta = normalize_heading(headings[-1] - headings[entry_frame])
        return delta > math.pi / 4

    def lane_changes(self) -> list[tuple[str, int]]:
        """(actor, frame) for every move between parallel lanes, by actor then frame."""
        def compute() -> list[tuple[str, int]]:
            out = []
            for actor_id in self.actor_ids:
                lane_ids = self.tracks[actor_id].lane_id
                for k in range(1, len(lane_ids)):
                    prev, cur = lane_ids[k - 1], lane_ids[k]
                    if prev != cur and _parallel_lanes(self.geometry, prev, cur):
                        out.append((actor_id, k))
            return out
        return self._cached("lane_changes", "", compute)


# ---------------------------------------------------------------------------
# individual checks: plain functions of the view


def _speeding(view: TraceView, rule_id: str, limit: float) -> list[Violation]:
    out: list[Violation] = []
    for actor_id in view.actor_ids:
        speeds = view.tracks[actor_id].speed
        flags = [speed > limit + SPEED_TOLERANCE for speed in speeds]
        for t0, t1 in _intervals(flags, view.times):
            if t1 - t0 + _EPS >= SPEED_SUSTAIN_S:
                peak = max(speeds)
                out.append(Violation(rule_id, actor_id, t0, t1,
                                     {"max_speed_mps": peak, "limit_mps": limit}))
    return out


def _headway(view: TraceView) -> list[Violation]:
    """Same-lane, same-direction following below 2 s headway (as 22350 evidence)."""
    out: list[Violation] = []
    for follower in view.actor_ids:
        f = view.tracks[follower]
        for lead in view.actor_ids:
            if lead == follower:
                continue
            ld = view.tracks[lead]
            flags = [f_lane == l_lane and fv > 0 and _within_headway(fx, fy, fh, fv, lx, ly, lh)
                     for f_lane, l_lane, fv, fx, fy, fh, lx, ly, lh in zip(
                         f.lane_id, ld.lane_id, f.speed, f.x, f.y, f.heading,
                         ld.x, ld.y, ld.heading)]
            if True not in flags:
                continue
            for t0, t1 in _intervals(flags, view.times):
                if t1 - t0 + _EPS >= HEADWAY_SUSTAIN_S:
                    out.append(Violation("22350", follower, t0, t1,
                                         {"kind": "headway", "lead": lead,
                                          "headway_limit_s": HEADWAY_S}))
    return out


def _within_headway(fx: float, fy: float, fh: float, fv: float,
                    lx: float, ly: float, lh: float) -> bool:
    """Lead aligned with and ahead of the follower, closer than the headway gap.

    The follower is at (fx, fy) with heading fh and speed fv; the lead is at
    (lx, ly) with heading lh.
    """
    if not math.cos(fh - lh) > 0.5:
        return False
    dx, dy = lx - fx, ly - fy
    if not dx * math.cos(fh) + dy * math.sin(fh) > 0:
        return False
    return math.hypot(dx, dy) < HEADWAY_S * fv


def _check_absolute_speed(view: TraceView) -> list[Violation]:
    """22349: above the 65 mph maximum."""
    return _speeding(view, "22349", ABSOLUTE_MAX_SPEED)


def _check_basic_speed(view: TraceView) -> list[Violation]:
    """22350: above the posted limit, or following inside the headway."""
    return _speeding(view, "22350", view.geometry.speed_limit) + _headway(view)


def _controlled_approaches(geometry: RoadGeometry) -> tuple[str, ...]:
    """Approaches governed by a stop sign: every leg except the ego's."""
    if "stop_sign" not in geometry.scenario.signs:
        return ()
    ego = ego_leg(geometry.topology)
    return tuple(sl.approach for sl in geometry.stop_lines if sl.approach != ego)


def _check_stop_sign(view: TraceView) -> list[Violation]:
    """22450: crossing a stop-controlled line without stopping in the zone."""
    controlled = _controlled_approaches(view.geometry)
    if not controlled:
        return []
    out: list[Violation] = []
    for actor_id in view.actor_ids:
        approach = view.approach(actor_id)
        if approach not in controlled:
            continue
        crossing = view.stop_line_crossing(actor_id)
        if crossing is None:
            continue
        stop_line, k = crossing
        min_speed = view.zone_min_speed(actor_id, stop_line, k)
        if min_speed > STOP_SPEED_MAX:
            t = view.times[k]
            out.append(Violation("22450", actor_id, t, t,
                                 {"min_zone_speed_mps": min_speed, "approach": approach}))
    return out


def _check_red_light(view: TraceView) -> list[Violation]:
    """21453: crossing the stop line on red."""
    geometry = view.geometry
    if not geometry.signal_heads:
        return []
    out: list[Violation] = []
    for actor_id in view.actor_ids:
        approach = view.approach(actor_id)
        if geometry.signal_for(approach) is None:
            continue
        crossing = view.stop_line_crossing(actor_id)
        if crossing is None:
            continue
        _, k = crossing
        states = dict(view.signals[k])
        if states.get(approach) == "red":
            t = view.times[k]
            out.append(Violation("21453", actor_id, t, t,
                                 {"signal_state": "red", "approach": approach}))
    return out


def _divider_crossings(view: TraceView, rule_id: str, marker: str) -> list[Violation]:
    geometry = view.geometry
    if geometry.axis is None or geometry.scenario.number_of_ways != 2:
        return []
    if geometry.scenario.marker != marker:
        return []
    out: list[Violation] = []
    for actor_id in view.actor_ids:
        flags = view.divider_flags(actor_id)
        if rule_id == "21461":
            flags = [flag and view.oncoming_within(actor_id, k, ONCOMING_RANGE_M)
                     for k, flag in enumerate(flags)]
        for t0, t1 in _intervals(flags, view.times):
            out.append(Violation(rule_id, actor_id, t0, t1,
                                 {"marker": marker,
                                  "max_lateral_m": view.max_abs_lateral(actor_id)}))
    return out


def _check_solid_divider(view: TraceView) -> list[Violation]:
    """21460: crossing a solid direction divider."""
    return _divider_crossings(view, "21460", "solid_line")


def _check_broken_divider(view: TraceView) -> list[Violation]:
    """21461: crossing a broken divider with oncoming traffic in range."""
    return _divider_crossings(view, "21461", "broken_line")


def _region_distance(geometry: RoadGeometry, x: float, y: float) -> float:
    xs = [p[0] for p in geometry.conflict_region]
    ys = [p[1] for p in geometry.conflict_region]
    dx = max(min(xs) - x, 0.0, x - max(xs))
    dy = max(min(ys) - y, 0.0, y - max(ys))
    return math.hypot(dx, dy)


def _check_unsafe_lane_change(view: TraceView) -> list[Violation]:
    """22107: a lane change with a vehicle inside the headway gap."""
    out: list[Violation] = []
    for actor_id, k in view.lane_changes():
        cur = view.tracks[actor_id]
        x, y, speed, t = cur.x[k], cur.y[k], cur.speed[k], view.times[k]
        for other in view.trace.tracks:  # in frame order
            if other.actor_id == actor_id:
                continue
            gap = math.hypot(other.x[k] - x, other.y[k] - y)
            if speed > 0 and gap < HEADWAY_S * speed:
                out.append(Violation("22107", actor_id, t, t,
                                     {"gap_m": gap, "nearby": other.actor_id}))
                break
    return out


def _check_junction_lane_change(view: TraceView) -> list[Violation]:
    """22108: a lane change started near the junction conflict region."""
    geometry = view.geometry
    if geometry.conflict_region is None:
        return []
    out: list[Violation] = []
    for actor_id, k in view.lane_changes():
        cur = view.tracks[actor_id]
        dist = _region_distance(geometry, cur.x[k], cur.y[k])
        if dist <= JUNCTION_CHANGE_M:
            t = view.times[k]
            out.append(Violation("22108", actor_id, t, t, {"region_distance_m": dist}))
    return out


def _has_priority(view: TraceView, b_id: str, b_entry: int, a_id: str, a_entry: int) -> bool:
    """Does actor B hold priority over actor A for a region entry conflict."""
    geometry = view.geometry
    a_approach = view.approach(a_id)
    b_approach = view.approach(b_id)
    if geometry.signal_heads:
        a_state = dict(view.signals[a_entry]).get(a_approach)
        b_state = dict(view.signals[b_entry]).get(b_approach)
        return b_state == "green" and a_state == "red"
    controlled = _controlled_approaches(geometry)
    if controlled:
        return a_approach in controlled and b_approach not in controlled
    # uncontrolled: a left turner yields to straight-through traffic, then
    # first arrival, then the on-the-right tie-break
    a_turns = view.turns_left(a_id, a_entry)
    b_turns = view.turns_left(b_id, b_entry)
    if b_turns and not a_turns:
        return False
    if a_turns and not b_turns:
        return True
    t_a = view.times[a_entry]
    t_b = view.times[b_entry]
    if t_b < t_a - PRIORITY_WINDOW_S:
        return True
    if abs(t_b - t_a) <= PRIORITY_WINDOW_S:
        ha = LEG_HEADINGS[a_approach]
        hb = LEG_HEADINGS[b_approach]
        return ha[0] * hb[1] - ha[1] * hb[0] > 0  # B comes from A's right
    return False


def _right_of_way_section(view: TraceView, actor_id: str, entry: int) -> str:
    geometry = view.geometry
    approach = view.approach(actor_id)
    if geometry.signal_for(approach) is not None:
        return "21800"
    if approach in _controlled_approaches(geometry):
        return "21802"
    if view.turns_left(actor_id, entry):
        return "21801"
    return "21800"


def _failures_to_yield(view: TraceView, rule_id: str) -> list[Violation]:
    if view.geometry.conflict_region is None:
        return []
    entries = sorted(view.region_entries().items())
    out: list[Violation] = []
    for a_id, a_entry in entries:
        t_a = view.times[a_entry]
        for b_id, b_entry in entries:
            if b_id == a_id:
                continue
            t_b = view.times[b_entry]
            if t_b > t_a + PRIORITY_WINDOW_S:
                continue
            if not _has_priority(view, b_id, b_entry, a_id, a_entry):
                continue
            section = _right_of_way_section(view, a_id, a_entry)
            if section == rule_id:
                out.append(Violation(rule_id, a_id, t_a, t_a,
                                     {"priority_actor": b_id, "gap_s": abs(t_b - t_a)}))
            break
    return out


def _check_signal_or_general_yield(view: TraceView) -> list[Violation]:
    """21800: entering ahead of an actor with priority (signalized or default)."""
    return _failures_to_yield(view, "21800")


def _check_left_turn_yield(view: TraceView) -> list[Violation]:
    """21801: an uncontrolled left turn into an actor with priority."""
    return _failures_to_yield(view, "21801")


def _check_stop_controlled_yield(view: TraceView) -> list[Violation]:
    """21802: entering from a stop-controlled approach ahead of an actor with priority."""
    return _failures_to_yield(view, "21802")


def _check_yield_sign(view: TraceView) -> list[Violation]:
    """21803: no yield signs in the sign vocabulary."""
    return []


def _check_driveway_entry(view: TraceView) -> list[Violation]:
    """21804: no driveway legs in the built topologies."""
    return []


_CHECKS = {
    "21453": _check_red_light,
    "21460": _check_solid_divider,
    "21461": _check_broken_divider,
    "21800": _check_signal_or_general_yield,
    "21801": _check_left_turn_yield,
    "21802": _check_stop_controlled_yield,
    "21803": _check_yield_sign,
    "21804": _check_driveway_entry,
    "22107": _check_unsafe_lane_change,
    "22108": _check_junction_lane_change,
    "22349": _check_absolute_speed,
    "22350": _check_basic_speed,
    "22450": _check_stop_sign,
}


def evaluate_rule(rule_id: str, view: TraceView) -> list[Violation]:
    """Run one registry rule over a trace view, merging adjacent intervals."""
    if rule_id not in REGISTRY:
        raise KeyError(f"rule {rule_id!r} is not in the registry")
    return _merge(_CHECKS[rule_id](view), view.trace.timestep_s)


def detect_collisions(view: TraceView) -> list[CollisionEvent]:
    """First overlapping frame per actor pair (separating-axis test)."""
    ids = view.actor_ids
    hits: list[tuple[int, int, CollisionEvent]] = []
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    for n, (a, b) in enumerate(pairs):
        k = first_overlap(view.outline(a), view.outline(b))
        if k is not None:
            hits.append((k, n, CollisionEvent(t=view.times[k], actor_a=a, actor_b=b)))
    # frame order, then pair order within a frame
    return [event for _, _, event in sorted(hits, key=lambda hit: hit[:2])]


def monitor(trace: Trace, oracle: Iterable[OracleEntry], geometry: RoadGeometry) -> ViolationReport:
    """Evaluate every registry rule plus collisions and classify the outcome."""
    oracle = tuple(oracle)
    if not oracle:
        raise ValueError("oracle must not be empty")
    view = TraceView(trace, geometry)
    violations: list[Violation] = []
    for rule_id in sorted(REGISTRY):
        violations.extend(evaluate_rule(rule_id, view))
    # each rule's list is already merged per (rule, actor); only the order is left
    violations.sort(key=lambda v: (v.t_start, v.rule_id, v.actor_id))
    collisions = detect_collisions(view)

    if violations and collisions:
        outcome = "both"
    elif violations:
        outcome = "rule_violation"
    elif collisions:
        outcome = "collision"
    else:
        outcome = "clean"

    targeted = all(
        any(v.rule_id == entry.rule_id and v.actor_id == entry.violating_actor
            for v in violations)
        for entry in oracle
    )
    return ViolationReport(
        scenario_id=trace.scenario_id,
        instance_seed=trace.instance_seed,
        violations=tuple(violations),
        collisions=tuple(collisions),
        outcome=outcome,
        targeted_hit=targeted,
    )


SUMMARY_COLUMNS = ["scenario_id", "seed", "outcome", "targeted_hit"] + [
    f"cvc_{rule_id}" for rule_id in sorted(REGISTRY)
]


def summary_csv(reports: Iterable[ViolationReport]) -> str:
    """Batch summary, one row per instance, ordered by (scenario, seed)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for report in sorted(reports, key=lambda r: (r.scenario_id, r.instance_seed)):
        counts = {rule_id: 0 for rule_id in REGISTRY}
        for v in report.violations:
            counts[v.rule_id] += 1
        writer.writerow(
            [report.scenario_id, report.instance_seed, report.outcome,
             str(report.targeted_hit).lower()]
            + [counts[rule_id] for rule_id in sorted(REGISTRY)]
        )
    return buffer.getvalue()
