"""Parametric 2D road geometry and scripted kinematic simulation.

Towns are symbolic labels realized here as exact analytic geometry: lines
and circular arcs, lane width 3.5 m.  Actors follow precomputed paths at
scripted speeds; the configured adversary maneuver (oncoming incursion,
lead vehicle, timed junction crossing) is layered on top.  A simulation
is a pure function of (instance, geometry), so traces serialize
byte-identically across runs.

`simulate` runs mover by mover over blocks of frames, and its floats are
those of a loop that steps every mover one frame at a time:
 - each mover's state depends only on its own past;
 - the one exception, the head-on incursion trigger, also reads the ego's
   position in the same frame, and the ego runs first in every block;
 - collisions only set the end frame, so a scan after each block finds the
   first one and every column is cut at the end frame.

Conventions:
 - right-hand traffic; the innermost forward lane sits 1.75 m right of
   the road axis
 - lateral offsets are positive to the LEFT of the travel direction
 - junction "left"/"right" adversary variants are exact reflections of
   each other about the ego approach line, so mirrored scenarios produce
   mirrored traces (the crossing corridor is shared; see docs)
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

from .digests import canonical_json, digest64_json, to_data
from .sampling import ScenarioInstance
from .synth import ScenarioTemplate, TemplateParams

TIMESTEP_S = 0.1
HORIZON_S = 60.0
LANE_WIDTH = 3.5
ROAD_LENGTH = 300.0          # straight roads
CURVE_RADIUS = 100.0         # road-axis radius of the curve
CURVE_SWEEP = math.pi / 3.0  # 60 degrees of heading change (>= 30 required)
LEG_EXTENT = 130.0           # junction legs, distance from center
STOP_LINE_SETBACK = 1.0      # meters before the conflict region
DEFAULT_SPEED_LIMIT = 13.89  # m/s (50 km/h) when no limit is posted
BRAKE_DECEL = 4.0            # m/s^2 for the stop behavior
RAMP_DURATION_S = 2.0        # head-on lateral incursion time
ARRIVAL_LEAD_S = 0.1         # junction adversary reaches the cell this long before the ego
EGO_RUNUP_M = 20.0           # added to EGO_INIT_DIST for junction approaches

# Signal schedule: ego approach green at t=0, crossing approaches red.
SIGNAL_CYCLE_S = 30.0
SIGNAL_GREEN_S = 12.0
SIGNAL_YELLOW_S = 3.0
CROSS_OFFSET_S = SIGNAL_GREEN_S + SIGNAL_YELLOW_S

VEHICLE_DIMS = {"car": (4.5, 2.0), "truck": (8.0, 2.5)}  # length, width

TWO_PI = 2.0 * math.pi


def normalize_heading(h: float) -> float:
    """Wrap to (-pi, pi]."""
    h = math.remainder(h, TWO_PI)
    if h <= -math.pi:
        h += TWO_PI
    return h


# ---------------------------------------------------------------------------
# analytic path segments


@dataclass(frozen=True)
class LineSeg:
    x0: float
    y0: float
    dx: float  # unit direction
    dy: float
    length: float
    kind: str = field(default="line", init=False, repr=False)

    def point(self, s: float, lat: float) -> tuple[float, float, float]:
        # left normal of (dx, dy) is (-dy, dx)
        return (
            self.x0 + self.dx * s - self.dy * lat,
            self.y0 + self.dy * s + self.dx * lat,
            math.atan2(self.dy, self.dx),
        )

    def locate(self, x: float, y: float) -> tuple[float, float]:
        px, py = x - self.x0, y - self.y0
        return px * self.dx + py * self.dy, -px * self.dy + py * self.dx


@dataclass(frozen=True)
class ArcSeg:
    cx: float
    cy: float
    radius: float
    a0: float     # start angle
    sweep: float  # signed; positive = counterclockwise
    length: float
    kind: str = field(default="arc", init=False, repr=False)

    @property
    def sign(self) -> float:
        return 1.0 if self.sweep >= 0 else -1.0

    def point(self, s: float, lat: float) -> tuple[float, float, float]:
        ang = self.a0 + self.sign * s / self.radius
        r = self.radius - self.sign * lat
        return (
            self.cx + r * math.cos(ang),
            self.cy + r * math.sin(ang),
            normalize_heading(ang + self.sign * math.pi / 2.0),
        )

    def locate(self, x: float, y: float) -> tuple[float, float]:
        ang = math.atan2(y - self.cy, x - self.cx)
        delta = math.remainder(ang - self.a0, TWO_PI) * self.sign
        dist = math.hypot(x - self.cx, y - self.cy)
        return delta * self.radius, self.sign * (self.radius - dist)


Segment = LineSeg | ArcSeg


def lateral_function(seg: Segment):
    """`seg.locate(x, y)[1]` alone, as a closure for hot loops."""
    if isinstance(seg, ArcSeg):
        cx, cy, radius, sign = seg.cx, seg.cy, seg.radius, seg.sign
        return lambda x, y: sign * (radius - math.hypot(x - cx, y - cy))
    x0, y0, dx, dy = seg.x0, seg.y0, seg.dx, seg.dy
    return lambda x, y: -(x - x0) * dy + (y - y0) * dx


def _locate_function(seg: Segment):
    """`seg.locate`, as a closure for hot loops."""
    if isinstance(seg, ArcSeg):
        cx, cy, radius, a0, sign = seg.cx, seg.cy, seg.radius, seg.a0, seg.sign
        atan2, hypot, remainder = math.atan2, math.hypot, math.remainder

        def locate_on_arc(x: float, y: float) -> tuple[float, float]:
            delta = remainder(atan2(y - cy, x - cx) - a0, TWO_PI) * sign
            return delta * radius, sign * (radius - hypot(x - cx, y - cy))

        return locate_on_arc
    x0, y0, dx, dy = seg.x0, seg.y0, seg.dx, seg.dy

    def locate_on_line(x: float, y: float) -> tuple[float, float]:
        px, py = x - x0, y - y0
        return px * dx + py * dy, -px * dy + py * dx

    return locate_on_line


def _line(p0: tuple[float, float], p1: tuple[float, float]) -> LineSeg:
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    length = math.hypot(dx, dy)
    return LineSeg(p0[0], p0[1], dx / length, dy / length, length)


def path_length(path: tuple[Segment, ...]) -> float:
    return sum(seg.length for seg in path)


def path_point(path: tuple[Segment, ...], s: float, lat: float = 0.0) -> tuple[float, float, float]:
    """Position and heading at arc length s; extrapolates beyond both ends."""
    remaining = s
    for i, seg in enumerate(path):
        last = i == len(path) - 1
        if remaining <= seg.length or last:
            return seg.point(remaining, lat)
        remaining -= seg.length
    raise ValueError("empty path")


def _point_function(path: tuple[Segment, ...]):
    """`path_point` bound to one path.  A single line's heading is computed once;
    a single arc keeps `ArcSeg.point`'s arithmetic in the same order."""
    seg = path[0]
    if len(path) > 1:
        return functools.partial(path_point, path)
    if isinstance(seg, ArcSeg):
        cx, cy, radius, a0, sign = seg.cx, seg.cy, seg.radius, seg.a0, seg.sign
        turn, cos, sin, remainder = sign * math.pi / 2.0, math.cos, math.sin, math.remainder

        def arc_point(s: float, lat: float) -> tuple[float, float, float]:
            ang = a0 + sign * s / radius
            r = radius - sign * lat
            heading = remainder(ang + turn, TWO_PI)  # normalize_heading, inlined
            if heading <= -math.pi:
                heading += TWO_PI
            return cx + r * cos(ang), cy + r * sin(ang), heading

        return arc_point
    x0, y0, dx, dy, heading = seg.x0, seg.y0, seg.dx, seg.dy, math.atan2(seg.dy, seg.dx)
    return lambda s, lat: (x0 + dx * s - dy * lat, y0 + dy * s + dx * lat, heading)


def mirror_path_x(path: tuple[Segment, ...], axis_x: float) -> tuple[Segment, ...]:
    """Reflect about the vertical line x = axis_x."""
    out: list[Segment] = []
    for seg in path:
        if isinstance(seg, LineSeg):
            out.append(LineSeg(2 * axis_x - seg.x0, seg.y0, -seg.dx, seg.dy, seg.length))
        else:
            out.append(ArcSeg(2 * axis_x - seg.cx, seg.cy, seg.radius,
                              normalize_heading(math.pi - seg.a0), -seg.sweep, seg.length))
    return tuple(out)


def mirror_path_y(path: tuple[Segment, ...], axis_y: float) -> tuple[Segment, ...]:
    """Reflect about the horizontal line y = axis_y."""
    out: list[Segment] = []
    for seg in path:
        if isinstance(seg, LineSeg):
            out.append(LineSeg(seg.x0, 2 * axis_y - seg.y0, seg.dx, -seg.dy, seg.length))
        else:
            out.append(ArcSeg(seg.cx, 2 * axis_y - seg.cy, seg.radius,
                              normalize_heading(-seg.a0), -seg.sweep, seg.length))
    return tuple(out)


def path_intersection(path_a: tuple[Segment, ...], path_b: tuple[Segment, ...]
                      ) -> tuple[float, float] | None:
    """First crossing of two centerlines as (s_a, s_b); None if disjoint."""
    best: tuple[float, float] | None = None
    offset_a = 0.0
    for seg_a in path_a:
        offset_b = 0.0
        for seg_b in path_b:
            for sa, sb in _segment_intersections(seg_a, seg_b):
                if -1e-9 <= sa <= seg_a.length + 1e-9 and -1e-9 <= sb <= seg_b.length + 1e-9:
                    cand = (offset_a + sa, offset_b + sb)
                    if best is None or cand[0] < best[0]:
                        best = cand
            offset_b += seg_b.length
        offset_a += seg_a.length
    return best


def _segment_intersections(a: Segment, b: Segment) -> list[tuple[float, float]]:
    if isinstance(a, LineSeg) and isinstance(b, LineSeg):
        denom = a.dx * b.dy - a.dy * b.dx
        if abs(denom) < 1e-12:
            return []
        rx, ry = b.x0 - a.x0, b.y0 - a.y0
        sa = (rx * b.dy - ry * b.dx) / denom
        sb = (rx * a.dy - ry * a.dx) / denom
        return [(sa, sb)]
    if isinstance(a, LineSeg) and isinstance(b, ArcSeg):
        return [(sa, sb) for sb, sa in _arc_line_hits(b, a)]
    if isinstance(a, ArcSeg) and isinstance(b, LineSeg):
        return _arc_line_hits(a, b)
    return []  # arc/arc crossings are not needed by any built topology


def _arc_line_hits(arc: ArcSeg, line: LineSeg) -> list[tuple[float, float]]:
    """Intersections as (s_arc, s_line)."""
    # project the center onto the line
    px, py = arc.cx - line.x0, arc.cy - line.y0
    along = px * line.dx + py * line.dy
    perp = -px * line.dy + py * line.dx
    if abs(perp) > arc.radius:
        return []
    half = math.sqrt(max(arc.radius * arc.radius - perp * perp, 0.0))
    hits = []
    for s_line in (along - half, along + half):
        x = line.x0 + line.dx * s_line
        y = line.y0 + line.dy * s_line
        ang = math.atan2(y - arc.cy, x - arc.cx)
        delta = math.remainder(ang - arc.a0, TWO_PI) * arc.sign
        if delta < 0:
            delta += TWO_PI
        s_arc = delta * arc.radius
        hits.append((s_arc, s_line))
    return hits


# ---------------------------------------------------------------------------
# road geometry


@dataclass(frozen=True)
class SignalSchedule:
    cycle_s: float = SIGNAL_CYCLE_S
    green_s: float = SIGNAL_GREEN_S
    yellow_s: float = SIGNAL_YELLOW_S
    offset_s: float = 0.0

    def state(self, t: float) -> str:
        phase = (t - self.offset_s) % self.cycle_s
        if phase < self.green_s:
            return "green"
        if phase < self.green_s + self.yellow_s:
            return "yellow"
        return "red"


@dataclass(frozen=True)
class Lane:
    lane_id: str
    path: tuple[Segment, ...]
    direction: int          # +1 with the road axis, -1 against it
    marker: str
    width: float = LANE_WIDTH
    approach: str | None = None


@dataclass(frozen=True)
class StopLine:
    approach: str
    axis: str        # "x": the line is x = coord; "y": the line is y = coord
    coord: float
    lo: float        # segment extent on the other axis
    hi: float
    inbound: int     # travel sign along `axis` that counts as crossing inward


@dataclass(frozen=True)
class RoadGeometry:
    town: str
    topology: str
    lanes: tuple[Lane, ...]
    stop_lines: tuple[StopLine, ...]
    signal_heads: tuple[tuple[str, SignalSchedule], ...]
    conflict_region: tuple[tuple[float, float], ...] | None
    speed_limit: float
    axis: Segment | None          # direction divider for straight/curve roads
    template_digest: str
    scenario: TemplateParams

    def digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            data = to_data(self)
            del data["scenario"]  # the template digest already covers it
            cached = digest64_json(data)
            object.__setattr__(self, "_digest", cached)
        return cached

    def approaches(self) -> tuple[str, ...]:
        return tuple(sorted({sl.approach for sl in self.stop_lines}))

    def signal_for(self, approach: str) -> SignalSchedule | None:
        for name, schedule in self.signal_heads:
            if name == approach:
                return schedule
        return None


def _straight_lanes(ways: int, lanes_per_dir: int, marker: str) -> list[Lane]:
    out = []
    for i in range(lanes_per_dir):
        y = -(LANE_WIDTH / 2 + LANE_WIDTH * i)
        out.append(Lane(f"f{i}", ( _line((0.0, y), (ROAD_LENGTH, y)), ), 1, marker))
    if ways == 2:
        for i in range(lanes_per_dir):
            y = LANE_WIDTH / 2 + LANE_WIDTH * i
            out.append(Lane(f"r{i}", ( _line((ROAD_LENGTH, y), (0.0, y)), ), -1, marker))
    return out


def _curve_lanes(ways: int, lanes_per_dir: int, marker: str) -> list[Lane]:
    cx, cy = 0.0, CURVE_RADIUS
    a0 = -math.pi / 2.0
    out = []
    for i in range(lanes_per_dir):
        r = CURVE_RADIUS + LANE_WIDTH / 2 + LANE_WIDTH * i  # right of ccw travel = outside
        seg = ArcSeg(cx, cy, r, a0, CURVE_SWEEP, r * CURVE_SWEEP)
        out.append(Lane(f"f{i}", (seg,), 1, marker))
    if ways == 2:
        for i in range(lanes_per_dir):
            r = CURVE_RADIUS - (LANE_WIDTH / 2 + LANE_WIDTH * i)
            seg = ArcSeg(cx, cy, r, a0 + CURVE_SWEEP, -CURVE_SWEEP, r * CURVE_SWEEP)
            out.append(Lane(f"r{i}", (seg,), -1, marker))
    return out


# unit inbound heading of each junction leg
LEG_HEADINGS = {"south": (0.0, 1.0), "west": (1.0, 0.0), "north": (0.0, -1.0), "east": (-1.0, 0.0)}


def ego_leg(topology: str) -> str:
    """The leg the ego enters a junction from."""
    return "south" if topology == "intersection" else "west"


def _junction_lanes(legs: tuple[str, ...], half: float, lanes_per_dir: int, marker: str) -> list[Lane]:
    """Incoming corridor lanes for each leg (proper right-hand placement)."""
    out = []
    for leg in legs:
        hx, hy = LEG_HEADINGS[leg]
        for i in range(lanes_per_dir):
            off = LANE_WIDTH / 2 + LANE_WIDTH * i
            # lane center sits `off` to the right of the inbound heading
            rx, ry = hy, -hx
            sx = -hx * LEG_EXTENT + rx * off
            sy = -hy * LEG_EXTENT + ry * off
            ex = hx * LEG_EXTENT + rx * off
            ey = hy * LEG_EXTENT + ry * off
            out.append(Lane(f"{leg}_in{i}", (_line((sx, sy), (ex, ey)),), 1, marker, approach=leg))
    return out


def build_geometry(template: ScenarioTemplate) -> RoadGeometry:
    """Realize the template's symbolic town as analytic road geometry."""
    p = template.params
    marker = p.marker
    limit = p.speed_limit_mps if p.speed_limit_mps is not None else DEFAULT_SPEED_LIMIT

    lanes: list[Lane]
    stop_lines: list[StopLine] = []
    signal_heads: list[tuple[str, SignalSchedule]] = []
    region = None
    axis: Segment | None = None

    if p.topology == "straight":
        lanes = _straight_lanes(p.number_of_ways, p.lanes, marker)
        axis = _line((0.0, 0.0), (ROAD_LENGTH, 0.0))
    elif p.topology == "curve":
        lanes = _curve_lanes(p.number_of_ways, p.lanes, marker)
        axis = ArcSeg(0.0, CURVE_RADIUS, CURVE_RADIUS, -math.pi / 2.0, CURVE_SWEEP,
                      CURVE_RADIUS * CURVE_SWEEP)
    else:
        half = LANE_WIDTH * p.lanes
        if p.topology == "intersection":
            legs: tuple[str, ...] = ("south", "west", "north", "east")
        else:
            # T junction: through road west-east plus a stem; the stem sits on
            # the side the adversary comes from (south for "right", north for
            # "left" -- the ego runs west to east).
            stem = "north" if p.approach == "left" else "south"
            legs = ("west", "east", stem)
        lanes = _junction_lanes(legs, half, p.lanes, marker)
        region = ((-half, -half), (half, -half), (half, half), (-half, half))
        line_coord = half + STOP_LINE_SETBACK
        for leg in legs:
            hx, hy = LEG_HEADINGS[leg]
            if leg in ("south", "north"):
                coord = -line_coord if leg == "south" else line_coord
                stop_lines.append(StopLine(leg, "y", coord, -half, half, int(hy)))
            else:
                coord = -line_coord if leg == "west" else line_coord
                stop_lines.append(StopLine(leg, "x", coord, -half, half, int(hx)))
        if "traffic_light" in p.signs:
            ego = ego_leg(p.topology)
            opposite = {"south": "north", "north": "south", "west": "east", "east": "west"}[ego]
            for leg in legs:
                offset = 0.0 if leg in (ego, opposite) else CROSS_OFFSET_S
                signal_heads.append((leg, SignalSchedule(offset_s=offset)))

    return RoadGeometry(
        town=p.town,
        topology=p.topology,
        lanes=tuple(lanes),
        stop_lines=tuple(stop_lines),
        signal_heads=tuple(signal_heads),
        conflict_region=region,
        speed_limit=limit,
        axis=axis,
        template_digest=template.digest(),
        scenario=p,
    )


# ---------------------------------------------------------------------------
# trace model


@dataclass(frozen=True)
class ActorTrack:
    """One actor's states over the frames of a trace, one column per field."""

    actor_id: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    heading: tuple[float, ...]
    speed: tuple[float, ...]
    lane_id: tuple[str, ...]
    lateral: tuple[float, ...]


@dataclass(frozen=True)
class Trace:
    """Header fields, then per frame the time and the signal states, and one
    track per actor in the order frame lines list the actors.
    """

    scenario_id: str
    instance_seed: int
    timestep_s: float
    horizon_s: float
    geometry_ref: str
    actor_types: dict[str, str]
    times: tuple[float, ...]
    signals: tuple[tuple[tuple[str, str], ...], ...]
    tracks: tuple[ActorTrack, ...]

    @property
    def frames(self) -> tuple[float, ...]:  # kept only for perfbench/tracer.py's len(trace.frames)
        return self.times


@dataclass(frozen=True)
class CollisionEvent:
    t: float
    actor_a: str
    actor_b: str


def _sig6_json(x: float) -> str:
    """`canonical_json(float(f"{x:.6g}"))`: `.6g` text, plus ".0" if it has no point.

    Exponent forms, inf and nan go through the float, so `1e+06` is written
    "1000000.0" and inf and nan raise ValueError.
    """
    text = f"{x:.6g}"
    if "e" in text or "n" in text:
        return canonical_json(float(text))
    return text if "." in text else text + ".0"


def _sig6_texts(column) -> list[str]:
    """`_sig6_json` of each value, formatted again only where the value changes.

    A repeated zero keeps its own sign, since 0.0 == -0.0; nan never equals
    itself and inf is formatted where it first appears, so both still raise.
    """
    texts, last, text = [], None, ""
    copysign = math.copysign
    for x in column:
        if x != last:
            text, last = _sig6_json(x), x
        elif not x:
            text = "-0.0" if copysign(1.0, x) < 0 else "0.0"
        texts.append(text)
    return texts


def trace_to_jsonl(trace: Trace) -> str:
    """Header line then one frame object per line, 6 significant digits.

    Frame lines are written as text with sorted keys, as `canonical_json` would.
    """
    header = {
        "actor_types": trace.actor_types,
        "geometry_ref": trace.geometry_ref,
        "horizon_s": trace.horizon_s,
        "instance_seed": trace.instance_seed,
        "scenario_id": trace.scenario_id,
        "timestep_s": trace.timestep_s,
    }
    string = functools.cache(canonical_json)  # each id, lane, approach and state once
    num = _sig6_texts
    columns = []  # per actor, its state object text in each frame
    for a in trace.tracks:
        actor_id = string(a.actor_id)
        columns.append([
            f'{{"heading":{heading},"id":{actor_id},"lane":{string(lane)},"lat":{lat},'
            f'"speed":{speed},"x":{x},"y":{y}}}'
            for heading, lane, lat, speed, x, y in zip(
                num(a.heading), a.lane_id, num(a.lateral), num(a.speed), num(a.x), num(a.y))])
    lines = [canonical_json(header)]
    signal_arrays: dict[tuple[tuple[str, str], ...], str] = {}
    # `simulate`'s frame times are formatted once; a -0.0 equals 0.0 but keeps its sign
    times = trace.times
    off_grid = times != _FRAME_TIMES[:len(times)] or (times and math.copysign(1.0, times[0]) < 0)
    time_texts = num(times) if off_grid else _frame_time_texts()
    for t, frame_signals, actors in zip(time_texts, trace.signals, zip(*columns)):
        signals = signal_arrays.get(frame_signals)
        if signals is None:
            signals = signal_arrays[frame_signals] = "[" + ",".join(
                f'{{"approach":{string(ap)},"state":{string(st)}}}'
                for ap, st in frame_signals) + "]"
        lines.append(f'{{"actors":[{",".join(actors)}],"signals":{signals},"t":{t}}}')
    return "\n".join(lines) + "\n"


_STATE_KEYS = ("x", "y", "heading", "speed", "lane", "lat")  # ActorTrack's column order
_actor_id = operator.itemgetter("id")
_actor_state = operator.itemgetter("id", *_STATE_KEYS)
_frame_actors = operator.itemgetter("actors")
_frame_time = operator.itemgetter("t")
_frame_signals = operator.itemgetter("signals")
_signal = operator.itemgetter("approach", "state")


def trace_from_jsonl(text: str) -> Trace:
    """Reads `trace_to_jsonl` output; blank lines are skipped.

    Lines break at "\n" only, so a raw U+0085, U+2028 or U+2029 inside a JSON
    string stays in its line, and the "\r" of a CRLF line is JSON whitespace.

    Every frame must list the same actors in the same order, and they must
    be the actors of the header's `actor_types`.  A malformed trace raises
    ValueError naming the line at fault.
    """
    lines = [line for line in text.split("\n") if line.strip()]
    try:
        return _decode_trace(lines[0], lines[1:])
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise _malformed(text, exc) from exc


def _decode_header(line: str) -> dict:
    header = json.loads(line)
    return {key: header[key] for key in (
        "scenario_id", "instance_seed", "timestep_s", "horizon_s", "geometry_ref")} | {
        "actor_types": dict(header["actor_types"])}


def _decode_frames(text: str) -> list:
    """`json.loads(text)`, decoded by orjson wherever orjson accepts the text.

    orjson rejects NaN, Infinity, numbers beyond the double range and lone
    surrogates, all of which `json` reads; such texts, and malformed ones, go
    to `json.loads`, so they read, or fail with `json`'s message, as before.
    One difference remains: orjson reads an integer outside the 64-bit range
    as a float where `json` keeps an int.  The writer puts no integer in a
    frame line.
    """
    # Imported here rather than at the top: `pipeline` never reads a trace, and
    # a module-level import costs every CLI process start-up time and memory.
    import orjson
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def _track_columns(per_frame: list, ids: tuple) -> list | None:
    """Per actor, its (id, x, y, heading, speed, lane, lat) columns; None
    unless every frame lists exactly the actors `ids`, in that order."""
    if set(map(len, per_frame)) != {len(ids)}:
        return None
    columns = [tuple(zip(*map(_actor_state, states))) for states in zip(*per_frame)]
    frames = len(per_frame)
    if all(column[0].count(actor_id) == frames for actor_id, column in zip(ids, columns)):
        return columns
    return None


def _decode_trace(header_line: str, frame_lines: list[str]) -> Trace:
    """All frame lines in one decode, transposed into tracks."""
    header = _decode_header(header_line)
    rows = _decode_frames("[" + ",".join(frame_lines) + "]")
    if len(rows) != len(frame_lines):
        raise ValueError("frame lines do not hold one JSON object each")
    per_frame = list(map(_frame_actors, rows))
    ids = tuple(map(_actor_id, per_frame[0]))
    if not ids:
        raise ValueError("the frame lists no actors")
    if sorted(ids) != sorted(header["actor_types"]):
        raise ValueError(f"actors {list(ids)} do not match the header actor_types "
                         f"{sorted(header['actor_types'])}")
    try:
        columns = _track_columns(per_frame, ids)
    except (LookupError, TypeError):
        columns = None
    if columns is None:  # name the first frame whose actors differ, else the missing key
        for actors in per_frame:
            if tuple(map(_actor_id, actors)) != ids:
                raise ValueError(f"actors {list(map(_actor_id, actors))} differ in set or order "
                                 f"from the first frame's {list(ids)}")
        columns = _track_columns(per_frame, ids)
    return Trace(
        **header,
        times=tuple(map(_frame_time, rows)),
        signals=tuple(tuple(map(_signal, signals)) for signals in map(_frame_signals, rows)),
        tracks=tuple(ActorTrack(actor_id, *column[1:])
                     for actor_id, column in zip(ids, columns)),
    )


def _malformed(text: str, exc: Exception) -> ValueError:
    """Finds the line at fault by decoding line by line (the error path only)."""
    numbered = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not numbered:
        return ValueError("empty trace")
    (n, header), frames = numbered[0], numbered[1:]
    try:
        _decode_header(header)
    except (ValueError, LookupError, TypeError, AttributeError) as header_exc:
        return ValueError(f"line {n}: {_reason(header_exc)}")
    if not frames:
        return ValueError(f"line {n}: no frame lines after the header")
    first = frames[0][1]
    for n, line in frames:
        try:
            json.loads(line)
            _decode_trace(header, [first, line])
        except (ValueError, LookupError, TypeError, AttributeError) as line_exc:
            return ValueError(f"line {n}: {_reason(line_exc)}")
    return ValueError(_reason(exc))


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"{exc.msg} at column {exc.colno}"
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc)


# ---------------------------------------------------------------------------
# oriented-rectangle overlap (separating axis)


def rect_corners(x: float, y: float, heading: float, length: float, width: float
                 ) -> tuple[tuple[float, float], ...]:
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = length / 2.0, width / 2.0
    # (x + c*dx - s*dy, y + s*dx + c*dy) for (dx, dy) = (hl, hw), (hl, -hw),
    # (-hl, -hw), (-hl, hw), unrolled; negation is exact, so the corners
    # are the same floats as the rolled form.
    chl, shl, chw, shw = c * hl, s * hl, c * hw, s * hw
    return ((x + chl - shw, y + shl + chw), (x + chl + shw, y + shl - chw),
            (x - chl + shw, y - shl - chw), (x - chl - shw, y - shl + chw))


def rects_overlap(a: tuple[tuple[float, float], ...], b: tuple[tuple[float, float], ...]) -> bool:
    """Separating-axis test for convex quadrilaterals."""
    for poly, other in ((a, b), (b, a)):
        for i in range(len(poly)):
            x0, y0 = poly[i]
            x1, y1 = poly[(i + 1) % len(poly)]
            ax, ay = y1 - y0, x0 - x1  # edge normal
            min_a = min(ax * px + ay * py for px, py in poly)
            max_a = max(ax * px + ay * py for px, py in poly)
            min_b = min(ax * px + ay * py for px, py in other)
            max_b = max(ax * px + ay * py for px, py in other)
            if max_a < min_b or max_b < min_a:
                return False
    return True


# The one margin of every overlap decision, and of the divider flags in
# `rules`.  A pair whose centres are farther apart than the sum of their
# circumradii plus the margin is apart: its separating-axis gap is then at
# least 0.7 times the margin.  A pair within reach is decided by `gap_verdict`
# where its largest separating-axis gap lies more than the margin from 0, and
# by `rects_overlap` on its corners in between.  Rounding in the gaps, the
# corners and `rects_overlap` stays below 1e-10 m at these coordinates, so the
# margin dwarfs it; docs/rules.md "How a trace is evaluated" has the proofs.
OVERLAP_MARGIN_M = 1e-6


def circumradius(length: float, width: float) -> float:
    """Distance from the centre of a vehicle's rectangle to its corners."""
    return math.hypot(length / 2.0, width / 2.0)


def gap_verdict(dx: float, dy: float, ca: float, sa: float, hla: float, hwa: float,
                cb: float, sb: float, hlb: float, hwb: float) -> bool | None:
    """Whether rectangles a and b overlap, decided without their corners.

    (dx, dy) is b's centre minus a's; each rectangle gives the cos and sin of
    its heading and its half length and half width.  Each of the four gaps is
    |centre offset . axis| minus both rectangles' half extents on the axis, on
    a's and b's length and width axes.  False if the largest gap exceeds
    OVERLAP_MARGIN_M, True if it lies below -OVERLAP_MARGIN_M, else None: only
    the corners can tell.
    """
    c = abs(ca * cb + sa * sb)  # |cos| and |sin| of the heading difference
    s = abs(ca * sb - sa * cb)
    gap = max(abs(dx * ca + dy * sa) - hla - hlb * c - hwb * s,
              abs(dy * ca - dx * sa) - hwa - hlb * s - hwb * c,
              abs(dx * cb + dy * sb) - hlb - hla * c - hwa * s,
              abs(dy * cb - dx * sb) - hwb - hla * s - hwa * c)
    if gap > OVERLAP_MARGIN_M:
        return False
    if gap < -OVERLAP_MARGIN_M:
        return True
    return None


def polygon_outline(points: tuple[tuple[float, float], ...], frames: int):
    """An axis-aligned rectangle given by its four corners, such as the
    conflict region, as a `first_overlap` outline of heading 0.0 in every
    frame; cos(0.0) and sin(0.0) are exactly 1.0 and 0.0."""
    xs, ys = sorted({px for px, _ in points}), sorted({py for _, py in points})
    if (len(points) != 4 or len(xs) != 2 or len(ys) != 2
            or set(points) != set(itertools.product(xs, ys))):
        raise ValueError(f"not an axis-aligned rectangle: {points}")
    x, y = (xs[0] + xs[1]) / 2.0, (ys[0] + ys[1]) / 2.0
    return ((x,) * frames, (y,) * frames, (0.0,) * frames,
            (xs[1] - xs[0]) / 2.0, (ys[1] - ys[0]) / 2.0, lambda _: points)


def first_overlap(a, b) -> int | None:
    """The first frame in which two outlines overlap, or None.

    An outline is (xs, ys, headings, half length, half width, k -> corners in
    frame k): per frame a rectangle's centre and heading.  The one overlap
    scan of `simulate`, `rules.detect_collisions` and the conflict-region
    entries.  The cos and sin of the headings are computed only in frames
    within reach, and corners are asked for only where such a frame has a
    largest gap within the margin of 0.
    """
    (xa, ya, ha, hla, hwa, corners_a), (xb, yb, hb, hlb, hwb, corners_b) = a, b
    hypot, cos, sin = math.hypot, math.cos, math.sin
    reach = hypot(hla, hwa) + hypot(hlb, hwb) + OVERLAP_MARGIN_M
    for k, (ax, ay, bx, by) in enumerate(zip(xa, ya, xb, yb)):
        dx, dy = bx - ax, by - ay
        if hypot(dx, dy) > reach:
            continue
        overlap = gap_verdict(dx, dy, cos(ha[k]), sin(ha[k]), hla, hwa,
                              cos(hb[k]), sin(hb[k]), hlb, hwb)
        if overlap is None:
            overlap = rects_overlap(corners_a(k), corners_b(k))
        if overlap:
            return k
    return None


# ---------------------------------------------------------------------------
# simulation


class DigestMismatchError(ValueError):
    pass


@dataclass
class _Mover:
    actor_id: str
    actor_type: str
    behavior: str
    path: tuple[Segment, ...]
    s: float
    speed: float
    lateral: float = 0.0
    # head-on incursion bookkeeping; `incursion` is cleared once the ramp is done
    incursion: bool = False
    trigger_gap: float | None = None
    trigger_t: float | None = None
    ramp_target: float = LANE_WIDTH
    # stop behavior
    stop_s: float | None = None
    lane: int = 0  # lane index in the last frame, the hint for the next lane search


def _ego_path(geometry: RoadGeometry) -> tuple[Segment, ...]:
    if geometry.topology in ("straight", "curve"):
        return geometry.lanes[0].path  # innermost forward lane
    if geometry.topology == "intersection":
        off = LANE_WIDTH / 2.0
        return (_line((off, -LEG_EXTENT), (off, LEG_EXTENT)),)
    return (_line((-LEG_EXTENT, -LANE_WIDTH / 2.0), (LEG_EXTENT, -LANE_WIDTH / 2.0)),)


def _junction_adversary_path(geometry: RoadGeometry, behavior: str) -> tuple[Segment, ...]:
    """Adversary path for the configured junction approach.

    Canonical construction: 4-way conflicts cross from the west on the
    proper eastbound lane; T conflicts turn from the south stem.  The
    other side is the exact reflection about the ego approach line.
    """
    p = geometry.scenario
    half = LANE_WIDTH * p.lanes
    off = LANE_WIDTH / 2.0
    if p.topology == "intersection":
        if behavior == "go_forward":
            canonical: tuple[Segment, ...] = (_line((-LEG_EXTENT, -off), (LEG_EXTENT, -off)),)
        elif behavior == "turn_left":
            # west inbound, exit north
            radius = half + off
            arc = ArcSeg(-half, -off + radius, radius, -math.pi / 2.0, math.pi / 2.0,
                         radius * math.pi / 2.0)
            canonical = (
                _line((-LEG_EXTENT, -off), (-half, -off)),
                arc,
                _line((-half + radius, -off + radius), (-half + radius, LEG_EXTENT)),
            )
        elif behavior == "turn_right":
            # west inbound, exit south
            radius = half - off
            arc = ArcSeg(-half, -off - radius, radius, math.pi / 2.0, -math.pi / 2.0,
                         radius * math.pi / 2.0)
            canonical = (
                _line((-LEG_EXTENT, -off), (-half, -off)),
                arc,
                _line((-half + radius, -off - radius), (-half + radius, -LEG_EXTENT)),
            )
        else:  # static / stop keep the crossing corridor
            canonical = (_line((-LEG_EXTENT, -off), (LEG_EXTENT, -off)),)
        if p.approach == "right":
            return mirror_path_x(canonical, off)
        return canonical

    # T junction: stem at the south, ego west->east on y = -off.
    if behavior == "turn_right":
        radius = half - off
        arc = ArcSeg(off + radius, -half, radius, math.pi, -math.pi / 2.0, radius * math.pi / 2.0)
        canonical = (
            _line((off, -LEG_EXTENT), (off, -half)),
            arc,
            _line((off + radius, -half + radius), (LEG_EXTENT, -half + radius)),
        )
    else:  # turn_left (default for the stem) or go_forward fallback
        radius = half + off
        arc = ArcSeg(off - radius, -half, radius, 0.0, math.pi / 2.0, radius * math.pi / 2.0)
        canonical = (
            _line((off, -LEG_EXTENT), (off, -half)),
            arc,
            _line((off - radius, -half + radius), (-LEG_EXTENT, -half + radius)),
        )
    if p.approach == "left":
        return mirror_path_y(canonical, -off)
    return canonical


def _lane_table(geometry: RoadGeometry) -> tuple[tuple[str, tuple[Segment, ...], float], ...]:
    """(lane id, path, largest arc length still on the lane) per lane."""
    return tuple((lane.lane_id, lane.path, path_length(lane.path) + 5.0) for lane in geometry.lanes)


def _locate_lane(lanes: tuple[tuple[str, tuple[Segment, ...], float], ...], x: float, y: float
                 ) -> tuple[int, float]:
    """Index and lateral offset of the nearest lane (one segment each) whose range
    holds the point, the first in order on a tie; (0, 0.0) off every lane."""
    best, best_lat = 0, math.inf
    for i, (_, path, s_max) in enumerate(lanes):
        s, lat = path[0].locate(x, y)
        if -5.0 <= s <= s_max and abs(lat) < abs(best_lat):
            best, best_lat = i, lat
    return (best, best_lat) if best_lat != math.inf else (0, 0.0)


LANE_BOUND_MARGIN_M = 1e-9  # room for rounding in `locate`, about 1e-13 m here


def _lane_finder(geometry: RoadGeometry):
    """`find(xs, ys, hint)` gives, for each point in turn, what `_locate_lane`
    gives, as a list of lane indices and one of lateral offsets.  Each search
    tries the lane found for the point before first, `hint` for the first.

    A point nearer than LANE_WIDTH / 2 to the hinted lane is nearest to it
    on straight and curve roads, and at junctions when it lies outside the
    conflict square; on straight and curve roads one far enough beyond an
    end of the hinted lane is off every lane.  docs/rules.md gives the proofs.
    """
    lanes = _lane_table(geometry)
    near = LANE_WIDTH / 2.0 - LANE_BOUND_MARGIN_M
    if geometry.topology in ("straight", "curve"):
        inside = -math.inf  # no square: every point is outside it
        radii = [path[0].radius if isinstance(path[0], ArcSeg) else 1.0 for _, path, _ in lanes]
        # how far past either end of each lane every lane is left behind
        beyond = [5.0 * radius / min(radii) + LANE_BOUND_MARGIN_M for radius in radii]
    else:
        inside = LANE_WIDTH * geometry.scenario.lanes + LANE_BOUND_MARGIN_M  # half the square
        beyond = [math.inf] * len(lanes)  # crossing legs: no point is off every lane
    # per lane: locate, s_max and the arc lengths beyond which every lane is left behind
    ends = [(_locate_function(path[0]), s_max, -past, path[0].length + past)
            for (_, path, s_max), past in zip(lanes, beyond)]

    def find(xs, ys, hint: int) -> tuple[list[int], list[float]]:
        found, lats = [], []
        for x, y in zip(xs, ys):
            locate, s_max, lo, hi = ends[hint]
            s, lat = locate(x, y)
            if -5.0 <= s <= s_max:
                if abs(lat) >= near or (abs(x) <= inside and abs(y) <= inside):
                    hint, lat = _locate_lane(lanes, x, y)
            elif s < lo or s > hi:
                hint, lat = 0, 0.0
            else:
                hint, lat = _locate_lane(lanes, x, y)
            found.append(hint)
            lats.append(lat)
        return found, lats

    return find


def _build_movers(instance: ScenarioInstance, geometry: RoadGeometry) -> list[_Mover]:
    p = geometry.scenario
    b = instance.bindings
    ego_speed = b["ego_speed"]
    npc_speed = b["npc_speed"]
    ego_init = b["EGO_INIT_DIST"]
    npc_init = b["NPC_INIT_DIST"]

    ego_path = _ego_path(geometry)
    movers: list[_Mover] = []

    adversary = next((n for n in p.npcs if n.adversary), None)
    junction = p.topology in ("intersection", "t_intersection")

    if junction:
        adv_path = _junction_adversary_path(geometry, adversary.behavior if adversary else "go_forward")
        cross = path_intersection(ego_path, adv_path)
        if cross is None:
            raise ValueError("adversary path never crosses the ego path")
        s_cell_ego, s_cell_adv = cross
        ego_s0 = s_cell_ego - (EGO_RUNUP_M + ego_init)
        movers.append(_Mover(p.ego_id, "truck" if p.ego_model.endswith("european_hgv") else "car",
                             p.ego_behavior, ego_path, ego_s0, ego_speed))
        if adversary is not None:
            t_cell = (EGO_RUNUP_M + ego_init) / ego_speed
            lead = npc_speed * max(t_cell - ARRIVAL_LEAD_S, 0.0)
            adv_s0 = s_cell_adv - max(lead, npc_init)
            speed = 0.0 if adversary.behavior == "static" else npc_speed
            movers.append(_Mover(adversary.actor_id, adversary.actor_type, adversary.behavior,
                                 adv_path, adv_s0, speed))
    else:
        half_len = path_length(ego_path) / 2.0
        if p.configuration == "head_on":
            ego_s0 = half_len - ego_init
        else:
            ego_s0 = ego_init
        movers.append(_Mover(p.ego_id, "truck" if p.ego_model.endswith("european_hgv") else "car",
                             p.ego_behavior, ego_path, ego_s0, ego_speed))
        if adversary is not None:
            if p.configuration == "head_on":
                reverse = next(lane for lane in geometry.lanes if lane.direction == -1)
                adv_s0 = path_length(reverse.path) / 2.0 - npc_init
                mover = _Mover(adversary.actor_id, adversary.actor_type, adversary.behavior,
                               reverse.path, adv_s0,
                               0.0 if adversary.behavior == "static" else npc_speed)
                if adversary.behavior == "go_forward":
                    mover.incursion = True
                    mover.trigger_gap = npc_init
                movers.append(mover)
            else:  # car_following: the adversary leads the ego in its lane
                adv_s0 = ego_s0 + npc_init
                movers.append(_Mover(adversary.actor_id, adversary.actor_type, adversary.behavior,
                                     ego_path, adv_s0,
                                     0.0 if adversary.behavior == "static" else npc_speed))

    # Background npcs: fixed 25 m placement along the ego lane (front/behind)
    # or the neighbouring corridor (left/right), fixed speed from the template.
    for npc in p.npcs:
        if adversary is not None and npc.actor_id == adversary.actor_id:
            continue
        speed = instance.fixed.get(f"{npc.actor_id}_speed", npc.speed_mps)
        ego_s0 = movers[0].s
        offset = 25.0 if npc.spatial_relation == "front" else -25.0
        mover = _Mover(npc.actor_id, npc.actor_type, npc.behavior, movers[0].path,
                       ego_s0 + offset, 0.0 if npc.behavior == "static" else speed)
        if npc.spatial_relation in ("left", "right"):
            mover.s = ego_s0
            mover.lateral = LANE_WIDTH if npc.spatial_relation == "left" else -LANE_WIDTH
        movers.append(mover)

    # stop behavior: brake to rest ahead of the stop line (junctions) or
    # after the comfortable braking distance (open road)
    for mover in movers:
        if mover.behavior == "stop":
            brake_dist = mover.speed * mover.speed / (2.0 * BRAKE_DECEL)
            target = mover.s + brake_dist
            line_s = _stop_line_s(geometry, mover)
            if line_s is not None:
                length, _ = VEHICLE_DIMS[mover.actor_type]
                target = min(target, line_s - length / 2.0 - 0.2)
            mover.stop_s = target
    return movers


def _stop_line_s(geometry: RoadGeometry, mover: _Mover) -> float | None:
    """Arc length at which the mover's path crosses its approach stop line."""
    _, _, heading = path_point(mover.path, mover.s, mover.lateral)
    approach = approach_of(heading)
    for sl in geometry.stop_lines:
        if sl.approach != approach:
            continue
        seg = (_line((sl.coord, sl.lo - 50), (sl.coord, sl.hi + 50)) if sl.axis == "x"
               else _line((sl.lo - 50, sl.coord), (sl.hi + 50, sl.coord)))
        cross = path_intersection(mover.path, (seg,))
        if cross is not None:
            return cross[0]
    return None


def approach_of(heading: float) -> str:
    """The junction leg whose inbound heading is closest to `heading`."""
    hx, hy = math.cos(heading), math.sin(heading)
    if abs(hx) >= abs(hy):
        return "west" if hx > 0 else "east"
    return "south" if hy > 0 else "north"


# the frame times, snapped to the decimal grid so serialized times reload identically
_FRAME_TIMES = tuple(round(k * TIMESTEP_S, 9) for k in range(int(HORIZON_S / TIMESTEP_S) + 1))


@functools.cache
def _frame_time_texts() -> list[str]:
    """What `trace_to_jsonl` writes for the frame times, formatted on first use."""
    return _sig6_texts(_FRAME_TIMES)


_BLOCK_FRAMES = 32  # frames every mover runs between two collision scans


def _signal_states(geometry: RoadGeometry) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The signal states at every frame time, computed once per geometry."""
    cached = geometry.__dict__.get("_signal_states")
    if cached is None:
        heads = geometry.signal_heads
        cached = tuple(tuple((leg, sched.state(t)) for leg, sched in heads) for t in _FRAME_TIMES)
        object.__setattr__(geometry, "_signal_states", cached)
    return cached


def _step(m: _Mover) -> None:
    """Advances a braking or ramping mover (never a static one) by one timestep."""
    if m.stop_s is not None:
        remaining = m.stop_s - m.s
        if remaining <= m.speed * m.speed / (2.0 * BRAKE_DECEL):
            m.speed = max(0.0, m.speed - BRAKE_DECEL * TIMESTEP_S)
    m.s += m.speed * TIMESTEP_S
    if m.stop_s is not None and m.s > m.stop_s:
        m.s = m.stop_s
        m.speed = 0.0


def _run_mover(m: _Mover, point, ego_xs: list[float], ego_ys: list[float], start: int,
               stop: int) -> tuple[list[tuple[float, float, float]], list[float]]:
    """Positions (x, y, heading) and speeds of a mover in frames start..stop-1,
    leaving it in its state of frame `stop`.

    A mover whose speed and lateral offset stay fixed runs the frames in one
    pass: `accumulate` adds the same step in the same order as the per-frame
    update.  Stop braking and the incursion ramp step frame by frame.
    """
    states: list[tuple[float, float, float]] = []
    speeds: list[float] = []
    k = start
    while k < stop:
        if m.stop_s is not None or (m.incursion and m.trigger_t is not None):
            if m.incursion:
                progress = min((_FRAME_TIMES[k] - m.trigger_t) / RAMP_DURATION_S, 1.0)
                m.lateral = m.ramp_target * progress
                m.incursion = progress < 1.0
            states.append(point(m.s, m.lateral))
            speeds.append(m.speed)
            _step(m)
            k += 1
            continue
        n = stop - k
        if m.behavior == "static":
            ss = [m.s] * n
        else:
            ss = list(itertools.accumulate(itertools.repeat(m.speed * TIMESTEP_S, n),
                                           initial=m.s))
            m.s = ss.pop()
        block = list(map(point, ss, itertools.repeat(m.lateral, n)))
        if m.incursion:  # waiting for the ego to come within the trigger gap
            hypot, gap = math.hypot, m.trigger_gap
            for j, ((x, y, _), ex, ey) in enumerate(zip(block, ego_xs[k:stop], ego_ys[k:stop])):
                if hypot(ex - x, ey - y) <= gap:
                    m.trigger_t, m.s, n = _FRAME_TIMES[k + j], ss[j], j
                    del block[j:]
                    break
        states += block
        speeds += [m.speed] * n
        k += n
    return states, speeds


def _block_outline(cols, dims: tuple[float, float], start: int, stop: int):
    """A mover's footprints in frames start..stop-1 as a `first_overlap` outline."""
    (xs, ys, headings, *_), (length, width) = cols, dims
    xs, ys, headings = xs[start:stop], ys[start:stop], headings[start:stop]
    return (xs, ys, headings, length / 2.0, width / 2.0,
            lambda k: rect_corners(xs[k], ys[k], headings[k], length, width))


def simulate(instance: ScenarioInstance, geometry: RoadGeometry) -> Trace:
    """Fixed-timestep scripted simulation.

    Ends at the horizon or one second after the first collision frame.
    Works mover by mover over blocks of frames, ego first; after each block,
    `first_overlap` on every pair of actors finds the first collision and so
    the end frame.
    """
    if instance.template_digest != geometry.template_digest:
        raise DigestMismatchError(
            f"instance was sampled from template {instance.template_digest}, "
            f"geometry was built from {geometry.template_digest}")

    p = geometry.scenario
    movers = _build_movers(instance, geometry)
    dims = [VEHICLE_DIMS[m.actor_type] for m in movers]
    points = [_point_function(m.path) for m in movers]
    find_lanes = _lane_finder(geometry)
    lane_names = [lane.lane_id for lane in geometry.lanes]

    # per mover: x, y, heading, speed, lane id and lateral offset per frame
    columns = [([], [], [], [], [], []) for _ in movers]
    ego_xs, ego_ys = columns[0][0], columns[0][1]
    end_frame = len(_FRAME_TIMES) - 1
    collided = False
    start = 0
    while start <= end_frame:
        stop = min(start + _BLOCK_FRAMES, end_frame + 1)
        for m, point, (xs, ys, headings, speeds, lane_ids, laterals) in zip(
                movers, points, columns):
            states, block_speeds = _run_mover(m, point, ego_xs, ego_ys, start, stop)
            block_xs, block_ys, block_headings = zip(*states)
            found, block_laterals = find_lanes(block_xs, block_ys, m.lane)
            m.lane = found[-1]
            lane_ids += map(lane_names.__getitem__, found)
            laterals += block_laterals
            xs += block_xs
            ys += block_ys
            headings += block_headings
            speeds += block_speeds
        if not collided:
            outlines = [_block_outline(cols, d, start, stop) for cols, d in zip(columns, dims)]
            hits = [k for a, b in itertools.combinations(outlines, 2)
                    if (k := first_overlap(a, b)) is not None]
            if hits:
                collided = True
                end_frame = min(end_frame, start + min(hits) + int(1.0 / TIMESTEP_S))
        start = stop

    n = end_frame + 1
    return Trace(
        scenario_id=p.scenario_id,
        instance_seed=instance.instance_seed,
        timestep_s=TIMESTEP_S,
        horizon_s=HORIZON_S,
        geometry_ref=geometry.digest(),
        actor_types={m.actor_id: m.actor_type for m in movers},
        times=_FRAME_TIMES[:n],
        signals=_signal_states(geometry)[:n],
        tracks=tuple(ActorTrack(m.actor_id, *(tuple(column[:n]) for column in cols))
                     for m, cols in zip(movers, columns)),
    )
