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
from dataclasses import dataclass, field

from .digests import canonical_json, digest64_json, to_data
from .sampling import ScenarioInstance
from .synth import ScenarioTemplate, TemplateParams, ego_actor_type

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


@dataclass(frozen=True)
class Trace:
    """Header fields, the frame times, one `(approach, states)` column per
    signal head and one track per actor: the columns `simulate` fills and a
    trace file stores, one line each and in the same order (see
    `trace_to_jsonl`).
    """

    scenario_id: str
    instance_seed: int
    timestep_s: float
    horizon_s: float
    geometry_ref: str
    actor_types: dict[str, str]
    times: tuple[float, ...]
    signals: tuple[tuple[str, tuple[str, ...]], ...]
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


def _run_column(column) -> str:
    """A number column with runs: `_sig6_json` of each value, as `_sig6_texts`
    formats it, with each run of three or more equal texts written once as
    `[text,count]`, or the text alone, bare, if the column is one run.

    A value equal to the one before it extends the run unformatted, except a
    zero, whose text follows its own sign, so a zero run is split by sign.  A
    value that differs is formatted; if it prints as the run's text, it
    extends the run too.
    """
    items, text, run, last = [], "", 0, None
    copysign = math.copysign
    for x in column:
        if x != last:
            new, last = _sig6_json(x), x
        elif x:
            run += 1
            continue
        else:
            new = "-0.0" if copysign(1.0, x) < 0 else "0.0"
        if new == text:
            run += 1
            continue
        if run == 1:
            items.append(text)
        elif run > 2:
            items.append(f"[{text},{run}]")
        elif run:
            items += (text, text)
        text, run = new, 1
    if not items:
        return text or "[]"  # one run, or no value at all
    items += [text] * run if run < 3 else [f"[{text},{run}]"]
    return "[" + ",".join(items) + "]"


TRACE_FORMAT = 5  # the `format` of the header line; a header without one is format 1
# the header's scalar fields, which are the `Trace` fields of the same names
_HEADER_KEYS = ("scenario_id", "instance_seed", "timestep_s", "horizon_s", "geometry_ref")


def trace_to_jsonl(trace: Trace) -> str:
    """Trace format 5: a header line, then one line per column.

    Line 2 holds the frame times: `{"t":601}`, the frame count, when they
    print as the first frames of `simulate`'s grid and the header's timestep
    and horizon allow that many (see `_grid_frames`), else a list
    `{"t":[...]}`.  One line per signal head, in the trace's order, holds
    its states as `{"approach":...,"state":...}`; one line per actor, in
    track order, holds its five columns.  Floats are written to 6 significant
    digits, and every line has sorted keys, as `canonical_json` would write
    them.  A column other than `t` whose written texts are all the same is
    written once, as a bare value (`"speed":12.0`); any other column is a
    list with one text per frame, in which, except in `t` and `x`, each run
    of three or more equal texts is written once with its length,
    `["f0",120]`.  Format 5 is format 4 without each actor's `lat` column, its
    offset from the centre of its lane, which no rule reads.
    """
    header = {key: getattr(trace, key) for key in _HEADER_KEYS} | {
        "actor_types": trace.actor_types, "format": TRACE_FORMAT}
    string = functools.cache(canonical_json)  # each id, lane, approach and state once

    def strings(values) -> str:
        # equal strings are equal texts, so the runs are those of the values
        if values and values.count(values[0]) == len(values):
            return string(values[0])
        items = []
        for value, run in itertools.groupby(values):
            n = len(list(run))
            items += [string(value)] * n if n < 3 else [f"[{string(value)},{n}]"]
        return "[" + ",".join(items) + "]"

    def nums(values, column=_run_column) -> str:
        # equal non-zero values print alike; zeros may not, since 0.0 == -0.0
        if values and values[0] and values.count(values[0]) == len(values):
            return _sig6_json(values[0])
        return column(values)

    def plain(values) -> str:  # for `x`, which changes in nearly every frame
        texts = _sig6_texts(values)
        if texts and texts.count(texts[0]) == len(texts):
            return texts[0]
        return "[" + ",".join(texts) + "]"

    n = len(trace.times)
    if 0 < n <= _grid_frames(trace.timestep_s, trace.horizon_s) and _prints_as_grid(trace.times):
        time_line = f'{{"t":{n}}}'
    else:
        time_line = '{"t":[' + ",".join(_sig6_texts(trace.times)) + "]}"
    lines = [canonical_json(header), time_line]
    for approach, states in trace.signals:
        lines.append(f'{{"approach":{string(approach)},"state":{strings(states)}}}')
    for a in trace.tracks:
        lines.append(
            f'{{"heading":{nums(a.heading)},"id":{string(a.actor_id)},'
            f'"lane":{strings(a.lane_id)},"speed":{nums(a.speed)},'
            f'"x":{nums(a.x, plain)},"y":{nums(a.y)}}}')
    return "\n".join(lines) + "\n"


_COLUMN_KEYS = ("x", "y", "heading", "speed", "lane")  # ActorTrack's column order
_NUMBER_KEYS = frozenset(("t", "x", "y", "heading", "speed"))


def trace_from_jsonl(text: str) -> Trace:
    """Reads `trace_to_jsonl` output, decoding each line on its own; blank lines
    are skipped.  Lines break at "\n" only, so a raw U+0085, U+2028 or U+2029
    inside a JSON string stays in its line, and a CRLF's "\r" is whitespace.

    The header must be of format 2, 3, 4 or 5 and give each actor a type of
    `VEHICLE_DIMS`.  The times are a list of one or more values or, in formats
    4 and 5, a frame count that stands for the first frames of `simulate`'s
    grid.  Every other column is a list of one value per time or, from format
    3 on, one bare value that holds in every frame; in formats 4 and 5 a list
    may hold runs `[value, count]`, a value repeated `count` (2 or more)
    times.  The `lat` column of formats 2 to 4 is not read.  Each
    value is a finite number in each column but the lanes and signal states,
    which hold strings: no `true`, `false`, `NaN` or `Infinity`.  Signal lines
    come before actor lines, and the actor lines are the header's actors, once
    each.  A malformed trace raises ValueError naming the line at fault.
    """
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    n = lines[0][0]
    try:
        version, header = _decode_header(json.loads(lines[0][1]))
        if len(lines) == 1:
            raise ValueError("no time line after the header")
        n = lines[1][0]
        runs = version >= 4  # formats 4 and 5 hold runs and a frame count
        times = json.loads(lines[1][1])["t"]
        if runs and type(times) is int:
            times = _frame_grid(times, header)
        elif type(times) is not list or not times:
            raise ValueError("'t' is not a frame count or a list of one or more times" if runs
                             else "'t' is not a list of one or more times")
        else:
            _check_numbers(times, "t", _may_hold_booleans(lines[1][1]))
        frames = len(times)
        actor_types = header["actor_types"]
        signals, tracks = [], {}
        for n, line in lines[2:]:
            row = json.loads(line)
            if "approach" in row and not tracks:
                approach = row["approach"]
                if type(approach) is not str:
                    raise ValueError("'approach' is not a string")
                signals.append((approach, _column(row, "state", frames, runs)))
                continue
            actor_id = row["id"]
            if actor_id in tracks or actor_id not in actor_types:
                raise _actor_mismatch([*tracks, actor_id], actor_types)
            booleans = _may_hold_booleans(line)
            tracks[actor_id] = ActorTrack(actor_id, *[_column(row, key, frames, runs, booleans)
                                                      for key in _COLUMN_KEYS])
        n = lines[0][0]
        if len(tracks) != len(actor_types):
            raise _actor_mismatch(list(tracks), actor_types)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"line {n}: {_reason(exc)}") from exc
    return Trace(**header, times=tuple(times), signals=tuple(signals),
                 tracks=tuple(tracks.values()))


def _decode_header(header: dict) -> tuple[int, dict]:
    """The format and the `Trace` fields of a header line."""
    version = header.get("format", 1)
    # format 3 adds bare columns, 4 runs and a frame count, and 5 drops `lat`
    if version not in (2, 3, 4, 5):
        raise ValueError(f"trace format {version!r}: this reader reads formats 2, 3, 4 and 5 "
                         f"only, so simulate the instances again")
    actor_types = dict(header["actor_types"])
    for actor_id, kind in actor_types.items():
        if kind not in VEHICLE_DIMS:
            raise ValueError(f"actor {actor_id!r} has type {kind!r}, not one of "
                             f"{sorted(VEHICLE_DIMS)}")
    return version, {key: header[key] for key in _HEADER_KEYS} | {"actor_types": actor_types}


def _frame_grid(count: int, header: dict) -> tuple[float, ...]:
    """The times a `t` count stands for: the first `count` frames of `_FRAME_TIMES`."""
    if header["timestep_s"] != TIMESTEP_S:
        raise ValueError(f"'t' is a frame count, but timestep_s {header['timestep_s']!r} is "
                         f"not the frame grid's {TIMESTEP_S}")
    limit = _grid_frames(TIMESTEP_S, header["horizon_s"])
    if not 1 <= count <= limit:
        raise ValueError(f"'t' counts {count} frames, not 1 to {limit:g}")
    return _FRAME_TIMES[:count]


def _actor_mismatch(ids: list, actor_types: dict) -> ValueError:
    return ValueError(f"actors {ids} differ from the header's actor_types {sorted(actor_types)}")


def _column(row: dict, key: str, frames: int, runs: bool, booleans: bool = False) -> tuple:
    """The column `key` of `frames` values.  A bare value gets a list value's
    checks and is repeated in every frame.  With `runs`, a list shorter than
    `frames` has its runs expanded before the checks."""
    column = row[key]
    number = key in _NUMBER_KEYS
    if type(column) is (float if number else str):  # the usual bare value, checked alone
        if number and not math.isfinite(column):
            raise ValueError(f"{key!r} holds a value that is not a finite number")
        return (column,) * frames
    bare = type(column) is not list
    if bare:
        values = [column]
    else:
        if len(column) != frames:
            if not runs:
                raise _not_per_frame(key, frames)
            column = _expand_runs(column, key, frames)
        values = column
    if number:
        _check_numbers(values, key, booleans)
    else:
        try:
            "".join(values)  # tests at C speed that every value is a string
        except TypeError:
            raise ValueError(f"{key!r} holds a value that is not a string") from None
    return (column,) * frames if bare else tuple(column)


def _expand_runs(column: list, key: str, frames: int) -> list:
    """`column` with each run `[value, count]` replaced by `count` copies of
    the value, which must make `frames` values.  A count is checked before its
    copies are made."""
    expanded = []
    for item in column:
        if type(item) is not list:
            expanded.append(item)
        elif len(item) != 2 or type(item[1]) is not int or item[1] < 2:
            raise ValueError(f"{key!r} holds a run that is not [value, count] with an "
                             f"integer count of 2 or more")
        elif item[1] > frames - len(expanded):
            raise _not_per_frame(key, frames)
        else:
            expanded += item[:1] * item[1]
    if len(expanded) != frames:
        raise _not_per_frame(key, frames)
    return expanded


def _not_per_frame(key: str, frames: int) -> ValueError:
    return ValueError(f"{key!r} is not a list of {frames} values, one per time")


def _may_hold_booleans(line: str) -> bool:
    return "true" in line or "false" in line


def _check_numbers(column: list, key: str, booleans: bool) -> None:
    """Raise ValueError unless every value is a finite number.  `sum` adds a
    list of numbers at C speed and raises TypeError at a string, null, list or
    object.  Only a sum that is not finite needs a scan for NaN or an infinity,
    and only a line holding `true` or `false` (`booleans`) a scan for the bools
    that `sum` adds as 1 and 0."""
    try:
        total = sum(column, 0.0)
    except TypeError:
        raise ValueError(f"{key!r} holds a value that is not a number") from None
    except OverflowError:  # an integer beyond the float range
        total = None
    if (total is None or not math.isfinite(total) and not all(map(math.isfinite, column))
            or booleans and bool in map(type, column)):
        raise ValueError(f"{key!r} holds a value that is not a finite number")


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
    """`find(xs, ys, hint)` gives, for each point in turn, the lane index that
    `_locate_lane` gives.  Each search tries the lane found for the point
    before first, `hint` for the first.

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

    def find(xs, ys, hint: int) -> list[int]:
        found = []
        for x, y in zip(xs, ys):
            locate, s_max, lo, hi = ends[hint]
            s, lat = locate(x, y)
            if -5.0 <= s <= s_max:
                if abs(lat) >= near or (abs(x) <= inside and abs(y) <= inside):
                    hint = _locate_lane(lanes, x, y)[0]
            elif s < lo or s > hi:
                hint = 0
            else:
                hint = _locate_lane(lanes, x, y)[0]
            found.append(hint)
        return found

    return find


def _build_movers(instance: ScenarioInstance, geometry: RoadGeometry) -> list[_Mover]:
    p = geometry.scenario
    b = instance.bindings
    ego_speed = b["ego_speed"]
    npc_speed = b["npc_speed"]
    ego_init = b["EGO_INIT_DIST"]
    npc_init = b["NPC_INIT_DIST"]

    ego_path = _ego_path(geometry)
    adversary = next((n for n in p.npcs if n.adversary), None)
    junction = p.topology in ("intersection", "t_intersection")

    if junction:
        adv_path = _junction_adversary_path(geometry, adversary.behavior if adversary else "go_forward")
        cross = path_intersection(ego_path, adv_path)
        if cross is None:
            raise ValueError("adversary path never crosses the ego path")
        s_cell_ego, s_cell_adv = cross
        ego_s0 = s_cell_ego - (EGO_RUNUP_M + ego_init)
    elif p.configuration == "head_on":
        ego_s0 = path_length(ego_path) / 2.0 - ego_init
    else:
        ego_s0 = ego_init
    movers = [_Mover(p.ego_id, ego_actor_type(p.ego_model), p.ego_behavior, ego_path, ego_s0,
                     ego_speed)]
    if adversary is not None:
        if junction:
            t_cell = (EGO_RUNUP_M + ego_init) / ego_speed
            lead = npc_speed * max(t_cell - ARRIVAL_LEAD_S, 0.0)
            path, adv_s0 = adv_path, s_cell_adv - max(lead, npc_init)
        elif p.configuration == "head_on":
            path = next(lane for lane in geometry.lanes if lane.direction == -1).path
            adv_s0 = path_length(path) / 2.0 - npc_init
        else:  # car_following: the adversary leads the ego in its lane
            path, adv_s0 = ego_path, ego_s0 + npc_init
        mover = _Mover(adversary.actor_id, adversary.actor_type, adversary.behavior, path, adv_s0,
                       0.0 if adversary.behavior == "static" else npc_speed)
        if p.configuration == "head_on" and adversary.behavior == "go_forward":
            mover.incursion = True
            mover.trigger_gap = npc_init
        movers.append(mover)

    # Background npcs: fixed 25 m placement along the ego lane (front/behind)
    # or the neighbouring corridor (left/right), fixed speed from the template.
    for npc in p.npcs:
        if adversary is not None and npc.actor_id == adversary.actor_id:
            continue
        ego_s0 = movers[0].s
        offset = 25.0 if npc.spatial_relation == "front" else -25.0
        mover = _Mover(npc.actor_id, npc.actor_type, npc.behavior, movers[0].path,
                       ego_s0 + offset, 0.0 if npc.behavior == "static" else npc.speed_mps)
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
    """What the frame times print as, formatted on first use."""
    return _sig6_texts(_FRAME_TIMES)


def _prints_as_grid(times) -> bool:
    """Whether `times` print as the first frame times: the grid's floats, where
    only a first -0.0 prints apart, or other floats with the grid's texts."""
    if times == _FRAME_TIMES[:len(times)]:
        return math.copysign(1.0, times[0]) > 0
    return _sig6_texts(times) == _frame_time_texts()[:len(times)]


def _grid_frames(timestep_s: float, horizon_s: float) -> float:
    """How many frames of `_FRAME_TIMES` a trace with this header may cover,
    and so the largest `t` count a trace file may give: the frames up to the
    horizon, or none if the timestep is not the grid's."""
    if timestep_s != TIMESTEP_S:
        return 0
    return min(len(_FRAME_TIMES), horizon_s / timestep_s + 1)


_BLOCK_FRAMES = 32  # frames every mover runs between two collision scans


def _signal_states(geometry: RoadGeometry) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Each signal head's states at every frame time, computed once per geometry."""
    cached = geometry.__dict__.get("_signal_states")
    if cached is None:
        cached = tuple((leg, tuple(map(sched.state, _FRAME_TIMES)))
                       for leg, sched in geometry.signal_heads)
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
                m.lateral = LANE_WIDTH * progress
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

    # per mover: x, y, heading, speed and lane id per frame
    columns = [([], [], [], [], []) for _ in movers]
    ego_xs, ego_ys = columns[0][0], columns[0][1]
    end_frame = len(_FRAME_TIMES) - 1
    collided = False
    start = 0
    while start <= end_frame:
        stop = min(start + _BLOCK_FRAMES, end_frame + 1)
        for m, point, (xs, ys, headings, speeds, lane_ids) in zip(movers, points, columns):
            states, block_speeds = _run_mover(m, point, ego_xs, ego_ys, start, stop)
            block_xs, block_ys, block_headings = zip(*states)
            found = find_lanes(block_xs, block_ys, m.lane)
            m.lane = found[-1]
            lane_ids += map(lane_names.__getitem__, found)
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
        signals=tuple((leg, states[:n]) for leg, states in _signal_states(geometry)),
        tracks=tuple(ActorTrack(m.actor_id, *(tuple(column[:n]) for column in cols))
                     for m, cols in zip(movers, columns)),
    )
