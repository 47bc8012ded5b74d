"""Reference trace writers and readers, built on `json` and one dict per line.

Format 1, the frame-per-line format that format 2 replaced, is kept here as
a reference: `PINNED_TRACE_SHA256` hashes `simulate`'s traces through its
writer, and a trace read back from a trace file must hold exactly the floats
that a format-1 round trip gives.  Formats 2, 3 and 4 are kept too:
`PINNED_FORMAT2_TRACE_SHA256`, `PINNED_FORMAT3_TRACE_SHA256` and
`PINNED_FORMAT4_TRACE_SHA256` hash traces through their writers, and
`sim.trace_from_jsonl` still reads all three.  Files of formats 1 to 4 held a
`lat` column, each actor's offset from the centre of its lane, which format 5
dropped; the writers here leave it out unless they are given its values
(`lane_offsets`).  `format5_to_jsonl` states what `sim.trace_to_jsonl`
writes, and `format2_from_jsonl` what `sim.trace_from_jsonl` reads from a
file of format 2, 3, 4 or 5.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct

from scenforge import sim
from scenforge.digests import canonical_json

_HEADER_KEYS = ("scenario_id", "instance_seed", "timestep_s", "horizon_s", "geometry_ref")


def sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _header(trace: sim.Trace) -> dict:
    return {"actor_types": trace.actor_types, "geometry_ref": trace.geometry_ref,
            "horizon_s": trace.horizon_s, "instance_seed": trace.instance_seed,
            "scenario_id": trace.scenario_id, "timestep_s": trace.timestep_s}


def lane_offsets(trace: sim.Trace, geometry: sim.RoadGeometry) -> list[list[float]]:
    """Per track, the offset in each frame from the centre of the lane
    `sim._locate_lane` finds: the `lat` column as `simulate` computed it for
    files of formats 1 to 4."""
    lanes = sim._lane_table(geometry)
    return [[sim._locate_lane(lanes, x, y)[1] for x, y in zip(a.x, a.y)] for a in trace.tracks]


def format1_to_jsonl(trace: sim.Trace) -> str:
    """Trace format 1, without `lat`: the header, then one object per frame."""
    lines = [canonical_json(_header(trace))]
    for k, t in enumerate(trace.times):
        lines.append(canonical_json({
            "t": sig6(t),
            "actors": [
                {"id": a.actor_id, "x": sig6(a.x[k]), "y": sig6(a.y[k]),
                 "heading": sig6(a.heading[k]), "speed": sig6(a.speed[k]),
                 "lane": a.lane_id[k]}
                for a in trace.tracks
            ],
            "signals": [{"approach": ap, "state": states[k]} for ap, states in trace.signals],
        }))
    return "\n".join(lines) + "\n"


def format1_from_jsonl(text: str) -> sim.Trace:
    """Reads `format1_to_jsonl` output; every frame lists the same actors."""
    header, *rows = [json.loads(line) for line in text.split("\n") if line.strip()]
    per_frame = [row["actors"] for row in rows]
    ids = tuple(actor["id"] for actor in per_frame[0])
    assert sorted(ids) == sorted(header["actor_types"])
    for actors in per_frame:
        assert tuple(actor["id"] for actor in actors) == ids
    return sim.Trace(
        **{key: header[key] for key in _HEADER_KEYS},
        actor_types=dict(header["actor_types"]),
        times=tuple(row["t"] for row in rows),
        signals=tuple((heads[0]["approach"], tuple(head["state"] for head in heads))
                      for heads in zip(*(row["signals"] for row in rows))),
        tracks=tuple(sim.ActorTrack(actor_id, *(tuple(state[key] for state in states)
                                                for key in sim._COLUMN_KEYS))
                     for actor_id, states in zip(ids, zip(*per_frame))),
    )


def format2_to_jsonl(trace: sim.Trace, laterals=None) -> str:
    """Trace format 2: the header, the times, one line per signal head and one
    per actor, each line one `canonical_json` object.  Given `laterals`, one
    column per track, each actor line holds its column as `lat`."""
    lines = [canonical_json(_header(trace) | {"format": 2}),
             canonical_json({"t": [sig6(t) for t in trace.times]})]
    lines += [canonical_json({"approach": approach, "state": list(states)})
              for approach, states in trace.signals]
    for k, a in enumerate(trace.tracks):
        row = {"id": a.actor_id, "x": [sig6(x) for x in a.x], "y": [sig6(y) for y in a.y],
               "heading": [sig6(h) for h in a.heading], "speed": [sig6(v) for v in a.speed],
               "lane": list(a.lane_id)}
        if laterals is not None:
            row["lat"] = [sig6(lat) for lat in laterals[k]]
        lines.append(canonical_json(row))
    return "\n".join(lines) + "\n"


def format3_to_jsonl(trace: sim.Trace, laterals=None) -> str:
    """Trace format 3: format 2, with each column but `t` whose value texts are
    all the same written once, as a bare value."""
    lines = format2_to_jsonl(trace, laterals).split("\n")
    rows = [json.loads(line) for line in lines[2:-1]]
    for row in rows:
        for key, column in row.items():
            if type(column) is list and len(set(map(canonical_json, column))) == 1:
                row[key] = column[0]
    header = json.loads(lines[0]) | {"format": 3}
    return "\n".join([canonical_json(header), lines[1], *map(canonical_json, rows)]) + "\n"


def format4_to_jsonl(trace: sim.Trace, laterals=None) -> str:
    """Trace format 4: format 3, with `t` written as the frame count when the
    times print as the first frames of the 0.1 s grid that the header's
    timestep and horizon allow, and in each list column but `t` and `x` each
    run of three or more equal value texts written as `[value, count]`."""
    lines = format3_to_jsonl(trace, laterals).split("\n")
    rows = [json.loads(line) for line in lines[2:-1]]
    for row in rows:
        for key, column in row.items():
            if type(column) is list and key != "x":
                row[key] = []
                for text, run in itertools.groupby(map(canonical_json, column)):
                    count = len(list(run))
                    row[key] += [json.loads(text)] * count if count < 3 else [
                        [json.loads(text), count]]
    header = json.loads(lines[0]) | {"format": 4}
    n = len(trace.times)
    grid = canonical_json({"t": [sig6(round(k * 0.1, 9)) for k in range(n)]})
    on_grid = (trace.timestep_s == 0.1 and 0 < n <= min(601, trace.horizon_s / 0.1 + 1)
               and lines[1] == grid)
    times = canonical_json({"t": n}) if on_grid else lines[1]
    return "\n".join([canonical_json(header), times, *map(canonical_json, rows)]) + "\n"


def format5_to_jsonl(trace: sim.Trace) -> str:
    """Trace format 5: format 4 without `lat`."""
    lines = format4_to_jsonl(trace).split("\n")
    return "\n".join([canonical_json(json.loads(lines[0]) | {"format": 5}), *lines[1:]])


def format2_from_jsonl(text: str) -> sim.Trace:
    """Reads a well-formed trace of format 2, 3, 4 or 5 with `json.loads`
    alone: a bare column value is repeated in every frame, a run
    `[value, count]` `count` times, and a `t` count stands for that many
    frames of the timestep's grid."""
    header, times, *rows = [json.loads(line) for line in text.split("\n") if line.strip()]
    if type(times["t"]) is int:
        times["t"] = [round(k * header["timestep_s"], 9) for k in range(times["t"])]
    frames = len(times["t"])

    def column(row: dict, key: str) -> tuple:
        value = row[key]
        if type(value) is not list:
            return (value,) * frames
        if header["format"] >= 4:
            value = [v for item in value
                     for v in (item[:1] * item[1] if type(item) is list else [item])]
        return tuple(value)

    return sim.Trace(
        **{key: header[key] for key in _HEADER_KEYS},
        actor_types=dict(header["actor_types"]),
        times=tuple(times["t"]),
        signals=tuple((row["approach"], column(row, "state"))
                      for row in rows if "approach" in row),
        tracks=tuple(sim.ActorTrack(row["id"], *(column(row, key) for key in sim._COLUMN_KEYS))
                     for row in rows if "approach" not in row),
    )


def exact(value):
    """`value` with every float replaced by its bits and every leaf tagged with its
    type, so -0.0, nan, and an int against an equal float all count."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(exact, value))
    if isinstance(value, dict):
        return dict, tuple((exact(key), exact(item)) for key, item in value.items())
    if dataclasses.is_dataclass(value):
        return type(value), tuple(exact(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    return type(value), value


def assert_round_trips_as_format_1(trace: sim.Trace) -> str:
    """The format-5 text of `trace`, after checking that it is the reference
    writer's text, reads back to the bits a format-1 round trip gives and
    writes back to itself."""
    text = sim.trace_to_jsonl(trace)
    assert text == format5_to_jsonl(trace)
    reloaded = sim.trace_from_jsonl(text)
    assert exact(reloaded) == exact(format1_from_jsonl(format1_to_jsonl(trace)))
    assert sim.trace_to_jsonl(reloaded) == text
    return text
