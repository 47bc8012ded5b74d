"""Compile a normalized spec into a scenario template and Scenic program text.

The template is the structured intermediate every later stage consumes:
it fixes environment and topology, carries the actor roster, and exposes
exactly four free parameters (ego_speed, npc_speed, EGO_INIT_DIST,
NPC_INIT_DIST) as ranges.  The Scenic text is a deterministic expansion
of the same intermediate, so the two outputs cannot diverge.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .digests import digest64_json, digest64_text, to_data
from .dsl import OracleEntry
from .normalize import DEFAULT_SPEED_MPS, NormalizedSpec

log = logging.getLogger(__name__)

CONFIGURATIONS = ("head_on", "car_following", "crossing_from_left", "crossing_from_right", "junction_conflict")
TOWNS = ("Town02", "Town04", "Town05")
FREE_PARAMETER_NAMES = ("EGO_INIT_DIST", "NPC_INIT_DIST", "ego_speed", "npc_speed")

SPEED_WIDEN_FACTOR = 0.2          # base speed v becomes [0.8 v, 1.2 v]
INIT_DIST_RANGE = (15.0, 20.0)    # initial-distance parameters in meters

# weather token -> (daytime preset, nighttime preset).  Stock simulator
# preset names where they exist; Snowy*/Foggy*/Windy* are documented
# extension tokens (see docs/weather_presets.md).
WEATHER_PRESETS: dict[str, tuple[str, str]] = {
    "sunny": ("ClearNoon", "ClearNight"),
    "cloudy": ("CloudyNoon", "CloudyNight"),
    "overcast": ("WetCloudyNoon", "WetCloudyNight"),
    "rainy": ("HardRainNoon", "HardRainNight"),
    "snowy": ("SnowyNoon", "SnowyNight"),
    "foggy": ("FoggyNoon", "FoggyNight"),
    "windy": ("WindyNoon", "WindyNight"),
    "not_mentioned": ("ClearNoon", "ClearNight"),
}

TIME_HOURS = {"daytime": 12, "nighttime": 22}


class CompatibilityError(ValueError):
    """Topology and heading relation cannot be combined into a configuration."""


@dataclass(frozen=True)
class ParamRange:
    name: str
    low: float
    high: float
    unit: str

    def __post_init__(self):
        if not (self.low <= self.high):
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")
        if self.unit in ("m/s", "m") and self.low < 0:
            raise ValueError(f"{self.name}: negative {self.unit} range")


@dataclass(frozen=True)
class NpcParams:
    actor_id: str
    actor_type: str
    behavior: str
    model_id: str
    spatial_relation: str
    heading_relation: str
    speed_mps: float
    adversary: bool


@dataclass(frozen=True)
class TemplateParams:
    scenario_id: str
    ego_id: str
    town: str
    time_hour: int
    weather_preset: str
    topology: str
    configuration: str
    approach: str | None           # adversary approach leg for junction conflicts
    number_of_ways: int
    lanes: int                     # per direction (per approach leg on junctions)
    marker: str
    signs: tuple[str, ...]
    speed_limit_mps: float | None
    ego_model: str
    ego_behavior: str
    ego_speed: ParamRange
    npc_speed: ParamRange
    ego_init_dist: ParamRange
    npc_init_dist: ParamRange
    npcs: tuple[NpcParams, ...]
    oracle: tuple[OracleEntry, ...]


@dataclass(frozen=True)
class ScenarioTemplate:
    params: TemplateParams
    free_parameters: tuple[ParamRange, ...]
    fixed_parameters: dict[str, float]

    def __post_init__(self):
        free = {p.name for p in self.free_parameters}
        if free & set(self.fixed_parameters):
            raise ValueError("free and fixed parameter names overlap")
        ranges = {
            self.params.ego_speed.name, self.params.npc_speed.name,
            self.params.ego_init_dist.name, self.params.npc_init_dist.name,
        }
        if ranges != free:
            raise ValueError("every template range must be listed as a free parameter")
        p = self.params
        if p.configuration in ("head_on", "car_following") and p.topology not in ("straight", "curve"):
            raise ValueError(f"{p.configuration} configuration requires a straight or curve topology")
        if p.configuration == "junction_conflict" and p.topology not in ("intersection", "t_intersection"):
            raise ValueError("junction_conflict configuration requires a junction topology")

    def digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest64_json(to_data(self))
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclass(frozen=True)
class ScenicProgram:
    source_text: str
    content_digest: str

    def file_text(self) -> str:
        """Full on-disk form: a digest header line followed by the program."""
        return f"# digest: {self.content_digest}\n{self.source_text}"


def map_time(time_token: str) -> int:
    """daytime -> 12, nighttime -> 22."""
    if time_token not in TIME_HOURS:
        raise ValueError(f"unsupported time token {time_token!r}")
    return TIME_HOURS[time_token]


def map_weather(weather_token: str, time_token: str) -> str:
    """Weather/time pair -> simulator preset token (total over both vocabularies)."""
    if weather_token not in WEATHER_PRESETS:
        raise ValueError(f"unsupported weather token {weather_token!r}")
    day, night = WEATHER_PRESETS[weather_token]
    return night if time_token == "nighttime" else day


def select_map(road_type: str, lanes: int) -> str:
    """Pick the town asset for a road type and total lane count.

    Junctions always land in Town05; 2-lane straights and curves in
    Town02; 4-lane straights in Town04.  Unsupported lane counts snap to
    the nearest supported configuration (ties snap down) with a logged
    warning.
    """
    if road_type in ("intersection", "t_intersection"):
        return "Town05"
    if road_type == "curve":
        if lanes != 2:
            log.warning("curve with %d lanes snapped to the 2-lane Town02 configuration", lanes)
        return "Town02"
    if lanes == 2:
        return "Town02"
    if lanes == 4:
        return "Town04"
    snapped = 2 if abs(lanes - 2) <= abs(lanes - 4) else 4
    log.warning("straight road with %d lanes snapped to the %d-lane configuration", lanes, snapped)
    return "Town02" if snapped == 2 else "Town04"


def widen_to_range(base: float, kind: str, name: str | None = None) -> ParamRange:
    """Turn a point value into a sampling range.

    Speeds widen by +/-20 percent around the base; initial distances are
    always the fixed [15, 20] m window regardless of base.
    """
    if base < 0:
        raise ValueError(f"base must be nonnegative, got {base}")
    if kind == "speed":
        return ParamRange(name or "speed", 0.8 * base, 1.2 * base, "m/s")
    if kind == "init_dist":
        return ParamRange(name or "init_dist", INIT_DIST_RANGE[0], INIT_DIST_RANGE[1], "m")
    raise ValueError(f"unknown widening kind {kind!r}")


def _pick_adversary(normalized: NormalizedSpec) -> str | None:
    spec = normalized.spec
    npc_ids = [n.actor_id for n in spec.actors.npcs]
    if not npc_ids:
        return None
    for entry in spec.oracle:
        if entry.violating_actor in npc_ids:
            return entry.violating_actor
    return npc_ids[0]


def build_template(normalized: NormalizedSpec) -> ScenarioTemplate:
    """Select the configuration and populate every template parameter.

    The configuration comes from topology plus the adversary's heading
    relation: opposite_direction on a straight or curve is a head-on,
    same_direction a car-following, from_left/from_right on a junction a
    junction conflict entering on that leg.  Incompatible pairs (for
    example from_left on a straight road, opposite_direction on a one-way
    road, or a turn_right adversary on a 4-way intersection) raise
    :class:`CompatibilityError` naming both tokens, after the path of the
    field at fault.
    """
    spec = normalized.spec
    road = spec.road_network
    junction = road.road_type in ("intersection", "t_intersection")

    adversary_id = _pick_adversary(normalized)
    adversary = None
    approach: str | None = None
    if adversary_id is None:
        # Solo-ego template: degenerate configuration chosen by topology.
        configuration = "junction_conflict" if junction else "car_following"
        if junction:
            approach = "left"
    else:
        index, adversary = next((i, n) for i, n in enumerate(spec.actors.npcs)
                                if n.actor_id == adversary_id)
        at = f"/actors/npcs/{index}"
        heading = adversary.position.heading_relation
        if junction and heading in ("from_left", "from_right"):
            configuration, approach = "junction_conflict", heading.removeprefix("from_")
        elif not junction and heading in ("opposite_direction", "same_direction"):
            configuration = "head_on" if heading == "opposite_direction" else "car_following"
        else:
            raise CompatibilityError(
                f"{at}/position/heading_relation: heading relation {heading!r} "
                f"is incompatible with road type {road.road_type!r}")
        if configuration == "head_on" and road.number_of_ways != 2:
            raise CompatibilityError(
                f"/road_network/number_of_ways: heading relation 'opposite_direction' "
                f"needs number_of_ways = 2 on road type {road.road_type!r}, "
                f"got {road.number_of_ways}")
        if road.road_type == "intersection" and adversary.behavior == "turn_right":
            # a right turn from the crossing leg stays clear of the ego's lane
            raise CompatibilityError(
                f"{at}/behavior: adversary behavior 'turn_right' never crosses the ego path "
                "on road type 'intersection'")

    total_lanes = road.number_of_ways * road.number_of_lanes
    town = select_map(road.road_type, total_lanes)
    time_hour = map_time(spec.environment.time_of_day)
    preset = map_weather(spec.environment.weather, spec.environment.time_of_day)

    ego = spec.actors.ego
    adversary_speed = adversary.speed_mps if adversary is not None else DEFAULT_SPEED_MPS
    ego_speed = widen_to_range(ego.speed_mps, "speed", "ego_speed")
    npc_speed = widen_to_range(adversary_speed, "speed", "npc_speed")
    ego_init = widen_to_range(0.0, "init_dist", "EGO_INIT_DIST")
    npc_init = widen_to_range(0.0, "init_dist", "NPC_INIT_DIST")

    fixed: dict[str, float] = {"time_hour": float(time_hour)}
    if road.speed_limit_value is not None:
        fixed["speed_limit_mps"] = road.speed_limit_value

    npcs = []
    for npc in spec.actors.npcs:
        npcs.append(NpcParams(
            actor_id=npc.actor_id,
            actor_type=npc.actor_type,
            behavior=npc.behavior,
            model_id=npc.model_id,
            spatial_relation=npc.position.spatial_relation,
            heading_relation=npc.position.heading_relation,
            speed_mps=npc.speed_mps,
            adversary=npc.actor_id == adversary_id,
        ))
        if npc.actor_id != adversary_id:
            fixed[f"{npc.actor_id}_speed"] = npc.speed_mps

    params = TemplateParams(
        scenario_id=spec.scenario_id,
        ego_id=ego.actor_id,
        town=town,
        time_hour=time_hour,
        weather_preset=preset,
        topology=road.road_type,
        configuration=configuration,
        approach=approach,
        number_of_ways=road.number_of_ways,
        lanes=road.number_of_lanes,
        marker=road.road_markers,
        signs=road.traffic_signs,
        speed_limit_mps=road.speed_limit_value,
        ego_model=ego.model_id,
        ego_behavior=ego.behavior,
        ego_speed=ego_speed,
        npc_speed=npc_speed,
        ego_init_dist=ego_init,
        npc_init_dist=npc_init,
        npcs=tuple(npcs),
        oracle=spec.oracle,
    )
    return ScenarioTemplate(
        params=params,
        free_parameters=(ego_init, npc_init, ego_speed, npc_speed),
        fixed_parameters=fixed,
    )


def fmt_number(value: float) -> str:
    """Up to 6 significant digits, no trailing zeros (8.0 -> "8")."""
    return f"{value:.6g}"


_ADVERSARY_BEHAVIORS = {
    "head_on": (
        "behavior AdversaryHeadOn():\n"
        "    # hold the opposing lane, then cut across the centerline over 2 s\n"
        "    # once the gap to the ego falls below NPC_INIT_DIST\n"
        "    do OncomingIncursion(trigger_gap=NPC_INIT_DIST, cross_duration=2)"
    ),
    "car_following": (
        "behavior AdversaryLead():\n"
        "    # lead the ego by NPC_INIT_DIST and keep lane at npc_speed\n"
        "    do FollowLaneBehavior(target_speed=npc_speed)"
    ),
    "junction_conflict": (
        "behavior AdversaryCrossing():\n"
        "    # timed approach: reach the conflict region just before the ego\n"
        "    do CrossConflictRegion(arrival_lead=0.1)"
    ),
}


def render_scenic(template: ScenarioTemplate) -> ScenicProgram:
    """Expand the master template into program text.

    Byte-identical output for equal templates; each free parameter shows
    up exactly once as a VerifaiRange expression.
    """
    p = template.params
    lines: list[str] = []
    lines.append(f"# scenario_id: {p.scenario_id}")
    lines.append(f"param carla_map = '{p.town}'")
    lines.append(f"param weather = '{p.weather_preset}'")
    lines.append(f"param time_of_day = {p.time_hour}")
    lines.append("model scenic.simulators.carla.model")
    lines.append("")
    limit = fmt_number(p.speed_limit_mps) if p.speed_limit_mps is not None else "unposted"
    lines.append(f"# topology: {p.topology} ({p.number_of_ways}-way x {p.lanes}-lane, "
                 f"{p.marker} markers, speed limit {limit})")
    if p.signs:
        lines.append(f"# signs: {', '.join(p.signs)}")
    config = p.configuration if p.approach is None else f"{p.configuration} (from the {p.approach})"
    lines.append(f"# configuration: {config}")
    lines.append("")
    for r in template.free_parameters:
        lines.append(f"{r.name} = VerifaiRange({fmt_number(r.low)}, {fmt_number(r.high)})")
    lines.append("")
    lines.append("behavior EgoDrive():")
    lines.append("    do FollowLaneBehavior(target_speed=ego_speed)")
    lines.append("")
    adversary_rows = [n for n in p.npcs if n.adversary]
    if adversary_rows:
        lines.append(_ADVERSARY_BEHAVIORS[p.configuration])
        lines.append("")
    ego_kind = "Truck" if p.ego_model == "vehicle.carlamotors.european_hgv" else "Car"
    lines.append(f"ego = new {ego_kind} on road,")
    lines.append(f"    with blueprint '{p.ego_model}',")
    lines.append("    with behavior EgoDrive(),")
    lines.append("    with speed ego_speed")
    for npc in p.npcs:
        lines.append("")
        kind = "Truck" if npc.actor_type == "truck" else "Car"
        lines.append(f"{npc.actor_id} = new {kind} on road,")
        lines.append(f"    with blueprint '{npc.model_id}',")
        if npc.adversary:
            behavior_name = {
                "head_on": "AdversaryHeadOn",
                "car_following": "AdversaryLead",
                "junction_conflict": "AdversaryCrossing",
            }[p.configuration]
            lines.append(f"    with behavior {behavior_name}(),")
            lines.append("    with speed npc_speed")
        else:
            lines.append(f"    with behavior FollowLaneBehavior(target_speed={fmt_number(npc.speed_mps)}),")
            lines.append(f"    with speed {fmt_number(npc.speed_mps)}")
    lines.append("")
    lines.append("require (distance from ego to intersection_or_conflict) >= EGO_INIT_DIST")
    lines.append("terminate after 60 seconds")
    lines.append("")
    for entry in p.oracle:
        lines.append(f"# oracle: CVC_{entry.rule_id} {entry.violation_type} by {entry.violating_actor}")
    source = "\n".join(lines) + "\n"
    return ScenicProgram(source_text=source, content_digest=digest64_text(source))


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


def load_program_file(text: str) -> ScenicProgram:
    """Re-read an emitted .scenic file, checking the digest header."""
    first, _, rest = text.partition("\n")
    if not first.startswith("# digest: "):
        raise ValueError("missing digest header")
    digest = first[len("# digest: "):].strip()
    program = ScenicProgram(source_text=rest, content_digest=digest64_text(rest))
    if program.content_digest != digest:
        raise ValueError("digest header does not match program text")
    return program
