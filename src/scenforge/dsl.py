"""Scenario document model: strict parsing, validation, canonical serialization.

Documents are a small YAML subset (scalars, maps, sequences; no anchors or
tags) with four sections: environment, road_network, actors, oracle.  Every
enum-valued field draws from a closed vocabulary and unknown keys are
rejected, so a document produced by a language model either conforms to the
schema or comes back as a precise issue list.

``parse_dsl`` returns either a fully populated :class:`ScenarioSpec` or the
complete list of :class:`ValidationIssue` (never just the first problem).
``validate_spec`` covers the cross-field invariants that a structurally
well-formed document can still break; ``parse_and_validate`` runs both.
``serialize_dsl`` emits the one canonical text form, so
``parse_dsl(serialize_dsl(spec)) == spec`` and semantically equal documents
serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

import yaml

# Closed vocabularies.  Parsing never yields a token outside these sets.
WEATHER_TOKENS = ("sunny", "cloudy", "overcast", "rainy", "snowy", "foggy", "windy", "not_mentioned")
TIME_TOKENS = ("daytime", "nighttime", "not_mentioned")
ROAD_TYPES = ("straight", "intersection", "t_intersection", "curve")
MARKER_TOKENS = ("solid_line", "broken_line", "not_mentioned")
SIGN_TOKENS = ("stop_sign", "speed_limit_sign", "traffic_light", "not_mentioned")
ACTOR_TYPES = ("car", "truck")
BEHAVIOR_TOKENS = ("go_forward", "turn_left", "turn_right", "static", "stop")
SPATIAL_TOKENS = ("front", "behind", "left", "right")
HEADING_TOKENS = ("same_direction", "opposite_direction", "from_left", "from_right")

# Rule codes the monitor can evaluate; oracle entries must cite one of these.
KNOWN_RULE_IDS = (
    "21453", "21460", "21461",
    "21800", "21801", "21802", "21803", "21804",
    "22107", "22108", "22349", "22350", "22450",
)

MAX_NPCS = 4
MAX_LANES = 8
MAX_SPEED_MPS = 45.0

DEFAULT_SCENARIO_ID = "unnamed"

# Issue kinds
MISSING_SECTION = "missing_section"
INVALID_ENUM = "invalid_enum"
RANGE_VIOLATION = "range_violation"
INCONSISTENT = "inconsistent"
UNKNOWN_FIELD = "unknown_field"


@dataclass(frozen=True)
class ValidationIssue:
    path: str
    kind: str
    message: str
    allowed: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Environment:
    weather: str
    time_of_day: str


@dataclass(frozen=True)
class RoadNetwork:
    road_type: str
    number_of_ways: int
    number_of_lanes: int
    road_markers: str
    traffic_signs: tuple[str, ...] = ()
    speed_limit_value: float | None = None


@dataclass(frozen=True)
class PositionSpec:
    reference: str = "ego"
    spatial_relation: str = "front"
    heading_relation: str | None = None


@dataclass(frozen=True)
class ActorSpec:
    actor_id: str
    actor_type: str
    behavior: str
    speed_mps: float | None = None
    position: PositionSpec | None = None
    model_id: str | None = None


@dataclass(frozen=True)
class ActorSet:
    ego: ActorSpec
    npcs: tuple[ActorSpec, ...] = ()

    def all_actors(self) -> tuple[ActorSpec, ...]:
        return (self.ego,) + self.npcs


@dataclass(frozen=True)
class OracleEntry:
    rule_id: str
    violation_type: str
    description: str
    violating_actor: str


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: str
    environment: Environment
    road_network: RoadNetwork
    actors: ActorSet
    oracle: tuple[OracleEntry, ...] = ()


ParseResult = Union[ScenarioSpec, "list[ValidationIssue]"]


def _sorted(issues: list[ValidationIssue]) -> list[ValidationIssue]:
    return sorted(issues, key=lambda i: (i.path, i.kind, i.message))


class _Walker:
    """Accumulates issues while pulling typed values out of the YAML tree."""

    def __init__(self) -> None:
        self.issues: list[ValidationIssue] = []

    def error(self, path: str, kind: str, message: str, allowed: tuple[str, ...] | None = None) -> None:
        self.issues.append(ValidationIssue(path, kind, message, allowed))

    def mapping(self, value: Any, path: str, known_keys: tuple[str, ...]) -> dict | None:
        if not isinstance(value, dict):
            self.error(path, INCONSISTENT, f"expected a mapping, got {type(value).__name__}")
            return None
        for key in value:
            if not isinstance(key, str):
                self.error(f"{path}/{key}", INCONSISTENT, "mapping keys must be strings")
            elif key not in known_keys:
                self.error(f"{path}/{key}", UNKNOWN_FIELD, f"unknown field {key!r}")
        return value

    def enum(self, node: dict, key: str, path: str, allowed: tuple[str, ...], required: bool = True) -> str | None:
        if key not in node:
            if required:
                self.error(f"{path}/{key}", MISSING_SECTION, f"required field {key!r} absent")
            return None
        value = node[key]
        if not isinstance(value, str) or value not in allowed:
            self.error(f"{path}/{key}", INVALID_ENUM, f"{value!r} is not an accepted token", allowed)
            return None
        return value

    def string(self, node: dict, key: str, path: str, required: bool = True) -> str | None:
        if key not in node:
            if required:
                self.error(f"{path}/{key}", MISSING_SECTION, f"required field {key!r} absent")
            return None
        value = node[key]
        if not isinstance(value, str) or not value:
            self.error(f"{path}/{key}", INCONSISTENT, "expected a non-empty string")
            return None
        return value

    def integer(self, node: dict, key: str, path: str, low: int, high: int) -> int | None:
        if key not in node:
            self.error(f"{path}/{key}", MISSING_SECTION, f"required field {key!r} absent")
            return None
        value = node[key]
        if not isinstance(value, int) or isinstance(value, bool):
            self.error(f"{path}/{key}", INCONSISTENT, "expected an integer")
            return None
        if not (low <= value <= high):
            self.error(f"{path}/{key}", RANGE_VIOLATION, f"{value} outside [{low}, {high}]")
            return None
        return value

    def speed(self, node: dict, key: str, path: str) -> float | None:
        if key not in node or node[key] is None:
            return None
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"{path}/{key}", INCONSISTENT, "expected a number (m/s)")
            return None
        value = float(value)
        if not (0.0 < value <= MAX_SPEED_MPS):
            self.error(f"{path}/{key}", RANGE_VIOLATION, f"{value} outside (0, {MAX_SPEED_MPS}]")
            return None
        return value


def _parse_environment(w: _Walker, node: Any) -> Environment | None:
    mapping = w.mapping(node, "/environment", ("weather", "time_of_day"))
    if mapping is None:
        return None
    weather = w.enum(mapping, "weather", "/environment", WEATHER_TOKENS)
    time_of_day = w.enum(mapping, "time_of_day", "/environment", TIME_TOKENS)
    if weather is None or time_of_day is None:
        return None
    return Environment(weather=weather, time_of_day=time_of_day)


def _parse_road_network(w: _Walker, node: Any) -> RoadNetwork | None:
    keys = ("road_type", "number_of_ways", "number_of_lanes", "road_markers",
            "traffic_signs", "speed_limit_value")
    mapping = w.mapping(node, "/road_network", keys)
    if mapping is None:
        return None
    road_type = w.enum(mapping, "road_type", "/road_network", ROAD_TYPES)
    ways = w.integer(mapping, "number_of_ways", "/road_network", 1, 4)
    lanes = w.integer(mapping, "number_of_lanes", "/road_network", 1, MAX_LANES)
    markers = w.enum(mapping, "road_markers", "/road_network", MARKER_TOKENS)

    signs: list[str] = []
    if "traffic_signs" in mapping:
        raw = mapping["traffic_signs"]
        if not isinstance(raw, list):
            w.error("/road_network/traffic_signs", INCONSISTENT, "expected a sequence of sign tokens")
        else:
            for i, item in enumerate(raw):
                if isinstance(item, str) and item in SIGN_TOKENS:
                    signs.append(item)
                else:
                    w.error(f"/road_network/traffic_signs/{i}", INVALID_ENUM,
                            f"{item!r} is not an accepted token", SIGN_TOKENS)

    limit = w.speed(mapping, "speed_limit_value", "/road_network")

    if None in (road_type, ways, lanes, markers):
        return None
    return RoadNetwork(
        road_type=road_type,
        number_of_ways=ways,
        number_of_lanes=lanes,
        road_markers=markers,
        traffic_signs=tuple(signs),
        speed_limit_value=limit,
    )


def _parse_position(w: _Walker, node: Any, path: str) -> PositionSpec | None:
    mapping = w.mapping(node, path, ("reference", "spatial_relation", "heading_relation"))
    if mapping is None:
        return None
    reference = w.string(mapping, "reference", path, required=False) or "ego"
    spatial = w.enum(mapping, "spatial_relation", path, SPATIAL_TOKENS)
    heading = w.enum(mapping, "heading_relation", path, HEADING_TOKENS, required=False)
    if spatial is None:
        return None
    return PositionSpec(reference=reference, spatial_relation=spatial, heading_relation=heading)


def _parse_actor(w: _Walker, node: Any, path: str, is_ego: bool, default_id: str) -> ActorSpec | None:
    keys = ("actor_id", "actor_type", "behavior", "speed_mps", "position", "model_id")
    mapping = w.mapping(node, path, keys)
    if mapping is None:
        return None
    actor_id = w.string(mapping, "actor_id", path, required=not is_ego)
    if actor_id is None:
        if not is_ego:
            return None
        actor_id = default_id
    actor_type = w.enum(mapping, "actor_type", path, ACTOR_TYPES)
    behavior = w.enum(mapping, "behavior", path, BEHAVIOR_TOKENS)
    speed = w.speed(mapping, "speed_mps", path)
    model_id = w.string(mapping, "model_id", path, required=False)

    position: PositionSpec | None = None
    if is_ego:
        if "position" in mapping:
            w.error(f"{path}/position", INCONSISTENT, "the ego actor must not carry a position")
    elif "position" not in mapping:
        w.error(f"{path}/position", MISSING_SECTION, "required field 'position' absent")
        return None
    else:
        position = _parse_position(w, mapping["position"], f"{path}/position")
        if position is None:
            return None

    if actor_type is None or behavior is None:
        return None
    return ActorSpec(
        actor_id=actor_id,
        actor_type=actor_type,
        behavior=behavior,
        speed_mps=speed,
        position=position,
        model_id=model_id,
    )


def _parse_actors(w: _Walker, node: Any) -> ActorSet | None:
    mapping = w.mapping(node, "/actors", ("ego", "npcs"))
    if mapping is None:
        return None
    ego: ActorSpec | None = None
    if "ego" not in mapping:
        w.error("/actors/ego", MISSING_SECTION, "required field 'ego' absent")
    else:
        ego = _parse_actor(w, mapping["ego"], "/actors/ego", is_ego=True, default_id="ego")

    npcs: list[ActorSpec] = []
    if "npcs" in mapping:
        raw = mapping["npcs"]
        if not isinstance(raw, list):
            w.error("/actors/npcs", INCONSISTENT, "expected a sequence of actors")
        else:
            if len(raw) > MAX_NPCS:
                w.error("/actors/npcs", RANGE_VIOLATION, f"at most {MAX_NPCS} npcs supported, got {len(raw)}")
            for i, item in enumerate(raw[:MAX_NPCS]):
                npc = _parse_actor(w, item, f"/actors/npcs/{i}", is_ego=False, default_id=f"npc_{i + 1}")
                if npc is not None:
                    npcs.append(npc)

    if ego is None:
        return None
    return ActorSet(ego=ego, npcs=tuple(npcs))


def _rule_id_from(value: Any) -> str | None:
    """Accept 21460, "21460", or "CVC_21460"; return the bare code."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, str):
        token = value.strip()
        if token.upper().startswith("CVC_"):
            token = token[4:]
        if token.isdigit():
            return token
    return None


def _parse_oracle(w: _Walker, node: Any, actors: ActorSet | None) -> tuple[OracleEntry, ...] | None:
    if not isinstance(node, list):
        w.error("/oracle", INCONSISTENT, "expected a sequence of oracle entries")
        return None
    if not node:
        w.error("/oracle", MISSING_SECTION, "oracle list must not be empty")
        return None

    default_actor = "ego"
    if actors is not None and actors.npcs:
        default_actor = actors.npcs[0].actor_id

    entries: list[OracleEntry] = []
    for i, item in enumerate(node):
        path = f"/oracle/{i}"
        mapping = w.mapping(item, path, ("rule", "rule_id", "violation_type", "description", "violating_actor"))
        if mapping is None:
            continue
        raw_rule = mapping.get("rule", mapping.get("rule_id"))
        rule_id = _rule_id_from(raw_rule)
        if raw_rule is None:
            w.error(f"{path}/rule", MISSING_SECTION, "required field 'rule' absent")
            continue
        if rule_id is None or rule_id not in KNOWN_RULE_IDS:
            w.error(f"{path}/rule", INVALID_ENUM, f"{raw_rule!r} is not a supported rule code", KNOWN_RULE_IDS)
            continue
        violation_type = w.string(mapping, "violation_type", path)
        description = w.string(mapping, "description", path)
        violating_actor = w.string(mapping, "violating_actor", path, required=False) or default_actor
        if violation_type is None or description is None:
            continue
        entries.append(OracleEntry(
            rule_id=rule_id,
            violation_type=violation_type,
            description=description,
            violating_actor=violating_actor,
        ))
    if len(entries) != len(node):
        return None
    return tuple(entries)


def parse_dsl(source_text: str) -> ParseResult:
    """Parse a scenario document.

    Returns a :class:`ScenarioSpec` when the document conforms to the
    schema, otherwise the full issue list sorted by field path.  Malformed
    markup yields a single issue at path "/".
    """
    w = _Walker()
    try:
        doc = yaml.safe_load(source_text)
    except yaml.YAMLError as exc:
        return [ValidationIssue("/", INCONSISTENT, f"malformed document: {exc}")]

    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        return [ValidationIssue("/", INCONSISTENT, f"expected a mapping at top level, got {type(doc).__name__}")]

    known = ("scenario_id", "environment", "road_network", "actors", "oracle")
    for key in doc:
        if key not in known:
            w.error(f"/{key}", UNKNOWN_FIELD, f"unknown field {key!r}")

    scenario_id = DEFAULT_SCENARIO_ID
    if "scenario_id" in doc:
        value = doc["scenario_id"]
        if isinstance(value, str) and value:
            scenario_id = value
        else:
            w.error("/scenario_id", INCONSISTENT, "expected a non-empty string")

    environment = road = actors = oracle = None
    if "environment" not in doc:
        w.error("/environment", MISSING_SECTION, "required section 'environment' absent")
    else:
        environment = _parse_environment(w, doc["environment"])
    if "road_network" not in doc:
        w.error("/road_network", MISSING_SECTION, "required section 'road_network' absent")
    else:
        road = _parse_road_network(w, doc["road_network"])
    if "actors" not in doc:
        w.error("/actors", MISSING_SECTION, "required section 'actors' absent")
    else:
        actors = _parse_actors(w, doc["actors"])
    if "oracle" not in doc:
        w.error("/oracle", MISSING_SECTION, "required section 'oracle' absent")
    else:
        oracle = _parse_oracle(w, doc["oracle"], actors)

    if w.issues or environment is None or road is None or actors is None or oracle is None:
        return _sorted(w.issues)
    return ScenarioSpec(
        scenario_id=scenario_id,
        environment=environment,
        road_network=road,
        actors=actors,
        oracle=oracle,
    )


def validate_spec(spec: ScenarioSpec) -> list[ValidationIssue]:
    """Check cross-field invariants on a structurally parsed spec.

    Returns an empty list iff junction/way consistency, sign/limit pairing,
    and actor reference resolution all hold.  Issues come back sorted by
    path, so equal specs always yield the identical list.
    """
    issues: list[ValidationIssue] = []
    road = spec.road_network

    expected_ways = {"intersection": (4,), "t_intersection": (3,), "straight": (1, 2), "curve": (1, 2)}
    if road.number_of_ways not in expected_ways[road.road_type]:
        accepted = " or ".join(str(n) for n in expected_ways[road.road_type])
        issues.append(ValidationIssue(
            "/road_network/number_of_ways", INCONSISTENT,
            f"{road.road_type} requires number_of_ways = {accepted}, got {road.number_of_ways}",
        ))

    has_limit_sign = "speed_limit_sign" in road.traffic_signs
    if (road.speed_limit_value is not None) != has_limit_sign:
        issues.append(ValidationIssue(
            "/road_network/speed_limit_value", INCONSISTENT,
            "speed_limit_value must be present exactly when speed_limit_sign is listed",
        ))

    ids: dict[str, int] = {}
    for i, npc in enumerate(spec.actors.npcs):
        if npc.actor_id in ids or npc.actor_id == spec.actors.ego.actor_id:
            issues.append(ValidationIssue(
                f"/actors/npcs/{i}/actor_id", INCONSISTENT,
                f"duplicate actor id {npc.actor_id!r}",
            ))
        ids[npc.actor_id] = i

    known_ids = {spec.actors.ego.actor_id} | set(ids)
    reference_of: dict[str, str] = {}
    for i, npc in enumerate(spec.actors.npcs):
        assert npc.position is not None
        ref = npc.position.reference
        if ref not in known_ids:
            issues.append(ValidationIssue(
                f"/actors/npcs/{i}/position/reference", INCONSISTENT,
                f"reference {ref!r} does not name an actor",
            ))
        else:
            reference_of[npc.actor_id] = ref

    # A reference chain must reach the ego without revisiting an actor.
    for i, npc in enumerate(spec.actors.npcs):
        seen = {npc.actor_id}
        current = reference_of.get(npc.actor_id)
        while current is not None and current != spec.actors.ego.actor_id:
            if current in seen:
                issues.append(ValidationIssue(
                    f"/actors/npcs/{i}/position/reference", INCONSISTENT,
                    f"reference cycle through {current!r}",
                ))
                break
            seen.add(current)
            current = reference_of.get(current)

    for i, entry in enumerate(spec.oracle):
        if entry.violating_actor not in known_ids:
            issues.append(ValidationIssue(
                f"/oracle/{i}/violating_actor", INCONSISTENT,
                f"violating_actor {entry.violating_actor!r} does not name an actor",
            ))

    return _sorted(issues)


def parse_and_validate(source_text: str) -> ParseResult:
    """``parse_dsl``, then ``validate_spec``: the spec, or the first step's issues.

    Both are looked up as module attributes at call time, so a wrapper
    installed on either one sees these calls too.
    """
    parsed = parse_dsl(source_text)
    if isinstance(parsed, list):
        return parsed
    return validate_spec(parsed) or parsed


_BARE_SCALAR_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if text and set(text) <= _BARE_SCALAR_CHARS and text.lower() not in ("true", "false", "null", "yes", "no", "on", "off"):
        # Bare form only when YAML would read it back as the same string.
        try:
            if yaml.safe_load(text) == text:
                return text
        except yaml.YAMLError:
            pass
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _quoted(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _emit_actor(lines: list[str], actor: ActorSpec, indent: str, lead: str) -> None:
    pad = indent + "  "
    lines.append(f"{lead}actor_id: {_scalar(actor.actor_id)}")
    lines.append(f"{pad}actor_type: {actor.actor_type}")
    lines.append(f"{pad}behavior: {actor.behavior}")
    if actor.speed_mps is not None:
        lines.append(f"{pad}speed_mps: {_scalar(actor.speed_mps)}")
    if actor.position is not None:
        lines.append(f"{pad}position:")
        lines.append(f"{pad}  reference: {_scalar(actor.position.reference)}")
        lines.append(f"{pad}  spatial_relation: {actor.position.spatial_relation}")
        if actor.position.heading_relation is not None:
            lines.append(f"{pad}  heading_relation: {actor.position.heading_relation}")
    if actor.model_id is not None:
        lines.append(f"{pad}model_id: {_scalar(actor.model_id)}")


def serialize_dsl(spec: ScenarioSpec) -> str:
    """Emit the canonical document: fixed key order, 2-space indent, LF."""
    road = spec.road_network
    lines = [f"scenario_id: {_scalar(spec.scenario_id)}"]

    lines.append("environment:")
    lines.append(f"  weather: {spec.environment.weather}")
    lines.append(f"  time_of_day: {spec.environment.time_of_day}")

    lines.append("road_network:")
    lines.append(f"  road_type: {road.road_type}")
    lines.append(f"  number_of_ways: {road.number_of_ways}")
    lines.append(f"  number_of_lanes: {road.number_of_lanes}")
    lines.append(f"  road_markers: {road.road_markers}")
    if road.traffic_signs:
        lines.append("  traffic_signs:")
        for sign in road.traffic_signs:
            lines.append(f"    - {sign}")
    else:
        lines.append("  traffic_signs: []")
    if road.speed_limit_value is not None:
        lines.append(f"  speed_limit_value: {_scalar(road.speed_limit_value)}")

    lines.append("actors:")
    lines.append("  ego:")
    _emit_actor(lines, spec.actors.ego, "  ", "    ")
    if spec.actors.npcs:
        lines.append("  npcs:")
        for npc in spec.actors.npcs:
            _emit_actor(lines, npc, "    ", "    - ")
    else:
        lines.append("  npcs: []")

    lines.append("oracle:")
    for entry in spec.oracle:
        lines.append(f"  - rule: CVC_{entry.rule_id}")
        lines.append(f"    violation_type: {_scalar(entry.violation_type)}")
        lines.append(f"    description: {_quoted(entry.description)}")
        lines.append(f"    violating_actor: {_scalar(entry.violating_actor)}")

    return "\n".join(lines) + "\n"
