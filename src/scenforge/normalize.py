"""Canonical-token normalization and fallback defaults.

This is the converter middleware between raw documents and template
synthesis: free-text field values fold onto canonical tokens through a
synonym table, and fields a crash report leaves open receive fixed
defaults so every scenario stays executable.  Every substitution is
tagged in a per-field provenance map (``explicit`` / ``normalized`` /
``defaulted``) so downstream consumers can tell extraction evidence from
inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from . import dsl, prng
from .dsl import ActorSet, ActorSpec, Environment, PositionSpec, RoadNetwork, ScenarioSpec, ValidationIssue

EXPLICIT = "explicit"
NORMALIZED = "normalized"
DEFAULTED = "defaulted"

DEFAULT_SPEED_MPS = 10.0
DEFAULT_EGO_MODEL = "vehicle.lincoln.mkz_2017"
TRUCK_MODEL = "vehicle.carlamotors.european_hgv"
DEFAULT_HEADING = "opposite_direction"
DEFAULT_WEATHER = "sunny"
DEFAULT_TIME = "daytime"
DEFAULT_MARKER = "broken_line"

# Pool of common car assets for randomly resolved background models.
CAR_MODEL_POOL = (
    "vehicle.nissan.patrol",
    "vehicle.tesla.model3",
    "vehicle.dodge.charger_2020",
    "vehicle.audi.tt",
    "vehicle.toyota.prius",
)

VOCABULARIES: dict[str, tuple[str, ...]] = {
    "weather": dsl.WEATHER_TOKENS,
    "time": dsl.TIME_TOKENS,
    "behavior": dsl.BEHAVIOR_TOKENS,
    "heading": dsl.HEADING_TOKENS,
    "spatial": dsl.SPATIAL_TOKENS,
    "marker": dsl.MARKER_TOKENS,
    "sign": dsl.SIGN_TOKENS,
    "actor_type": dsl.ACTOR_TYPES,
}


@dataclass(frozen=True)
class CanonicalToken:
    field_kind: str
    value: str


@dataclass(frozen=True)
class NormalizedSpec:
    """A fully resolved spec plus the provenance tag of every field."""

    spec: ScenarioSpec
    provenance: dict[str, str]

    def to_spec(self) -> ScenarioSpec:
        return self.spec

    def serialize(self) -> str:
        return dsl.serialize_dsl(self.spec)


def load_synonym_table(path: str | Path) -> dict[tuple[str, str], str]:
    """Read a ``kind.raw text=token`` synonym file.

    Lines starting with '#' and blank lines are skipped.  Keys fold to
    lowercase; values must belong to the kind's vocabulary.
    """
    table: dict[tuple[str, str], str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise ValueError(f"{path}:{lineno}: expected 'kind.raw=token', got {line!r}")
        key, value = line.split("=", 1)
        kind, raw = key.split(".", 1)
        kind, raw, value = kind.strip(), raw.strip().lower(), value.strip()
        if kind not in VOCABULARIES:
            raise ValueError(f"{path}:{lineno}: unknown field kind {kind!r}")
        if value not in VOCABULARIES[kind]:
            raise ValueError(f"{path}:{lineno}: {value!r} not in the {kind} vocabulary")
        table[(kind, raw)] = value
    return table


def default_synonym_table() -> dict[tuple[str, str], str]:
    with resources.as_file(resources.files("scenforge").joinpath("data/synonyms.txt")) as path:
        return load_synonym_table(path)


_DEFAULT_TABLE: dict[tuple[str, str], str] | None = None


def _table(table: dict[tuple[str, str], str] | None) -> dict[tuple[str, str], str]:
    global _DEFAULT_TABLE
    if table is not None:
        return table
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = default_synonym_table()
    return _DEFAULT_TABLE


def normalize_field(field_kind: str, raw_text: str,
                    table: dict[tuple[str, str], str] | None = None) -> CanonicalToken | None:
    """Fold raw text onto a canonical token; None when nothing matches.

    Matching is case-insensitive and whitespace-trimmed; spaces and
    hyphens fold to underscores, so every vocabulary token normalizes to
    itself.
    """
    if field_kind not in VOCABULARIES:
        raise ValueError(f"unknown field kind {field_kind!r}")
    key = raw_text.strip().lower()
    folded = key.replace(" ", "_").replace("-", "_")
    if folded in VOCABULARIES[field_kind]:
        return CanonicalToken(field_kind, folded)
    synonyms = _table(table)
    for candidate in (key, folded):
        if (field_kind, candidate) in synonyms:
            return CanonicalToken(field_kind, synonyms[(field_kind, candidate)])
    return None


def resolve_actor_model(actor_type: str, seed: int, actor_index: int) -> str:
    """Pick an asset id: trucks map to one fixed model, cars draw from the pool."""
    if actor_type == "truck":
        return TRUCK_MODEL
    rng = prng.stream(seed, f"npc_model.{actor_index}")
    return CAR_MODEL_POOL[rng.choice_index(len(CAR_MODEL_POOL))]


def apply_defaults(spec: ScenarioSpec, seed: int) -> NormalizedSpec:
    """Resolve every open field of a valid spec.

    Missing speeds become 10 m/s, the ego model defaults to
    vehicle.lincoln.mkz_2017 (trucks always map to the HGV model), npc
    models resolve through the seeded pool, missing heading relations
    become opposite_direction, and "not mentioned" environment values
    become daytime/sunny.  Explicit values are never overwritten.
    """
    prov: dict[str, str] = {}

    def keep(path: str, value, tag: str = EXPLICIT):
        prov[path] = tag
        return value

    env = spec.environment
    weather = env.weather
    time_of_day = env.time_of_day
    if weather == "not_mentioned":
        weather = keep("/environment/weather", DEFAULT_WEATHER, DEFAULTED)
    else:
        keep("/environment/weather", weather)
    if time_of_day == "not_mentioned":
        time_of_day = keep("/environment/time_of_day", DEFAULT_TIME, DEFAULTED)
    else:
        keep("/environment/time_of_day", time_of_day)

    road = spec.road_network
    keep("/road_network/road_type", road.road_type)
    keep("/road_network/number_of_ways", road.number_of_ways)
    keep("/road_network/number_of_lanes", road.number_of_lanes)
    markers = road.road_markers
    if markers == "not_mentioned":
        markers = keep("/road_network/road_markers", DEFAULT_MARKER, DEFAULTED)
    else:
        keep("/road_network/road_markers", markers)
    signs = tuple(s for s in road.traffic_signs if s != "not_mentioned")
    keep("/road_network/traffic_signs", signs,
         EXPLICIT if signs == road.traffic_signs else DEFAULTED)
    if road.speed_limit_value is not None:
        keep("/road_network/speed_limit_value", road.speed_limit_value)

    def resolve_actor(actor: ActorSpec, path: str, index: int | None) -> ActorSpec:
        keep(f"{path}/actor_id", actor.actor_id)
        keep(f"{path}/actor_type", actor.actor_type)
        keep(f"{path}/behavior", actor.behavior)
        speed = actor.speed_mps
        if speed is None:
            speed = keep(f"{path}/speed_mps", DEFAULT_SPEED_MPS, DEFAULTED)
        else:
            keep(f"{path}/speed_mps", speed)
        model = actor.model_id
        if model is None:
            if index is None:
                model = TRUCK_MODEL if actor.actor_type == "truck" else DEFAULT_EGO_MODEL
            else:
                model = resolve_actor_model(actor.actor_type, seed, index)
            keep(f"{path}/model_id", model, DEFAULTED)
        else:
            keep(f"{path}/model_id", model)
        position = actor.position
        if position is not None:
            keep(f"{path}/position/reference", position.reference)
            keep(f"{path}/position/spatial_relation", position.spatial_relation)
            heading = position.heading_relation
            if heading is None:
                heading = keep(f"{path}/position/heading_relation", DEFAULT_HEADING, DEFAULTED)
            else:
                keep(f"{path}/position/heading_relation", heading)
            position = PositionSpec(position.reference, position.spatial_relation, heading)
        return ActorSpec(
            actor_id=actor.actor_id,
            actor_type=actor.actor_type,
            behavior=actor.behavior,
            speed_mps=speed,
            position=position,
            model_id=model,
        )

    ego = resolve_actor(spec.actors.ego, "/actors/ego", None)
    npcs = tuple(
        resolve_actor(npc, f"/actors/npcs/{i}", i)
        for i, npc in enumerate(spec.actors.npcs)
    )

    for i, entry in enumerate(spec.oracle):
        keep(f"/oracle/{i}/rule", entry.rule_id)
        keep(f"/oracle/{i}/violation_type", entry.violation_type)
        keep(f"/oracle/{i}/description", entry.description)
        keep(f"/oracle/{i}/violating_actor", entry.violating_actor)

    resolved = ScenarioSpec(
        scenario_id=spec.scenario_id,
        environment=Environment(weather=weather, time_of_day=time_of_day),
        road_network=RoadNetwork(
            road_type=road.road_type,
            number_of_ways=road.number_of_ways,
            number_of_lanes=road.number_of_lanes,
            road_markers=markers,
            traffic_signs=signs,
            speed_limit_value=road.speed_limit_value,
        ),
        actors=ActorSet(ego=ego, npcs=npcs),
        oracle=spec.oracle,
    )
    return NormalizedSpec(spec=resolved, provenance=prov)


_LENIENT_KINDS = {
    ("environment", "weather"): "weather",
    ("environment", "time_of_day"): "time",
    ("road_network", "road_markers"): "marker",
}


def _canonicalize_tree(doc: dict, table: dict[tuple[str, str], str] | None,
                       normalized_paths: list[str]) -> dict:
    """Fold free-text enum values in a raw document tree onto canonical tokens."""

    def fold(node: dict, key: str, kind: str, path: str) -> None:
        value = node.get(key)
        if not isinstance(value, str):
            return
        token = normalize_field(kind, value, table)
        if token is not None and token.value != value:
            node[key] = token.value
            normalized_paths.append(path)

    for (section, key), kind in _LENIENT_KINDS.items():
        sub = doc.get(section)
        if isinstance(sub, dict):
            fold(sub, key, kind, f"/{section}/{key}")

    road = doc.get("road_network")
    if isinstance(road, dict):
        road_type = road.get("road_type")
        if isinstance(road_type, str):
            folded = road_type.strip().lower().replace(" ", "_").replace("-", "_")
            if folded != road_type and folded in dsl.ROAD_TYPES:
                road["road_type"] = folded
                normalized_paths.append("/road_network/road_type")
        signs = road.get("traffic_signs")
        if isinstance(signs, list):
            for i, sign in enumerate(signs):
                if isinstance(sign, str):
                    token = normalize_field("sign", sign, table)
                    if token is not None and token.value != sign:
                        signs[i] = token.value
                        normalized_paths.append(f"/road_network/traffic_signs/{i}")

    actors = doc.get("actors")
    if isinstance(actors, dict):
        def fold_actor(node, path: str) -> None:
            if not isinstance(node, dict):
                return
            fold(node, "actor_type", "actor_type", f"{path}/actor_type")
            fold(node, "behavior", "behavior", f"{path}/behavior")
            position = node.get("position")
            if isinstance(position, dict):
                fold(position, "spatial_relation", "spatial", f"{path}/position/spatial_relation")
                fold(position, "heading_relation", "heading", f"{path}/position/heading_relation")

        fold_actor(actors.get("ego"), "/actors/ego")
        npcs = actors.get("npcs")
        if isinstance(npcs, list):
            for i, npc in enumerate(npcs):
                fold_actor(npc, f"/actors/npcs/{i}")
    return doc


def normalize_document(source_text: str, seed: int,
                       table: dict[tuple[str, str], str] | None = None
                       ) -> NormalizedSpec | list[ValidationIssue]:
    """Lenient front door: canonicalize tokens, parse strictly, apply defaults.

    Fields whose value changed during token folding carry the
    ``normalized`` provenance tag; fields filled afterwards carry
    ``defaulted``.
    """
    try:
        doc = yaml.safe_load(source_text)
    except yaml.YAMLError as exc:
        return [ValidationIssue("/", dsl.INCONSISTENT, f"malformed document: {exc}")]
    normalized_paths: list[str] = []
    if isinstance(doc, dict):
        doc = _canonicalize_tree(doc, table, normalized_paths)
        source_text = yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)

    parsed = dsl.parse_and_validate(source_text)
    if isinstance(parsed, list):
        return parsed

    result = apply_defaults(parsed, seed)
    provenance = dict(result.provenance)
    for path in normalized_paths:
        if provenance.get(path) == EXPLICIT:
            provenance[path] = NORMALIZED
    return NormalizedSpec(spec=result.spec, provenance=provenance)
