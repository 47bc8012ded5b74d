"""Canonical-token normalization and fallback defaults.

This is the converter middleware between raw documents and template
synthesis: free-text field values fold onto canonical tokens through a
synonym table, and fields a crash report leaves open receive fixed
defaults so every scenario stays executable.  Every field of the
resolved spec carries a tag in a per-field provenance map (``explicit`` /
``normalized`` / ``defaulted``) so downstream consumers can tell
extraction evidence from inference.

Folding happens inside the strict parser's walk: ``normalize_document``
hands ``dsl.parse_and_validate`` a fold for every enum string outside its
vocabulary, so each document is read once.  The tagged fields are those of
``dsl.field_values``, so the schema's fields are listed only in ``dsl``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import dsl, prng
from .dsl import ActorSet, ActorSpec, Environment, ScenarioSpec, ValidationIssue

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
# The sign list is tagged as one field, not item by item.
_SIGNS = "/road_network/traffic_signs"

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
# The kind whose synonyms fold onto each vocabulary the parser checks.
_KIND_OF = {tokens: kind for kind, tokens in VOCABULARIES.items()}


@dataclass(frozen=True)
class CanonicalToken:
    field_kind: str
    value: str


@dataclass(frozen=True)
class NormalizedSpec:
    """A fully resolved spec plus the provenance tag of every field."""

    spec: ScenarioSpec
    provenance: dict[str, str]

    def serialize(self) -> str:
        return dsl.serialize_dsl(self.spec)


def load_synonym_table(path: str | Path) -> dict[tuple[str, str], str]:
    """Read a ``kind.raw text=token`` synonym file.

    Lines starting with '#' and blank lines are skipped.  Keys fold to
    lowercase; values must belong to the kind's vocabulary.
    """
    table: dict[tuple[str, str], str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
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


@functools.cache
def default_synonym_table() -> dict[tuple[str, str], str]:
    with resources.as_file(resources.files("scenforge").joinpath("data/synonyms.txt")) as path:
        return load_synonym_table(path)


def _fold_spelling(raw_text: str) -> str:
    return raw_text.strip().lower().replace(" ", "_").replace("-", "_")


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
    folded = _fold_spelling(key)
    if folded in VOCABULARIES[field_kind]:
        return CanonicalToken(field_kind, folded)
    synonyms = default_synonym_table() if table is None else table
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
    """Resolve every open field of a valid spec, then tag every field.

    Missing speeds become 10 m/s, the ego model defaults to
    vehicle.lincoln.mkz_2017 (trucks always map to the HGV model), npc
    models resolve through the seeded pool (drawn only for a missing
    model), missing heading relations become opposite_direction,
    "not mentioned" environment values become daytime/sunny, a
    "not mentioned" marker becomes broken_line and "not mentioned" signs
    are dropped.  Explicit values are never overwritten.

    Every field the resolved spec holds (``dsl.field_values``, None
    values excepted) is tagged ``defaulted`` if it was filled here, else
    ``explicit``.  ``scenario_id`` is not tagged, and ``traffic_signs`` is
    one tag, given even to an empty list.
    """
    filled: set[str] = set()

    def fill(path: str, value, default, open_value=None):
        if value != open_value:
            return value
        filled.add(path)
        return default

    env, road = spec.environment, spec.road_network
    signs = tuple(s for s in road.traffic_signs if s != "not_mentioned")
    if signs != road.traffic_signs:
        filled.add(_SIGNS)

    def resolve_actor(actor: ActorSpec, path: str, index: int | None) -> ActorSpec:
        model = actor.model_id
        if model is None:
            filled.add(f"{path}/model_id")
            if index is None:
                model = TRUCK_MODEL if actor.actor_type == "truck" else DEFAULT_EGO_MODEL
            else:
                model = resolve_actor_model(actor.actor_type, seed, index)
        position = actor.position
        if position is not None:
            position = replace(position, heading_relation=fill(
                f"{path}/position/heading_relation", position.heading_relation, DEFAULT_HEADING))
        return replace(actor, speed_mps=fill(f"{path}/speed_mps", actor.speed_mps, DEFAULT_SPEED_MPS),
                       position=position, model_id=model)

    resolved = replace(
        spec,
        environment=Environment(
            weather=fill("/environment/weather", env.weather, DEFAULT_WEATHER, "not_mentioned"),
            time_of_day=fill("/environment/time_of_day", env.time_of_day, DEFAULT_TIME,
                             "not_mentioned")),
        road_network=replace(road, traffic_signs=signs, road_markers=fill(
            "/road_network/road_markers", road.road_markers, DEFAULT_MARKER, "not_mentioned")),
        actors=ActorSet(
            ego=resolve_actor(spec.actors.ego, "/actors/ego", None),
            npcs=tuple(resolve_actor(npc, f"/actors/npcs/{i}", i)
                       for i, npc in enumerate(spec.actors.npcs))),
    )
    tagged = [path for path, value in dsl.field_values(resolved).items()
              if value is not None and path != "/scenario_id"
              and not path.startswith(_SIGNS + "/")]
    provenance = {path: DEFAULTED if path in filled else EXPLICIT for path in tagged + [_SIGNS]}
    return NormalizedSpec(spec=resolved, provenance=provenance)


def normalize_document(source_text: str, seed: int,
                       table: dict[tuple[str, str], str] | None = None
                       ) -> NormalizedSpec | list[ValidationIssue]:
    """Lenient front door: parse strictly while folding tokens, apply defaults.

    Each enum value outside its vocabulary folds through ``normalize_field``
    (``road_type``, which has no synonyms, folds case, spaces and hyphens
    only).  Fields whose value folded carry the ``normalized`` provenance
    tag, every occurrence of an aliased node included, unless
    ``apply_defaults`` then filled them (``defaulted``).  A folded sign
    tags the sign list, which has one tag, ``normalized`` in place of
    ``explicit``.
    """
    normalized_paths: list[str] = []

    def fold(path: str, allowed: tuple[str, ...], value: str) -> str | None:
        kind = _KIND_OF.get(allowed)
        if kind is not None:
            token = normalize_field(kind, value, table)
            folded = token.value if token is not None else None
        else:
            folded = _fold_spelling(value)
            if folded not in allowed:
                folded = None
        if folded is not None:
            normalized_paths.append(path)
        return folded

    parsed = dsl.parse_and_validate(source_text, fold)
    if isinstance(parsed, list):
        return parsed

    result = apply_defaults(parsed, seed)
    provenance = dict(result.provenance)
    for path in normalized_paths:
        if path.startswith(_SIGNS + "/"):
            path = _SIGNS
        if provenance.get(path) == EXPLICIT:
            provenance[path] = NORMALIZED
    return NormalizedSpec(spec=result.spec, provenance=provenance)
