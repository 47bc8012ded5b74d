from __future__ import annotations

import copy
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import dsl, normalize
from scenforge.normalize import (
    CAR_MODEL_POOL,
    DEFAULT_EGO_MODEL,
    TRUCK_MODEL,
    apply_defaults,
    normalize_field,
    resolve_actor_model,
)

from .conftest import FIXTURES, SCENARIO_FILES, load_spec
from .test_dsl import scenario_specs


def _strip_optionals(spec: dsl.ScenarioSpec) -> dsl.ScenarioSpec:
    ego = dsl.ActorSpec("ego", spec.actors.ego.actor_type, spec.actors.ego.behavior)
    npcs = tuple(
        dsl.ActorSpec(
            n.actor_id, n.actor_type, n.behavior,
            position=dsl.PositionSpec(n.position.reference, n.position.spatial_relation, None))
        for n in spec.actors.npcs
    )
    env = dsl.Environment("not_mentioned", "not_mentioned")
    return dsl.ScenarioSpec(spec.scenario_id, env, spec.road_network,
                            dsl.ActorSet(ego, npcs), spec.oracle)


def test_normalize_field_clock_time():
    token = normalize_field("time", "12 pm")
    assert token is not None and token.value == "daytime"


def test_normalize_field_space_fold():
    token = normalize_field("heading", "opposite direction")
    assert token is not None and token.value == "opposite_direction"


def test_normalize_field_case_whitespace():
    token = normalize_field("weather", "  SUNNY ")
    assert token is not None and token.value == "sunny"


def test_normalize_field_no_match():
    assert normalize_field("weather", "volcanic ash") is None


def test_normalize_field_unknown_kind():
    with pytest.raises(ValueError):
        normalize_field("color", "red")


@pytest.mark.parametrize("kind,vocab", sorted(normalize.VOCABULARIES.items()))
def test_every_vocabulary_token_normalizes_to_itself(kind, vocab):
    for token in vocab:
        result = normalize_field(kind, token)
        assert result == normalize.CanonicalToken(kind, token)


def test_apply_defaults_fills_paper_values():
    spec = _strip_optionals(load_spec("straight-1"))
    result = apply_defaults(spec, seed=7)
    resolved = result.spec
    assert resolved.actors.ego.speed_mps == 10.0
    assert resolved.actors.ego.model_id == DEFAULT_EGO_MODEL
    npc = resolved.actors.npcs[0]
    assert npc.speed_mps == 10.0
    assert npc.position.heading_relation == "opposite_direction"
    assert npc.model_id in CAR_MODEL_POOL
    assert resolved.environment.weather == "sunny"
    assert resolved.environment.time_of_day == "daytime"
    prov = result.provenance
    assert prov["/actors/ego/speed_mps"] == normalize.DEFAULTED
    assert prov["/actors/ego/model_id"] == normalize.DEFAULTED
    assert prov["/actors/npcs/0/position/heading_relation"] == normalize.DEFAULTED
    assert prov["/environment/weather"] == normalize.DEFAULTED
    assert prov["/road_network/road_type"] == normalize.EXPLICIT


def test_apply_defaults_truck_ego_gets_hgv():
    spec = _strip_optionals(load_spec("straight-1"))
    ego = dsl.ActorSpec("ego", "truck", "go_forward")
    spec = dsl.ScenarioSpec(spec.scenario_id, spec.environment, spec.road_network,
                            dsl.ActorSet(ego, spec.actors.npcs), spec.oracle)
    assert apply_defaults(spec, 0).spec.actors.ego.model_id == TRUCK_MODEL


def test_apply_defaults_never_overwrites_explicit_values():
    spec = load_spec("straight-2")  # carries explicit speeds
    result = apply_defaults(spec, seed=3)
    assert result.spec.actors.ego.speed_mps == spec.actors.ego.speed_mps
    assert result.spec.actors.npcs[0].speed_mps == spec.actors.npcs[0].speed_mps
    assert result.provenance["/actors/ego/speed_mps"] == normalize.EXPLICIT


def test_apply_defaults_idempotent():
    spec = _strip_optionals(load_spec("straight-1"))
    once = apply_defaults(spec, seed=11)
    twice = apply_defaults(once.spec, seed=11)
    assert twice.spec == once.spec
    assert twice.serialize() == once.serialize()
    assert all(tag == normalize.EXPLICIT for tag in twice.provenance.values())


def test_apply_defaults_deterministic_bytes():
    spec = _strip_optionals(load_spec("straight-1"))
    a = apply_defaults(spec, seed=5).serialize()
    b = apply_defaults(spec, seed=5).serialize()
    assert a == b


def test_not_mentioned_cleared_everywhere():
    spec = load_spec("intersection-1")  # road_markers: not_mentioned
    resolved = apply_defaults(spec, 0).spec
    text = resolved and normalize.dsl.serialize_dsl(resolved)
    assert "not_mentioned" not in text


def test_resolve_actor_model_truck_fixed():
    for seed in (0, 1, 99):
        assert resolve_actor_model("truck", seed, 0) == TRUCK_MODEL


def test_resolve_actor_model_deterministic_and_in_pool():
    picks = {resolve_actor_model("car", seed, 0) for seed in range(50)}
    assert picks <= set(CAR_MODEL_POOL)
    assert len(picks) > 1  # the seed actually matters
    assert resolve_actor_model("car", 42, 1) == resolve_actor_model("car", 42, 1)


def test_resolve_actor_model_index_keyed():
    seeds_differ = any(
        resolve_actor_model("car", seed, 0) != resolve_actor_model("car", seed, 1)
        for seed in range(20)
    )
    assert seeds_differ


def test_synonym_table_rejects_bad_lines(tmp_path):
    bad = tmp_path / "syn.txt"
    bad.write_text("weather.clear=sunny\nnonsense line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        normalize.load_synonym_table(bad)
    bad.write_text("weather.clear=volcano\n", encoding="utf-8")
    with pytest.raises(ValueError):
        normalize.load_synonym_table(bad)


def test_normalize_document_lenient_tokens():
    doc = """\
scenario_id: lenient
environment:
  weather: Clear
  time_of_day: 12 pm
road_network:
  road_type: T-Intersection
  number_of_ways: 3
  number_of_lanes: 1
  road_markers: dashed
  traffic_signs:
    - stop
actors:
  ego:
    actor_type: Sedan
    behavior: go straight
  npcs:
    - actor_id: npc_1
      actor_type: car
      behavior: turning left
      position:
        spatial_relation: to the right
        heading_relation: from the right
oracle:
  - rule: CVC_22450
    violation_type: stop_sign_violation
    description: "ran the stop sign"
"""
    result = normalize.normalize_document(doc, seed=0)
    assert isinstance(result, normalize.NormalizedSpec)
    spec = result.spec
    assert spec.environment.weather == "sunny"
    assert spec.environment.time_of_day == "daytime"
    assert spec.road_network.road_type == "t_intersection"
    assert spec.road_network.road_markers == "broken_line"
    assert spec.road_network.traffic_signs == ("stop_sign",)
    assert spec.actors.ego.actor_type == "car"
    assert spec.actors.npcs[0].behavior == "turn_left"
    assert spec.actors.npcs[0].position.spatial_relation == "right"
    assert result.provenance["/environment/weather"] == normalize.NORMALIZED
    assert result.provenance["/actors/ego/behavior"] == normalize.NORMALIZED


def test_a_folded_sign_tags_the_sign_list_normalized():
    """The sign list has one tag, at its own pointer, so a folded sign moves that
    tag and every other tag stays as the canonical spelling gives it."""
    canonical = SCENARIO_FILES["intersection-1"].read_text(encoding="utf-8")
    folded = canonical.replace("    - traffic_light\n", "    - Traffic Light\n")
    assert folded != canonical
    got = normalize.normalize_document(folded, seed=0)
    expected = normalize.normalize_document(canonical, seed=0)
    assert got.spec == expected.spec
    assert expected.provenance["/road_network/traffic_signs"] == normalize.EXPLICIT
    assert got.provenance == {**expected.provenance,
                              "/road_network/traffic_signs": normalize.NORMALIZED}


def test_normalize_document_reports_issues():
    result = normalize.normalize_document("environment: {weather: plasma}", seed=0)
    assert isinstance(result, list)
    assert any(i.kind == dsl.INVALID_ENUM for i in result)


def test_synonym_table_lines_break_at_newline_only(tmp_path):
    table = tmp_path / "syn.txt"
    table.write_text("weather.clear\u2028sky=sunny\n", encoding="utf-8")
    assert normalize.load_synonym_table(table) == {("weather", "clear\u2028sky"): "sunny"}
    table.write_bytes(b"# comment\r\nweather.clear=sunny\r\ntime.noon=daytime\r\n")
    assert normalize.load_synonym_table(table) == {
        ("weather", "clear"): "sunny", ("time", "noon"): "daytime"}


def test_normalize_document_loads_once_and_walks_once(monkeypatch):
    calls = {"safe_load": 0, "safe_dump": 0, "parse_dsl": 0, "validate_spec": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((yaml, "safe_load"), (yaml, "safe_dump"),
                        (dsl, "parse_dsl"), (dsl, "validate_spec")):
        counted(owner, name)
    text = SCENARIO_FILES["straight-1"].read_text(encoding="utf-8")
    result = normalize.normalize_document(text.replace("weather: sunny", "weather: Clear"), seed=0)
    assert isinstance(result, normalize.NormalizedSpec)
    assert result.provenance["/environment/weather"] == normalize.NORMALIZED
    assert calls == {"safe_load": 1, "safe_dump": 0, "parse_dsl": 1, "validate_spec": 1}


# -- the fold inside the parse agrees with canonicalize, dump, strict parse --

_REFERENCE_KINDS = {
    ("environment", "weather"): "weather",
    ("environment", "time_of_day"): "time",
    ("road_network", "road_markers"): "marker",
}


def _reference_canonicalize(doc: dict, table, normalized_paths: list[str]) -> None:
    """Fold free-text enum values of a raw tree in place (the two-pass converter)."""

    def fold(node: dict, key: str, kind: str, path: str) -> None:
        value = node.get(key)
        if not isinstance(value, str):
            return
        token = normalize_field(kind, value, table)
        if token is not None and token.value != value:
            node[key] = token.value
            normalized_paths.append(path)

    for (section, key), kind in _REFERENCE_KINDS.items():
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
                        normalized_paths.append("/road_network/traffic_signs")

    def fold_actor(node, path: str) -> None:
        if not isinstance(node, dict):
            return
        fold(node, "actor_type", "actor_type", f"{path}/actor_type")
        fold(node, "behavior", "behavior", f"{path}/behavior")
        position = node.get("position")
        if isinstance(position, dict):
            fold(position, "spatial_relation", "spatial", f"{path}/position/spatial_relation")
            fold(position, "heading_relation", "heading", f"{path}/position/heading_relation")

    actors = doc.get("actors")
    if isinstance(actors, dict):
        fold_actor(actors.get("ego"), "/actors/ego")
        npcs = actors.get("npcs")
        if isinstance(npcs, list):
            for i, npc in enumerate(npcs):
                fold_actor(npc, f"/actors/npcs/{i}")


def _reference_normalize_document(source_text: str, seed: int, table=None):
    """Canonicalize the loaded tree, dump it, then parse the dump strictly."""
    try:
        doc = yaml.safe_load(source_text)
    except yaml.YAMLError as exc:
        return [dsl.ValidationIssue("/", dsl.INCONSISTENT, f"malformed document: {exc}")]
    normalized_paths: list[str] = []
    if isinstance(doc, dict):
        _reference_canonicalize(doc, table, normalized_paths)
        source_text = yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)
    parsed = dsl.parse_and_validate(source_text)
    if isinstance(parsed, list):
        return parsed
    result = apply_defaults(parsed, seed)
    provenance = dict(result.provenance)
    for path in normalized_paths:
        if provenance.get(path) == normalize.EXPLICIT:
            provenance[path] = normalize.NORMALIZED
    return normalize.NormalizedSpec(spec=result.spec, provenance=provenance)


_BASE_FILES = sorted(SCENARIO_FILES.values()) + sorted((FIXTURES / "accuracy").glob("*.yaml"))
_VARIANT_COUNT = 3000


def _spellings(rng: random.Random, token: str, synonyms: list[str]) -> str:
    text = rng.choice([token] + synonyms) if synonyms and rng.random() < 0.5 else token
    text = text.replace("_", rng.choice(["_", " ", "-"]))
    text = rng.choice([text, text.upper(), text.title(), text.capitalize()])
    return rng.choice(["", " ", "  "]) + text + rng.choice(["", " ", "\t"])


def _lenient_value(rng: random.Random, value, kind: str, table) -> object:
    roll = rng.random()
    if roll < 0.3 or not isinstance(value, str):
        return value
    if roll < 0.97:
        synonyms = [raw for (k, raw) in table if k == kind]
        return _spellings(rng, value, synonyms)
    return rng.choice(["plasma", "volcanic ash", 42, None, True, ["front"], "", "not mentioned"])


def _lenient_variant(rng: random.Random, doc: dict, table) -> str:
    doc = copy.deepcopy(doc)
    fields = [(doc["environment"], "weather", "weather"),
              (doc["environment"], "time_of_day", "time"),
              (doc["road_network"], "road_markers", "marker"),
              (doc["road_network"], "road_type", "road")]
    actors = doc["actors"]
    npcs = actors.get("npcs") or []
    for actor in [actors["ego"]] + npcs:
        fields += [(actor, "actor_type", "actor_type"), (actor, "behavior", "behavior")]
        position = actor.get("position")
        if position:
            fields.append((position, "spatial_relation", "spatial"))
            if "heading_relation" in position:
                fields.append((position, "heading_relation", "heading"))
    for node, key, kind in fields:
        node[key] = _lenient_value(rng, node[key], kind, table)
    signs = doc["road_network"].get("traffic_signs") or []
    for i, sign in enumerate(signs):
        signs[i] = _lenient_value(rng, sign, "sign", table)
    if rng.random() < 0.2:
        signs.append(_spellings(rng, "stop", ["stop sign", "red light", "signal"]))
        doc["road_network"]["traffic_signs"] = signs
    if rng.random() < 0.05:
        actors["ego"]["position"] = {"spatial_relation": _spellings(rng, "front", [])}
    if npcs and rng.random() < 0.05:
        for extra in range(dsl.MAX_NPCS + 1 - len(npcs)):
            npc = copy.deepcopy(npcs[0])
            npc["actor_id"] = f"extra_{extra}"
            npcs.append(npc)
    return yaml.safe_dump(doc, sort_keys=rng.random() < 0.2, allow_unicode=True,
                          default_flow_style=rng.random() < 0.25)


def _lenient_corpus() -> list[tuple[str, str]]:
    table = normalize.default_synonym_table()
    rng = random.Random(20261019)
    texts = [(path.name, path.read_text(encoding="utf-8")) for path in _BASE_FILES]
    bases = [(name, yaml.safe_load(text)) for name, text in texts]
    variants = []
    for i in range(_VARIANT_COUNT):
        name, doc = bases[i % len(bases)]
        variants.append((f"{name}~{i}", _lenient_variant(rng, doc, table)))
    return texts + variants


def test_normalize_document_matches_the_two_pass_reference():
    corpus = _lenient_corpus()
    assert len(corpus) >= _VARIANT_COUNT + len(_BASE_FILES)
    mismatched, folded, rejected = [], 0, 0
    for seed, (name, text) in enumerate(corpus):
        got = normalize.normalize_document(text, seed)
        if got != _reference_normalize_document(text, seed):
            mismatched.append(name)
        elif isinstance(got, list):
            rejected += 1
        elif normalize.NORMALIZED in got.provenance.values():
            folded += 1
    assert mismatched == []
    # The corpus exercises both outcomes, and folding for real.
    assert folded > 1500 and rejected > 1000


_ALIASED = """\
scenario_id: aliased
environment: {weather: Clear, time_of_day: daytime}
road_network: {road_type: straight, number_of_ways: 2, number_of_lanes: 1,
               road_markers: solid_line, traffic_signs: []}
actors:
  ego: {actor_type: car, behavior: go_forward}
  npcs:
    - actor_id: npc_1
      actor_type: car
      behavior: go_forward
      position: &shared {reference: ego, spatial_relation: In Front}
    - actor_id: npc_2
      actor_type: car
      behavior: go_forward
      position: *shared
oracle:
  - {rule: CVC_21460, violation_type: lane_crossing, description: "crossed"}
"""


def test_an_aliased_node_is_tagged_at_every_occurrence():
    got = normalize.normalize_document(_ALIASED, seed=0)
    reference = _reference_normalize_document(_ALIASED, seed=0)
    assert isinstance(got, normalize.NormalizedSpec)
    assert got.spec == reference.spec
    assert got.spec.actors.npcs[1].position.spatial_relation == "front"
    first = "/actors/npcs/0/position/spatial_relation"
    second = "/actors/npcs/1/position/spatial_relation"
    assert got.provenance[first] == reference.provenance[first] == normalize.NORMALIZED
    # Folding in place rewrote the shared node once, so only its first
    # occurrence was tagged; the fold in the walk tags each occurrence.
    assert reference.provenance[second] == normalize.EXPLICIT
    assert got.provenance[second] == normalize.NORMALIZED
    assert {p: t for p, t in got.provenance.items() if p != second} == \
        {p: t for p, t in reference.provenance.items() if p != second}


# -- provenance over generated specs and folded spellings ---------------------

SIGNS = "/road_network/traffic_signs"


def _respell_tokens(rng: random.Random, doc: dict) -> list[str]:
    """Respells the enum values of a loaded document in place, each as a case,
    space, hyphen or padding variant of its own token; returns the pointer of
    every value that changed."""
    respelled = []

    def respell(node, key, pointer: str) -> None:
        spelled = _spellings(rng, node[key], [])
        if spelled != node[key]:
            node[key] = spelled
            respelled.append(pointer)

    for section, keys in (("environment", ("weather", "time_of_day")),
                          ("road_network", ("road_type", "road_markers"))):
        for key in keys:
            respell(doc[section], key, f"/{section}/{key}")
    for i in range(len(doc["road_network"]["traffic_signs"])):
        respell(doc["road_network"]["traffic_signs"], i, f"{SIGNS}/{i}")
    actors = doc["actors"]
    for path, actor in [("/actors/ego", actors["ego"])] + [
            (f"/actors/npcs/{i}", npc) for i, npc in enumerate(actors.get("npcs") or [])]:
        for key in ("actor_type", "behavior"):
            respell(actor, key, f"{path}/{key}")
        position = actor.get("position") or {}
        for key in ("spatial_relation", "heading_relation"):
            if key in position:
                respell(position, key, f"{path}/position/{key}")
    return respelled


@given(scenario_specs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_provenance_tags_every_resolved_field_and_every_fold(spec, rng):
    """Over generated specs with folded spellings: the provenance keys are the
    non-None pointers of `dsl.field_values(resolved)`, less `/scenario_id`, with
    one key for the sign list in place of one per sign; and every value that
    the fold recorded is tagged `normalized` (a sign at its list's pointer),
    unless `apply_defaults` filled it."""
    doc = yaml.safe_load(dsl.serialize_dsl(spec))
    respelled = _respell_tokens(rng, doc)
    got = normalize.normalize_document(yaml.safe_dump(doc, sort_keys=False), seed=0)
    assert isinstance(got, normalize.NormalizedSpec), got
    expected = apply_defaults(spec, seed=0)
    assert got.spec == expected.spec

    fields = {path for path, value in dsl.field_values(got.spec).items()
              if value is not None and path != "/scenario_id" and not path.startswith(SIGNS + "/")}
    assert set(got.provenance) == fields | {SIGNS}

    folded = {SIGNS if path.startswith(SIGNS + "/") else path for path in respelled}
    for path in folded:
        assert got.provenance[path] == (normalize.DEFAULTED
                                        if expected.provenance[path] == normalize.DEFAULTED
                                        else normalize.NORMALIZED), path
    assert {path: tag for path, tag in got.provenance.items() if path not in folded} == \
        {path: tag for path, tag in expected.provenance.items() if path not in folded}
