from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from scenforge import dsl, normalize, synth

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

SCENARIO_FILES = {
    "straight-1": FIXTURES / "scenarios" / "straight1.yaml",
    "straight-2": FIXTURES / "scenarios" / "straight2.yaml",
    "intersection-1": FIXTURES / "scenarios" / "intersection1.yaml",
    "intersection-2": FIXTURES / "scenarios" / "intersection2.yaml",
    "t-intersection": FIXTURES / "scenarios" / "t_intersection.yaml",
    "curve": FIXTURES / "scenarios" / "curve.yaml",
}

# Distinct violated rules each fixture is built to produce, per seed.
EXPECTED_RULE_COUNTS = {
    "straight-1": 1,
    "straight-2": 2,
    "intersection-1": 3,
    "intersection-2": 3,
    "t-intersection": 2,
    "curve": 2,
}


def load_spec(name: str) -> dsl.ScenarioSpec:
    spec = dsl.parse_dsl(SCENARIO_FILES[name].read_text(encoding="utf-8"))
    assert isinstance(spec, dsl.ScenarioSpec)
    assert dsl.validate_spec(spec) == []
    return spec


def load_template(name: str, seed: int = 0) -> synth.ScenarioTemplate:
    return synth.build_template(normalize.apply_defaults(load_spec(name), seed))


# Multi-actor documents: a fixture plus three background npcs, one per
# spatial relation, as (relation, actor type, speed in m/s).  Leaders pull
# away and followers drop back, so most actor pairs stay far apart while the
# abreast npc runs close to the ego.
BACKGROUND_NPCS = {
    "intersection-1": (("front", "truck", 14.0), ("behind", "car", 6.0),
                       ("right", "car", 9.0)),
    "curve": (("behind", "truck", 6.5), ("right", "car", 12.0), ("front", "car", 15.0)),
}


# Five-actor documents ("<fixture>-x5"): every fixture plus three background
# npcs ahead of, behind and abreast of the ego, as the monitor-replay
# benchmark builds its variants, with the types and the speeds (inside that
# benchmark's ranges: ahead 13-16, behind 5-7, abreast 6-16 m/s) fixed here.
# An npc abreast on the left of a two-way road drives in the opposing lane.
FIVE_ACTOR_NPCS = {
    "straight-1": (("front", "truck", 14.0), ("behind", "car", 6.0), ("left", "car", 10.0)),
    "straight-2": (("front", "car", 15.5), ("behind", "truck", 5.5), ("right", "truck", 12.0)),
    "intersection-1": (("front", "car", 13.5), ("behind", "car", 6.5), ("left", "truck", 8.0)),
    "intersection-2": (("front", "truck", 16.0), ("behind", "truck", 7.0),
                       ("right", "car", 15.0)),
    "t-intersection": (("front", "car", 13.0), ("behind", "car", 5.0), ("left", "car", 6.5)),
    "curve": (("front", "truck", 14.5), ("behind", "car", 6.0), ("left", "truck", 11.0)),
}


def _with_background(name: str, scenario_id: str, npcs) -> dsl.ScenarioSpec:
    spec = load_spec(name)
    background = tuple(
        dsl.ActorSpec(f"bg_{k}", actor_type, "go_forward", speed,
                      dsl.PositionSpec("ego", relation, "same_direction"))
        for k, (relation, actor_type, speed) in enumerate(npcs, start=1))
    spec = dataclasses.replace(
        spec, scenario_id=scenario_id,
        actors=dataclasses.replace(spec.actors, npcs=spec.actors.npcs + background))
    assert dsl.validate_spec(spec) == []
    return spec


def load_multi_actor_spec(name: str) -> dsl.ScenarioSpec:
    return _with_background(name, f"{name}-multi", BACKGROUND_NPCS[name])


MULTI_ACTOR_DOCUMENTS = tuple(f"{name}-multi" for name in BACKGROUND_NPCS)
FIVE_ACTOR_DOCUMENTS = tuple(f"{name}-x5" for name in FIVE_ACTOR_NPCS)


def load_document_spec(name: str) -> dsl.ScenarioSpec:
    """A fixture's spec, or a multi-actor ("<fixture>-multi") or five-actor
    ("<fixture>-x5") document's."""
    if name in MULTI_ACTOR_DOCUMENTS:
        return load_multi_actor_spec(name.removesuffix("-multi"))
    if name in FIVE_ACTOR_DOCUMENTS:
        fixture = name.removesuffix("-x5")
        return _with_background(fixture, name, FIVE_ACTOR_NPCS[fixture])
    return load_spec(name)


def load_document_template(name: str) -> synth.ScenarioTemplate:
    return synth.build_template(normalize.apply_defaults(load_document_spec(name), 0))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "accuracy"
