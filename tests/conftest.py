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


def load_multi_actor_spec(name: str) -> dsl.ScenarioSpec:
    spec = load_spec(name)
    background = tuple(
        dsl.ActorSpec(f"bg_{k}", actor_type, "go_forward", speed,
                      dsl.PositionSpec("ego", relation, "same_direction"))
        for k, (relation, actor_type, speed) in enumerate(BACKGROUND_NPCS[name], start=1))
    spec = dataclasses.replace(
        spec, scenario_id=f"{name}-multi",
        actors=dataclasses.replace(spec.actors, npcs=spec.actors.npcs + background))
    assert dsl.validate_spec(spec) == []
    return spec


MULTI_ACTOR_DOCUMENTS = tuple(f"{name}-multi" for name in BACKGROUND_NPCS)


def load_document_template(name: str) -> synth.ScenarioTemplate:
    """A fixture's template, or a multi-actor document's ("<fixture>-multi")."""
    if name in MULTI_ACTOR_DOCUMENTS:
        spec = load_multi_actor_spec(name.removesuffix("-multi"))
        return synth.build_template(normalize.apply_defaults(spec, 0))
    return load_template(name)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "accuracy"
