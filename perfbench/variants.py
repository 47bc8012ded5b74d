"""Five-actor variants of the fixture documents for the monitor-replay workload.

Each variant is its fixture with three background npcs added (the DSL allows
four npcs, the fixtures use one).  Every choice comes from the workload seed,
so the same seed always yields the same documents.  The simulator places
background npcs 25 m ahead of or behind the ego, or abreast of it, and drives
them at a fixed speed; the rule monitor then has ten actor pairs to scan per
frame instead of one.
"""

from __future__ import annotations

import dataclasses
import random

from scenforge import dsl

BACKGROUND_NPCS = 3
ACTOR_TYPES = ("car", "truck")
# Speeds per relation keep the background off the ego, whose speed is drawn
# from [8, 12] m/s: a leader pulls away and a follower drops back.  An npc
# can still meet the adversary, which ends some traces early.
SPEED_RANGE_MPS = {"front": (13.0, 16.0), "behind": (5.0, 7.0),
                   "left": (6.0, 16.0), "right": (6.0, 16.0)}
SPATIAL = tuple(SPEED_RANGE_MPS)
VARIANT_SUFFIX = "-x5"


def variant_id(scenario_id: str) -> str:
    return scenario_id + VARIANT_SUFFIX


def five_actor_variant(fixture_text: str, seed: int) -> str:
    """Return the document text of the fixture's five-actor variant."""
    spec = dsl.parse_dsl(fixture_text)
    if isinstance(spec, list):
        raise ValueError(f"fixture does not parse: {spec}")
    rng = random.Random(f"perfbench-variant:{seed}:{spec.scenario_id}")
    npcs = list(spec.actors.npcs)
    # Npcs sharing a relation would share a start pose and collide at t = 0.
    relations = rng.sample(SPATIAL, BACKGROUND_NPCS)
    for k, relation in enumerate(relations):
        npcs.append(dsl.ActorSpec(
            actor_id=f"bg_{k + 1}",
            actor_type=rng.choice(ACTOR_TYPES),
            behavior="go_forward",
            speed_mps=round(rng.uniform(*SPEED_RANGE_MPS[relation]), 1),
            position=dsl.PositionSpec("ego", relation, "same_direction"),
        ))
    variant = dataclasses.replace(
        spec,
        scenario_id=variant_id(spec.scenario_id),
        actors=dataclasses.replace(spec.actors, npcs=tuple(npcs)),
    )
    return dsl.serialize_dsl(variant)
