"""Deterministic instantiation of template free parameters.

Each parameter draws uniformly from its range through its own SplitMix64
stream keyed by (instance seed, parameter name), so the value of one
parameter never depends on how many others exist or in what order a
mapping iterates.  Batches enumerate consecutive seeds; any instance can
be regenerated from (template, seed) alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import prng
from .digests import canonical_json, from_data, to_data
from .synth import ScenarioTemplate

DEFAULT_BATCH_SIZE = 2000


@dataclass(frozen=True)
class ScenarioInstance:
    template_digest: str
    instance_seed: int
    bindings: dict[str, float]
    fixed: dict[str, float]


def sample_instance(template: ScenarioTemplate, seed: int) -> ScenarioInstance:
    """Bind every free parameter uniformly within its range."""
    bindings: dict[str, float] = {}
    for param in sorted(template.free_parameters, key=lambda p: p.name):
        rng = prng.stream(seed, param.name)
        bindings[param.name] = rng.uniform(param.low, param.high)
    return ScenarioInstance(
        template_digest=template.digest(),
        instance_seed=seed,
        bindings=bindings,
        fixed=dict(template.fixed_parameters),
    )


def sample_batch(template: ScenarioTemplate, n: int = DEFAULT_BATCH_SIZE,
                 base_seed: int = 0) -> list[ScenarioInstance]:
    """Instances for seeds base_seed .. base_seed + n - 1, in seed order."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    return [sample_instance(template, base_seed + i) for i in range(n)]


def write_manifest(instances: Iterable[ScenarioInstance]) -> str:
    """One canonical-JSON instance per line."""
    return "".join(canonical_json(to_data(inst)) + "\n" for inst in instances)


def read_manifest(text: str) -> list[ScenarioInstance]:
    instances = []
    for line in text.split("\n"):
        line = line.strip()
        if line:
            instances.append(from_data(ScenarioInstance, json.loads(line)))
    return instances
