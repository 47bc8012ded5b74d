"""Scoring machinery: accuracy vs golden documents, rater agreement, counts.

``compare_specs`` does exact token comparison field by field, grouped
into the four document components; accuracies micro-average (matched
fields over total fields).  ``fleiss_kappa`` implements the
linear-weighted multi-rater statistic; ``compare_violation_counts``
tabulates distinct violated rules against expected counts per road type.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

from .dsl import ActorSpec, ScenarioSpec
from .rules import ViolationReport

COMPONENTS = ("environment", "road_network", "actor", "oracle")


@dataclass(frozen=True)
class ComponentAccuracy:
    environment: float
    road_network: float
    actor: float
    oracle: float
    overall: float
    per_field: dict[str, bool]

    @classmethod
    def from_fields(cls, per_field: dict[str, bool]) -> "ComponentAccuracy":
        fractions = {key: (matched / total) if total else 1.0
                     for key, (matched, total) in _tally(per_field).items()}
        return cls(**fractions, per_field=dict(per_field))

    def counts(self) -> dict[str, tuple[int, int]]:
        """(matched, total) fields per component, then over all of them as "overall"."""
        return _tally(self.per_field)


def _tally(per_field: dict[str, bool]) -> dict[str, tuple[int, int]]:
    counts = {key: [0, 0] for key in COMPONENTS + ("overall",)}
    for path, ok in per_field.items():
        for key in (_component_of(path), "overall"):
            counts[key][0] += int(ok)
            counts[key][1] += 1
    return {key: (matched, total) for key, (matched, total) in counts.items()}


def _component_of(path: str) -> str:
    if path.startswith("/environment"):
        return "environment"
    if path.startswith("/road_network"):
        return "road_network"
    if path.startswith("/actors"):
        return "actor"
    return "oracle"


def _compare_actor(per_field: dict[str, bool], path: str,
                   candidate: ActorSpec | None, golden: ActorSpec | None) -> None:
    """Compare one actor pair; a missing side counts every field as a mismatch."""
    fields = ("actor_type", "behavior")
    for name in fields:
        c = getattr(candidate, name, None) if candidate else None
        g = getattr(golden, name, None) if golden else None
        per_field[f"{path}/{name}"] = c == g and c is not None
    for name in ("speed_mps", "model_id"):
        c = getattr(candidate, name, None) if candidate else None
        g = getattr(golden, name, None) if golden else None
        if c is None and g is None:
            continue
        per_field[f"{path}/{name}"] = c == g
    c_pos = candidate.position if candidate else None
    g_pos = golden.position if golden else None
    if c_pos is None and g_pos is None:
        return
    for name in ("reference", "spatial_relation", "heading_relation"):
        c = getattr(c_pos, name, None) if c_pos else None
        g = getattr(g_pos, name, None) if g_pos else None
        if name == "heading_relation" and c is None and g is None:
            continue
        per_field[f"{path}/position/{name}"] = c == g


def compare_specs(candidate: ScenarioSpec, golden: ScenarioSpec) -> ComponentAccuracy:
    """Exact-token field comparison; actors pair by role and listed order."""
    per_field: dict[str, bool] = {}

    per_field["/environment/weather"] = candidate.environment.weather == golden.environment.weather
    per_field["/environment/time_of_day"] = candidate.environment.time_of_day == golden.environment.time_of_day

    c_road, g_road = candidate.road_network, golden.road_network
    for name in ("road_type", "number_of_ways", "number_of_lanes", "road_markers"):
        per_field[f"/road_network/{name}"] = getattr(c_road, name) == getattr(g_road, name)
    sign_count = max(len(c_road.traffic_signs), len(g_road.traffic_signs))
    for i in range(sign_count):
        c = c_road.traffic_signs[i] if i < len(c_road.traffic_signs) else None
        g = g_road.traffic_signs[i] if i < len(g_road.traffic_signs) else None
        per_field[f"/road_network/traffic_signs/{i}"] = c == g
    if c_road.speed_limit_value is not None or g_road.speed_limit_value is not None:
        per_field["/road_network/speed_limit_value"] = (
            c_road.speed_limit_value == g_road.speed_limit_value)

    _compare_actor(per_field, "/actors/ego", candidate.actors.ego, golden.actors.ego)
    npc_count = max(len(candidate.actors.npcs), len(golden.actors.npcs))
    for i in range(npc_count):
        c = candidate.actors.npcs[i] if i < len(candidate.actors.npcs) else None
        g = golden.actors.npcs[i] if i < len(golden.actors.npcs) else None
        _compare_actor(per_field, f"/actors/npcs/{i}", c, g)

    # Oracle entries compare on rule and violation_type only; descriptions
    # are free text and violating_actor is an attribution default.
    entry_count = max(len(candidate.oracle), len(golden.oracle))
    for i in range(entry_count):
        c = candidate.oracle[i] if i < len(candidate.oracle) else None
        g = golden.oracle[i] if i < len(golden.oracle) else None
        per_field[f"/oracle/{i}/rule"] = c is not None and g is not None and c.rule_id == g.rule_id
        per_field[f"/oracle/{i}/violation_type"] = (
            c is not None and g is not None and c.violation_type == g.violation_type)

    return ComponentAccuracy.from_fields(per_field)


def aggregate_accuracy(results: list[ComponentAccuracy]) -> ComponentAccuracy:
    """Micro-average: sum matched and total fields per component across cases."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    # Keys only need to be unique across cases; component classification
    # reads the path prefix, so a case suffix is harmless.
    merged: dict[str, bool] = {}
    for case_index, result in enumerate(results):
        for path, ok in result.per_field.items():
            merged[f"{path}#case{case_index}"] = ok
    return ComponentAccuracy.from_fields(merged)


# ---------------------------------------------------------------------------
# weighted Fleiss kappa


class DegenerateAgreementError(ValueError):
    """All rating mass sits in a single category; kappa is undefined."""


@dataclass(frozen=True)
class RatingsMatrix:
    ratings: tuple[tuple[int, ...], ...]     # items x raters, category indices
    categories: tuple[str, ...]

    def __post_init__(self):
        if len(self.categories) < 2:
            raise ValueError("need at least 2 categories")
        if not self.ratings:
            raise ValueError("need at least one item")
        widths = {len(row) for row in self.ratings}
        if len(widths) != 1:
            raise ValueError("every item needs the same number of raters")
        if widths.pop() < 2:
            raise ValueError("every item needs at least 2 raters")
        c = len(self.categories)
        for row in self.ratings:
            for value in row:
                if not (0 <= value < c):
                    raise ValueError(f"category index {value} out of range")

    def weight(self, j: int, k: int) -> float:
        return 1.0 - abs(j - k) / (len(self.categories) - 1)


AGREEMENT_BANDS = (
    (-1.0, 0.0, "poor"),
    (0.0, 0.20, "slight"),
    (0.20, 0.40, "fair"),
    (0.40, 0.60, "moderate"),
    (0.60, 0.80, "substantial"),
    (0.80, 1.0, "almost_perfect"),
)


def agreement_band(kappa: float) -> str:
    if kappa < 0.0:
        return "poor"
    for low, high, name in AGREEMENT_BANDS[1:]:
        if kappa <= high:
            return name
    return "almost_perfect"


def fleiss_kappa(matrix: RatingsMatrix) -> tuple[float, str]:
    """Linear-weighted multi-rater kappa with its interpretation band.

    Observed agreement averages the pairwise linear weights within each
    item; expected agreement applies the same weights to the category
    marginals.  Unanimous ratings give kappa = 1; a single-category
    marginal makes expected agreement 1 and raises
    :class:`DegenerateAgreementError`.
    """
    n_items = len(matrix.ratings)
    n_raters = len(matrix.ratings[0])
    n_cats = len(matrix.categories)

    counts = [[0] * n_cats for _ in range(n_items)]
    for i, row in enumerate(matrix.ratings):
        for value in row:
            counts[i][value] += 1

    pair_total = n_raters * (n_raters - 1)
    observed = 0.0
    for i in range(n_items):
        agree = 0.0
        for j in range(n_cats):
            if counts[i][j] == 0:
                continue
            for k in range(n_cats):
                if counts[i][k] == 0 and j != k:
                    continue
                pairs = counts[i][j] * (counts[i][k] - (1 if j == k else 0))
                agree += pairs * matrix.weight(j, k)
        observed += agree / pair_total
    observed /= n_items

    marginals = [sum(counts[i][j] for i in range(n_items)) / (n_items * n_raters)
                 for j in range(n_cats)]
    expected = sum(
        marginals[j] * marginals[k] * matrix.weight(j, k)
        for j in range(n_cats) for k in range(n_cats)
    )

    if abs(1.0 - expected) < 1e-12:
        raise DegenerateAgreementError("expected agreement is 1; kappa undefined")
    kappa = (observed - expected) / (1.0 - expected)
    return kappa, agreement_band(kappa)


# ---------------------------------------------------------------------------
# violation-count agreement


@dataclass(frozen=True)
class AgreementRow:
    road_type: str
    observed_count: int
    expected_count: int
    exact_match: bool


@dataclass(frozen=True)
class AgreementTable:
    rows: tuple[AgreementRow, ...]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["road_type", "observed_count", "expected_count", "exact_match"])
        for row in self.rows:
            writer.writerow([row.road_type, row.observed_count, row.expected_count,
                             str(row.exact_match).lower()])
        return buffer.getvalue()


def compare_violation_counts(reports_by_type: dict[str, Iterable[ViolationReport]],
                             expected: dict[str, int]) -> AgreementTable:
    """Distinct violated rules in the representative report vs expected counts.

    The representative report for a road type is the one with the lowest
    instance seed.  Every expected road type must be present.
    """
    rows = []
    for road_type, expected_count in expected.items():
        group = list(reports_by_type.get(road_type, ()))
        if not group:
            raise KeyError(f"no reports for road type {road_type!r}")
        representative = min(group, key=lambda r: r.instance_seed)
        observed = len(representative.distinct_rules())
        rows.append(AgreementRow(
            road_type=road_type,
            observed_count=observed,
            expected_count=expected_count,
            exact_match=observed == expected_count,
        ))
    return AgreementTable(rows=tuple(rows))


def accuracy_csv(result: ComponentAccuracy) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["component", "matched", "total", "fraction"])
    for key, (matched, total) in result.counts().items():
        writer.writerow([key, matched, total, f"{getattr(result, key):.6g}"])
    return buffer.getvalue()
