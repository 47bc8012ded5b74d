"""Scoring machinery: accuracy vs golden documents, rater agreement, counts.

``compare_specs`` does exact comparison field by field over the
pointers of ``dsl.field_values``, grouped into the four document
components; accuracies micro-average (matched fields over total fields).
``fleiss_kappa`` implements the linear-weighted multi-rater statistic;
``compare_violation_counts`` tabulates distinct violated rules against
expected counts per road type.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

from .dsl import ScenarioSpec, field_values
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


# Identifiers, free text and an attribution default: never scored.
_UNSCORED = ("scenario_id", "actor_id", "description", "violating_actor")


def compare_specs(candidate: ScenarioSpec, golden: ScenarioSpec) -> ComponentAccuracy:
    """Exact comparison of every field that either side holds with a value.

    Fields are the pointers of ``dsl.field_values``, so actors, signs and
    oracle entries pair by role and listed order, and a field only one side
    holds is a mismatch.  ``scenario_id``, ``actor_id``, oracle
    ``description`` and ``violating_actor`` are not scored.
    """
    c_values, g_values = field_values(candidate), field_values(golden)
    per_field: dict[str, bool] = {}
    for path in {**c_values, **g_values}:
        c, g = c_values.get(path), g_values.get(path)
        if (c is not None or g is not None) and path.rsplit("/", 1)[1] not in _UNSCORED:
            per_field[path] = c == g
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
