from __future__ import annotations

import importlib.util
import random

import pytest

from scenforge import dsl, rules
from scenforge.evaluate import (
    DegenerateAgreementError,
    RatingsMatrix,
    agreement_band,
    aggregate_accuracy,
    compare_specs,
    compare_violation_counts,
    fleiss_kappa,
)

from .conftest import FIXTURES, REPO_ROOT, load_spec


def test_identity_comparison_is_perfect():
    spec = load_spec("intersection-1")
    result = compare_specs(spec, spec)
    assert result.environment == 1.0
    assert result.road_network == 1.0
    assert result.actor == 1.0
    assert result.oracle == 1.0
    assert result.overall == 1.0


def test_single_weather_mismatch_isolated_to_environment():
    golden = load_spec("straight-1")
    candidate = dsl.ScenarioSpec(
        golden.scenario_id,
        dsl.Environment("rainy", golden.environment.time_of_day),
        golden.road_network, golden.actors, golden.oracle)
    result = compare_specs(candidate, golden)
    assert result.environment < 1.0
    assert result.road_network == 1.0
    assert result.actor == 1.0
    assert result.oracle == 1.0
    assert result.per_field["/environment/weather"] is False


def test_comparison_symmetric_in_mismatch_counts():
    golden = load_spec("straight-2")
    candidate = dsl.ScenarioSpec(
        golden.scenario_id,
        dsl.Environment("snowy", "nighttime"),
        golden.road_network, golden.actors, golden.oracle)
    forward = compare_specs(candidate, golden)
    backward = compare_specs(golden, candidate)
    assert forward.counts() == backward.counts()


def test_aggregate_single_element_identity():
    spec = load_spec("curve")
    result = compare_specs(spec, spec)
    merged = aggregate_accuracy([result])
    assert merged.environment == result.environment
    assert merged.overall == result.overall


def test_aggregate_micro_average_arithmetic():
    golden = load_spec("straight-1")
    perfect = compare_specs(golden, golden)
    half_env = compare_specs(
        dsl.ScenarioSpec(golden.scenario_id,
                         dsl.Environment("rainy", golden.environment.time_of_day),
                         golden.road_network, golden.actors, golden.oracle),
        golden)
    merged = aggregate_accuracy([perfect, half_env])
    # each case has 2 environment fields: (2 + 1) / (2 + 2)
    assert merged.environment == pytest.approx(3 / 4)


def test_aggregate_of_identical_copies_is_unchanged():
    result = compare_specs(load_spec("t-intersection"), load_spec("t-intersection"))
    merged = aggregate_accuracy([result] * 5)
    assert merged.environment == result.environment
    assert merged.overall == result.overall


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_accuracy([])


def test_accuracy_corpus_reproduces_reference_aggregates(corpus_dir):
    results = []
    for candidate_path in sorted(corpus_dir.glob("*.candidate.yaml")):
        golden_path = candidate_path.with_name(
            candidate_path.name.replace(".candidate.", ".golden."))
        candidate = dsl.parse_dsl(candidate_path.read_text(encoding="utf-8"))
        golden = dsl.parse_dsl(golden_path.read_text(encoding="utf-8"))
        assert isinstance(candidate, dsl.ScenarioSpec)
        assert isinstance(golden, dsl.ScenarioSpec)
        results.append(compare_specs(candidate, golden))
    assert len(results) == 50
    merged = aggregate_accuracy(results)
    assert merged.environment == 1.0
    assert merged.road_network == 1.0
    assert merged.oracle == 0.98
    assert merged.actor == 0.97
    assert merged.overall == 0.99


# -- weighted Fleiss kappa ----------------------------------------------------

def test_unanimous_agreement_gives_kappa_one():
    matrix = RatingsMatrix(
        ratings=((0, 0, 0), (2, 2, 2), (1, 1, 1), (3, 3, 3)),
        categories=("no", "partial", "mostly", "match"),
    )
    kappa, band = fleiss_kappa(matrix)
    assert kappa == pytest.approx(1.0)
    assert band == "almost_perfect"


def test_band_boundaries():
    assert agreement_band(0.68) == "substantial"
    assert agreement_band(0.61) == "substantial"
    assert agreement_band(0.80) == "substantial"
    assert agreement_band(0.81) == "almost_perfect"
    assert agreement_band(0.50) == "moderate"
    assert agreement_band(-0.10) == "poor"


def test_degenerate_single_category_errors():
    matrix = RatingsMatrix(ratings=((0, 0), (0, 0)), categories=("a", "b"))
    with pytest.raises(DegenerateAgreementError):
        fleiss_kappa(matrix)


def test_matrix_validation():
    with pytest.raises(ValueError):
        RatingsMatrix(ratings=((0,),), categories=("a", "b"))  # one rater
    with pytest.raises(ValueError):
        RatingsMatrix(ratings=((0, 5),), categories=("a", "b"))  # bad index
    with pytest.raises(ValueError):
        RatingsMatrix(ratings=((0, 1), (0,)), categories=("a", "b"))  # ragged


def brute_force_weighted_kappa(matrix: RatingsMatrix) -> float:
    """Direct summation over every item and ordered rater pair."""
    n_items = len(matrix.ratings)
    n_raters = len(matrix.ratings[0])
    total = 0.0
    for row in matrix.ratings:
        for a in range(n_raters):
            for b in range(n_raters):
                if a != b:
                    total += matrix.weight(row[a], row[b])
    observed = total / (n_items * n_raters * (n_raters - 1))

    n_cats = len(matrix.categories)
    marginal = [0.0] * n_cats
    for row in matrix.ratings:
        for value in row:
            marginal[value] += 1
    marginal = [m / (n_items * n_raters) for m in marginal]
    expected = sum(marginal[j] * marginal[k] * matrix.weight(j, k)
                   for j in range(n_cats) for k in range(n_cats))
    return (observed - expected) / (1.0 - expected)


def test_kappa_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        n_items = rng.randint(2, 12)
        n_raters = rng.randint(2, 6)
        n_cats = rng.randint(2, 5)
        ratings = tuple(
            tuple(rng.randrange(n_cats) for _ in range(n_raters))
            for _ in range(n_items))
        flat = {value for row in ratings for value in row}
        if len(flat) < 2:
            continue
        matrix = RatingsMatrix(ratings=ratings,
                               categories=tuple(f"c{i}" for i in range(n_cats)))
        kappa, _ = fleiss_kappa(matrix)
        assert kappa == pytest.approx(brute_force_weighted_kappa(matrix), abs=1e-9)
        assert -1.0 - 1e-9 <= kappa <= 1.0 + 1e-9


# -- violation-count table ----------------------------------------------------

def _report(scenario_id: str, seed: int, rule_ids: tuple[str, ...]) -> rules.ViolationReport:
    violations = tuple(
        rules.Violation(rule_id, "npc_1", 0.0, 1.0, {}) for rule_id in rule_ids)
    return rules.ViolationReport(
        scenario_id=scenario_id, instance_seed=seed, violations=violations,
        collisions=(), outcome="rule_violation" if violations else "clean",
        targeted_hit=bool(violations))


def test_compare_violation_counts_rows():
    grouped = {
        "Straight-1": [_report("Straight-1", 1, ("21460",)),
                       _report("Straight-1", 0, ("21460",))],
        "Intersection-2": [_report("Intersection-2", 0, ("22450", "21802", "22350"))],
    }
    expected = {"Straight-1": 1, "Intersection-2": 3}
    table = compare_violation_counts(grouped, expected)
    assert [row.road_type for row in table.rows] == ["Straight-1", "Intersection-2"]
    assert all(row.exact_match for row in table.rows)


def test_compare_violation_counts_mismatch_reported():
    grouped = {"Straight-2": [_report("Straight-2", 0, ("22350",))]}
    table = compare_violation_counts(grouped, {"Straight-2": 2})
    row = table.rows[0]
    assert (row.observed_count, row.expected_count, row.exact_match) == (1, 2, False)


def test_compare_violation_counts_missing_road_type():
    with pytest.raises(KeyError):
        compare_violation_counts({}, {"Curve": 2})


def test_representative_report_is_lowest_seed():
    grouped = {"X": [_report("X", 5, ("21460", "22350")), _report("X", 2, ("21460",))]}
    table = compare_violation_counts(grouped, {"X": 1})
    assert table.rows[0].observed_count == 1  # seed 2 is the representative


def test_agreement_table_csv():
    grouped = {"Curve": [_report("Curve", 0, ("21460", "22350"))]}
    csv_text = compare_violation_counts(grouped, {"Curve": 2}).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "road_type,observed_count,expected_count,exact_match"
    assert lines[1] == "Curve,2,2,true"


def test_corpus_script_regenerates_the_committed_accuracy_corpus(tmp_path, monkeypatch, capsys):
    path = REPO_ROOT / "scripts" / "gen_accuracy_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_accuracy_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT_DIR", tmp_path)
    script.main()
    assert capsys.readouterr().out == f"wrote 50 pairs to {tmp_path}\n"
    committed = FIXTURES / "accuracy"
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert len(names) == 100
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
