"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Criterion 3 simulates 6 fixtures x 2000 seeds; criterion 4
repeats the whole batch and compares artifact hashes, so this module
takes a few minutes of CPU.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings

from scenforge import dsl, evaluate, extract, normalize, rules, sampling, sim, synth

from .conftest import EXPECTED_RULE_COUNTS, FIXTURES, load_template
from .test_dsl import scenario_specs
from .test_evaluate import brute_force_weighted_kappa
from .test_synth import assert_program_keeps_the_template_lines

FIXTURE_ORDER = ("straight-1", "straight-2", "intersection-1",
                 "intersection-2", "t-intersection", "curve")
EXPECTED_DISTINCT_COUNTS = (1, 2, 3, 3, 2, 2)
BATCH_SIZE = 2000
RUNTIME_BUDGET_S = 600.0


def _announce(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


# -- criterion 1: mapping fidelity -------------------------------------------

def test_criterion_1_mapping_fidelity():
    started = time.monotonic()
    assert synth.map_time("daytime") == 12
    assert synth.map_time("nighttime") == 22
    assert synth.map_weather("sunny", "nighttime") == "ClearNight"
    assert synth.map_weather("cloudy", "daytime") == "CloudyNoon"
    assert synth.select_map("straight", 2) == "Town02"
    assert synth.select_map("straight", 4) == "Town04"
    assert synth.select_map("curve", 2) == "Town02"
    assert synth.select_map("intersection", 2) == "Town05"
    assert synth.select_map("t_intersection", 2) == "Town05"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _announce("1 mapping fidelity", f"{elapsed * 1000:.0f} ms")


# -- criterion 2: defaults and widening --------------------------------------

def test_criterion_2_defaults_and_widening():
    bare = dsl.ScenarioSpec(
        scenario_id="bare",
        environment=dsl.Environment("not_mentioned", "not_mentioned"),
        road_network=dsl.RoadNetwork("straight", 2, 1, "solid_line", ()),
        actors=dsl.ActorSet(
            ego=dsl.ActorSpec("ego", "car", "go_forward"),
            npcs=(
                dsl.ActorSpec("npc_1", "truck", "go_forward",
                              position=dsl.PositionSpec("ego", "front", None)),
            ),
        ),
        oracle=(dsl.OracleEntry("21460", "crossing", "defaults check", "npc_1"),),
    )
    resolved = normalize.apply_defaults(bare, 0).spec
    assert resolved.actors.ego.speed_mps == 10.0
    assert resolved.actors.npcs[0].speed_mps == 10.0
    assert resolved.actors.ego.model_id == "vehicle.lincoln.mkz_2017"
    assert resolved.actors.npcs[0].model_id == "vehicle.carlamotors.european_hgv"
    assert resolved.actors.npcs[0].position.heading_relation == "opposite_direction"

    speed = synth.widen_to_range(10.0, "speed")
    assert (speed.low, speed.high) == (8.0, 12.0)
    for base in (0.0, 10.0, 37.5):
        dist = synth.widen_to_range(base, "init_dist")
        assert (dist.low, dist.high) == (15.0, 20.0)
    _announce("2 defaults and widening")


# -- criteria 3 and 4: end-to-end triggering and determinism -----------------

def _run_batch() -> dict[str, dict]:
    results: dict[str, dict] = {}
    for name in FIXTURE_ORDER:
        template = load_template(name)
        geometry = sim.build_geometry(template)
        program = synth.render_scenic(template)
        trace_hash = hashlib.sha256()
        report_hash = hashlib.sha256()
        targeted = 0
        distinct: set[tuple[str, ...]] = set()
        for seed in range(BATCH_SIZE):
            instance = sampling.sample_instance(template, seed)
            trace = sim.simulate(instance, geometry)
            report = rules.monitor(trace, template.params.oracle, geometry)
            trace_hash.update(sim.trace_to_jsonl(trace).encode("utf-8"))
            report_hash.update(report.to_json().encode("utf-8"))
            targeted += int(report.targeted_hit)
            distinct.add(report.distinct_rules())
        results[name] = {
            "scenic_sha": hashlib.sha256(program.file_text().encode("utf-8")).hexdigest(),
            "traces_sha": trace_hash.hexdigest(),
            "reports_sha": report_hash.hexdigest(),
            "targeted": targeted,
            "distinct": distinct,
        }
    return results


@pytest.fixture(scope="module")
def batch_first_pass():
    started = time.monotonic()
    results = _run_batch()
    results["_elapsed_s"] = time.monotonic() - started
    return results


def test_criterion_3_end_to_end_violation_triggering(batch_first_pass):
    elapsed = batch_first_pass["_elapsed_s"]
    assert elapsed <= RUNTIME_BUDGET_S, f"batch took {elapsed:.0f}s"
    for name, expected in zip(FIXTURE_ORDER, EXPECTED_DISTINCT_COUNTS):
        outcome = batch_first_pass[name]
        assert outcome["targeted"] == BATCH_SIZE, \
            f"{name}: {outcome['targeted']}/{BATCH_SIZE} targeted hits"
        assert len(outcome["distinct"]) == 1, \
            f"{name}: rule sets vary across seeds: {outcome['distinct']}"
        rule_set = next(iter(outcome["distinct"]))
        assert len(rule_set) == expected, \
            f"{name}: {len(rule_set)} distinct rules, expected {expected}"
        assert EXPECTED_RULE_COUNTS[name] == expected
    _announce("3 end-to-end violation triggering",
              f"12000/12000 targeted hits, counts {EXPECTED_DISTINCT_COUNTS}, {elapsed:.0f} s")


def test_criterion_4_batch_determinism(batch_first_pass):
    second = _run_batch()
    for name in FIXTURE_ORDER:
        for key in ("scenic_sha", "traces_sha", "reports_sha"):
            assert second[name][key] == batch_first_pass[name][key], f"{name}: {key} differs"
    _announce("4 determinism", "scenic, trace, and report bytes identical across reruns")


# -- criterion 5: round-trip and validation ----------------------------------

@given(scenario_specs())
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_criterion_5_round_trip_property(spec):
    text = dsl.serialize_dsl(spec)
    assert dsl.parse_dsl(text) == spec
    try:
        template = synth.build_template(normalize.apply_defaults(spec, 0))
    except synth.CompatibilityError:
        return
    assert_program_keeps_the_template_lines(template)


def test_criterion_5_round_trip_and_validation(corpus_dir):
    documents = sorted(corpus_dir.glob("*.golden.yaml"))
    assert len(documents) == 50
    for path in documents:
        text = path.read_text(encoding="utf-8")
        spec = dsl.parse_dsl(text)
        assert isinstance(spec, dsl.ScenarioSpec)
        assert dsl.parse_dsl(dsl.serialize_dsl(spec)) == spec

    base = (FIXTURES / "scenarios" / "straight1.yaml").read_text(encoding="utf-8")
    defects = [
        ("weather: sunny", "weather: plasma"),
        ("time_of_day: daytime", "time_of_day: springtime"),
        ("road_type: straight", "road_type: roundabout"),
        ("spatial_relation: front", "spatial_relation: above"),
    ]
    for k in range(1, len(defects) + 1):
        damaged = base
        for old, new in defects[:k]:
            damaged = damaged.replace(old, new)
        issues = dsl.parse_dsl(damaged)
        assert isinstance(issues, list)
        assert len(issues) >= k, f"{k} defects produced only {len(issues)} issues"
    _announce("5 round-trip and validation",
              "50-doc corpus + 1000 generated cases + defect completeness")


# -- criterion 6: scoring reproduction ----------------------------------------

def test_criterion_6_accuracy_scoring_reproduction(corpus_dir):
    results = []
    for candidate_path in sorted(corpus_dir.glob("*.candidate.yaml")):
        golden_path = candidate_path.with_name(
            candidate_path.name.replace(".candidate.", ".golden."))
        candidate = dsl.parse_dsl(candidate_path.read_text(encoding="utf-8"))
        golden = dsl.parse_dsl(golden_path.read_text(encoding="utf-8"))
        results.append(evaluate.compare_specs(candidate, golden))
    merged = evaluate.aggregate_accuracy(results)
    assert merged.environment == 1.00
    assert merged.road_network == 1.00
    assert merged.oracle == 0.98
    assert merged.actor == 0.97
    assert merged.overall == 0.99
    _announce("6 scoring reproduction",
              "environment 1.00, road 1.00, oracle 0.98, actor 0.97, overall 0.99")


# -- criterion 7: weighted kappa ----------------------------------------------

def test_criterion_7_fleiss_kappa():
    rng = random.Random(777)
    checked = 0
    while checked < 100:
        n_items = rng.randint(2, 15)
        n_raters = rng.randint(2, 6)
        n_cats = rng.randint(2, 5)
        ratings = tuple(
            tuple(rng.randrange(n_cats) for _ in range(n_raters))
            for _ in range(n_items))
        if len({v for row in ratings for v in row}) < 2:
            continue
        matrix = evaluate.RatingsMatrix(
            ratings=ratings, categories=tuple(f"c{i}" for i in range(n_cats)))
        kappa, _ = evaluate.fleiss_kappa(matrix)
        assert abs(kappa - brute_force_weighted_kappa(matrix)) <= 1e-9
        checked += 1

    unanimous = evaluate.RatingsMatrix(
        ratings=((0, 0, 0), (1, 1, 1), (2, 2, 2)), categories=("a", "b", "c"))
    kappa, band = evaluate.fleiss_kappa(unanimous)
    assert kappa == pytest.approx(1.0)
    assert evaluate.agreement_band(0.68) == "substantial"
    _announce("7 weighted kappa", "100 matrices within 1e-9 of the direct-summation oracle")


# -- criterion 8: collision detection ------------------------------------------

def test_criterion_8_collision_detection():
    import numpy as np

    rng = random.Random(4321)
    grid = np.linspace(-0.5, 0.5, 100)
    gx, gy = np.meshgrid(grid, grid)
    unit = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def sampled(rect_a, rect_b) -> bool:
        (xa, ya, ha, la, wa), (xb, yb, hb, lb, wb) = rect_a, rect_b
        ca, sa = math.cos(ha), math.sin(ha)
        px = xa + unit[:, 0] * la * ca - unit[:, 1] * wa * sa
        py = ya + unit[:, 0] * la * sa + unit[:, 1] * wa * ca
        cb, sb = math.cos(hb), math.sin(hb)
        dx, dy = px - xb, py - yb
        lx = dx * cb + dy * sb
        ly = -dx * sb + dy * cb
        return bool(np.any((np.abs(lx) <= lb / 2) & (np.abs(ly) <= wb / 2)))

    disagreements = 0
    for _ in range(1000):
        rect_a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi),
                  rng.uniform(3, 8), rng.uniform(1.5, 3))
        rect_b = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi),
                  rng.uniform(3, 8), rng.uniform(1.5, 3))
        sat = sim.rects_overlap(sim.rect_corners(*rect_a), sim.rect_corners(*rect_b))
        point = sampled(rect_a, rect_b) or sampled(rect_b, rect_a)
        if sat != point:
            disagreements += 1
            # the oracle only misses slivers; shrinking both footprints by
            # 1 cm must clear the contact
            assert sat and not point
            shrunk_a = sim.rect_corners(rect_a[0], rect_a[1], rect_a[2],
                                        rect_a[3] - 0.02, rect_a[4] - 0.02)
            shrunk_b = sim.rect_corners(rect_b[0], rect_b[1], rect_b[2],
                                        rect_b[3] - 0.02, rect_b[4] - 0.02)
            assert not sim.rects_overlap(shrunk_a, shrunk_b)
    _announce("8 collision detection",
              f"1000 pairs, {disagreements} boundary-band disagreements")


# -- criterion 9: sampler statistics -------------------------------------------

def test_criterion_9_sampler_statistics():
    template = load_template("straight-1")  # ego_speed spans [8, 12]
    values = [sampling.sample_instance(template, seed).bindings["ego_speed"]
              for seed in range(2000)]
    mean = sum(values) / len(values)
    assert 9.9 <= mean <= 10.1
    assert all(8.0 <= v <= 12.0 for v in values)
    again = [sampling.sample_instance(template, seed).bindings["ego_speed"]
             for seed in range(2000)]
    assert values == again  # bit-for-bit
    _announce("9 sampler statistics", f"mean {mean:.4f}, 2000/2000 in bounds")


# -- criterion 10: offline extraction loop --------------------------------------

def test_criterion_10_offline_extraction_loop():
    transcripts = FIXTURES / "transcripts"

    transport = extract.FixtureTransport.from_file(transcripts / "success.json", "case-success")
    report = extract.CrashReport(case_id="case-success", summary_text="head-on crash")
    outcome = extract.run_extraction(report, transport)
    assert outcome.retries == 0
    assert dsl.validate_spec(outcome.spec) == []

    transport = extract.FixtureTransport.from_file(transcripts / "retry_then_success.json",
                                                   "case-retry")
    report = extract.CrashReport(case_id="case-retry", summary_text="head-on crash")
    outcome = extract.run_extraction(report, transport)
    assert outcome.retries == 1
    assert dsl.validate_spec(outcome.spec) == []

    transport = extract.FixtureTransport.from_file(transcripts / "always_malformed.json",
                                                   "case-exhaust")
    report = extract.CrashReport(case_id="case-exhaust", summary_text="malformed")
    with pytest.raises(extract.ExtractionError):
        extract.run_extraction(report, transport)
    assert transport.calls == 3
    _announce("10 offline extraction loop", "success, retry, and exhaustion paths")
