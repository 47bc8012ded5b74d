"""`digests.to_data`/`from_data`: the codec every artifact dataclass goes through."""

from __future__ import annotations

import json

import pytest

from scenforge import cli, rules, sampling, sim, synth
from scenforge.digests import from_data, to_data

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template

DOCUMENTS = sorted(set(EXPECTED_RULE_COUNTS) | set(MULTI_ACTOR_DOCUMENTS))


def _through_json(cls, value):
    return from_data(cls, json.loads(json.dumps(to_data(value))))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_template_instance_and_report_round_trip(name):
    template = load_document_template(name)
    decoded = _through_json(synth.ScenarioTemplate, template)
    assert decoded == template
    assert decoded.digest() == template.digest()

    geometry = sim.build_geometry(template)
    instance = sampling.sample_instance(template, 7)
    assert _through_json(sampling.ScenarioInstance, instance) == instance

    report = rules.monitor(sim.simulate(instance, geometry), template.params.oracle, geometry)
    assert report.violations
    decoded_report = _through_json(rules.ViolationReport, report)
    assert decoded_report == report
    assert decoded_report.to_json() == report.to_json()


def test_integer_ranges_decode_to_the_float_template():
    template = load_document_template("straight-1")
    data = to_data(template)
    for entry in data["free_parameters"]:
        entry["low"], entry["high"] = int(entry["low"]), int(entry["high"])
    integral = {r.name: (float(int(r.low)), float(int(r.high))) for r in template.free_parameters}
    expected = synth.ScenarioTemplate(
        params=template.params,
        free_parameters=tuple(synth.ParamRange(r.name, *integral[r.name], r.unit)
                              for r in template.free_parameters),
        fixed_parameters=template.fixed_parameters)
    decoded = from_data(synth.ScenarioTemplate, json.loads(json.dumps(data)))
    assert all(isinstance(r.low, float) and isinstance(r.high, float)
               for r in decoded.free_parameters)
    assert decoded.digest() == expected.digest()


def test_fixed_tuples_and_optional_values():
    assert from_data(tuple[str, float], ["a", 1]) == ("a", 1.0)
    assert from_data(tuple[tuple[int, ...], ...], [[1, 2], [3]]) == ((1, 2), (3,))
    assert from_data(dict[str, float] | None, None) is None
    assert from_data(dict[str, float] | None, {"x": 2}) == {"x": 2.0}
    with pytest.raises(ValueError):
        from_data(tuple[str, float], ["a", 1, 2])


def _drop_ego_id(data):
    del data["params"]["ego_id"]


def _params_not_an_object(data):
    data["params"] = 3


@pytest.mark.parametrize("damage", [_drop_ego_id, _params_not_an_object])
def test_a_malformed_template_file_is_a_config_error(tmp_path, damage):
    data = to_data(load_document_template("straight-1"))
    damage(data)
    path = tmp_path / "straight-1.template.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["sample", str(path), "--samples", "2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "instances.jsonl").exists()
