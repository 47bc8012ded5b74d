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


def test_nested_tuples_and_optional_values():
    assert from_data(tuple[tuple[int, ...], ...], [[1, 2], [3]]) == ((1, 2), (3,))
    assert from_data(dict[str, float] | None, None) is None
    assert from_data(dict[str, float] | None, {"x": 2}) == {"x": 2.0}


@pytest.mark.parametrize("pointer, value", [
    ("/params/number_of_ways", 1),
    ("/params/lanes", 0),
    ("/params/npcs/0/actor_type", "bus"),
    ("/params/npcs/0/actor_id", "ego"),
    ("/params/oracle", []),
    ("/params/oracle/0/rule_id", "99999"),
    ("/params/oracle/0/violating_actor", "nobody"),
])
def test_a_template_that_simulate_cannot_run_is_refused_at_load(tmp_path, capsys, pointer, value):
    """Each value once crashed staged `simulate`, made it write a trace that
    staged `monitor` refuses, made `monitor` fail on every seed, or gave
    `targeted_hit` false on every seed; now every stage that loads the
    template refuses it."""
    path = tmp_path / "straight-1.template.json"
    data = to_data(load_document_template("straight-1"))
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["sample", str(path), "--samples", "2", "--out", str(tmp_path)]) == cli.EXIT_OK
    manifest = tmp_path / "instances.jsonl"
    assert cli.main(["simulate", str(path), str(manifest), "--out", str(tmp_path)]) == cli.EXIT_OK
    traces = sorted(map(str, (tmp_path / "traces").iterdir()))
    *parents, key = pointer.split("/")[1:]
    target = data
    for part in parents:
        target = target[int(part)] if part.isdigit() else target[part]
    target[key] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "staged"
    assert cli.main(["sample", str(path), "--samples", "2", "--out", str(out)]) == cli.EXIT_CONFIG
    assert cli.main(["simulate", str(path), str(manifest), "--out", str(out)]) == cli.EXIT_CONFIG
    assert cli.main(["monitor", str(path), *traces, "--out", str(out)]) == cli.EXIT_CONFIG
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3
    assert all(line.startswith(f"error: {path}: {pointer}: ") for line in errors)
    assert not out.exists()


@pytest.mark.parametrize("cls, data, reason", [
    (tuple[str, ...], "ab", "expected a list, got str"),
    (tuple[float, ...], {"a": 1}, "expected a list, got dict"),
    (bool, "false", "expected a bool, got str"),
    (int, 2.7, "expected an int, got float"),
    (int, True, "expected an int, got bool"),
    (float, False, "expected a number, got bool"),
    (float, "2.5", "expected a number, got str"),
    (str, 5, "expected a string, got int"),
])
def test_a_value_of_another_json_type_is_rejected(cls, data, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        from_data(cls, data)


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


def test_a_template_field_of_another_type_is_named_by_its_path(tmp_path, capsys):
    data = to_data(load_document_template("straight-1"))
    data["params"]["oracle"][0]["rule_id"] = 21453
    path = tmp_path / "straight-1.template.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["sample", str(path), "--samples", "2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}: /params/oracle/0/rule_id: expected a string, got int\n")
    assert not (tmp_path / "instances.jsonl").exists()


@pytest.mark.parametrize("cls, data, reason", [
    (dict[str, int], {"a/b~c": "1"}, "/a~1b~0c: expected an int, got str"),
    (tuple[tuple[float, ...], ...], [[1], [2, None]],
     "/1/1: expected a number, got NoneType"),
    (dict[str, tuple[int, ...]] | None, {"x": [1, 2.5]}, "/x/1: expected an int, got float"),
    (sampling.ScenarioInstance, {"template_digest": "d", "instance_seed": 1, "bindings": []},
     "/bindings: expected an object, got list"),
    (tuple[sampling.ScenarioInstance, ...], [{"instance_seed": 1}],
     "/0: ScenarioInstance: missing key(s) template_digest, bindings"),
])
def test_a_nested_value_of_another_type_is_named_by_its_json_pointer(cls, data, reason):
    with pytest.raises(ValueError) as caught:
        from_data(cls, data)
    assert str(caught.value) == reason
