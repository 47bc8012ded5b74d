from __future__ import annotations

import socket

import pytest

from scenforge import dsl, extract

from .conftest import FIXTURES

TRANSCRIPTS = FIXTURES / "transcripts"


def _report(case_id: str = "case-1", sketch: bool = False) -> extract.CrashReport:
    return extract.CrashReport(
        case_id=case_id,
        summary_text="Two vehicles collided head-on on a rural two-lane road.",
        sketch=(b"\x89PNG fake bytes", "image/png") if sketch else None,
        rule_context=("CVC 21460: driving left of double parallel solid lines.",),
    )


def test_crash_report_requires_summary():
    with pytest.raises(ValueError):
        extract.CrashReport(case_id="x", summary_text="")


def test_extraction_prompt_structure():
    bundle = extract.build_extraction_prompt(_report(sketch=True))
    assert len(bundle.exemplars) >= extract.MIN_EXEMPLARS
    image_parts = [p for p in bundle.user_parts if p.kind == "image"]
    assert len(image_parts) == 1
    assert image_parts[0].media_type == "image/png"
    for token in dsl.WEATHER_TOKENS:
        assert token in bundle.system_text
    # schema text embedded verbatim
    assert "scenario_id" in bundle.system_text
    assert "oracle" in bundle.system_text


def test_extraction_prompt_without_sketch_has_no_image_part():
    bundle = extract.build_extraction_prompt(_report(sketch=False))
    assert all(p.kind == "text" for p in bundle.user_parts)


def test_extraction_prompt_deterministic():
    assert extract.build_extraction_prompt(_report()) == extract.build_extraction_prompt(_report())


def test_validation_prompt_enumerates_draft_fields():
    spec = dsl.parse_dsl((FIXTURES / "scenarios" / "straight1.yaml").read_text())
    assert isinstance(spec, dsl.ScenarioSpec)
    bundle = extract.build_validation_prompt(spec, _report())
    checks = next(p.text for p in bundle.user_parts
                  if p.kind == "text" and p.text.startswith("Field checks:"))
    lines = [line for line in checks.splitlines() if line.startswith("- confirm")]
    env_road = [line for line in lines
                if any(key in line for key in (
                    "weather", "time_of_day", "road_type", "number_of_ways",
                    "number_of_lanes", "road_markers"))]
    assert len(env_road) == 6  # every populated environment+road field gets a check
    assert any("speed_mps" in line for line in lines)


def test_validation_prompt_deterministic():
    spec = dsl.parse_dsl((FIXTURES / "scenarios" / "curve.yaml").read_text())
    a = extract.build_validation_prompt(spec, _report())
    b = extract.build_validation_prompt(spec, _report())
    assert a == b


def test_fixture_success_path():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "success.json")
    config = extract.ClientConfig(max_retries=2)
    report = extract.CrashReport(case_id="case-success", summary_text="head-on crash")
    outcome = extract.run_extraction(report, config, transport)
    assert outcome.spec.scenario_id == "straight-1"
    assert outcome.retries == 0
    assert dsl.validate_spec(outcome.spec) == []


def test_fixture_retry_then_success():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "retry_then_success.json")
    config = extract.ClientConfig(max_retries=2)
    report = extract.CrashReport(case_id="case-retry", summary_text="head-on crash")
    outcome = extract.run_extraction(report, config, transport)
    assert outcome.retries == 1
    assert outcome.spec.scenario_id == "straight-1"


def test_fixture_exhaustion_after_max_retries():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "always_malformed.json")
    config = extract.ClientConfig(max_retries=2)
    report = extract.CrashReport(case_id="case-exhaust", summary_text="useless")
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.run_extraction(report, config, transport)
    assert transport.calls == 3  # 1 + max_retries attempts
    assert excinfo.value.case_id == "case-exhaust"
    assert excinfo.value.issues


def test_offline_mode_never_touches_the_network(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("network access attempted in offline mode")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "success.json")
    report = extract.CrashReport(case_id="case-success", summary_text="head-on crash")
    spec = extract.extract_and_validate(report, extract.ClientConfig(), transport)
    assert isinstance(spec, dsl.ScenarioSpec)


def test_missing_transcript_surfaces_case_id():
    transport = extract.FixtureTransport({})
    report = extract.CrashReport(case_id="case-unknown", summary_text="whatever")
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.run_extraction(report, extract.ClientConfig(), transport)
    assert "case-unknown" in str(excinfo.value)


def test_code_fence_stripping():
    curve_doc = (FIXTURES / "scenarios" / "curve.yaml").read_text()
    transcript = {"case-fenced": [f"```yaml\n{curve_doc}```"]}
    transport = extract.FixtureTransport(transcript)
    report = extract.CrashReport(case_id="case-fenced", summary_text="curve crash")
    outcome = extract.run_extraction(report, extract.ClientConfig(), transport)
    assert outcome.spec.scenario_id == "curve"


def test_client_config_rejects_negative_retries():
    with pytest.raises(ValueError):
        extract.ClientConfig(max_retries=-1)


def test_http_transport_request_shape(monkeypatch):
    import requests

    captured = {}

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": "a reply"}}]}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, body=json, headers=headers, timeout=timeout)
        return FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("SCENFORGE_API_KEY", "sekrit")
    config = extract.ClientConfig(endpoint_url="https://example.test/v1/chat/completions",
                                  model_name="small-model", timeout_s=12.0)
    transport = extract.HttpTransport(config)
    bundle = extract.build_extraction_prompt(_report(sketch=True))
    reply = transport.complete(bundle.system_text, bundle.user_parts)

    assert reply == "a reply"
    assert captured["url"] == config.endpoint_url
    assert captured["timeout"] == 12.0
    assert captured["headers"]["Authorization"] == "Bearer sekrit"
    body = captured["body"]
    assert body["model"] == "small-model"
    assert body["messages"][0]["role"] == "system"
    kinds = [part["type"] for part in body["messages"][1]["content"]]
    assert kinds.count("image_url") == 1


# SHA-256 of the canonical JSON of both prompt bundles for a report with a
# sketch and regulations; the prompts' wording and part order are pinned.
PINNED_PROMPT_SHA256 = {
    "extraction": "12a9e2c227c77bf1e9888325f5dbd0a8489652f37a05454ca559926a458da569",
    "validation": "b6cdf8384753de714669d75483ca79687a3c7a3c5b775741c1d904f68cf4fd48",
}


def test_prompt_bundles_are_pinned():
    import hashlib

    from scenforge.digests import canonical_json, to_data

    spec = dsl.parse_dsl((FIXTURES / "scenarios" / "curve.yaml").read_text(encoding="utf-8"))
    bundles = {
        "extraction": extract.build_extraction_prompt(_report(sketch=True)),
        "validation": extract.build_validation_prompt(spec, _report(sketch=True)),
    }
    digests = {name: hashlib.sha256(canonical_json(to_data(bundle)).encode("utf-8")).hexdigest()
               for name, bundle in bundles.items()}
    assert digests == PINNED_PROMPT_SHA256
