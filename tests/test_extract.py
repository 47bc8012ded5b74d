from __future__ import annotations

import base64
import http.server
import json
import socket
import threading
import urllib.request

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
    assert len(bundle.exemplars) >= 2
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


def test_a_crash_report_file_is_read_into_its_report(tmp_path):
    path = tmp_path / "case-7.json"
    path.write_text(json.dumps({
        "summary_text": "Two vehicles collided head-on on a rural two-lane road.",
        "sketch_base64": base64.b64encode(b"\x89PNG fake bytes").decode("ascii"),
        "rule_context": ["CVC 21460: driving left of double parallel solid lines."],
    }), encoding="utf-8")
    assert extract.read_crash_report(path) == _report("case-7", sketch=True)


@pytest.mark.parametrize("content, reason", [
    ({"summary_text": 3}, "/summary_text: expected a string, got int"),
    ({"summary_text": "crash", "rule_context": ["CVC 21460", 21461]},
     "/rule_context/1: expected a string, got int"),
    ({"summary_text": "crash", "case_id": 7}, "/case_id: expected a string, got int"),
    ({"summary_text": "crash", "sketch_base64": "abc"}, "/sketch_base64: "),
])
def test_a_malformed_crash_report_file_names_the_field(tmp_path, content, reason):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        extract.read_crash_report(path)
    assert str(excinfo.value).startswith(reason)


def test_fixture_success_path():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "success.json", "case-success")
    report = extract.CrashReport(case_id="case-success", summary_text="head-on crash")
    outcome = extract.run_extraction(report, transport)
    assert outcome.spec.scenario_id == "straight-1"
    assert outcome.retries == 0
    assert dsl.validate_spec(outcome.spec) == []


def test_fixture_retry_then_success():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "retry_then_success.json",
                                                   "case-retry")
    report = extract.CrashReport(case_id="case-retry", summary_text="head-on crash")
    outcome = extract.run_extraction(report, transport)
    assert outcome.retries == 1
    assert outcome.spec.scenario_id == "straight-1"


def test_fixture_exhaustion_after_max_retries():
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "always_malformed.json",
                                                   "case-exhaust")
    report = extract.CrashReport(case_id="case-exhaust", summary_text="useless")
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.run_extraction(report, transport)
    assert transport.calls == 3  # 1 + MAX_RETRIES attempts
    assert excinfo.value.case_id == "case-exhaust"
    assert excinfo.value.issues


def test_offline_mode_never_touches_the_network(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("network access attempted in offline mode")

    monkeypatch.setattr(socket, "socket", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)
    transport = extract.FixtureTransport.from_file(TRANSCRIPTS / "success.json", "case-success")
    report = extract.CrashReport(case_id="case-success", summary_text="head-on crash")
    spec = extract.run_extraction(report, transport).spec
    assert isinstance(spec, dsl.ScenarioSpec)


def test_missing_transcript_surfaces_case_id():
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.FixtureTransport.from_file(TRANSCRIPTS / "success.json", "case-unknown")
    assert "case-unknown" in str(excinfo.value)


def test_code_fence_stripping():
    curve_doc = (FIXTURES / "scenarios" / "curve.yaml").read_text()
    transport = extract.FixtureTransport([f"```yaml\n{curve_doc}```"])
    report = extract.CrashReport(case_id="case-fenced", summary_text="curve crash")
    outcome = extract.run_extraction(report, transport)
    assert outcome.spec.scenario_id == "curve"


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Records each request and answers it from the server's `routes`:
    path -> (status, headers, body)."""

    def _answer(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.seen.append((self.command, self.path, self.headers, body))
        status, headers, payload = self.server.routes[self.path]
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


CHAT_PATH = "/v1/chat/completions"
CHAT_REPLY = (200, {"Content-Type": "application/json"},
              json.dumps({"choices": [{"message": {"content": "a reply"}}]}).encode())


@pytest.fixture
def chat_server(monkeypatch):
    """An HTTP server on 127.0.0.1 in a thread, reached without any proxy."""
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("SCENFORGE_API_KEY", "sekrit")
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.routes, server.seen = {}, []
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _chat_transport(endpoint: str) -> extract.HttpTransport:
    return extract.HttpTransport(endpoint, "small-model")


def test_http_transport_posts_the_chat_request(chat_server):
    chat_server.routes[CHAT_PATH] = CHAT_REPLY
    transport = _chat_transport(chat_server.url + CHAT_PATH)
    bundle = extract.build_extraction_prompt(_report(sketch=True))
    assert transport.complete(bundle.system_text, bundle.user_parts) == "a reply"

    [(method, path, headers, raw)] = chat_server.seen
    assert (method, path) == ("POST", CHAT_PATH)
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sekrit"
    body = json.loads(raw)
    assert body["model"] == "small-model"
    system, user = body["messages"]
    assert system == {"role": "system", "content": bundle.system_text}
    assert user["role"] == "user"
    texts = [part["text"] for part in user["content"] if part["type"] == "text"]
    assert texts == [part.text for part in bundle.user_parts if part.kind == "text"]
    images = [part["image_url"]["url"] for part in user["content"] if part["type"] == "image_url"]
    assert images == ["data:image/png;base64," + base64.b64encode(b"\x89PNG fake bytes").decode()]


@pytest.mark.parametrize("status", [500, 307])
def test_an_http_error_or_a_redirected_post_is_a_transport_failure(chat_server, status):
    """A 500 reply fails the case; a 307 reply to the POST is not followed."""
    chat_server.routes[CHAT_PATH] = (status, {"Location": chat_server.url + "/elsewhere"}, b"")
    chat_server.routes["/elsewhere"] = CHAT_REPLY
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.run_extraction(_report(), _chat_transport(chat_server.url + CHAT_PATH))
    assert excinfo.value.case_id == "case-1"
    assert str(excinfo.value).startswith(f"case-1: transport failure: HTTP Error {status}")
    assert [path for _, path, _, _ in chat_server.seen] == [CHAT_PATH]


def test_a_redirect_target_never_receives_the_token(chat_server):
    chat_server.routes[CHAT_PATH] = (302, {"Location": chat_server.url + "/elsewhere"}, b"")
    chat_server.routes["/elsewhere"] = CHAT_REPLY
    transport = _chat_transport(chat_server.url + CHAT_PATH)
    assert transport.complete("system", (extract.PromptPart("text", text="hi"),)) == "a reply"
    (_, first, asked, _), (_, second, redirected, _) = chat_server.seen
    assert (first, second) == (CHAT_PATH, "/elsewhere")
    assert asked["Authorization"] == "Bearer sekrit"
    assert "Authorization" not in redirected


def test_an_endpoint_that_is_not_http_is_refused_unopened(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a non-http endpoint was opened")

    monkeypatch.setattr(urllib.request, "urlopen", forbidden)
    reply = tmp_path / "reply.json"
    reply.write_bytes(CHAT_REPLY[2])
    with pytest.raises(extract.ExtractionError) as excinfo:
        extract.run_extraction(_report(), _chat_transport(reply.as_uri()))
    assert str(excinfo.value) == (
        f"case-1: transport failure: endpoint {reply.as_uri()!r} is not an http or https URL")


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
