"""Crash-report extraction through a pluggable chat-completion endpoint.

Two prompt builders (extraction, then a field-by-field validation pass)
plus a driver loop that refuses to return anything the strict parser and
validator do not accept: parse issues feed back into a retry prompt up
to `MAX_RETRIES` times per pass.  `run_extraction(report, transport)` is
the one entry point, and the caller picks the transport: `HttpTransport`
speaks the common chat-completions JSON shape, and `FixtureTransport`
replays one case's canned replies for fully offline runs.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Protocol

from . import dsl
from .dsl import ScenarioSpec, ValidationIssue


@dataclass(frozen=True)
class CrashReport:
    case_id: str
    summary_text: str
    sketch: tuple[bytes, str] | None = None     # payload, media type
    rule_context: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.summary_text:
            raise ValueError("summary_text must not be empty")


def read_crash_report(path: str | Path) -> CrashReport:
    """The crash report of a JSON file, checked before any of it is used.

    The file holds an object with the string ``summary_text`` and,
    optionally, the strings ``case_id`` (default: the file's stem),
    ``sketch_base64`` and ``sketch_media_type`` (default image/png), and
    ``rule_context``, a list of strings.  An optional key whose value is
    null counts as absent.  A missing or mistyped value raises ValueError
    naming its JSON pointer, as in ``/rule_context: expected a list of
    strings, got str``.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"expected a crash-report object, got {type(raw).__name__}")
    if "summary_text" not in raw:
        raise ValueError("/summary_text: required field absent")

    def checked(pointer: str, value, kind: type = str):
        if not isinstance(value, kind):
            expected = "a list of strings" if kind is list else "a string"
            raise ValueError(f"{pointer}: expected {expected}, got {type(value).__name__}")
        return value

    def optional(key: str, default=None, kind: type = str):
        return default if raw.get(key) is None else checked(f"/{key}", raw[key], kind)

    rules = optional("rule_context", [], list)
    sketch = None
    if payload := optional("sketch_base64"):
        try:
            sketch = (base64.b64decode(payload), optional("sketch_media_type", "image/png"))
        except binascii.Error as exc:
            raise ValueError(f"/sketch_base64: {exc}") from exc
    return CrashReport(
        case_id=optional("case_id", Path(path).stem),
        summary_text=checked("/summary_text", raw["summary_text"]),
        sketch=sketch,
        rule_context=tuple(checked(f"/rule_context/{i}", rule) for i, rule in enumerate(rules)),
    )


@dataclass(frozen=True)
class PromptPart:
    kind: str                      # "text" | "image"
    text: str | None = None
    media_type: str | None = None
    data_base64: str | None = None


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_parts: tuple[PromptPart, ...]
    exemplars: tuple[tuple[str, str], ...] = ()


# The environment variable that holds the endpoint's bearer token.
API_KEY_ENV = "SCENFORGE_API_KEY"
# Failed attempts allowed per pass before extraction gives up.
MAX_RETRIES = 2
TIMEOUT_S = 60.0


class ExtractionError(RuntimeError):
    def __init__(self, case_id: str, message: str, issues: list[ValidationIssue] | None = None):
        super().__init__(f"{case_id}: {message}")
        self.case_id = case_id
        self.issues = issues or []


class ChatTransport(Protocol):
    def complete(self, system_text: str, user_parts: tuple[PromptPart, ...]) -> str: ...


def _schema_text() -> str:
    return resources.files("scenforge").joinpath("data/dsl_schema.md").read_text(encoding="utf-8")


def load_exemplars() -> tuple[tuple[str, str], ...]:
    """Built-in (report excerpt, golden document) pairs."""
    root = resources.files("scenforge").joinpath("data/exemplars")
    pairs = []
    for index in (1, 2):
        excerpt = root.joinpath(f"exemplar_{index}_report.txt").read_text(encoding="utf-8")
        golden = root.joinpath(f"exemplar_{index}_dsl.yaml").read_text(encoding="utf-8")
        pairs.append((excerpt.strip(), golden.strip()))
    return tuple(pairs)


_GROUNDING = (
    "Ground every field in the crash summary, the sketch, or the cited "
    "regulations. Use the token not_mentioned when the evidence is silent; "
    "never invent values."
)


def _report_parts(report: CrashReport) -> list[PromptPart]:
    """The case's summary, then its sketch and its regulations when present."""
    parts = [PromptPart("text", text=f"Case {report.case_id} crash summary:\n{report.summary_text}")]
    if report.sketch is not None:
        payload, media_type = report.sketch
        parts.append(PromptPart("image", media_type=media_type,
                                data_base64=base64.b64encode(payload).decode("ascii")))
    if report.rule_context:
        rules = "\n".join(report.rule_context)
        parts.append(PromptPart("text", text=f"Applicable regulations:\n{rules}"))
    return parts


def build_extraction_prompt(report: CrashReport) -> PromptBundle:
    """Schema, allowed values, grounding instruction, exemplars, then the report."""
    exemplars = load_exemplars()
    system = (
        "You convert crash reports into scenario documents.\n\n"
        "Reply with exactly one YAML document that conforms to this schema:\n\n"
        f"{_schema_text()}\n"
        f"{_GROUNDING}\n"
    )
    parts: list[PromptPart] = []
    for i, (excerpt, golden) in enumerate(exemplars, start=1):
        parts.append(PromptPart(
            "text",
            text=f"Example {i} report:\n{excerpt}\n\nExample {i} document:\n{golden}",
        ))
    parts += _report_parts(report)
    parts.append(PromptPart("text", text="Produce the scenario document for this case."))
    return PromptBundle(system_text=system, user_parts=tuple(parts), exemplars=exemplars)


def _draft_fields(draft: ScenarioSpec) -> list[tuple[str, str]]:
    doc = dsl.serialize_dsl(draft)
    fields = []
    for raw in doc.splitlines():
        line = raw.strip()
        if not line or line.endswith(":") or line.startswith("-") and ":" not in line:
            continue
        key, _, value = line.lstrip("- ").partition(":")
        value = value.strip()
        if value and value != "[]":
            fields.append((key.strip(), value))
    return fields


def build_validation_prompt(draft: ScenarioSpec, report: CrashReport) -> PromptBundle:
    """One confirm-or-revise item per draft field, output constrained to the schema."""
    checks = "\n".join(
        f"- confirm or revise `{key}: {value}` against the evidence"
        for key, value in _draft_fields(draft)
    )
    system = (
        "You verify a drafted scenario document against its crash report.\n"
        "For each listed field, keep the value only when the summary, sketch, "
        "or regulations support it; otherwise revise it. Reply with the full "
        "corrected YAML document in the same schema, nothing else.\n\n"
        f"{_schema_text()}"
    )
    parts = _report_parts(report)
    parts.append(PromptPart("text", text=f"Draft document:\n{dsl.serialize_dsl(draft)}"))
    parts.append(PromptPart("text", text=f"Field checks:\n{checks}"))
    return PromptBundle(system_text=system, user_parts=tuple(parts))


class FixtureTransport:
    """Replays one case's canned replies; never touches the network.

    When the replies run out, the last one repeats, so a single-reply
    transcript serves both pipeline passes.
    """

    def __init__(self, replies: list[str]):
        self._replies = list(replies)
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path, case_id: str) -> "FixtureTransport":
        """The replies of `case_id` in a transcript file, a JSON object that maps
        each case id to a non-empty list of reply strings.  A case that the file
        does not hold raises ExtractionError; a malformed file raises ValueError
        naming the file and the JSON pointer of the value at fault, as in
        ``<file>: /c1/0: expected a string, got int``."""
        try:
            transcripts = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(transcripts, dict):
            raise ValueError(f"{path}: expected an object of case ids, "
                             f"got {type(transcripts).__name__}")
        if case_id not in transcripts:
            raise ExtractionError(case_id, "no transcript for case")
        pointer = "/" + case_id.replace("~", "~0").replace("/", "~1")  # RFC 6901 escapes
        replies = transcripts[case_id]
        if not isinstance(replies, list) or not replies:
            got = "an empty list" if replies == [] else type(replies).__name__
            raise ValueError(f"{path}: {pointer}: expected a non-empty list of strings, got {got}")
        for i, reply in enumerate(replies):
            if not isinstance(reply, str):
                raise ValueError(f"{path}: {pointer}/{i}: expected a string, "
                                 f"got {type(reply).__name__}")
        return cls(replies)

    def complete(self, system_text: str, user_parts: tuple[PromptPart, ...]) -> str:
        reply = self._replies[min(self.calls, len(self._replies) - 1)]
        self.calls += 1
        return reply


class HttpTransport:
    """Chat-completions client (bearer token from the `API_KEY_ENV` variable).

    The token is an unredirected header, so no redirect target receives it.
    """

    def __init__(self, endpoint_url: str, model_name: str):
        self.endpoint_url = endpoint_url
        self.model_name = model_name

    def complete(self, system_text: str, user_parts: tuple[PromptPart, ...]) -> str:
        import urllib.error
        import urllib.request

        content: list[dict] = []
        for part in user_parts:
            if part.kind == "text":
                content.append({"type": "text", "text": part.text})
            else:
                content.append({
                    "type": "image_url",
                    "image_url": {"url": f"data:{part.media_type};base64,{part.data_base64}"},
                })
        body = {
            "model": self.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": content},
            ],
        }
        request = urllib.request.Request(self.endpoint_url,
                                         data=json.dumps(body).encode("utf-8"),
                                         headers={"Content-Type": "application/json"},
                                         method="POST")
        if request.type not in ("http", "https"):
            raise ValueError(f"endpoint {self.endpoint_url!r} is not an http or https URL")
        key = os.environ.get(API_KEY_ENV, "")
        if key:
            request.add_unredirected_header("Authorization", f"Bearer {key}")
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                return json.load(response)["choices"][0]["message"]["content"]
        except urllib.error.HTTPError as error:
            error.close()  # the error holds the reply and its connection
            raise


def _strip_fences(reply: str) -> str:
    text = reply.strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline != -1 and text.endswith("```"):
            text = text[first_newline + 1:-3].strip()
    return text


@dataclass(frozen=True)
class ExtractionOutcome:
    spec: ScenarioSpec
    retries: int                   # failed attempts over both passes


def _issues_text(issues: list[ValidationIssue]) -> str:
    lines = [f"- {issue.path}: {issue.message}" +
             (f" (allowed: {', '.join(issue.allowed)})" if issue.allowed else "")
             for issue in issues]
    return "The previous document was rejected:\n" + "\n".join(lines) + \
        "\nReply with a corrected document."


def _converse(transport: ChatTransport, bundle: PromptBundle,
              case_id: str) -> tuple[ScenarioSpec, int]:
    """The first conforming document, with the number of attempts that failed before it."""
    parts = bundle.user_parts
    issues: list[ValidationIssue] = []
    for attempt in range(MAX_RETRIES + 1):
        reply = transport.complete(bundle.system_text, parts)
        result = dsl.parse_and_validate(_strip_fences(reply))
        if isinstance(result, ScenarioSpec):
            return result, attempt
        issues = result
        parts = parts + (PromptPart("text", text=_issues_text(issues)),)
    raise ExtractionError(case_id, f"no conforming document after {MAX_RETRIES + 1} attempts", issues)


def run_extraction(report: CrashReport, transport: ChatTransport) -> ExtractionOutcome:
    """Extraction pass, retry-on-issues loop, then the validation pass."""
    try:
        draft, draft_retries = _converse(transport, build_extraction_prompt(report),
                                         report.case_id)
        final, final_retries = _converse(transport, build_validation_prompt(draft, report),
                                         report.case_id)
    except ExtractionError:
        raise
    except Exception as exc:  # transport failures surface with the case id
        raise ExtractionError(report.case_id, f"transport failure: {exc}") from exc
    return ExtractionOutcome(final, draft_retries + final_retries)
