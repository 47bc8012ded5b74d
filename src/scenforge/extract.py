"""Crash-report extraction through a pluggable chat-completion endpoint.

Two prompt builders (extraction, then a field-by-field validation pass)
plus a driver loop that refuses to return anything the strict parser and
validator do not accept: parse issues feed back into a retry prompt up
to the configured limit.  The transport is abstract; the HTTP client
speaks the common chat-completions JSON shape, and fixture playback
replays canned replies for fully offline runs.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Protocol

from . import dsl
from .dsl import ScenarioSpec, ValidationIssue

MIN_EXEMPLARS = 2


@dataclass(frozen=True)
class CrashReport:
    case_id: str
    summary_text: str
    sketch: tuple[bytes, str] | None = None     # payload, media type
    rule_context: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.summary_text:
            raise ValueError("summary_text must not be empty")


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


@dataclass(frozen=True)
class ClientConfig:
    endpoint_url: str = ""
    model_name: str = ""
    api_key_source: str = "SCENFORGE_API_KEY"
    max_retries: int = 2
    timeout_s: float = 60.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


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
    """Replays canned replies keyed by case id; never touches the network.

    When a case's reply list runs out, the last reply repeats, so a
    single-reply transcript serves both pipeline passes.
    """

    def __init__(self, transcripts: dict[str, list[str]]):
        self._transcripts = {k: list(v) for k, v in transcripts.items()}
        self._cursor: dict[str, int] = {}
        self.calls = 0
        self._active_case: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureTransport":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def bind_case(self, case_id: str) -> None:
        self._active_case = case_id

    def complete(self, system_text: str, user_parts: tuple[PromptPart, ...]) -> str:
        self.calls += 1
        case_id = self._active_case
        if case_id is None or case_id not in self._transcripts:
            raise ExtractionError(case_id or "<unbound>", "no transcript for case")
        replies = self._transcripts[case_id]
        index = self._cursor.get(case_id, 0)
        reply = replies[min(index, len(replies) - 1)]
        self._cursor[case_id] = index + 1
        return reply


class HttpTransport:
    """Chat-completions client (bearer token from the configured env var)."""

    def __init__(self, config: ClientConfig):
        self._config = config

    def complete(self, system_text: str, user_parts: tuple[PromptPart, ...]) -> str:
        import requests

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
            "model": self._config.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": content},
            ],
        }
        key = os.environ.get(self._config.api_key_source, "")
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        response = requests.post(self._config.endpoint_url, json=body,
                                 headers=headers, timeout=self._config.timeout_s)
        response.raise_for_status()
        return response.json()["choices"][0]["message"]["content"]


def _strip_fences(reply: str) -> str:
    text = reply.strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline != -1 and text.endswith("```"):
            text = text[first_newline + 1:-3].strip()
    return text


@dataclass
class ExtractionOutcome:
    spec: ScenarioSpec
    retries: int
    attempts: int
    replies: list[str] = field(default_factory=list)


def _issues_text(issues: list[ValidationIssue]) -> str:
    lines = [f"- {issue.path}: {issue.message}" +
             (f" (allowed: {', '.join(issue.allowed)})" if issue.allowed else "")
             for issue in issues]
    return "The previous document was rejected:\n" + "\n".join(lines) + \
        "\nReply with a corrected document."


def _converse(transport: ChatTransport, bundle: PromptBundle, case_id: str,
              max_retries: int, outcome: ExtractionOutcome) -> ScenarioSpec:
    parts = bundle.user_parts
    issues: list[ValidationIssue] = []
    for attempt in range(max_retries + 1):
        reply = transport.complete(bundle.system_text, parts)
        outcome.attempts += 1
        outcome.replies.append(reply)
        result = dsl.parse_and_validate(_strip_fences(reply))
        if isinstance(result, ScenarioSpec):
            return result
        issues = result
        outcome.retries += 1
        parts = parts + (PromptPart("text", text=_issues_text(issues)),)
    raise ExtractionError(case_id, f"no conforming document after {max_retries + 1} attempts", issues)


def run_extraction(report: CrashReport, client: ClientConfig,
                   transport: ChatTransport | None = None) -> ExtractionOutcome:
    """Extraction pass, retry-on-issues loop, then the validation pass."""
    if transport is None:
        transport = HttpTransport(client)
    if isinstance(transport, FixtureTransport):
        transport.bind_case(report.case_id)

    outcome = ExtractionOutcome(spec=None, retries=0, attempts=0)  # type: ignore[arg-type]
    try:
        draft = _converse(transport, build_extraction_prompt(report), report.case_id,
                          client.max_retries, outcome)
        final = _converse(transport, build_validation_prompt(draft, report), report.case_id,
                          client.max_retries, outcome)
    except ExtractionError:
        raise
    except Exception as exc:  # transport failures surface with the case id
        raise ExtractionError(report.case_id, f"transport failure: {exc}") from exc
    outcome.spec = final
    return outcome


def extract_and_validate(report: CrashReport, client: ClientConfig,
                         transport: ChatTransport | None = None) -> ScenarioSpec:
    """Extract, enforce the schema, run the validation pass; returns the final spec."""
    return run_extraction(report, client, transport).spec
