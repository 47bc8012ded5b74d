"""Report bytes pinned across refactors of the rule monitor.

Criterion 4 compares two runs of the same code, so a change that moves a
verdict or an evidence float in both runs alike passes it.  These digests
were recorded before the monitor was rebuilt around one view per trace;
any change to them means the monitor's output changed.

The reloaded digests pin the path of `scenforge monitor`: reports of traces
written by `sim.trace_to_jsonl` and read back by `sim.trace_from_jsonl`.
They were recorded before the trace became columnar.

The straight-1, straight-2, curve and curve-multi digests of both tables
were recorded again when `max_lateral_m` became the peak over the
violation's own frames, to 6 significant digits (the verdicts, the
violated (rule, actor) pairs and the windows of every pinned report stayed
the same).
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import rules, sampling, sim

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template

SEEDS = range(50)

# SHA-256 of report.to_json() over SEEDS, one digest per document.
PINNED_REPORT_SHA256 = {
    "straight-1": "42cd533046715b35a0d6bf5a56c5badb9a597171a6adcbab64a9bff6114dd215",
    "straight-2": "7547f3d14c45c5b9f8f2483723f916ec1838aae07cffa35169c1f7ac8974288a",
    "intersection-1": "f47a706d44f1550e9a0c33b9fdff26f7e211c4723cb7b6ac0479ae3ab5f5cd64",
    "intersection-2": "df1f51d9c49604d5bb879c66087c21be6ab03bfb9171dc30aac9dfc0678f7440",
    "t-intersection": "30991f9b91c9198761ed73812cfbeb1712e16373f1813e83eb4fc376279243af",
    "curve": "f94b74f6bbce016ddc30008e20c1bc5680441801aee4b66d4b45246a8fbbc7f9",
    "intersection-1-multi": "38b49e9f6ff48cd23d426b76d04892141775d5e75a33a3759676021f8f109c38",
    "curve-multi": "51d7abacf05da5f5c2fc089fbff94d309bc97e2b44a266e4b6d0720703ba341f",
}


# SHA-256 of the reports of reloaded traces over SEEDS, one digest per document.
PINNED_RELOADED_REPORT_SHA256 = {
    "straight-1": "42cd533046715b35a0d6bf5a56c5badb9a597171a6adcbab64a9bff6114dd215",
    "straight-2": "aaa0721a7e1f5791125334ed8994c2e21ae40ec0f5f84c4651cbef87ea89975f",
    "intersection-1": "2ccb2bcfc8c9db5f4efd74ba9a80543aa3cbe7e7aea38401303c7af12b057b86",
    "intersection-2": "b49d6b1b3bf376a496b0740a5c6c1cabceb02ce5bd350fda583717737e7a8db1",
    "t-intersection": "ef571a19c1a6340f0429cf6496605e2edc15e3211a15c18fe5769177ff7a4cf0",
    "curve": "a54680ec2e8ba18a3df20774af60d45400dfec200dd73f29c606c9642ae19c4f",
    "intersection-1-multi": "743b0c7744045157cee380a015c9e814d2690aa57895999233bc0f67fcd51052",
    "curve-multi": "c603ef01326ebdc1abce23f2a01b8447683c091fbe10340b2897c4f258081d06",
}


def _report_digest(name: str) -> str:
    template = load_document_template(name)
    geometry = sim.build_geometry(template)
    digest = hashlib.sha256()
    for seed in SEEDS:
        trace = sim.simulate(sampling.sample_instance(template, seed), geometry)
        report = rules.monitor(trace, template.params.oracle, geometry)
        digest.update(report.to_json().encode("utf-8"))
    return digest.hexdigest()


def test_pins_cover_every_fixture_and_both_multi_actor_documents():
    assert set(PINNED_REPORT_SHA256) == set(EXPECTED_RULE_COUNTS) | set(MULTI_ACTOR_DOCUMENTS)


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_SHA256))
def test_report_bytes_match_pinned_digest(name):
    assert _report_digest(name) == PINNED_REPORT_SHA256[name]


def _reloaded_report_digest(name: str) -> str:
    template = load_document_template(name)
    geometry = sim.build_geometry(template)
    digest = hashlib.sha256()
    for seed in SEEDS:
        text = sim.trace_to_jsonl(sim.simulate(sampling.sample_instance(template, seed), geometry))
        reloaded = sim.trace_from_jsonl(text)
        assert sim.trace_to_jsonl(reloaded) == text
        report = rules.monitor(reloaded, template.params.oracle, geometry)
        digest.update(report.to_json().encode("utf-8"))
    return digest.hexdigest()


def test_reloaded_pins_cover_the_same_documents():
    assert set(PINNED_RELOADED_REPORT_SHA256) == set(PINNED_REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(PINNED_RELOADED_REPORT_SHA256))
def test_reloaded_trace_round_trips_and_its_report_matches_pinned_digest(name):
    assert _reloaded_report_digest(name) == PINNED_RELOADED_REPORT_SHA256[name]
