"""Report bytes pinned across refactors of the rule monitor.

Criterion 4 compares two runs of the same code, so a change that moves a
verdict or an evidence float in both runs alike passes it.  These digests
were recorded before the monitor was rebuilt around one view per trace;
any change to them means the monitor's output changed.
"""

from __future__ import annotations

import hashlib

import pytest

from scenforge import rules, sampling, sim

from .conftest import EXPECTED_RULE_COUNTS, MULTI_ACTOR_DOCUMENTS, load_document_template

SEEDS = range(50)

# SHA-256 of report.to_json() over SEEDS, one digest per document.
PINNED_REPORT_SHA256 = {
    "straight-1": "071c077b2b67210ce334d92be00f8bd8c94a67227ebe7b408f284a39b8f71e50",
    "straight-2": "103e799d4007323105374e084cace0f24c859085031e3ae47a3ceca8dde609f7",
    "intersection-1": "f47a706d44f1550e9a0c33b9fdff26f7e211c4723cb7b6ac0479ae3ab5f5cd64",
    "intersection-2": "df1f51d9c49604d5bb879c66087c21be6ab03bfb9171dc30aac9dfc0678f7440",
    "t-intersection": "30991f9b91c9198761ed73812cfbeb1712e16373f1813e83eb4fc376279243af",
    "curve": "fcadd44cc92a393e57f3e5b91b96c0dec305a322e649a2a6bdc9a85f60d15e8b",
    "intersection-1-multi": "38b49e9f6ff48cd23d426b76d04892141775d5e75a33a3759676021f8f109c38",
    "curve-multi": "7ed3f0dcb3b50eaab6314eb398f7211f1f0b94bb22b8237b0e31349f45832e55",
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
