"""Chain runner, manifest hashing, gap report."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gapforge.pipeline import (
    GapReport,
    PipelineManifest,
    StageRecord,
    report_gap,
    run_chain,
    verify_manifest,
)
from gapforge.serialize import canonical_bytes


def test_chain_id2_all_pass(lc_id2):
    doc = run_chain(lc_id2, g=1, box=2)
    assert doc["all_checks_passed"] is True
    assert doc["completeness"]["natural_exists"] is True
    assert doc["manifest_consistent"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "ssat_natural_norm_is_1" in names
    assert "lhp_round_trip_identity" in names


def test_chain_share_ncp_row(lc_share):
    doc = run_chain(lc_share, g=1, box=2)
    stages = {row["stage"]: row for row in doc["gap_report"]["rows"]}
    assert stages["ncp"]["completeness_value"] == "2/1"
    assert stages["ncp"]["oracle_minimum"] == "2/1"
    assert stages["ncp"]["ratio"] == "1/1"


def test_chain_manifest_hashes_link(lc_id2):
    doc = run_chain(lc_id2)
    stages = doc["manifest"]["stages"]
    assert stages[0]["output_hash"] == stages[1]["input_hash"]
    assert stages[1]["output_hash"] == stages[2]["input_hash"]
    # the pipeline branches at SIS: the LHP stage consumes the SIS hash too
    assert stages[3]["input_hash"] == stages[1]["output_hash"]


def test_chain_deterministic_bytes(lc_cyc):
    assert canonical_bytes(run_chain(lc_cyc, g=1, box=2)) == canonical_bytes(
        run_chain(lc_cyc, g=1, box=2)
    )


def test_verify_manifest_accepts_dag():
    manifest = PipelineManifest(
        stages=(
            StageRecord("a2b", "h0", "h1", {}),
            StageRecord("b2c", "h1", "h2", {}),
            StageRecord("b2d", "h1", "h3", {}),
        ),
        gap_params={},
    )
    assert verify_manifest(manifest)


def test_verify_manifest_rejects_unknown_input():
    manifest = PipelineManifest(
        stages=(
            StageRecord("a2b", "h0", "h1", {}),
            StageRecord("x2y", "h9", "h2", {}),
        ),
        gap_params={},
    )
    assert not verify_manifest(manifest)


def test_report_gap_rows():
    report = report_gap(
        {
            "ssat": {"completeness_value": Fraction(1), "oracle_minimum": Fraction(2)},
            "sis": {"completeness_value": Fraction(2), "oracle_minimum": None},
        },
    )
    rows = {r.stage: r for r in report.rows}
    assert rows["ssat"].ratio == 2
    assert rows["sis"].oracle_minimum is None and rows["sis"].ratio is None
    doc = report.to_document()
    assert doc["rows"][0]["ratio"] == "2/1"


def test_report_gap_requires_results():
    with pytest.raises(ValueError):
        report_gap({})


def test_gap_report_document_shape():
    report = GapReport(rows=())
    assert report.to_document() == {"rows": []}
