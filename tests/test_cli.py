"""CLI: subcommands, exit codes, diagnostics, reproducibility."""

from __future__ import annotations

import json

import pytest

from gapforge import fixtures as shipped
from gapforge.cli import main
from gapforge.serialize import read_instance, write_instance


@pytest.fixture()
def lc_cyc_path(tmp_path):
    path = tmp_path / "lc_cyc.json"
    write_instance(path, shipped.load("lc_cyc"))
    return path


@pytest.fixture()
def lc_id2_path(tmp_path):
    path = tmp_path / "lc_id2.json"
    write_instance(path, shipped.load("lc_id2"))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_reduce_lc2ssat(tmp_path, capsys, lc_cyc_path):
    out = tmp_path / "ssat.json"
    code, doc = run(capsys, "reduce", "lc2ssat", "--in", str(lc_cyc_path), "--out", str(out))
    assert code == 0
    ssat = read_instance(out, "ssat")
    assert len(ssat.tests) == 2


def test_reduce_missing_file(tmp_path, capsys):
    code, doc = run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert doc["error"]["type"] == "FileNotFound"


def test_reduce_chain_files(tmp_path, capsys, lc_id2_path):
    ssat = tmp_path / "ssat.json"
    sis = tmp_path / "sis.json"
    ncp = tmp_path / "ncp.json"
    lhp = tmp_path / "lhp.json"
    assert run(capsys, "reduce", "lc2ssat", "--in", str(lc_id2_path), "--out", str(ssat))[0] == 0
    assert run(capsys, "reduce", "ssat2sis", "--in", str(ssat), "--out", str(sis))[0] == 0
    assert run(capsys, "reduce", "sis2ncp", "--in", str(sis), "--out", str(ncp), "--g", "1")[0] == 0
    assert run(capsys, "reduce", "sis2lhp", "--in", str(sis), "--out", str(lhp))[0] == 0
    assert read_instance(ncp, "ncp").modulus == 3
    assert read_instance(lhp, "lhp").u_param == 2


def test_reduce_sis_text_output(tmp_path, capsys, lc_id2_path):
    ssat = tmp_path / "ssat.json"
    sis_txt = tmp_path / "sis.txt"
    run(capsys, "reduce", "lc2ssat", "--in", str(lc_id2_path), "--out", str(ssat))
    code, _ = run(capsys, "reduce", "ssat2sis", "--in", str(ssat), "--out", str(sis_txt), "--text")
    assert code == 0
    from gapforge.serialize import sis_from_text

    sis = sis_from_text(sis_txt.read_text())
    assert sis.bound == 1


def test_solve_lc(capsys, lc_cyc_path):
    code, doc = run(capsys, "solve", "lc", "--in", str(lc_cyc_path))
    assert code == 0
    assert doc["optimum"] == "3/4"


def test_solve_ssat_modes(tmp_path, capsys, lc_cyc_path):
    ssat = tmp_path / "ssat.json"
    run(capsys, "reduce", "lc2ssat", "--in", str(lc_cyc_path), "--out", str(ssat))
    code, doc = run(capsys, "solve", "ssat", "--in", str(ssat), "--box", "2", "--mode", "l1")
    assert code == 0 and doc["optimum"] == "2/1"
    code, doc = run(capsys, "solve", "ssat", "--in", str(ssat), "--box", "2", "--mode", "linf")
    assert code == 0 and doc["optimum"] == "2/1"


def test_solve_sis_and_ncp_and_lhp(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"),
        "--out", str(tmp_path / "sis.json"))
    code, doc = run(capsys, "solve", "sis", "--in", str(tmp_path / "sis.json"), "--box", "2")
    assert code == 0 and doc["optimum"] == 2
    run(capsys, "reduce", "sis2ncp", "--in", str(tmp_path / "sis.json"),
        "--out", str(tmp_path / "ncp.json"), "--g", "1")
    code, doc = run(capsys, "solve", "ncp", "--in", str(tmp_path / "ncp.json"), "--full-field")
    assert code == 0 and doc["optimum"] == 2 and doc["mode"] == "full"
    run(capsys, "reduce", "sis2lhp", "--in", str(tmp_path / "sis.json"),
        "--out", str(tmp_path / "lhp.json"), "--u", "10")
    code, doc = run(capsys, "solve", "lhp", "--in", str(tmp_path / "lhp.json"))
    assert code == 0 and doc["optimum"] == 2


def test_check_consistency(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    from gapforge.superassign import SuperAssignment

    write_instance(tmp_path / "good.json", SuperAssignment.from_rows(((1, 0), (1, 0))))
    write_instance(tmp_path / "bad.json", SuperAssignment.from_rows(((1, 0), (0, 1))))
    code, doc = run(capsys, "check", "consistency", "--in", str(tmp_path / "ssat.json"),
                    "--super", str(tmp_path / "good.json"))
    assert code == 0 and doc["consistent"] is True
    code, doc = run(capsys, "check", "consistency", "--in", str(tmp_path / "ssat.json"),
                    "--super", str(tmp_path / "bad.json"))
    assert code == 1 and doc["witness"]["variable"] == "x"


def test_check_claims(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    code, doc = run(capsys, "check", "claims", "--in", str(tmp_path / "ssat.json"), "--box", "2")
    assert code == 0
    assert doc["all_hold"] is True
    assert doc["checked"] > 0


def test_check_agreement(capsys, lc_cyc_path):
    code, doc = run(capsys, "check", "agreement", "--in", str(lc_cyc_path), "--l", "2")
    assert code == 0
    assert doc["s_agr"] == "1/2"
    assert doc["s_list_exact"] == "1/1"
    assert doc["bound_holds"] is True


def test_check_lists(capsys, lc_cyc_path):
    code, doc = run(capsys, "check", "lists", "--in", str(lc_cyc_path), "--g", "2",
                    "--derandomize")
    assert code == 0
    assert doc["defeats"] is True
    assert doc["fraction"] == "1/1"


def test_check_chain_pass(capsys, lc_id2_path):
    code, doc = run(capsys, "check", "chain", "--in", str(lc_id2_path), "--g", "1")
    assert code == 0
    assert doc["all_checks_passed"] is True
    assert doc["manifest_consistent"] is True


def test_check_chain_byte_identical(tmp_path, capsys, lc_id2_path):
    code1 = main(["check", "chain", "--in", str(lc_id2_path), "--g", "1", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["check", "chain", "--in", str(lc_id2_path), "--g", "1", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_from_chain(tmp_path, capsys, lc_id2_path):
    chain = tmp_path / "chain.json"
    run(capsys, "check", "chain", "--in", str(lc_id2_path), "--out", str(chain))
    code, doc = run(capsys, "report", "--in", str(chain))
    assert code == 0
    stages = {row["stage"]: row for row in doc["rows"]}
    assert stages["ssat"]["ratio"] == "1/1"
    assert stages["sis"]["ratio"] == "1/1"
    assert stages["ncp"]["ratio"] == "1/1"
    assert stages["lhp"]["ratio"] == "1/1"


def test_report_text_table(tmp_path, capsys, lc_id2_path):
    chain = tmp_path / "chain.json"
    run(capsys, "check", "chain", "--in", str(lc_id2_path), "--out", str(chain))
    code = main(["report", "--in", str(chain), "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage" in out and "ssat" in out


def test_gap_witness_on_cyc(tmp_path, capsys, lc_cyc_path):
    chain = tmp_path / "chain.json"
    code, doc = run(capsys, "check", "chain", "--in", str(lc_cyc_path), "--g", "1",
                    "--out", str(chain))
    # no natural solution exists on this instance; nothing to check, no failure
    assert doc["completeness"]["natural_exists"] is False
    stages = {row["stage"]: row for row in doc["gap_report"]["rows"]}
    assert stages["ssat"]["oracle_minimum"] == "2/1"
    assert stages["ssat"]["ratio"] == "2/1"
    # the SIS target is unreachable: an infinite gap witness
    assert stages["sis"]["oracle_minimum"] is None
    assert stages["sis"]["ratio"] is None


def test_gen_cli(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code, doc = run(capsys, "gen", "lc", "--num-a", "4", "--num-b", "3", "--d-b", "2",
                    "--sigma-a", "2", "--sigma-b", "2", "--p", "1", "--seed", "5",
                    "--with-oracle", "--out", str(out))
    assert code == 0
    assert doc["metadata"]["oracle_value"] == "1/1"
    lc = read_instance(out, "label_cover")
    assert len(lc.a_vertices) == 4
    meta = json.loads((tmp_path / "gen.json.meta.json").read_text())
    assert meta["planted"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "nonsense", "--in", "x.json"])
    assert exc.value.code == 2


def test_max_states_env_override(tmp_path, capsys, monkeypatch, lc_cyc_path):
    monkeypatch.setenv("GAPFORGE_MAX_STATES", "2")
    code, doc = run(capsys, "solve", "lc", "--in", str(lc_cyc_path))
    assert code == 1
    assert doc["error"]["type"] == "SearchSpaceTooLarge"


def test_gen_from_spec_file(tmp_path, capsys):
    spec = {"num_a": 2, "num_b": 2, "d_b": 2, "sigma_a": 2, "sigma_b": 2,
            "p": 1, "planted": True, "seed": 16}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "lc.json"
    code, doc = run(capsys, "gen", "lc", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(out))
    assert code == 0
    lc = read_instance(out, "label_cover")
    # seed 16 yields the all-identity planted 2x2 instance
    assert all(lc.projections[e] == {0: 0, 1: 1} for e in lc.edges)
    # a flag overrides the file
    code, doc = run(capsys, "gen", "lc", "--spec", str(tmp_path / "spec.json"),
                    "--seed", "17", "--out", str(out))
    assert code == 0
    assert doc["metadata"]["seed"] == 17


def test_gen_missing_fields(tmp_path, capsys):
    code, doc = run(capsys, "gen", "lc", "--num-a", "2", "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert doc["error"]["type"] == "InfeasibleSpec"


# ---------------------------------------------------------------------------
# Budget inputs are usage errors; malformed files end in the error envelope
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "lc", "--box", "-1"),
        ("solve", "lc", "--box", "0"),
        ("check", "chain", "--box", "0"),
    ],
    ids=["solve-box-negative", "solve-box-zero", "chain-box-zero"],
)
def test_box_below_one_is_usage_error(capsys, lc_id2_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(lc_id2_path)])
    assert exc.value.code == 2
    assert "--box: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_max_states_env_must_be_non_negative_integer(capsys, monkeypatch, lc_id2_path, raw):
    monkeypatch.setenv("GAPFORGE_MAX_STATES", raw)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "lc", "--in", str(lc_id2_path)])
    assert exc.value.code == 2
    assert "GAPFORGE_MAX_STATES must be a non-negative integer" in capsys.readouterr().err


def test_zero_denominator_fraction_is_malformed(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    run(capsys, "reduce", "sis2lhp", "--in", str(tmp_path / "sis.json"), "--out", str(tmp_path / "lhp.json"))
    doc = json.loads((tmp_path / "lhp.json").read_text())
    doc["inequalities"][0]["rhs"] = "1/0"
    (tmp_path / "lhp.json").write_text(json.dumps(doc))
    code, out = run(capsys, "solve", "lhp", "--in", str(tmp_path / "lhp.json"))
    assert code == 1
    assert out["error"]["type"] == "MalformedInstance"


def test_report_on_truncated_json(tmp_path, capsys, lc_id2_path):
    chain = tmp_path / "chain.json"
    run(capsys, "check", "chain", "--in", str(lc_id2_path), "--out", str(chain))
    chain.write_bytes(chain.read_bytes()[:100])
    code, doc = run(capsys, "report", "--in", str(chain))
    assert code == 1
    assert doc["error"]["type"] == "SchemaViolation"


def test_report_on_chain_report_without_gap_report(tmp_path, capsys, lc_id2_path):
    chain = tmp_path / "chain.json"
    run(capsys, "check", "chain", "--in", str(lc_id2_path), "--out", str(chain))
    doc = json.loads(chain.read_text())
    del doc["gap_report"]
    chain.write_text(json.dumps(doc))
    code, out = run(capsys, "report", "--in", str(chain), "--text")
    assert code == 1
    assert out["error"]["type"] == "SchemaViolation"


def test_gen_from_truncated_spec_file(tmp_path, capsys):
    (tmp_path / "spec.json").write_text('{"num_a": 2, "num_b"')
    code, doc = run(capsys, "gen", "lc", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / "lc.json"))
    assert code == 1
    assert doc["error"]["type"] == "SchemaViolation"
