"""CLI: subcommands, exit codes, diagnostics, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapforge
from gapforge import fixtures as shipped
from gapforge.cli import main
from gapforge.serialize import SCHEMA_VERSION, read_instance, write_instance


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


def test_check_claims_given_super(tmp_path, capsys):
    """A consistent ``--super`` file is the one candidate; an inconsistent one is an error."""
    from gapforge.superassign import SuperAssignment

    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    write_instance(tmp_path / "good.json", SuperAssignment.from_rows(((1, 0), (1, 0))))
    write_instance(tmp_path / "bad.json", SuperAssignment.from_rows(((1, 0), (0, 1))))
    code, doc = run(capsys, "check", "claims", "--in", str(tmp_path / "ssat.json"),
                    "--super", str(tmp_path / "good.json"))
    assert code == 0 and doc["checked"] == 1 and doc["all_hold"] is True
    code, doc = run(capsys, "check", "claims", "--in", str(tmp_path / "ssat.json"),
                    "--super", str(tmp_path / "bad.json"))
    assert code == 1 and doc["error"]["type"] == "InconsistentInput"


def test_check_claims_checks_consistency_at_most_four_times_per_candidate(tmp_path, capsys, monkeypatch):
    """Bad-array sums, zeroing, the re-check of the zeroed copy and one classification of all tests."""
    import gapforge.superassign as superassign
    from gapforge.reductions import lc_to_ssat

    calls = []
    checker = superassign.is_consistent

    def counted(*args):
        calls.append(None)
        return checker(*args)

    for module in (gapforge.cli, superassign):
        monkeypatch.setattr(module, "is_consistent", counted)
    write_instance(tmp_path / "ssat.json", lc_to_ssat(shipped.load("lc_share")))
    code, doc = run(capsys, "check", "claims", "--in", str(tmp_path / "ssat.json"), "--box", "2")
    assert code == 0 and doc["checked"] == 25
    assert 0 < len(calls) <= 4 * doc["checked"]


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
    code1 = main(["check", "chain", "--in", str(lc_id2_path), "--g", "1"])
    out1 = capsys.readouterr().out
    code2 = main(["check", "chain", "--in", str(lc_id2_path), "--g", "1"])
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


def test_reduce_sis2lhp_refuses_g_below_one(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    code, doc = run(capsys, "reduce", "sis2lhp", "--in", str(tmp_path / "sis.json"),
                    "--out", str(tmp_path / "lhp.json"), "--g", "0")
    assert code == 1 and doc["error"]["type"] == "BadParameters"
    assert not (tmp_path / "lhp.json").exists()


def test_solve_ncp_full_field_over_a_huge_modulus_hits_the_cap(tmp_path, capsys, monkeypatch):
    """A 2^61 - 1 field is walked lazily, so the cap ends the search at once."""
    from naive import replace

    from gapforge.reductions import sis_to_ncp, ssat_to_sis

    ncp = sis_to_ncp(ssat_to_sis(shipped.load("ssat_share")), g=1)
    write_instance(tmp_path / "ncp.json", replace(ncp, modulus=2 ** 61 - 1))
    monkeypatch.setenv("GAPFORGE_MAX_STATES", "10")
    code, doc = run(capsys, "solve", "ncp", "--in", str(tmp_path / "ncp.json"), "--full-field")
    assert code == 1 and doc["error"]["type"] == "SearchSpaceTooLarge"


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
        ("solve", "sis", "--box", "-1"),
        ("solve", "sis", "--box", "0"),
        ("check", "chain", "--box", "0"),
    ],
    ids=["solve-box-negative", "solve-box-zero", "chain-box-zero"],
)
def test_box_below_one_is_usage_error(capsys, lc_id2_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(lc_id2_path)])
    assert exc.value.code == 2
    assert "--box: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "1/0"])
def test_s_list_must_be_a_fraction(capsys, lc_id2_path, raw):
    with pytest.raises(SystemExit) as exc:
        main(["check", "lists", "--in", str(lc_id2_path), "--s-list", raw])
    assert exc.value.code == 2
    assert "--s-list: must be a fraction" in capsys.readouterr().err


def test_s_list_one_half_is_error_envelope(capsys, lc_id2_path):
    """g1 = g (1 - s) / (1 - 2 s) has no value at s = 1/2; the range is checked first."""
    code, doc = run(capsys, "check", "lists", "--in", str(lc_id2_path), "--s-list", "1/2")
    assert code == 1
    assert doc["error"]["type"] == "MalformedInstance"
    assert "Traceback" not in capsys.readouterr().err


_GEN_LC = "gen lc --num-a 2 --num-b 1 --d-b 2 --sigma-a 2 --sigma-b 2 --p 1"
# each line ends in a flag its verb would ignore, or in the second of two that contradict each other
_REFUSED = [
    *(f"reduce lc2ssat --in lc.json {flag}" for flag in ("--g 2", "--d-rep 2", "--q 5", "--u 3", "--text")),
    *(f"reduce ssat2sis --in ssat.json {flag}" for flag in ("--g 2", "--d-rep 2", "--q 5", "--u 3")),
    "reduce sis2ncp --in sis.json --u 3",
    *(f"reduce sis2lhp --in sis.json {flag}" for flag in ("--d-rep 2", "--q 5", "--text")),
    *(f"solve lc --in lc.json {flag}" for flag in ("--box 1", "--mode linf", "--full-field")),
    "solve ssat --in ssat.json --full-field",
    *(f"solve sis --in sis.json {flag}" for flag in ("--mode linf", "--full-field")),
    "solve ncp --in ncp.json --mode linf",
    *(f"solve lhp --in lhp.json {flag}" for flag in ("--box 1", "--mode linf", "--full-field")),
    "check claims --in ssat.json --super super.json --box 1",
    "check lists --in lc.json --super super.json --box 1",
    "solve ncp --in ncp.json --full-field --box 1",
    f"{_GEN_LC} --flip-seed 3",
    f"{_GEN_LC} --flips 0 --flip-seed 3",
]


@pytest.mark.parametrize("line", _REFUSED)
def test_flag_the_verb_would_ignore_is_usage_error(tmp_path, capsys, monkeypatch, line):
    from gapforge.oracles import SearchBudget, solve_ssat_min_norm
    from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis

    monkeypatch.chdir(tmp_path)
    lc = shipped.load("lc_id2")
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    for name, obj in (("lc", lc), ("ssat", ssat), ("sis", sis), ("ncp", sis_to_ncp(sis, g=1)),
                      ("lhp", sis_to_lhp(sis)), ("super", solve_ssat_min_norm(ssat, SearchBudget()).witness)):
        write_instance(f"{name}.json", obj)
    argv = line.split()
    flag = [token for token in argv if token.startswith("--")][-1]
    if argv[0] in ("gen", "reduce"):
        argv += ["--out", "out.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.glob("out.json*"))


def test_refused_flag_prints_the_verbs_usage(capsys, lc_id2_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "lc", "--in", str(lc_id2_path), "--box", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gapforge solve lc")
    assert "unrecognized arguments: --box 2" in err


def test_gen_negative_flips_is_error_envelope(tmp_path, capsys):
    code, doc = run(capsys, "gen", "lc", "--num-a", "3", "--num-b", "2", "--d-b", "2", "--sigma-a", "2",
                    "--sigma-b", "2", "--p", "1", "--flips", "-1", "--out", str(tmp_path / "lc.json"))
    assert code == 1
    assert doc["error"]["type"] == "InfeasibleSpec"


def test_input_directory_is_error_envelope(tmp_path, capsys):
    code, doc = run(capsys, "solve", "lc", "--in", str(tmp_path))
    assert code == 1
    assert doc["error"]["type"] == "IsADirectoryError"
    assert doc["error"]["path"] == str(tmp_path)


def test_solve_lc_thirty_binary_vertices(tmp_path, capsys):
    """2^30 A-labelings, over the default cap: the walk finishes where a charged box could not."""
    out = tmp_path / "lc.json"
    code, _ = run(capsys, "gen", "lc", "--num-a", "30", "--num-b", "20", "--d-b", "3", "--sigma-a", "2",
                  "--sigma-b", "2", "--p", "1", "--seed", "0", "--out", str(out))
    assert code == 0
    code, doc = run(capsys, "solve", "lc", "--in", str(out))
    assert code == 0
    assert doc["optimum"] == "1/1"


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
    doc["inequalities"][0]["coeff_y"] = "1/0"
    (tmp_path / "lhp.json").write_text(json.dumps(doc))
    code, out = run(capsys, "solve", "lhp", "--in", str(tmp_path / "lhp.json"))
    assert code == 1
    assert out["error"]["type"] == "MalformedInstance"


# (file kind, path into the document, new value, error type) on format-v3 files;
# on ssat_share the first SIS and NCP row is [[0, 1], [1, 1]] over 4 columns, and
# the third LHP inequality is its "+" half, coeff_x x_0 + x_1
_V3_BREAKS = {
    "ncp-multiplicity-zero": ("ncp", ("multiplicity", 0), 0, "MalformedInstance"),
    "lhp-multiplicity-zero": ("lhp", ("inequalities", 2, "multiplicity"), 0, "MalformedInstance"),
    "lhp-zero-coeff-x": ("lhp", ("inequalities", 2, "coeff_x"), [[0, "0/1"], [1, "1/1"]], "MalformedInstance"),
    "lhp-unsorted-coeff-x": ("lhp", ("inequalities", 2, "coeff_x"), [[1, "1/1"], [0, "1/1"]], "MalformedInstance"),
    "lhp-index-out-of-range": ("lhp", ("inequalities", 2, "coeff_x"), [[0, "1/1"], [4, "1/1"]], "MalformedInstance"),
    "ncp-version-1": ("ncp", ("version",), 1, "SchemaViolation"),
    "lhp-version-1": ("lhp", ("version",), 1, "SchemaViolation"),
    "lhp-num-x-float": ("lhp", ("num_x",), 4.0, "SchemaViolation"),
    "lc-sigma-b-float-label": ("lc", ("sigma_b", 1), 1.0, "SchemaViolation"),
    "ncp-matrix-entry-bool": ("ncp", ("matrix", 0, 0, 1), True, "SchemaViolation"),
    "ssat-provenance-lc-version-1": ("ssat", ("provenance", "lc", "version"), 1, "SchemaViolation"),
    "sis-version-2": ("sis", ("version",), 2, "SchemaViolation"),
    **{
        f"{kind}-{case}": (kind, where, value, "MalformedInstance")
        for kind in ("sis", "ncp")
        for case, where, value in (
            ("zero-coefficient", ("matrix", 0, 1, 1), 0),
            ("unsorted-columns", ("matrix", 0), [[1, 1], [0, 1]]),
            ("repeated-column", ("matrix", 0), [[0, 1], [0, 1]]),
            ("column-at-num-cols", ("matrix", 0, 1, 0), 4),
            ("negative-column", ("matrix", 0, 0, 0), -1),
            ("negative-num-cols", ("num_cols",), -1),
        )
    },
}


# the name predates format v3; the cases are the v3 ones
@pytest.mark.parametrize("case", list(_V3_BREAKS))
def test_malformed_v2_file_is_error_envelope(tmp_path, capsys, case):
    kind, where, value, error = _V3_BREAKS[case]
    write_instance(tmp_path / "lc.json", shipped.load("lc_share"))
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    path = tmp_path / f"{kind}.json"
    if kind in ("ncp", "lhp"):
        run(capsys, "reduce", f"sis2{kind}", "--in", str(tmp_path / "sis.json"), "--out", str(path))
    doc = json.loads(path.read_text())
    if kind == "lhp":
        assert doc["inequalities"][2]["coeff_x"] == [[0, "1/1"], [1, "1/1"]]
    if kind in ("sis", "ncp"):
        assert (doc["num_cols"], doc["matrix"][0]) == (4, [[0, 1], [1, 1]])
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve", kind, "--in", str(path))
    assert code == 1
    assert out["error"]["type"] == error
    if where[-1] == "version":
        assert out["error"]["message"].startswith(f"{''.join(f'/{k}' for k in where)}: version {value} is not supported")
        assert f"re-run the step that wrote the file to get version {SCHEMA_VERSION}" in out["error"]["message"]


def test_modulus_beyond_the_prime_test_is_error_envelope(tmp_path, capsys):
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    path = tmp_path / "ncp.json"
    run(capsys, "reduce", "sis2ncp", "--in", str(tmp_path / "sis.json"), "--out", str(path))
    doc = json.loads(path.read_text())
    doc["modulus"] = str(2 ** 89 - 1)  # prime, but beyond the exact test's range
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve", "ncp", "--in", str(path))
    assert code == 1
    assert out["error"]["type"] == "MalformedInstance"
    assert "limit of the exact prime test" in out["error"]["message"]


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


def test_report_on_chain_report_with_a_float_is_a_typed_error(tmp_path, capsys, lc_id2_path):
    """A gap row has exactly the four fields, as ``run_chain`` writes it: a string stage, a string or null in each
    other field; ``all_checks_passed`` is true or false."""
    chain = tmp_path / "chain.json"
    run(capsys, "check", "chain", "--in", str(lc_id2_path), "--out", str(chain))
    written = chain.read_text()
    bad = chain.with_name("bad.json")
    row = "/gap_report/rows/1"
    # (a key of gap row 1, or of the document when it starts with "/"; its value; the pointer refused)
    for key, value, ptr in (("ratio", 1.5, f"{row}/ratio"), ("ratio", [1], f"{row}/ratio"),
                            ("oracle_minimum", {"a": 1}, f"{row}/oracle_minimum"),
                            ("completeness_value", 1.5, f"{row}/completeness_value"),
                            ("stage", None, f"{row}/stage"), ("stage", [1], f"{row}/stage"),
                            ("extra", [2.5], row), ("/all_checks_passed", [1], "/all_checks_passed")):
        doc = json.loads(written)
        if key.startswith("/"):
            doc[key[1:]] = value
        else:
            doc["gap_report"]["rows"][1][key] = value
        bad.write_text(json.dumps(doc))
        for text in ((), ("--text",)):
            code, out = run(capsys, "report", "--in", str(bad), *text)
            assert code == 1, (key, value, text)
            assert out["error"]["type"] == "SchemaViolation"
            assert out["error"]["message"].startswith(f"{ptr}: ")


def test_gen_from_truncated_spec_file(tmp_path, capsys):
    (tmp_path / "spec.json").write_text('{"num_a": 2, "num_b"')
    code, doc = run(capsys, "gen", "lc", "--spec", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / "lc.json"))
    assert code == 1
    assert doc["error"]["type"] == "SchemaViolation"


_GOOD_SPEC = {"num_a": 2, "num_b": 2, "d_b": 2, "sigma_a": 2, "sigma_b": 2, "p": 1, "planted": True, "seed": 3}
# (spec file content, or the keys it changes in _GOOD_SPEC; pointer of the refused node)
_BAD_SPECS = {
    "array": ([1, 2], ""),
    "string-size": ({"num_a": "x"}, "/num_a"),
    "float-size": ({"num_a": 2.0}, "/num_a"),
    "bool-seed": ({"seed": False}, "/seed"),
    "unknown-key": ({"seeed": 5}, ""),
    "integer-planted": ({"planted": 1}, "/planted"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SPECS))
def test_malformed_spec_file_is_schema_violation(tmp_path, capsys, case):
    content, pointer = _BAD_SPECS[case]
    spec = {**_GOOD_SPEC, **content} if isinstance(content, dict) else content
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, doc = run(capsys, "gen", "lc", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "lc.json"))
    assert code == 1
    assert doc["error"]["type"] == "SchemaViolation"
    assert doc["error"]["message"].startswith(f"{pointer}: ")
    assert not (tmp_path / "lc.json").exists()


_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None  # any import of it now raises ImportError
from gapforge.cli import main
steps = [
    ["check", "chain", "--in", "lc_id2.json", "--out", "chain.json"],
    ["reduce", "lc2ssat", "--in", "lc_id2.json", "--out", "ssat.json"],
    ["reduce", "ssat2sis", "--in", "ssat.json", "--out", "sis.json"],
    ["reduce", "sis2ncp", "--in", "sis.json", "--out", "ncp.json", "--g", "1"],
    ["reduce", "sis2lhp", "--in", "sis.json", "--out", "lhp.json"],
    ["solve", "ssat", "--in", "ssat.json"],
    ["solve", "sis", "--in", "sis.json"],
    ["solve", "ncp", "--in", "ncp.json"],
    ["solve", "lhp", "--in", "lhp.json"],
]
sys.exit(max(main(argv) for argv in steps))
"""


def test_cli_runs_without_jsonschema(tmp_path, lc_id2_path):
    src = str(Path(gapforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    (tmp_path / "lc_id2.json").write_bytes(lc_id2_path.read_bytes())
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_JSONSCHEMA], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads((tmp_path / "chain.json").read_text())["kind"] == "chain_report"


# every verb that reads a file, with the nested file as the one it reads first
_READERS = [
    "check chain --in deep.json",
    "check agreement --in deep.json",
    "check lists --in deep.json",
    "check claims --in deep.json",
    "check consistency --in deep.json --super deep.json",
    *(f"solve {kind} --in deep.json" for kind in ("lc", "ssat", "sis", "ncp", "lhp")),
    *(f"reduce {step} --in deep.json --out out.json" for step in ("lc2ssat", "ssat2sis", "sis2ncp", "sis2lhp")),
    "report --in deep.json",
    "report --in deep.json --text",
    "gen lc --spec deep.json --out out.json",
]


@pytest.mark.parametrize("line", _READERS)
def test_json_nested_too_deep_to_parse_is_error_envelope(tmp_path, capsys, monkeypatch, line):
    """An 8 KB file of 2,000 nested arrays exceeds the parser's recursion limit: a typed error, not a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 2000 + "]" * 2000, encoding="utf-8")
    code, doc = run(capsys, *line.split())
    assert code == 1
    assert doc["error"]["type"] == "SchemaViolation"
    assert doc["error"]["message"].startswith(": not valid JSON: ")
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.glob("out.json*"))
