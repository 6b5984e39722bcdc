"""CLI: subcommands, exit codes, diagnostics, reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_instances import FILE_BREAKS, LAYOUT_BREAKS, write_layout_break

import gapforge
from gapforge import fixtures as shipped
from gapforge.cli import main
from gapforge.errors import MalformedInstance
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


def test_missing_in_file_envelope_is_pinned(tmp_path, capsys):
    # the path comes from the FileNotFoundError of opening the file; no check before the open
    missing = tmp_path / "missing.json"
    for verb in (["check", "chain"], ["solve", "lc"], ["report"]):
        assert main([*verb, "--in", str(missing)]) == 1
        assert capsys.readouterr().out == (
            '{\n  "error": {\n    "path": ' + json.dumps(str(missing), ensure_ascii=False)
            + ',\n    "type": "FileNotFound"\n  }\n}\n'
        )


def _flags(**given):
    """``--name value`` for each given value that is not None."""
    return [arg for name, value in given.items() if value is not None
            for arg in (f"--{name.replace('_', '-')}", str(value))]


def test_reduce_chain_files(tmp_path, capsys, lc_id2_path):
    """The steps chain through files, and each one run alone with ``check chain``'s flags writes the bytes
    that the chain's manifest hashes, at default and other parameters."""
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
    for name in ("lc_id2", "lc_cyc", "lc_share", "lc_2to1"):
        lc = tmp_path / f"{name}.json"
        write_instance(lc, shipped.load(name))
        for g, d_rep, q, u in ((1, None, None, None), (2, None, None, None), (2, 50, None, 7), (1, None, 101, None)):
            _, report = run(capsys, "check", "chain", "--in", str(lc), *_flags(g=g, d_rep=d_rep, q=q, u=u))
            stages = {stage["kind"]: stage for stage in report["manifest"]["stages"]}
            out = tmp_path / f"{name}-{g}-{d_rep}-{q}-{u}"
            out.mkdir()
            for step, src, dst, flags in (
                ("lc2ssat", lc, out / "ssat.json", []),
                ("ssat2sis", out / "ssat.json", out / "sis.json", []),
                ("sis2ncp", out / "sis.json", out / "ncp.json", _flags(g=g, d_rep=d_rep, q=q)),
                ("sis2lhp", out / "sis.json", out / "lhp.json", _flags(g=g, u=u)),
            ):
                assert run(capsys, "reduce", step, "--in", str(src), "--out", str(dst), *flags)[0] == 0
                assert stages[step]["input_hash"] == hashlib.sha256(src.read_bytes()).hexdigest(), (name, step)
                assert stages[step]["output_hash"] == hashlib.sha256(dst.read_bytes()).hexdigest(), (name, step)
            settled_ncp, settled_lhp = read_instance(out / "ncp.json", "ncp"), read_instance(out / "lhp.json", "lhp")
            # the manifest records each parameter as the output settled it, which is the given value when one is
            assert stages["sis2ncp"]["parameters"] == {
                "g": g, "d_rep": settled_ncp.replication, "q": settled_ncp.modulus}
            assert stages["sis2lhp"]["parameters"] == {"g": g, "u": settled_lhp.u_param}
            assert d_rep in (None, settled_ncp.replication) and q in (None, settled_ncp.modulus)
            assert u in (None, settled_lhp.u_param)


def test_reduce_sis_text_output(tmp_path, capsys, lc_id2_path):
    ssat = tmp_path / "ssat.json"
    sis_txt = tmp_path / "sis.txt"
    run(capsys, "reduce", "lc2ssat", "--in", str(lc_id2_path), "--out", str(ssat))
    code, _ = run(capsys, "reduce", "ssat2sis", "--in", str(ssat), "--out", str(sis_txt), "--text")
    assert code == 0
    from gapforge.plaintext import sis_from_text

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


def test_check_claims_checks_consistency_twice_per_candidate(tmp_path, capsys, monkeypatch):
    """Consistency of the candidate and of its zeroed copy; the assigned value sets once per candidate."""
    import gapforge.superassign as superassign
    from gapforge.reductions import lc_to_ssat

    calls = []
    for module, name in ((gapforge.cli, "is_consistent"), (superassign, "is_consistent"),
                         (gapforge.cli, "assigned_value_sets"), (superassign, "assigned_value_sets")):
        def counted(*args, _name=name, _f=getattr(module, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    write_instance(tmp_path / "ssat.json", lc_to_ssat(shipped.load("lc_share")))
    code, doc = run(capsys, "check", "claims", "--in", str(tmp_path / "ssat.json"), "--box", "2")
    assert code == 0 and doc["checked"] == 25
    assert calls.count("is_consistent") == 2 * doc["checked"]
    assert calls.count("assigned_value_sets") == doc["checked"]


# sha256 of (cover, box, exit code, stdout) of ``check claims`` on the SSAT image of each label-cover fixture
CLAIMS_DIGEST = "d553b937e84410f7b86a494d3367d12a2a179a0d23b0b28f07feab2e59f38cd2"


def test_check_claims_reports_are_pinned(tmp_path, capsys):
    from gapforge.reductions import lc_to_ssat

    h = hashlib.sha256()
    for name in ("lc_id2", "lc_cyc", "lc_share", "lc_2to1"):
        path = tmp_path / f"{name}.json"
        write_instance(path, lc_to_ssat(shipped.load(name)))
        for box in ("1", "2"):
            code = main(["check", "claims", "--in", str(path), "--box", box])
            h.update(json.dumps([name, box, code, capsys.readouterr().out]).encode() + b"\n")
    assert h.hexdigest() == CLAIMS_DIGEST


# the function each ``reduce`` step and each ``solve`` kind runs, by its name in gapforge.reductions or gapforge.oracles
_STEP_FUNCTIONS = {"lc2ssat": "lc_to_ssat", "ssat2sis": "ssat_to_sis", "sis2ncp": "sis_to_ncp", "sis2lhp": "sis_to_lhp"}
_ORACLE_FUNCTIONS = {"lc": "solve_lc_max", "ssat": "solve_ssat_min_norm", "sis": "solve_sis_min",
                     "ncp": "solve_ncp_min", "lhp": "solve_lhp_min"}


def _counted(target, name: str, calls: list):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return target(*args, **kwargs)

    return wrapper


def test_steps_and_oracles_are_looked_up_when_called(tmp_path, capsys, monkeypatch, lc_id2_path):
    """Every verb reaches a function rebound after import, as the benchmark rebinds them to time each layer.

    Each reduction and oracle is replaced wherever a loaded gapforge module
    binds it, as ``perfbench/spans.py`` does, and ``read_instance`` and
    ``canonical_bytes`` in ``gapforge.cli`` alone, as ``perfbench/cli_child.py``
    does.  A table that held a function object instead of looking its name up
    would miss the replacement.
    """
    from gapforge import oracles, reductions

    calls: list = []
    for module, names in ((reductions, _STEP_FUNCTIONS.values()), (oracles, _ORACLE_FUNCTIONS.values())):
        for name in names:
            target = getattr(module, name)
            wrapper = _counted(target, name, calls)
            for mod_name, loaded in list(sys.modules.items()):
                if loaded is not None and (mod_name == "gapforge" or mod_name.startswith("gapforge.")):
                    for attr in [attr for attr, value in vars(loaded).items() if value is target]:
                        monkeypatch.setattr(loaded, attr, wrapper)
    for name in ("read_instance", "canonical_bytes"):
        monkeypatch.setattr(gapforge.cli, name, _counted(getattr(gapforge.cli, name), name, calls))

    assert run(capsys, "check", "chain", "--in", str(lc_id2_path))[0] == 0
    assert sorted(calls) == sorted(("read_instance", *_STEP_FUNCTIONS.values(), *_ORACLE_FUNCTIONS.values(),
                                    "canonical_bytes"))
    files = {"lc": lc_id2_path, **{kind: tmp_path / f"{kind}.json" for kind in ("ssat", "sis", "ncp", "lhp")}}
    for step, name in _STEP_FUNCTIONS.items():
        calls.clear()
        src, dst = step.split("2")
        assert run(capsys, "reduce", step, "--in", str(files[src]), "--out", str(files[dst]))[0] == 0
        assert calls == ["read_instance", name, "canonical_bytes"], step
    for kind, name in _ORACLE_FUNCTIONS.items():
        calls.clear()
        assert run(capsys, "solve", kind, "--in", str(files[kind]))[0] == 0
        assert calls == ["read_instance", name, "canonical_bytes"], kind


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


def test_check_lists_writes_every_list_when_two_vertex_ids_have_the_same_string_form(tmp_path, capsys):
    # the lists are [vertex, labels] pairs, so the A-vertices 1 and "1" keep one list each
    from gapforge.instances import LabelCoverInstance

    edges = ((1, "b0"), ("1", "b0"))
    lc = LabelCoverInstance((1, "1"), ("b0",), (0, 1), (0, 1), edges, dict.fromkeys(edges, {0: 0, 1: 1}))
    write_instance(tmp_path / "twin.json", lc)
    code, doc = run(capsys, "check", "lists", "--in", str(tmp_path / "twin.json"), "--g", "2", "--derandomize")
    assert code == 0
    assert doc["lists"] == [[1, [0]], ["1", [0]]]


def test_check_lists_checks_and_selects_once(capsys, lc_cyc_path, monkeypatch):
    """Consistency, the assigned value sets and the low-norm tests are each worked out once per run."""
    from gapforge import soundness
    from gapforge import superassign

    calls = []
    for module, name in ((soundness, "is_consistent"), (soundness, "assigned_value_sets"),
                         (soundness, "select_low_norm_tests"), (superassign, "is_consistent"),
                         (superassign, "assigned_value_sets")):
        def counted(*args, _name=name, _f=getattr(module, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    code, doc = run(capsys, "check", "lists", "--in", str(lc_cyc_path), "--g", "2", "--derandomize")
    assert code == 0 and doc["low_norm_tests"] == [0, 1]
    assert sorted(calls) == ["assigned_value_sets", "is_consistent", "select_low_norm_tests"]


@pytest.mark.parametrize("g", ["0", "-1"])
def test_check_lists_refuses_a_norm_bound_that_is_not_positive(capsys, lc_cyc_path, monkeypatch, g):
    """With or without --derandomize, one envelope names g; it comes before the SSAT walk, so a cap of 0 waits."""
    monkeypatch.setenv("GAPFORGE_MAX_STATES", "0")
    refused = {"error": {"type": "MalformedInstance", "message": f"the norm bound g must be positive, got {g}"}}
    for extra in ([], ["--derandomize"]):
        assert run(capsys, "check", "lists", "--in", str(lc_cyc_path), "--g", g, *extra) == (1, refused)


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


def test_gen_flips_on_a_one_label_sigma_b_is_error_envelope(tmp_path, capsys):
    # the one permutation of a one-label alphabet is the identity: a flip would write the planted cover
    out = tmp_path / "lc.json"
    code, doc = run(capsys, "gen", "lc", "--num-a", "2", "--num-b", "2", "--d-b", "2", "--sigma-a", "2",
                    "--sigma-b", "1", "--p", "2", "--flips", "3", "--flip-seed", "5", "--out", str(out))
    assert code == 1
    assert doc["error"]["type"] == "InfeasibleSpec"
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


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


def lhp_file(tmp_path, capsys):
    """The path of the LHP file of ``ssat_share`` that ``reduce sis2lhp`` writes."""
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    run(capsys, "reduce", "sis2lhp", "--in", str(tmp_path / "sis.json"), "--out", str(tmp_path / "lhp.json"))
    return tmp_path / "lhp.json"


def test_zero_denominator_fraction_is_malformed(tmp_path, capsys):
    # LHP assignments still carry fractions: the witness of ``solve lhp`` is one
    code, out = run(capsys, "solve", "lhp", "--in", str(lhp_file(tmp_path, capsys)))
    assert code == 0 and out["witness"]["kind"] == "lhp_assignment"
    out["witness"]["y_value"] = "1/0"
    (tmp_path / "assignment.json").write_text(json.dumps(out["witness"]))
    with pytest.raises(MalformedInstance, match="zero denominator"):
        read_instance(tmp_path / "assignment.json", "lhp_assignment")


def test_format_v3_lhp_file_is_version_envelope(tmp_path, capsys):
    """An LHP file as format version 3 wrote it: every coefficient a "p/q" string, G1 divided by U."""
    path = lhp_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    for ineq in doc["inequalities"]:
        scale = ineq["coeff_delta"] if ineq["group"] == "G1" else 1

        def text(c):
            f = Fraction(c, scale)
            return f"{f.numerator}/{f.denominator}"

        ineq["coeff_x"] = [[i, text(c)] for i, c in ineq["coeff_x"]]
        ineq["coeff_y"], ineq["coeff_delta"] = text(ineq["coeff_y"]), text(ineq["coeff_delta"])
    doc["version"] = 3
    assert doc["inequalities"][0]["coeff_y"] == f"1/{doc['u_param']}"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    code, out = run(capsys, "solve", "lhp", "--in", str(path))
    assert code == 1
    assert out["error"]["type"] == "SchemaViolation"
    assert out["error"]["message"].startswith("/version: version 3 is not supported")
    assert f"re-run the step that wrote the file to get version {SCHEMA_VERSION}" in out["error"]["message"]


def test_fraction_coefficient_in_v4_lhp_file_is_schema_violation(tmp_path, capsys):
    path = lhp_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["inequalities"][0]["coeff_y"] = "1/2"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "solve", "lhp", "--in", str(path))
    assert code == 1
    assert out["error"]["type"] == "SchemaViolation"
    assert out["error"]["message"].startswith("/inequalities/0/coeff_y: ")


# (file kind, path into the document, new value, error type) on format-v4 files;
# on ssat_share the first SIS and NCP row is [[0, 1], [1, 1]] over 4 columns, and
# the third LHP inequality is its "+" half, coeff_x x_0 + x_1
_V4_BREAKS = {
    "ncp-multiplicity-zero": ("ncp", ("multiplicity", 0), 0, "MalformedInstance"),
    "lhp-multiplicity-zero": ("lhp", ("inequalities", 2, "multiplicity"), 0, "MalformedInstance"),
    "lhp-zero-coeff-x": ("lhp", ("inequalities", 2, "coeff_x"), [[0, 0], [1, 1]], "MalformedInstance"),
    "lhp-unsorted-coeff-x": ("lhp", ("inequalities", 2, "coeff_x"), [[1, 1], [0, 1]], "MalformedInstance"),
    "lhp-index-out-of-range": ("lhp", ("inequalities", 2, "coeff_x"), [[0, 1], [4, 1]], "MalformedInstance"),
    "ncp-version-1": ("ncp", ("version",), 1, "SchemaViolation"),
    "lhp-version-1": ("lhp", ("version",), 1, "SchemaViolation"),
    "lhp-num-x-float": ("lhp", ("num_x",), 4.0, "SchemaViolation"),
    "lc-sigma-b-float-label": ("lc", ("sigma_b", 1), 1.0, "SchemaViolation"),
    "ncp-matrix-entry-bool": ("ncp", ("matrix", 0, 0, 1), True, "SchemaViolation"),
    "ssat-provenance-version-1": ("ssat", ("provenance", "version"), 1, "SchemaViolation"),
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


# the name predates formats v3 and v4; the cases are the v4 ones
@pytest.mark.parametrize("case", list(_V4_BREAKS))
def test_malformed_v2_file_is_error_envelope(tmp_path, capsys, case):
    kind, where, value, error = _V4_BREAKS[case]
    write_instance(tmp_path / "lc.json", shipped.load("lc_share"))
    write_instance(tmp_path / "ssat.json", shipped.load("ssat_share"))
    run(capsys, "reduce", "ssat2sis", "--in", str(tmp_path / "ssat.json"), "--out", str(tmp_path / "sis.json"))
    path = tmp_path / f"{kind}.json"
    if kind in ("ncp", "lhp"):
        run(capsys, "reduce", f"sis2{kind}", "--in", str(tmp_path / "sis.json"), "--out", str(path))
    doc = json.loads(path.read_text())
    if kind == "lhp":
        assert doc["inequalities"][2]["coeff_x"] == [[0, 1], [1, 1]]
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


@pytest.mark.parametrize("case", FILE_BREAKS)
def test_check_claims_on_another_layout_is_error_envelope(request, tmp_path, capsys, case):
    path = tmp_path / "ssat.json"
    write_layout_break(path, request.getfixturevalue(LAYOUT_BREAKS[case][0]), case)
    code, out = run(capsys, "check", "claims", "--in", str(path), "--box", "1")
    assert code == 1
    assert out["error"]["type"] == "SchemaViolation"
    assert out["error"]["message"].startswith(": expected exactly the keys ['kind', 'provenance', 'version'] or ")


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
from gapforge.errors import MalformedInstance
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


# (fault, the envelope's error type): each written to bad.json, or in its place
_FILE_FAULTS = {
    "missing": "FileNotFound",
    "directory": "IsADirectoryError",
    "another-kind": "SchemaViolation",
    "truncated-json": "SchemaViolation",
    "not-utf8": "SchemaViolation",
}


def _write_fault(path: Path, fault: str) -> None:
    if fault == "directory":
        path.mkdir()
    elif fault == "another-kind":  # a super-assignment: no verb reads one first
        write_instance(path, gapforge.SuperAssignment.from_rows(((1, 0), (1, 0))))
    elif fault == "truncated-json":
        path.write_bytes(shipped.fixture_path("lc_id2").read_bytes()[:40])
    elif fault == "not-utf8":
        path.write_bytes(b'{"kind": "label_cover", "a": ["\xff\xfe"]}')


@pytest.mark.parametrize("fault", _FILE_FAULTS)
@pytest.mark.parametrize("line", _READERS)
def test_every_verb_on_a_faulty_file_is_a_typed_envelope(tmp_path, capsys, monkeypatch, line, fault):
    """A missing path, a directory, a file of another kind, truncated JSON or bytes that are not UTF-8."""
    monkeypatch.chdir(tmp_path)
    _write_fault(tmp_path / "bad.json", fault)
    code, doc = run(capsys, *line.replace("deep.json", "bad.json").split())
    assert code == 1
    assert doc["error"]["type"] == _FILE_FAULTS[fault]
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.glob("out.json*"))

