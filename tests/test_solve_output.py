"""Pinned stdout and exit code of ``gapforge solve``.

Every kind runs on the four label-cover fixtures and on two seeded covers,
one planted and one with a flipped edge: SSAT in both modes and SIS and NCP
at boxes 1 and 2, NCP over the full field, and LC and LHP once.  The sha256
of every (command, exit code, stdout) pins how each optimum is written (a
``"p/q"`` string or an integer), which kinds carry ``mode``, and each
witness and node count.
"""

from __future__ import annotations

import hashlib
import json
import re

from gapforge import fixtures as shipped
from gapforge.cli import main
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from gapforge.serialize import write_instance

SPEC = GenSpec(3, 3, 2, 2, 2, 1, planted=True, seed=2)
COVERS = ("lc_id2", "lc_cyc", "lc_share", "lc_2to1", "planted", "twisted")
# (kind, flags) of each command, run on that kind's file of each cover
COMMANDS = (
    ("lc", ()),
    *(("ssat", ("--box", box, "--mode", mode)) for box in ("1", "2") for mode in ("l1", "linf")),
    *(("sis", ("--box", box)) for box in ("1", "2")),
    *(("ncp", ("--box", box)) for box in ("1", "2")),
    ("ncp", ("--full-field",)),
    ("lhp", ()),
)
DIGEST = "857e1df6168e636e17280fc75ef86a870497b9e635134dde0420e1d8442a3473"


def cover(name):
    if name == "planted":
        return gen_label_cover(SPEC)
    if name == "twisted":
        return frustrate(gen_label_cover(SPEC), 1, 2)
    return shipped.load(name)


def write_chain(tmp_path, name):
    """The five instance files of cover ``name``, by kind."""
    lc = cover(name)
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    paths = {}
    instances = {"lc": lc, "ssat": ssat, "sis": sis, "ncp": sis_to_ncp(sis, g=1), "lhp": sis_to_lhp(sis, g=1)}
    for kind, instance in instances.items():
        paths[kind] = tmp_path / f"{name}_{kind}.json"
        write_instance(paths[kind], instance)
    return paths


def solve(capsys, path, kind, flags):
    code = main(["solve", kind, "--in", str(path), *flags])
    return code, capsys.readouterr().out


def test_solve_output_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GAPFORGE_MAX_STATES", raising=False)
    h = hashlib.sha256()
    for name in COVERS:
        paths = write_chain(tmp_path, name)
        for kind, flags in COMMANDS:
            code, out = solve(capsys, paths[kind], kind, flags)
            doc = json.loads(out)
            # LC and SSAT optima are "p/q" strings, the others integers; only SSAT and NCP carry mode
            optimum = doc["optimum"]
            if optimum is not None:
                assert type(optimum) is (str if kind in ("lc", "ssat") else int), (name, kind, flags, optimum)
                assert type(optimum) is int or re.fullmatch(r"-?[0-9]+/[0-9]+", optimum)
            assert ("mode" in doc) == (kind in ("ssat", "ncp")), (name, kind, flags)
            h.update(json.dumps([name, kind, flags, code, out]).encode() + b"\n")
    assert h.hexdigest() == DIGEST
