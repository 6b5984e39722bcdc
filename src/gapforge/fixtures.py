"""Canonical micro-fixtures shipped with the package.

* ``lc_id2``: two A-vertices, one B-vertex, identity projections; satisfiable.
* ``lc_cyc``: complete bipartite 2x2 with one flipped table; the smallest
  instance whose edge-satisfaction optimum is strictly below 1 (it is 3/4).
* ``lc_share``: one A-vertex shared by two B-vertices; its SSAT image is the
  two-test shared-variable fixture ``ssat_share``.
* ``lc_2to1``: a single 2-to-1 edge.
* ``ssat_share``: ``lc_to_ssat(lc_share)``; its file is ``lc_share`` nested as its provenance.

Each file is canonical in the current format; a new ``SCHEMA_VERSION`` rewrites all five.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .serialize import Instance, read_instance

FIXTURE_NAMES = ("lc_id2", "lc_cyc", "lc_share", "lc_2to1", "ssat_share")


def fixture_path(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return Path(str(resources.files("gapforge").joinpath(f"fixtures/{name}.json")))


def load(name: str) -> Instance:
    return read_instance(fixture_path(name))
