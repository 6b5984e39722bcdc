"""Shared fixtures: the canonical micro-instances used throughout the suite."""

from __future__ import annotations

import pytest

from gapforge import fixtures as shipped
from gapforge.instances import LabelCoverInstance
from gapforge.reductions import lc_to_ssat

pytest.register_assert_rewrite("naive")  # the differential tests' helpers assert with pytest's messages


def identity_table():
    return {0: 0, 1: 1}


@pytest.fixture(scope="session")
def lc_id2():
    return shipped.load("lc_id2")


@pytest.fixture(scope="session")
def lc_cyc():
    return shipped.load("lc_cyc")


@pytest.fixture(scope="session")
def lc_share():
    return shipped.load("lc_share")


@pytest.fixture(scope="session")
def lc_2to1():
    return shipped.load("lc_2to1")


@pytest.fixture(scope="session")
def ssat_share():
    return shipped.load("ssat_share")


@pytest.fixture(scope="session")
def ssat_id2(lc_id2):
    return lc_to_ssat(lc_id2)


@pytest.fixture(scope="session")
def ssat_cyc(lc_cyc):
    return lc_to_ssat(lc_cyc)


@pytest.fixture(scope="session")
def lc_2to1_wide():
    """One B-vertex with two neighbors, both tables 2-to-1 onto label 0.

    Its single test decomposes into one 2x2 array, which is what the all-bad
    zeroing and zero-sum checks exercise.
    """
    edges = (("a0", "b0"), ("a1", "b0"))
    tables = {e: {0: 0, 1: 0} for e in edges}
    return LabelCoverInstance(
        a_vertices=("a0", "a1"),
        b_vertices=("b0",),
        sigma_a=(0, 1),
        sigma_b=(0, 1),
        edges=edges,
        projections=tables,
    )


@pytest.fixture(scope="session")
def ssat_2to1_wide(lc_2to1_wide):
    return lc_to_ssat(lc_2to1_wide)
