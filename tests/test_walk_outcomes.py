"""Pinned outcomes of every exact walk on a small seeded ladder.

Each walked search (LC, SSAT l1 and linf, SIS, NCP box and full field, LHP,
agreement and list agreement) runs on planted and frustrated label covers of
a few shapes, at boxes 1 and 2, under a small state cap.  A run records its
minimum, its witness and the nodes it entered, or the nodes entered when the
cap raised.  Where SIS found a witness, the NCP walks run once more with it
as a hint; LHP, which takes no hints, runs once, unhinted.  The sha256 of
all records pins both the answers and the work: a kernel that costs a node
differently but prunes the same way keeps it, one that enters one more node
does not.

A second sha256 pins the answers alone: every walk reruns under
``ANSWERS_CAP``, which each of them finishes under (the largest, an NCP
full-field walk, entered 64,193 nodes on the depth-first walk), and only its
minimum and witness are hashed.  A walk that visits other nodes but finds
the same optimum keeps it.
"""

from __future__ import annotations

import hashlib
import itertools

from gapforge.errors import EmptyRange, SearchSpaceTooLarge
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.oracles import (
    SearchBudget,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from gapforge.soundness import agreement_soundness_exact, list_agreement_soundness_exact

CAP = 4_000
SHAPES = ((3, 2, 2, 2, 2, 1), (4, 3, 2, 2, 2, 1), (3, 3, 3, 2, 2, 1), (4, 2, 2, 2, 2, 2))
SEEDS = (0, 1)
DIGEST = "9be011d877dbbb2a0f2a2f676e44e76ac831e45a7293209cee174fb7606302ea"
ANSWERS_CAP = 100_000
ANSWERS_DIGEST = "e7fe2ff6efd438e390a740adf824c284f625686a45a4a34f09abbcc4e7f3121d"


def ladder():
    """(name, label cover): each shape and seed planted, then with one and two flipped edges."""
    for shape, seed in itertools.product(SHAPES, SEEDS):
        lc = gen_label_cover(GenSpec(*shape, planted=True, seed=seed))
        for flips in (0, 1, 2):
            yield f"{shape}/{seed}/{flips}", frustrate(lc, flips, seed)


def outcome(fields, solve, *args, **kwargs):
    """``fields`` of ``solve(*args, **kwargs)``, or ``("cap", states)`` when it raised at the cap."""
    try:
        return fields(solve(*args, **kwargs))
    except SearchSpaceTooLarge as exc:
        return ("cap", exc.states)


def lc_fields(r):
    return str(r.best_fraction), tuple(r.witness.phi_a.values()), tuple(r.witness.phi_b.values()), r.states_visited


def ssat_fields(r):
    return str(r.minimum), r.witness and r.witness.weights, r.states_visited


def sis_fields(r):
    return r.minimum, r.witness, r.states_visited


def ncp_fields(r):
    return r.minimum, r.witness, r.mode, r.states_visited


def lhp_fields(r):
    return r.minimum, tuple(map(str, r.witness.x_values)), r.states_visited


def records(cap=CAP):
    for name, lc in ladder():
        yield name, "lc", outcome(lc_fields, solve_lc_max, lc, SearchBudget(max_states=cap))
        yield name, "agreement", outcome(str, agreement_soundness_exact, lc, cap)
        for l in (1, 2):
            yield name, f"agreement/{l}", outcome(str, list_agreement_soundness_exact, lc, l, cap)
        try:
            ssat = lc_to_ssat(lc)
        except EmptyRange:
            yield name, "ssat", "empty range"
            continue
        sis = ssat_to_sis(ssat)
        ncp, lhp = sis_to_ncp(sis, g=1), sis_to_lhp(sis, g=1)
        for k in (1, 2):
            for mode in ("l1", "linf"):
                budget = SearchBudget(coeff_box=k, max_states=cap, mode=mode)
                yield name, f"ssat/{k}/{mode}", outcome(ssat_fields, solve_ssat_min_norm, ssat, budget)
            budget = SearchBudget(coeff_box=k, max_states=cap)
            sis_result = outcome(sis_fields, solve_sis_min, sis, budget)
            yield name, f"sis/{k}", sis_result
            hints = [sis_result[1]] if sis_result[0] not in ("cap", None) else []
            for hinted in ((), hints) if hints else ((),):
                for full in (False, True):
                    yield name, f"ncp/{k}/{full}/{len(hinted)}", outcome(
                        ncp_fields, solve_ncp_min, ncp, budget, full_field=full, hints=hinted
                    )
                if not hinted:
                    yield name, f"lhp/{k}/0", outcome(lhp_fields, solve_lhp_min, lhp, budget)


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode() + b"\n")
    return h.hexdigest()


def answers():
    """Each walk's record under ``ANSWERS_CAP`` without its node count: the last field of a tuple."""
    for name, walk, record in records(ANSWERS_CAP):
        assert record[0] != "cap", (name, walk, record)
        yield name, walk, record[:-1] if type(record) is tuple else record


def test_walk_outcomes_are_pinned():
    assert digest(records()) == DIGEST


def test_walk_answers_are_pinned():
    assert digest(answers()) == ANSWERS_DIGEST
