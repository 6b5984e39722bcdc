"""Fuzzed documents: ``from_document`` either refuses with a typed error or
rebuilds an instance that writes back the very same document.

The mutation set is a fixed table.  Starting from the shipped fixtures and
one generated chain (label cover, SSAT derived and standalone, SIS, NCP,
LHP, and an LHP assignment, the one kind that holds fractions), it deletes
each key in turn, adds an unknown key to each object, and replaces each node
with each value of ``VALUES``.  Lists contribute their first three items.
Then it breaks the shapes of format 6: each of the first three ``pi``
arrays of a label cover is cut by one item, lengthened by one, and given an
item that is not a label and one outside sigma_b, and a derived SSAT
document gets the ``tests`` its cover derives.  And those of format 7: a
derived LHP document gets the ``inequalities`` and the ``num_x`` its SIS
derives, a ``u_param`` of 1.5, and a nested SIS of another kind, of version
6, and with an unsorted row.

A sha256 over every mutant's outcome (error type, pointer and message),
taken in sorted order, pins the decoder's answers exactly: a faster reader
must refuse each mutant with the same error at the same node.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from naive import replace

from gapforge import fixtures as shipped
from gapforge.errors import GapforgeError, SchemaViolation
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import LhpAssignment, SsatInstance
from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from gapforge.serialize import from_document, read_document, to_document

VALUES = (1.0, 2.5, True, None, "x", "1_0", " 1", [], {}, -1, 0, 10 ** 20, "1/0")


def documents() -> dict[str, dict]:
    docs = {name: read_document(shipped.fixture_path(name)) for name in shipped.FIXTURE_NAMES}
    lc = frustrate(gen_label_cover(GenSpec(3, 2, 2, 2, 2, 1, True, 5)), num_flips=1, seed=5)
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    chain = {"lc": lc, "ssat": ssat, "sis": sis, "ncp": sis_to_ncp(sis, g=1), "lhp": sis_to_lhp(sis, u_param=2),
             "lhp_assignment": LhpAssignment.of([Fraction(c - 1, 2) for c in range(sis.num_cols)], y=Fraction(3, 2),
                                                delta=Fraction(-1, 7))}
    docs.update((f"chain_{stage}", to_document(obj)) for stage, obj in chain.items())
    docs["chain_ssat_standalone"] = to_document(SsatInstance(ssat.variables, ssat.field_values, ssat.tests))
    docs["chain_lhp_standalone"] = to_document(replace(chain["lhp"], provenance=None))
    return docs


def _slots(node, ptr):
    """(container, key, pointer) of every child slot below ``node``."""
    keys = list(node) if isinstance(node, dict) else range(min(3, len(node)))
    for key in keys:
        yield node, key, f"{ptr}/{key}"
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], f"{ptr}/{key}")


def mutants(doc):
    """Yield ``(pointer, change, document)`` for every mutation of ``doc``.

    The mutations are made in place and undone when the generator resumes.
    """
    for value in VALUES:
        yield "", f"= {value!r}", value
    objects = [("", doc)]
    for node, key, ptr in _slots(doc, ""):
        old = node[key]
        if isinstance(old, dict):
            objects.append((ptr, old))
        for value in VALUES:
            node[key] = value
            yield ptr, f"= {value!r}", doc
        if isinstance(node, dict):
            del node[key]
            yield ptr, "deleted", doc
        node[key] = old
    for ptr, obj in objects:
        obj["unknown"] = 0
        yield ptr, "added key 'unknown'", doc
        del obj["unknown"]
    yield from v6_mutants(doc)
    yield from v7_mutants(doc)


def v6_mutants(doc):
    """``mutants`` that break the projection arrays of a label cover, and a derived SSAT document's key set."""
    derived = doc.get("kind") == "ssat" and "provenance" in doc
    cover, at = (doc["provenance"], "/provenance") if derived else (doc, "")
    if cover.get("kind") == "label_cover":
        for i, edge in enumerate(cover["edges"][:3]):
            pi = edge["pi"]
            for change, value in (("one item short", pi[:-1]), ("one item long", pi + pi[:1]),
                                  ("item 0 not a label", [1.5, *pi[1:]]),
                                  ("item 0 outside sigma_b", ["outside", *pi[1:]])):
                edge["pi"] = value
                yield f"{at}/edges/{i}/pi", change, doc
            edge["pi"] = pi
    if derived:
        ssat = from_document(doc)
        doc["tests"] = to_document(SsatInstance(ssat.variables, ssat.field_values, ssat.tests))["tests"]
        yield "", "added the derived key 'tests'", doc
        del doc["tests"]


def v7_mutants(doc):
    """``mutants`` that break a derived LHP document's key set, its ``u_param`` and its nested SIS document."""
    if doc.get("kind") != "lhp" or "provenance" not in doc:
        return
    standalone = to_document(replace(from_document(doc), provenance=None))
    for key in ("inequalities", "num_x"):
        doc[key] = standalone[key]
        yield "", f"added the derived key {key!r}", doc
        del doc[key]
    u, sis = doc["u_param"], doc["provenance"]
    doc["u_param"] = 1.5
    yield "/u_param", "= 1.5", doc
    doc["u_param"] = u
    for key, value in (("kind", "ncp"), ("version", 6), ("matrix", [list(reversed(sis["matrix"][0])),
                                                                    *sis["matrix"][1:]])):
        doc["provenance"] = dict(sis, **{key: value})
        yield f"/provenance/{key}", f"= {value!r}", doc
    doc["provenance"] = sis


def outcome(doc) -> str:
    """``ok``, the name of the typed error, ``changed`` (loads but writes back
    another document) or ``escape: <exception>``."""
    try:
        obj = from_document(doc)
    except GapforgeError as exc:
        return type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return f"escape: {type(exc).__name__}"
    canonical = json.dumps(doc, sort_keys=True, indent=2)
    return "ok" if json.dumps(to_document(obj), sort_keys=True, indent=2) == canonical else "changed"


def test_every_mutant_is_refused_typed_or_round_trips():
    counts: Counter = Counter()
    bad = []
    for name, doc in documents().items():
        assert outcome(doc) == "ok", name
        for ptr, change, mutant in mutants(doc):
            result = outcome(mutant)
            counts[result] += 1
            if result not in ("ok", "SchemaViolation", "MalformedInstance"):
                bad.append(f"{name} {ptr} {change}: {result}")
    assert not bad, f"{len(bad)} mutants escaped or changed, e.g. {bad[:5]}"
    # the table reaches both the decoder and the constructors, and some mutants load
    assert min(counts["ok"], counts["SchemaViolation"], counts["MalformedInstance"]) > 0, counts


def fingerprint(doc) -> tuple:
    """``(error type, error pointer, message)`` of reading ``doc``; ``("ok", None, None)`` if it loads."""
    try:
        from_document(doc)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc).__name__, getattr(exc, "pointer", None), str(exc)
    return "ok", None, None


def outcome_digest() -> str:
    """sha256 of ``(document, mutant pointer, change, error type, error pointer, message)`` for every mutant.

    The lines are hashed in sorted order, so the pin does not depend on the
    order of the keys in a document.
    """
    lines = [json.dumps([name, ptr, change, *fingerprint(mutant)])
             for name, doc in documents().items() for ptr, change, mutant in mutants(doc)]
    assert len(lines) == MUTANTS
    return hashlib.sha256("".join(line + "\n" for line in sorted(lines)).encode()).hexdigest()


MUTANTS = 5331
OUTCOME_DIGEST = "e61e822806af75069c99239cd0b0d24baecbd767486c5a09ba35c41ee523a634"


def test_every_mutant_gets_the_pinned_error_at_the_pinned_node():
    # the second pass reads every mutant again, so no state may carry over from one read to the next
    assert outcome_digest() == OUTCOME_DIGEST
    assert outcome_digest() == OUTCOME_DIGEST


# strings that read as a number but write back other bytes: not in lowest terms, no
# denominator, zero-padded, a signed zero; and big integers with leading zeros
NON_CANONICAL_FRACTIONS = ("2/6", "1", "01/2", "-0/1", "2/2", "-02/3", "0/5", "3/01")
NON_CANONICAL_INTS = ("01152921504606846976", "-01152921504606846976", "0" * 20 + "9007199254740993")


@pytest.mark.parametrize("text", NON_CANONICAL_FRACTIONS)
def test_non_canonical_fraction_is_refused_at_its_node(text):
    doc = documents()["chain_lhp_assignment"]
    doc["y_value"] = text
    for _ in range(2):  # a second read of the same document is refused the same way
        with pytest.raises(SchemaViolation) as exc:
            from_document(doc)
        assert exc.value.pointer == "/y_value"


@pytest.mark.parametrize("text", NON_CANONICAL_INTS)
def test_non_canonical_big_integer_is_refused_at_its_node(text):
    doc = documents()["chain_sis"]
    doc["target"][0] = text
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/target/0"
    doc["target"][0] = str(int(text))  # the canonical spelling loads
    assert from_document(doc).target[0] == int(text)
