"""Sparse SIS rows against the same rows expanded to dense.

On the seeded chains of ``naive.chains``, ``SisInstance.multiply``
equals a plain dot product over the dense rows, and the SIS text format, which
writes dense lines, reads back to the equal instance.  The NCP rows get the
same dense comparison, copy by copy, in ``test_multiplicity_differential``.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from naive import chains, dense

from gapforge.plaintext import sis_from_text, sis_to_text


@settings(max_examples=8, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains())
def test_sis_rows_match_dense_reference(chain):
    _, _, sis, k = chain
    rows = [dense(row, sis.num_cols) for row in sis.matrix]
    for z in itertools.product(range(-k, k + 1), repeat=sis.num_cols):
        assert sis.multiply(z) == tuple(sum(a * v for a, v in zip(row, z)) for row in rows)
    assert sis_to_text(sis).splitlines()[1:-1] == [" ".join(map(str, row)) for row in rows]
    assert sis_from_text(sis_to_text(sis)) == sis
