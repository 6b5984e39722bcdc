"""Plain-text matrix formats for SIS and NCP instances.

Each writes a header line, one dense matrix row per line (zeros included,
entries separated by spaces) and the target row.  ``sis_from_text`` reads
the SIS format back; the NCP format is write-only.  The canonical JSON files
of ``gapforge.serialize`` store the same rows sparse.
"""

from __future__ import annotations

from .errors import SchemaViolation
from .instances import NcpInstance, SisInstance


def _dense_line(row, num_cols: int) -> str:
    """A sparse row as its ``num_cols`` entries, zeros included, separated by spaces."""
    entries = [0] * num_cols
    for c, a in row:
        entries[c] = a
    return " ".join(map(str, entries))


def sis_to_text(sis: SisInstance) -> str:
    """Header ``n' m' d``, one dense matrix row per line, then the target row.

    ``sis_from_text`` reads it back to an equal instance.
    """
    lines = [f"{sis.num_rows} {sis.num_cols} {sis.bound}"]
    lines.extend(_dense_line(row, sis.num_cols) for row in sis.matrix)
    lines.append(" ".join(str(v) for v in sis.target))
    return "\n".join(lines) + "\n"


def sis_from_text(text: str) -> SisInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaViolation("", "empty SIS text document")
    try:
        n, m, d = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise SchemaViolation("/0", "header must be 'rows cols bound'") from None
    if len(lines) != n + 2:
        raise SchemaViolation("", f"expected {n} matrix rows plus a target line")
    rows = [_int_tokens(lines, i) for i in range(1, n + 1)]
    target = _int_tokens(lines, n + 1)
    if any(len(row) != m for row in rows):
        raise SchemaViolation("", "matrix row width differs from header")
    if len(target) != n:
        raise SchemaViolation("", "target length differs from header")
    matrix = tuple(tuple((c, a) for c, a in enumerate(row) if a) for row in rows)
    return SisInstance(num_cols=m, matrix=matrix, target=target, bound=d)


def _int_tokens(lines: list[str], i: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in lines[i].split())
    except ValueError:
        raise SchemaViolation(f"/{i}", f"non-blank line {i + 1} is not all integers: {lines[i]!r}") from None


def ncp_to_text(ncp: NcpInstance) -> str:
    """Header ``rows cols q d``, one dense line per row copy, then the target row.

    A row with multiplicity k is written k times, so ``rows`` counts copies.
    """
    lines = [f"{ncp.num_rows} {ncp.num_cols} {ncp.modulus} {ncp.bound}"]
    for row, k in zip(ncp.matrix, ncp.multiplicity):
        lines.extend([_dense_line(row, ncp.num_cols)] * k)
    lines.append(" ".join(str(t) for t, k in zip(ncp.target, ncp.multiplicity) for _ in range(k)))
    return "\n".join(lines) + "\n"
