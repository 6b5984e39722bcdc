"""Seeded label-cover generators: planted YES instances and frustrated twists.

Everything is a pure function of its spec (seed included).  Edges are laid
out round-robin over a seeded permutation of the A side, which makes the
B-degree uniform and the A-degree near-uniform; exact bi-regularity is
reported by validation, not forced.
"""

from __future__ import annotations

import random

from .errors import InfeasibleSpec
from .instances import Edge, Label, LabelCoverInstance, Record

_REJECTION_CAP = 100_000


def _check_seed(seed: int) -> None:
    # random.Random seeds from abs(seed), so a negative seed would repeat its positive twin
    if seed < 0:
        raise InfeasibleSpec(f"the seed must be non-negative, got {seed}")


class GenSpec(Record):
    num_a: int
    num_b: int
    d_b: int
    sigma_a_size: int
    sigma_b_size: int
    arity_p: int
    planted: bool
    seed: int

    def __post_init__(self):
        if min(self.num_a, self.num_b, self.d_b, self.sigma_a_size, self.sigma_b_size, self.arity_p) < 1:
            raise InfeasibleSpec("all size parameters must be positive")
        if self.d_b > self.num_a:
            raise InfeasibleSpec("d_b cannot exceed num_a")
        if self.sigma_a_size < self.arity_p:
            raise InfeasibleSpec("sigma_a must be at least as large as the projection arity")
        if self.sigma_a_size > self.arity_p * self.sigma_b_size:
            raise InfeasibleSpec("no p-to-1 table exists: sigma_a larger than p * sigma_b")
        _check_seed(self.seed)


def _sample_table(
    rng: random.Random,
    sigma_a: tuple[Label, ...],
    sigma_b: tuple[Label, ...],
    p: int,
    pin: tuple[Label, Label] | None,
) -> dict[Label, Label]:
    """Uniform p-to-1-bounded table, optionally pinning one mapping, by rejection."""
    for _ in range(_REJECTION_CAP):
        table: dict[Label, Label] = {}
        for x in sigma_a:
            if pin is not None and x == pin[0]:
                table[x] = pin[1]
            else:
                table[x] = sigma_b[rng.randrange(len(sigma_b))]
        counts: dict[Label, int] = {}
        for y in table.values():
            counts[y] = counts.get(y, 0) + 1
        if max(counts.values()) <= p:
            return table
    raise InfeasibleSpec(
        f"could not sample a {p}-to-1 table over {len(sigma_a)}/{len(sigma_b)} labels"
    )


def gen_label_cover(spec: GenSpec) -> LabelCoverInstance:
    """Deterministic instance for a generation spec.

    Planted instances draw a hidden labeling first and pin every projection
    table to map the planted A-label to the planted B-label, so a satisfying
    labeling exists by construction.
    """
    rng = random.Random(spec.seed)
    a_vertices = tuple(f"a{i}" for i in range(spec.num_a))
    b_vertices = tuple(f"b{j}" for j in range(spec.num_b))
    sigma_a = tuple(range(spec.sigma_a_size))
    sigma_b = tuple(range(spec.sigma_b_size))

    perm = list(a_vertices)
    rng.shuffle(perm)
    edges: list[Edge] = []
    cursor = 0
    for b in b_vertices:
        for k in range(spec.d_b):
            edges.append((perm[(cursor + k) % spec.num_a], b))
        cursor += spec.d_b

    phi_a = {a: sigma_a[rng.randrange(len(sigma_a))] for a in a_vertices}
    phi_b = {b: sigma_b[rng.randrange(len(sigma_b))] for b in b_vertices}

    projections: dict[Edge, dict[Label, Label]] = {}
    for e in edges:
        pin = (phi_a[e[0]], phi_b[e[1]]) if spec.planted else None
        projections[e] = _sample_table(rng, sigma_a, sigma_b, spec.arity_p, pin)

    return LabelCoverInstance(
        a_vertices=a_vertices,
        b_vertices=b_vertices,
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        edges=tuple(edges),
        projections=projections,
    )


def frustrate(lc: LabelCoverInstance, num_flips: int, seed: int) -> LabelCoverInstance:
    """Twist some projection tables by non-identity B-alphabet permutations."""
    if not 0 <= num_flips <= len(lc.edges):
        raise InfeasibleSpec(f"the number of flips must lie in [0, {len(lc.edges)}], got {num_flips}")
    if num_flips and len(lc.sigma_b) < 2:
        raise InfeasibleSpec("a one-label sigma_b has no twist: its only permutation is the identity")
    _check_seed(seed)
    if num_flips == 0:
        return lc
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(lc.edges)), num_flips))
    projections = {e: dict(table) for e, table in lc.projections.items()}
    for idx in chosen:
        e = lc.edges[idx]
        while True:
            shuffled = rng.sample(lc.sigma_b, len(lc.sigma_b))
            if tuple(shuffled) != lc.sigma_b:
                break
        twist = dict(zip(lc.sigma_b, shuffled))
        projections[e] = {x: twist[y] for x, y in lc.projections[e].items()}
    return LabelCoverInstance(
        a_vertices=lc.a_vertices,
        b_vertices=lc.b_vertices,
        sigma_a=lc.sigma_a,
        sigma_b=lc.sigma_b,
        edges=lc.edges,
        projections=projections,
    )
