"""A deterministic corpus of root systems for cross-checks and sweeps.

Spans types B2, B3, C3, F4, G2 at nullities up to 4, mixing minimal,
intermediate and full supporting classes wherever the type constraints
allow.  Labels are stable; tests key on them.
"""

from __future__ import annotations

import random

from .rootsystem import RootSystemSpec, free_sides, make_spec, type_label
from .semilattice import Semilattice, enumerate_semilattices, make_semilattice


def _pool(dim: int) -> list[tuple[str, Semilattice]]:
    if dim == 0:
        return [("0", Semilattice.lattice(0))]
    if dim == 1:
        return [("lat", Semilattice.lattice(1))]
    if dim == 2:
        return [("min", Semilattice.minimal(2)), ("lat", Semilattice.lattice(2))]
    if dim == 3:
        return [
            ("min", Semilattice.minimal(3)),
            ("pair", make_semilattice(3, [[], [1], [2], [3], [1, 2]])),
            ("tri", make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])),
            ("pairs", make_semilattice(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]])),
            ("ind6", make_semilattice(3, [[], [1], [2], [3], [1, 2], [1, 3], [1, 2, 3]])),
            ("lat", Semilattice.lattice(3)),
        ]
    if dim == 4:
        full = Semilattice.lattice(4)
        near = make_semilattice(
            4, [s for s in full.to_subsets() if s != [3, 4]]
        )
        return [
            ("min", Semilattice.minimal(4)),
            ("tri", make_semilattice(4, [[], [1], [2], [3], [4], [1, 2, 3]])),
            ("ind14", near),
            ("lat", full),
        ]
    raise ValueError(f"no pool for dimension {dim}")


def _pick(dim: int, tags: list[str]) -> list[tuple[str, Semilattice]]:
    pool = dict(_pool(dim))
    return [(tag, pool[tag]) for tag in tags]


def reference_corpus() -> list[tuple[str, RootSystemSpec]]:
    out: list[tuple[str, RootSystemSpec]] = []

    def add(family, rank, nullity, twist, s1_tagged, s2_tagged):
        for tag1, s1 in s1_tagged:
            for tag2, s2 in s2_tagged:
                label = f"{type_label(family, rank)} nu{nullity} t{twist} S1={tag1} S2={tag2}"
                out.append(
                    (label, make_spec(family, rank, nullity, twist, s1, s2))
                )

    lat = lambda d: [("lat", Semilattice.lattice(d))]

    # B2: both sides free
    add("B", 2, 1, 0, _pick(0, ["0"]), _pick(1, ["lat"]))
    add("B", 2, 1, 1, _pick(1, ["lat"]), _pick(0, ["0"]))
    add("B", 2, 2, 1, _pick(1, ["lat"]), _pick(1, ["lat"]))
    add("B", 2, 2, 2, _pick(2, ["min", "lat"]), _pick(0, ["0"]))
    add("B", 2, 3, 1, _pick(1, ["lat"]), _pick(2, ["min", "lat"]))
    add("B", 2, 3, 2, _pick(2, ["min", "lat"]), _pick(1, ["lat"]))
    add("B", 2, 3, 3, _pick(3, ["min", "tri", "pairs", "lat"]), _pick(0, ["0"]))
    add("B", 2, 4, 2, _pick(2, ["min", "lat"]), _pick(2, ["min", "lat"]))
    add("B", 2, 4, 4, _pick(4, ["min", "tri", "ind14", "lat"]), _pick(0, ["0"]))

    # B3: S2 forced to a lattice
    add("B", 3, 1, 1, _pick(1, ["lat"]), _pick(0, ["0"]))
    add("B", 3, 2, 1, _pick(1, ["lat"]), lat(1))
    add("B", 3, 2, 2, _pick(2, ["min", "lat"]), _pick(0, ["0"]))
    add("B", 3, 3, 2, _pick(2, ["min", "lat"]), lat(1))
    add("B", 3, 3, 3, _pick(3, ["min", "pair", "tri", "pairs", "ind6", "lat"]), _pick(0, ["0"]))
    add("B", 3, 4, 3, _pick(3, ["tri", "lat"]), lat(1))
    add("B", 3, 4, 4, _pick(4, ["min", "tri", "ind14", "lat"]), _pick(0, ["0"]))

    # C3: S1 forced to a lattice
    add("C", 3, 1, 0, _pick(0, ["0"]), lat(1))
    add("C", 3, 2, 1, lat(1), lat(1))
    add("C", 3, 2, 2, _pick(2, ["lat"]), _pick(0, ["0"]))
    add("C", 3, 3, 0, _pick(0, ["0"]), _pick(3, ["min", "tri", "lat"]))
    add("C", 3, 3, 1, lat(1), _pick(2, ["min", "lat"]))
    add("C", 3, 4, 0, _pick(0, ["0"]), _pick(4, ["lat"]))
    add("C", 3, 4, 1, lat(1), _pick(3, ["tri", "lat"]))

    # F4, G2: both lattices
    for family, rank in (("F4", 4), ("G2", 2)):
        add(family, rank, 1, 0, _pick(0, ["0"]), lat(1))
        add(family, rank, 1, 1, lat(1), _pick(0, ["0"]))
        add(family, rank, 2, 1, lat(1), lat(1))
        add(family, rank, 3, 1, lat(1), lat(2))
        add(family, rank, 3, 3, lat(3), _pick(0, ["0"]))
    return out


def random_spec(rng: random.Random) -> RootSystemSpec:
    """One random valid spec with nullity <= 4 (uniform-ish, seeded by caller)."""
    family, rank = rng.choice([("B", 2), ("B", 3), ("C", 3), ("F4", 4), ("G2", 2)])
    nullity = rng.randint(1, 4)
    twist = rng.randint(0, nullity)

    def random_semilattice(dim: int) -> Semilattice:
        base = [0] + [1 << i for i in range(dim)]
        free = [m for m in range(1 << dim) if m.bit_count() >= 2]
        chosen = [m for m in free if rng.random() < 0.5]
        return Semilattice(dim, frozenset(base + chosen))

    free = free_sides(family, rank)
    s1, s2 = (
        random_semilattice(dim) if number in free else Semilattice.lattice(dim)
        for number, dim in ((1, twist), (2, nullity - twist))
    )
    return make_spec(family, rank, nullity, twist, s1, s2)


def classification_pairs(
    family: str, rank: int, nullity: int, twist: int, up_to_permutation: bool
) -> list[tuple[Semilattice, Semilattice]]:
    """All admissible (S1, S2) pairs: every semilattice on a free side, else the lattice."""
    free = free_sides(family, rank)
    s1s, s2s = (
        list(enumerate_semilattices(dim, up_to_permutation))
        if number in free
        else [Semilattice.lattice(dim)]
        for number, dim in ((1, twist), (2, nullity - twist))
    )
    return [(s1, s2) for s1 in s1s for s2 in s2s]
