"""Reference answers computed from the definitions, independent of weylconj.

An integral collection is a 0/1 assignment on the essential family (the
supporting-class members of size >= 3 that the type draws on) such that
every pair r < s with Delta(r, s) = 2 lies in an even number of chosen
members.  Those assignments are the GF(2) kernel of the pair-constraint
matrix, so Inc = 2^(|family| - rank).  The package counts them by brute
force, by Smith normal form and by per-semilattice reduction; this module
uses Gaussian elimination over GF(2) on bitmasks instead.

Spec documents use the package's JSON schema: subsets are lists of
coordinates 1..dim, and supp2 uses its own local coordinates.
"""

from __future__ import annotations

from math import comb


def mask(subset) -> int:
    out = 0
    for c in subset:
        out |= 1 << (c - 1)
    return out


def _pairs(dim: int):
    return [(r, s) for r in range(1, dim + 1) for s in range(r + 1, dim + 1)]


def _pair_mask(r: int, s: int) -> int:
    return (1 << (r - 1)) | (1 << (s - 1))


def family_and_constraints(doc: dict) -> tuple[list[int], list[int]]:
    """Essential family (global masks) and one mask per Delta = 2 pair."""
    kind, rank, nu, t = doc["type"], doc["rank"], doc["nullity"], doc["twist"]
    s1 = {mask(x) for x in doc["supp1"]}
    s2 = {mask(x) for x in doc["supp2"]}
    ess1 = [m for m in s1 if m.bit_count() >= 3]
    ess2 = [m << t for m in s2 if m.bit_count() >= 3]
    if kind == "B" and rank == 2:
        family = ess1 + ess2
    elif kind == "B":
        family = ess1
    elif kind == "C":
        family = ess2
    else:
        family = []
    family = sorted(set(family))
    unsupported = []
    for r, s in _pairs(nu):
        pm = _pair_mask(r, s)
        if s <= t:
            delta = 1 if pm in s1 else 2
        elif r <= t:
            delta = 1
        else:
            delta = 1 if (pm >> t) in s2 else 2
        if delta == 2:
            unsupported.append(pm)
    return family, unsupported


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks."""
    basis: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def _constraint_rows(family: list[int], unsupported: list[int]) -> list[int]:
    rows = []
    for pm in unsupported:
        row = 0
        for pos, j in enumerate(family):
            if pm & j == pm:
                row |= 1 << pos
        rows.append(row)
    return rows


def inc(doc: dict) -> int:
    """Number of integral collections, 2^(|family| - rank)."""
    family, unsupported = family_and_constraints(doc)
    return 1 << (len(family) - gf2_rank(_constraint_rows(family, unsupported)))


def family_size(doc: dict) -> int:
    return len(family_and_constraints(doc)[0])


def is_integral_choice(doc: dict, chosen: list[list[int]]) -> bool:
    """Whether a set of chosen family members is an integral collection."""
    family, unsupported = family_and_constraints(doc)
    masks = [mask(j) for j in chosen]
    if len(set(masks)) != len(masks) or not set(masks) <= set(family):
        return False
    return all(
        sum(1 for j in masks if pm & j == pm) % 2 == 0 for pm in unsupported
    )


def semilattice_count(dim: int) -> int:
    """Supporting classes of dimension dim: each subset of size >= 2 is free."""
    return 1 << ((1 << dim) - dim - 1)


# Semilattices of dimension d up to coordinate permutation, d = 0..4
# (the orbits of the symmetric group on the free subsets).
ORBIT_COUNTS = (1, 1, 2, 8, 180)


def essential_capacity(dim: int) -> int:
    """Subsets of size >= 3 in dimension dim."""
    return sum(comb(dim, k) for k in range(3, dim + 1))
