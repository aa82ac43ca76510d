"""The center of the presented group as a finitely presented abelian group.

Generators are one symbol per pair r < s of isotropic directions plus
one symbol per essential family member J; each J contributes the single
relation

    2 z_J  =  sum over pairs {r,s} inside J of (2 / Delta(r,s)) z_{r,s}.

The Smith normal form of the relation matrix gives the invariant-factor
decomposition: the free rank always comes out as nu(nu-1)/2 (each
relation row pivots on its own z_J column) and the torsion subgroup is
an elementary abelian 2-group whose order equals the number of integral
collections.  That equality is the independent cross-check for the
enumeration path.  Delta and integrality are read from the spec's
pair-incidence table, `RootSystemSpec.incidence`: the rows, and in
`kernel_exponents` the integrality test (`PairIncidence.is_integral`)
and the pair quotients.  The module does not import `integral`.

`smith_normal_form` pairs the diagonal of the library's one integer
elimination, `exactmat.smith_diagonal`, with the matrix shape; no
unimodular transform is built.  That elimination pivots on units and
divides out contents over the integer rows, then normalises the
diagonal by gcd/lcm; it never reduces mod 2, so the torsion stays
independent of the count.  `in_row_space` reads row-lattice
membership from two diagonals, without and with the vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .exactmat import smith_diagonal
from .rootsystem import RootSystemSpec, exact_div


class CenterPresentation(NamedTuple):
    """Relation matrix over generators (z_{r,s} for r<s) + (z_J for J in family)."""

    pairs: tuple[tuple[int, int], ...]
    family: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_generators(self) -> int:
        return len(self.pairs) + len(self.family)


def center_presentation(spec: RootSystemSpec) -> CenterPresentation:
    """One row per essential member: +2 on its own column, -2/Delta on its pairs."""
    table, pairs = spec.incidence, spec.incidence.pairs
    coeffs = [
        exact_div(-2, delta, "-2/Delta({},{})", r, s)
        for (r, s), delta in zip(pairs, table.divisors)
    ]
    rows = []
    for jpos in range(len(table.family)):
        row = [c if members >> jpos & 1 else 0 for c, members in zip(coeffs, table.rows)]
        row += [2 if pos == jpos else 0 for pos in range(len(table.family))]
        rows.append(tuple(row))
    return CenterPresentation(pairs, table.family, tuple(rows))


class SmithDecomposition(NamedTuple):
    """The Smith normal form diagonal: d_1 | d_2 | ..., one entry per min(shape)."""

    diag: tuple[int, ...]
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    @property
    def saturation_index(self) -> int:
        """Index of the row lattice in its saturation: the non-zero entries' product."""
        return math.prod(d for d in self.diag if d)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithDecomposition:
    """The Smith normal form diagonal and shape (`exactmat.smith_diagonal`)."""
    return SmithDecomposition(smith_diagonal(rows), (len(rows), len(rows[0]) if rows else 0))


class CenterStructure(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def center_structure(spec: RootSystemSpec) -> CenterStructure:
    pres = center_presentation(spec)
    snf = smith_normal_form(pres.rows)
    return CenterStructure(
        free_rank=pres.num_generators - snf.rank,
        torsion=snf.invariant_factors,
    )


def kernel_exponents(spec: RootSystemSpec, bits: int) -> tuple[int, ...]:
    """Exponent vector of the kernel element attached to an integral collection.

    `bits` is the collection as a bitset over the table's family
    positions.  The pair coordinates carry minus the Delta-quotient of
    the chosen members containing the pair and the family coordinates
    carry the choice itself; doubling the vector lands in the relation
    row space, so the element is 2-torsion in the presented center.
    """
    table = spec.incidence
    if not 0 <= bits < 1 << len(table.family):
        raise ValueError(f"choice {bits:#b} is not a set of the {len(table.family)} positions")
    if not table.is_integral(bits):
        raise ValueError(f"choice {bits:#b} is not an integral collection")
    coords = [
        -((bits & row).bit_count() // delta) for row, delta in zip(table.rows, table.divisors)
    ]
    return tuple(coords + [bits >> pos & 1 for pos in range(len(table.family))])


def in_row_space(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether an integer vector is an integer combination of the matrix rows.

    Appending y to the rows of M keeps the row lattice L exactly when y
    lies in it.  Otherwise y either raises the rank or, inside the same
    rational span, lowers the index of the lattice in its saturation,
    and that index is the product of the non-zero diagonal entries.
    """
    if rows and len(vector) != len(rows[0]):
        raise ValueError("length mismatch")
    before, after = smith_normal_form(rows), smith_normal_form([*rows, vector])
    return (before.rank, before.saturation_index) == (after.rank, after.saturation_index)
