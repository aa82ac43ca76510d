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
enumeration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .integral import essential_family, is_integral, pair_residues
from .rootsystem import InvariantBreach, RootSystemSpec, exact_div


class NotIntegral(ValueError):
    pass


class DivisibilityChainBroken(InvariantBreach):
    """A Smith normal form diagonal entry does not divide the next one."""


@dataclass(frozen=True)
class CenterPresentation:
    """Relation matrix over generators (z_{r,s} for r<s) + (z_J for J in family)."""

    nullity: int
    pairs: tuple[tuple[int, int], ...]
    family: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_generators(self) -> int:
        return len(self.pairs) + len(self.family)


def center_presentation(spec: RootSystemSpec) -> CenterPresentation:
    """One row per essential member: +2 on its own column, -2/Delta on its pairs."""
    nu = spec.nullity
    pairs = tuple(
        (r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1)
    )
    coeffs = [
        exact_div(-2, spec.pair_divisor(r, s), f"-2/Delta({r},{s})") for r, s in pairs
    ]
    family = essential_family(spec)
    rows = []
    for jpos, j in enumerate(family):
        row = [0] * (len(pairs) + len(family))
        for pos, (r, s) in enumerate(pairs):
            pm = (1 << (r - 1)) | (1 << (s - 1))
            if pm & j == pm:
                row[pos] = coeffs[pos]
        row[len(pairs) + jpos] = 2
        rows.append(tuple(row))
    return CenterPresentation(nu, pairs, family, tuple(rows))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = D with U, V unimodular and the diagonal divisibility chain."""

    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Exact integer Smith normal form with the transforms kept for audit.

    Smallest-absolute-value pivoting; empty matrices are fine.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[int(x) for x in row] for row in rows]
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    u = _identity(nrows)
    v = _identity(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        arow, asrc = a[dst], a[src]
        for idx in range(ncols):
            arow[idx] += c * asrc[idx]
        urow, usrc = u[dst], u[src]
        for idx in range(nrows):
            urow[idx] += c * usrc[idx]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # smallest non-zero entry of the trailing submatrix becomes the pivot
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(pivot[0], t)
            if pivot[1] != t:
                swap_cols(pivot[1], t)
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // p))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // p))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue  # remainders shrink the next pivot
        # pivot divides the rest of the submatrix, or pull a bad row in and retry
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] for i in range(min(nrows, ncols)))
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i] if diag[i] else diag[i + 1]:
            raise DivisibilityChainBroken(
                f"d_{i + 1} = {diag[i]} does not divide d_{i + 2} = {diag[i + 1]}"
            )
    return SmithDecomposition(
        left=tuple(tuple(row) for row in u),
        right=tuple(tuple(row) for row in v),
        diag=diag,
        shape=(nrows, ncols),
    )


@dataclass(frozen=True)
class CenterStructure:
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


def kernel_exponents(spec: RootSystemSpec, eps: Mapping[int, int]) -> tuple[int, ...]:
    """Exponent vector of the kernel element attached to an integral collection.

    The pair coordinates carry minus the Delta-quotient pair sums and the
    family coordinates carry eps itself; doubling the vector lands in the
    relation row space, so the element is 2-torsion in the presented
    center.
    """
    if not is_integral(spec, eps):
        raise NotIntegral("assignment is not an integral collection")
    pres = center_presentation(spec)
    residues = pair_residues(spec, eps)
    coords = [-(residues[p][0] // residues[p][1]) for p in pres.pairs]
    coords += [eps[j] for j in pres.family]
    return tuple(coords)


def in_row_space(snf: SmithDecomposition, vector: Sequence[int]) -> bool:
    """Whether an integer vector is an integer combination of the matrix rows."""
    nrows, ncols = snf.shape
    if len(vector) != ncols:
        raise ValueError("length mismatch")
    # y in rowspace(M)  <=>  y @ V = b @ D for an integer b
    z = [
        sum(vector[i] * snf.right[i][j] for i in range(ncols))
        for j in range(ncols)
    ]
    for j in range(ncols):
        d = snf.diag[j] if j < len(snf.diag) else 0
        if d == 0:
            if z[j]:
                return False
        elif z[j] % d:
            return False
    return True
