"""Small exact integer matrices.

Built for the reflection representation, whose basis is chosen so that
every reflection has integer entries (see `weylgroup`), so a `Mat` is a
tuple of integer rows and equality and hashing are structural.  Rows
are immutable tuples, so two matrices may hold the same row object:
`Mat.wrap` takes a tuple of row tuples as it is, and `weylgroup` builds
each word's matrix that way, sharing every row a reflection leaves
alone with the prefix's matrix.  `is_identity` reads each row's
diagonal entry and its count of zeros.  The verifiers build no matrix
by products: `weylgroup` applies each reflection as a rank-one update.
The product serves the center-freeness check's D_a D_b and the tests,
which compare the updates with dense products.  It is a sparse row
combination: row i of `a @ b` is the sum of `x * b[k]` over the nonzero
entries `x = a[i][k]`, which skips the zeros that make up most of a
reflection-word matrix.  Nothing here
inverts a matrix or raises one to a power: every matrix the verifiers
build is a word in reflections, its inverse is another word and its
power a longer word (see `weylgroup`).  `smith_diagonal` is the
library's one integer elimination: it serves the center's torsion
(`center.smith_normal_form`) and the center-freeness rank, the number
of non-zero diagonal entries of the flattened displacements.  It
diagonalises first and normalises last: it pivots on a +-1 wherever a
row holds one, divides out a content that every entry shares, drops a
row as soon as its pivot divides it, and turns the recorded pivots into
the chain d_1 | d_2 | ... by gcd/lcm at the end.  A relation matrix's
entries are 0, +-1 and +-2, so nearly every pivot is a unit and no
pass scans the whole matrix for the least entry.  It reads only the
integer rows: nothing is reduced mod 2.
"""

from __future__ import annotations

import math
from typing import Sequence

from .rootsystem import InvariantBreach


class Mat:
    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def wrap(cls, rows: tuple[tuple[int, ...], ...]) -> "Mat":
        """The matrix of rows that are already a tuple of integer tuples, taken as they are."""
        mat = object.__new__(cls)
        mat.rows = rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "Mat") -> "Mat":
        # sparse row combination (see the module docstring): a zero
        # entry of `a` costs one test, not a pass over a row of `b`
        b = other.rows
        zero = (0,) * (len(b[0]) if b else 0)
        rows = []
        for arow in self.rows:
            acc = None
            for x, brow in zip(arow, b):
                if x:
                    if acc is None:
                        acc = brow if x == 1 else [x * y for y in brow]
                    else:
                        acc = [s + x * y for s, y in zip(acc, brow)]
            rows.append(zero if acc is None else acc)
        return Mat(rows)

    def is_identity(self) -> bool:
        # row i is e_i: a 1 at i and n - 1 zeros, counted in C
        n = len(self.rows)
        return all(
            len(row) == n and row[i] == 1 and row.count(0) == n - 1
            for i, row in enumerate(self.rows)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Mat({self.rows!r})"


def smith_diagonal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact integer Smith normal form diagonal d_1 | d_2 | ..., one entry per min(shape).

    Diagonalise first, normalise last.  The pivot is a +-1 whenever a
    live row holds one; failing that, a content g > 1 shared by every
    live entry is divided out (Smith(gB) = g Smith(B)) and multiplies
    every later pivot; failing that, the entry of least absolute value.
    Integer row operations clear the pivot's column, and a remainder
    smaller than the pivot takes its place, as in Euclid's algorithm.
    A pivot that divides its own row is recorded and the row dropped:
    the column operations that would clear the row touch no other row.
    Otherwise the row keeps its remainders mod the pivot and the least
    of them pivots next.  The recorded entries become the divisibility
    chain by gcd/lcm, padded with zeros to min(shape).  Empty matrices
    are fine.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    live = [list(map(int, row)) for row in rows if any(row)]
    found = []
    content = 1
    while live:
        top = next((row for row in live if 1 in row or -1 in row), None)
        if top is not None:
            j = top.index(1) if 1 in top else top.index(-1)
        else:
            g = math.gcd(*(math.gcd(*row) for row in live))
            if g > 1:
                live = [[x // g for x in row] for row in live]
                content *= g
                continue
            top = min(live, key=lambda row: min(abs(x) for x in row if x))
            j = min((k for k, x in enumerate(top) if x), key=lambda k: abs(top[k]))
        while True:
            p = top[j]
            kept, rest = [], []
            for row in live:
                if row[j] and row is not top:
                    c = row[j] // p
                    row = [x - c * y for x, y in zip(row, top)]
                    if row[j]:
                        rest.append(row)
                    elif not any(row):
                        continue
                kept.append(row)
            live = kept
            if rest:
                top = min(rest, key=lambda row: abs(row[j]))
                continue
            if p in (1, -1) or not any(x % p for x in top):
                found.append(abs(p) * content)
                live.remove(top)
                break
            top[:] = [x % p if k != j else p for k, x in enumerate(top)]
            j = min((k for k, x in enumerate(top) if x and k != j), key=lambda k: abs(top[k]))

    # gcd/lcm on neighbours sorts each prime's exponents, as a bubble sort
    diag = sorted(found)
    while any(b % a for a, b in zip(diag, diag[1:])):
        for i in range(len(diag) - 1):
            g = math.gcd(diag[i], diag[i + 1])
            diag[i], diag[i + 1] = g, diag[i] // g * diag[i + 1]
    diag += [0] * (min(len(rows), ncols) - len(diag))
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i] if diag[i] else diag[i + 1]:
            raise InvariantBreach(
                f"d_{i + 1} = {diag[i]} does not divide d_{i + 2} = {diag[i + 1]}"
            )
    return tuple(diag)
