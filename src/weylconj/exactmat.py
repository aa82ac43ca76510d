"""Small exact integer matrices.

Built for the reflection representation, whose basis is chosen so that
every reflection has integer entries (see `weylgroup`), so a `Mat` is a
tuple of integer rows and equality and hashing are structural.  The
verifiers build no matrix by products: `weylgroup` applies each
reflection as a rank-one update.  The product serves the center-freeness
check's D_a D_b and the tests, which compare the updates with dense
products.  It is a sparse row combination: row i of `a @ b` is the sum
of `x * b[k]` over the nonzero entries `x = a[i][k]`, which skips the
zeros that make up most of a reflection-word matrix.  Nothing here
inverts a matrix or raises one to a power: every matrix the verifiers
build is a word in reflections, its inverse is another word and its
power a longer word (see `weylgroup`).  `smith_diagonal` is the
library's one integer elimination: it serves the center's torsion
(`center.smith_normal_form`) and the center-freeness rank, the number
of non-zero diagonal entries of the flattened displacements.
"""

from __future__ import annotations

from typing import Sequence

from .rootsystem import InvariantBreach


class Mat:
    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(row) for row in rows)

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
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
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

    Smallest-absolute-value pivoting on the matrix alone; empty matrices are fine.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[int(x) for x in row] for row in rows]
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")

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
        pi, pj = pivot
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
        top = a[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                c = a[i][t] // p
                a[i] = [x - c * y for x, y in zip(a[i], top)]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, ncols):
            if top[j]:
                c = top[j] // p
                for row in a:
                    row[j] -= c * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue  # remainders shrink the next pivot
        # pivot divides the rest of the submatrix, or pull a bad row in and retry
        offender = next(
            (row for row in a[t + 1:] if any(x % p for x in row[t + 1:])), None
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(top, offender)]
            continue
        if p < 0:
            a[t] = [-x for x in top]
        t += 1

    diag = tuple(a[i][i] for i in range(min(nrows, ncols)))
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i] if diag[i] else diag[i + 1]:
            raise InvariantBreach(
                f"d_{i + 1} = {diag[i]} does not divide d_{i + 2} = {diag[i + 1]}"
            )
    return diag
