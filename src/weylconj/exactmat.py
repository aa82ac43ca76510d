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
power a longer word (see `weylgroup`).  The fraction-free elimination
`row_reduce` serves the rank computation of the center-freeness check.
"""

from __future__ import annotations

from typing import Sequence


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


def row_reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of an integer matrix in integers only, in place.

    Bareiss's one-step scheme (Math. Comp. 22, 1968) applied to every row
    other than the pivot row: each update divides exactly by the previous
    pivot, so all entries stay integers.  On return the rows are p times
    the reduced row echelon form, p being the last pivot, and the pivot
    columns are returned alongside; their number is the rank.
    """
    pivots: list[int] = []
    prev = 1
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        prow = rows[top]
        p = prow[col]
        for r, row in enumerate(rows):
            if r != top:
                c = row[col]
                rows[r] = [(p * x - c * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(col)
    return rows, pivots
