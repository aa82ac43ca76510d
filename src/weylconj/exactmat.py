"""Small exact rational matrices: integer entries over one common denominator.

Built for the reflection representation, where every entry is a rational
with tiny denominator and products must stay exact.  Arithmetic is
integer-only: a `Mat` is an integer matrix plus one positive integer
denominator, stored canonically (gcd of all numerators and the
denominator equal to 1) so equality and hashing are structural.  The
product is a sparse row combination: row i of `a @ b` is the sum of
`x * b[k]` over the nonzero entries `x = a[i][k]`, which skips the zeros
that make up most of a reflection-word matrix.  One fraction-free
elimination routine, `row_reduce`, serves both the inverse and rank
computations.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


class Mat:
    def __init__(self, num: Sequence[Sequence[int]], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("denominator must be non-zero")
        if den < 0:
            den = -den
            num = [[-x for x in row] for row in num]
        g = den
        for row in num:
            for x in row:
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        self.num = tuple(tuple(row) for row in num)
        self.den = den
        self._inv: "Mat | None" = None

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.num)

    def __matmul__(self, other: "Mat") -> "Mat":
        # sparse row combination (see the module docstring): a zero
        # entry of `a` costs one test, not a pass over a row of `b`
        b = other.num
        zero = (0,) * (len(b[0]) if b else 0)
        num = []
        for arow in self.num:
            acc = None
            for x, brow in zip(arow, b):
                if x:
                    if acc is None:
                        acc = brow if x == 1 else [x * y for y in brow]
                    else:
                        acc = [s + x * y for s, y in zip(acc, brow)]
            num.append(zero if acc is None else acc)
        return Mat(num, self.den * other.den)

    def __pow__(self, e: int) -> "Mat":
        if e < 0:
            return self.inv() ** (-e)
        out = Mat.identity(self.size)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def inv(self) -> "Mat":
        if self._inv is not None:
            return self._inv
        n = self.size
        rows, pivots = row_reduce(
            [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.num)]
        )
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        # rows = p [I | num^-1], and (num / den)^-1 = den num^-1
        d = self.den
        out = Mat([[d * x for x in row[n:]] for row in rows], rows[0][0])
        self._inv = out
        out._inv = self
        return out

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.num)), self.den)

    def is_identity(self) -> bool:
        if self.den != 1:
            return False
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.num)
            for j, x in enumerate(row)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Mat({self.num!r}, den={self.den})"


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


def commutator(x: Mat, y: Mat) -> Mat:
    """x^-1 y^-1 x y."""
    return x.inv() @ y.inv() @ x @ y
