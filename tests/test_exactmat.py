"""Canonical form and arithmetic of the shared-denominator matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconj.exactmat import Mat, commutator, row_reduce


class TestCanonical:
    def test_reduction(self):
        m = Mat([[2, 4], [6, 8]], den=2)
        assert m.num == ((1, 2), (3, 4)) and m.den == 1

    def test_negative_denominator(self):
        m = Mat([[1, -2]], den=-3)
        assert m.num == ((-1, 2),) and m.den == 3

    def test_equality_and_hash(self):
        a = Mat([[2, 0], [0, 2]], den=4)
        b = Mat([[1, 0], [0, 1]], den=2)
        assert a == b and hash(a) == hash(b)


class TestArithmetic:
    def test_identity_and_inverse(self):
        m = Mat([[1, 2], [3, 5]])
        assert (m @ Mat.identity(2)) == m
        assert m.inv() @ m == Mat.identity(2)

    def test_singular_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Mat([[1, 2], [2, 4]]).inv()

    def test_negative_power(self):
        m = Mat([[1, 1], [0, 1]])
        assert m**-3 == Mat([[1, -3], [0, 1]])
        assert m**0 == Mat.identity(2)

    def test_transpose(self):
        m = Mat([[1, 2], [3, 4]], den=5)
        assert m.transpose().num == ((1, 3), (2, 4))

    def test_commutator_of_commuting_is_identity(self):
        a = Mat([[2, 0], [0, 3]])
        b = Mat([[5, 0], [0, 7]])
        assert commutator(a, b).is_identity()


mat2 = st.builds(
    lambda rows, den: (rows, den),
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
             min_size=2, max_size=2),
    st.integers(1, 5),
)


@given(mat2, mat2)
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_arithmetic(a, b):
    ma = Mat(a[0], a[1])
    mb = Mat(b[0], b[1])
    prod = ma @ mb
    def frac(m, i, j):
        return Fraction(m.num[i][j], m.den)

    for i in range(2):
        for j in range(2):
            expected = sum(frac(ma, i, k) * frac(mb, k, j) for k in range(2))
            assert frac(prod, i, j) == expected


def fraction_rref(rows):
    """Reference: Gauss-Jordan over the rationals; (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5, 7])
small_matrix = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5
    )
)
square_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
)


def dense_product(a, b):
    """Reference: the textbook product, one dot product per output entry."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


sparse_entry = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, -3])


def zero_heavy_rows(nrows, ncols):
    """Mostly zero integer rows, with whole rows or columns forced to zero."""
    entries = st.lists(sparse_entry, min_size=nrows * ncols, max_size=nrows * ncols)
    return st.tuples(entries, st.sets(st.integers(0, nrows - 1)),
                     st.sets(st.integers(0, ncols - 1))).map(
        lambda t: [
            [0 if i in t[1] or j in t[2] else t[0][i * ncols + j] for j in range(ncols)]
            for i in range(nrows)
        ]
    )


product_operands = st.tuples(
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)
).flatmap(
    lambda dims: st.tuples(
        zero_heavy_rows(dims[0], dims[1]),
        st.integers(-6, 6).filter(bool),
        zero_heavy_rows(dims[1], dims[2]),
        st.integers(-6, 6).filter(bool),
    )
)


@given(product_operands)
@settings(max_examples=150, deadline=None)
def test_sparse_product_matches_dense_reference(operands):
    a_rows, a_den, b_rows, b_den = operands
    a, b = Mat(a_rows, a_den), Mat(b_rows, b_den)
    assert a @ b == Mat(dense_product(a.num, b.num), a.den * b.den)
    # the same product from the operands before their canonical reduction
    assert a @ b == Mat(dense_product(a_rows, b_rows), a_den * b_den)


def test_product_with_zero_rows_and_columns():
    a = Mat([[0, 0, 0], [2, 0, -1]], den=3)
    b = Mat([[0, 1], [0, 5], [0, -2]], den=-2)
    assert (a @ b).num == ((0, 0), (0, -2)) and (a @ b).den == 3
    assert (Mat([[0, 0], [0, 0]]) @ Mat([[1, 2], [3, 4]])).num == ((0, 0), (0, 0))


@given(small_matrix)
@settings(max_examples=300, deadline=None)
def test_row_reduce_matches_rational_elimination(rows):
    got, pivots = row_reduce([list(row) for row in rows])
    ref, ref_pivots = fraction_rref(rows)
    assert pivots == ref_pivots
    for row, ref_row in zip(got, ref):
        assert [Fraction(x, got[0][pivots[0]]) for x in row] == ref_row


@given(square_matrix, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_inverse_matches_rational_elimination(rows, den):
    m = Mat(rows, den)
    n = len(rows)
    if len(fraction_rref(rows)[1]) < n:
        with pytest.raises(ZeroDivisionError):
            m.inv()
    else:
        assert m.inv() @ m == Mat.identity(n) == m @ m.inv()
