"""Arithmetic of the integer matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconj import weylgroup
from weylconj.corpus import reference_corpus
from weylconj.exactmat import Mat, smith_diagonal
from weylconj.weylgroup import (
    Representation,
    inverse,
    translation,
    verify_choice_independence,
)


mat2 = st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=2, max_size=2)


@given(mat2, mat2)
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_arithmetic(a, b):
    prod = Mat(a) @ Mat(b)
    for i in range(2):
        for j in range(2):
            expected = sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(2))
            assert prod.rows[i][j] == expected


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
        zero_heavy_rows(dims[1], dims[2]),
    )
)


@given(product_operands)
@settings(max_examples=150, deadline=None)
def test_sparse_product_matches_dense_reference(operands):
    a_rows, b_rows = operands
    assert Mat(a_rows) @ Mat(b_rows) == Mat(dense_product(a_rows, b_rows))


def test_product_with_zero_rows_and_columns():
    a = Mat([[0, 0, 0], [2, 0, -1]])
    b = Mat([[0, 1], [0, 5], [0, -2]])
    assert (a @ b).rows == ((0, 0), (0, 4))
    assert (Mat([[0, 0], [0, 0]]) @ Mat([[1, 2], [3, 4]])).rows == ((0, 0), (0, 0))


@given(small_matrix)
@settings(max_examples=300, deadline=None)
def test_smith_rank_matches_rational_elimination(rows):
    # the center-freeness rank is the Smith diagonal's non-zero count;
    # rational Gauss-Jordan stays its oracle
    diag = smith_diagonal(rows)
    _, pivots = fraction_rref(rows)
    assert len(diag) == min(len(rows), len(rows[0]))
    assert sum(1 for d in diag if d) == len(pivots)


def test_smith_refuses_a_ragged_matrix():
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_diagonal([[1, 2], [3]])


def fraction_inverse(m: Mat) -> list[list[Fraction]]:
    """Reference: the rational inverse, by Gauss-Jordan on [m | I]."""
    n = len(m.rows)
    rows, pivots = fraction_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.rows)]
    )
    assert pivots == list(range(n)), "singular"
    return [row[n:] for row in rows]


def test_word_inverse_matches_rational_elimination(monkeypatch):
    # the elimination the inverse words replaced, kept as their oracle:
    # every t_{i,r} and every z_{r,s} word, alternate bases included
    recorded = []
    central_image = weylgroup.central_image

    def recording(*args, **kwargs):
        recorded.append(central_image(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(weylgroup, "central_image", recording)
    checked = 0
    for _, spec in reference_corpus():
        if spec.nullity > 2:
            continue
        rep = Representation(spec)
        recorded.clear()
        assert verify_choice_independence(rep).passed
        assert len(recorded) == spec.nullity * (spec.nullity - 1)  # default + alternate
        words = [
            translation(spec, i, r)
            for i in range(1, spec.rank + 1)
            for r in range(1, spec.nullity + 1)
        ] + recorded
        for word in words:
            m, m_inv = rep.mat(word), rep.mat(inverse(word))
            assert (m @ m_inv).is_identity()
            assert [list(row) for row in m_inv.rows] == fraction_inverse(m)
        checked += len(words)
    assert checked == 76 + 2 * 10  # 18 specs; 10 of nullity 2 have one pair


near_identity = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda noise: [
        [int(i == j) if noise[i][j] in (0, 1) else noise[i][j] for j in range(n)]
        for i in range(n)
    ])
)


@given(near_identity)
@settings(max_examples=200, deadline=None)
def test_is_identity_is_entrywise_delta(rows):
    n = len(rows)
    expected = all(x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row))
    assert Mat(rows).is_identity() == expected
    assert Mat.identity(n).is_identity()
