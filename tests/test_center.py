"""Center presentation, Smith normal form and the torsion oracle.

The library keeps only the Smith diagonal.  `reference_smith` is an
independent smallest-pivot elimination that keeps both unimodular
transforms; it audits U·M·V = D and is the oracle for the diagonal and
for row-lattice membership.  The determinantal minors are a second
oracle, and on the B3 lattice the closed form of the collection count
is a third, at a scale the other two cannot reach.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconj.center import (
    center_presentation,
    center_structure,
    in_row_space,
    kernel_exponents,
    smith_normal_form,
)
from weylconj.corpus import reference_corpus
from weylconj.integral import _integral_bitsets, closed_form_exponent, count_collections
from weylconj.rootsystem import make_spec
from weylconj.semilattice import Semilattice, make_semilattice

LAT = Semilattice.lattice
Z0 = Semilattice.lattice(0)
# up to 5 x 6, about a third of the entries zero
MATRICES = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9)), min_size=ncols, max_size=ncols
        ),
        min_size=1,
        max_size=5,
    )
)
# no +-1 entry, so the elimination divides out a content or pivots on
# the least entry: scaled MATRICES, and entries from a unit-free set
NO_UNIT_MATRICES = st.one_of(
    st.tuples(MATRICES, st.sampled_from([2, 3, 4, 6])).map(
        lambda mg: [[mg[1] * x for x in row] for row in mg[0]]
    ),
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(
                st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]),
                min_size=ncols,
                max_size=ncols,
            ),
            min_size=1,
            max_size=5,
        )
    ),
)
# single rows and single columns
LINES = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n).flatmap(
        lambda line: st.sampled_from([[line], [[x] for x in line]])
    )
)


@st.composite
def with_zero_lines(draw, matrices):
    """A matrix of up to 4 x 5 with one zero row and one zero column put in."""
    rows = [row[:5] for row in draw(matrices)[:4]]
    ncols = len(rows[0])
    col = draw(st.integers(0, ncols))
    rows = [row[:col] + [0] + row[col:] for row in rows]
    at = draw(st.integers(0, len(rows)))
    return rows[:at] + [[0] * (ncols + 1)] + rows[at:]


def decide_style_specs(seed):
    """B3 (twist nu), C3 (twist 0) and B2 (random split) specs at nu = 5..7.

    One of each type per family size 0..19; a class holds the empty
    set, the singletons, each pair with probability 1/2 and `size`
    members of size >= 3 drawn at random.
    """
    rng = random.Random(seed)

    def big(dim):
        return [m for m in range(1 << dim) if m.bit_count() >= 3]

    def random_class(dim, size):
        pairs = [m for m in range(1 << dim) if m.bit_count() == 2 and rng.random() < 0.5]
        small = [0, *(1 << i for i in range(dim)), *pairs]
        return Semilattice(dim, frozenset(small + rng.sample(big(dim), size)))

    for size in range(20):
        nu = rng.choice([n for n in (5, 6, 7) if len(big(n)) >= size])
        yield make_spec("B", 3, nu, nu, random_class(nu, size), Z0)
        nu = rng.choice([n for n in (5, 6, 7) if len(big(n)) >= size])
        yield make_spec("C", 3, nu, 0, Z0, random_class(nu, size))
        nu, t = rng.choice([
            (n, t) for n in (5, 6, 7) for t in range(n + 1)
            if len(big(t)) + len(big(n - t)) >= size
        ])
        k1 = rng.randint(max(0, size - len(big(nu - t))), min(size, len(big(t))))
        yield make_spec("B", 2, nu, t, random_class(t, k1), random_class(nu - t, size - k1))


def frac_det(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                c = rows[r][col] * inv
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det


def determinant_divisors(rows):
    """gcd of all k x k minors, for each k: the classical invariant-factor oracle."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                minor = frac_det([[rows[r][c] for c in csel] for r in rsel])
                g = math.gcd(g, int(minor))
        out.append(g)
    return out


def snf_matches_minor_oracle(rows):
    snf = smith_normal_form(rows)
    divisors = determinant_divisors(rows)
    prev = 1
    expected = []
    for dk in divisors:
        if dk == 0:
            break
        expected.append(dk // prev)
        prev = dk
    nonzero = [d for d in snf.diag if d]
    assert nonzero == expected, (rows, snf.diag, expected)


def reference_smith(rows):
    """Smith normal form with both unimodular transforms: U @ M @ V = D.

    The textbook elimination, independent of the library's unit-pivot
    one: the least non-zero entry of the whole trailing submatrix
    pivots, its row and column are cleared, and a row the pivot does
    not divide is added in, so the chain d_1 | d_2 | ... holds as it
    goes.  U and V are carried alongside; it returns (U, V, diag).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[int(x) for x in row] for row in rows]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def add_row(src, dst, c):
        for mat in (a, u):
            mat[dst] = [x + c * y for x, y in zip(mat[dst], mat[src])]

    def add_col(src, dst, c):
        for row in a + v:
            row[dst] += c * row[src]

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        for mat in (a, u):
            mat[pi], mat[t] = mat[t], mat[pi]
        for row in a + v:
            row[pj], row[t] = row[t], row[pj]
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
            continue
        offender = next(
            (i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1:])), None
        )
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if p < 0:
            for mat in (a, u):
                mat[t] = [-x for x in mat[t]]
        t += 1
    return u, v, tuple(a[i][i] for i in range(min(nrows, ncols)))


def reference_in_row_space(rows, vector):
    """y is in the row lattice of M iff y @ V = b @ D for an integer b."""
    _, v, diag = reference_smith(rows)
    ncols = len(vector)
    z = [sum(vector[i] * v[i][j] for i in range(ncols)) for j in range(ncols)]
    for j in range(ncols):
        d = diag[j] if j < len(diag) else 0
        if z[j] % d if d else z[j]:
            return False
    return True


def audit(rows):
    """U @ M @ V = D with U, V unimodular; the library's diagonal is D's."""
    u, v, diag = reference_smith(rows)
    snf = smith_normal_form(rows)
    assert snf.diag == diag
    nrows, ncols = snf.shape
    m = [[rows[i][j] for j in range(ncols)] for i in range(nrows)]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    if nrows and ncols:
        umv = matmul(matmul(u, m), v)
        for i in range(nrows):
            for j in range(ncols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert umv[i][j] == expected
    if nrows:
        assert abs(frac_det(u)) == 1
    if ncols:
        assert abs(frac_det(v)) == 1
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    return snf


class TestSmith:
    def test_worked_example(self):
        snf = audit([[2, 4], [6, 8]])
        assert snf.invariant_factors == (2, 4)
        snf_matches_minor_oracle([[2, 4], [6, 8]])

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.rank == 0
        assert snf.invariant_factors == ()

    def test_empty_matrix(self):
        snf = smith_normal_form([])
        assert snf.rank == 0 and snf.diag == ()

    def test_identity(self):
        snf = audit([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert snf.diag == (1, 1, 1)
        assert snf.rank == 3

    def test_known_torsion(self):
        snf_matches_minor_oracle([[2, 0], [0, 3]])
        snf_matches_minor_oracle([[1, 2, 3], [4, 5, 6]])
        snf_matches_minor_oracle([[6, 4], [2, 8], [10, 2]])

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_audit_and_minors(self, rows):
        audit(rows)
        snf_matches_minor_oracle(rows)

    @given(MATRICES)
    @settings(max_examples=150, deadline=None)
    def test_diagonal_matches_reference(self, rows):
        assert smith_normal_form(rows).diag == reference_smith(rows)[2]

    @given(
        st.one_of(
            NO_UNIT_MATRICES, LINES, with_zero_lines(st.one_of(MATRICES, NO_UNIT_MATRICES))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_without_units_and_with_zero_lines(self, rows):
        # content division, least-entry pivots and remainders, zero lines
        audit(rows)
        snf_matches_minor_oracle(rows)

    def test_corpus_relation_matrices_match_reference(self):
        for label, spec in reference_corpus():
            rows = center_presentation(spec).rows
            assert smith_normal_form(rows).diag == reference_smith(rows)[2], label

    def test_decide_style_relation_matrices_match_reference(self):
        sizes = []
        for spec in decide_style_specs(seed=7):
            rows = center_presentation(spec).rows
            sizes.append(len(rows))
            assert smith_normal_form(rows).diag == reference_smith(rows)[2], spec
        assert sorted(sizes) == sorted([*range(20)] * 3)


class TestRowSpace:
    def test_saturation_index(self):
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.saturation_index == 8
        assert smith_normal_form([[0, 0]]).saturation_index == 1

    def test_empty_rows_hold_only_zero(self):
        assert in_row_space([], [0, 0])
        assert not in_row_space([], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            in_row_space([[1, 2]], [1])

    @given(MATRICES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_inside_and_outside(self, rows, data):
        ncols = len(rows[0])
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        assert in_row_space(rows, combo) and reference_in_row_space(rows, combo)
        # combo lies in the saturation of the scaled rows, in their lattice
        # only when combo / scale is integral and in the original lattice
        scale = data.draw(st.integers(2, 3))
        scaled = [[scale * x for x in row] for row in rows]
        inside = in_row_space(scaled, combo)
        assert inside == reference_in_row_space(scaled, combo)
        if any(x % scale for x in combo):
            assert not inside
        other = data.draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
        assert in_row_space(rows, other) == reference_in_row_space(rows, other)


class TestPresentation:
    def test_empty_family_zero_rows(self):
        spec = make_spec("F4", 4, 3, 1, LAT(1), LAT(2))
        pres = center_presentation(spec)
        assert pres.rows == ()
        assert len(pres.pairs) == 3

    def test_b3_lattice_row(self):
        pres = center_presentation(make_spec("B", 3, 3, 3, LAT(3), Z0))
        assert pres.pairs == ((1, 2), (1, 3), (2, 3))
        assert pres.rows == ((-2, -2, -2, 2),)

    def test_b3_sparse_row_halved(self):
        tri = make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])
        pres = center_presentation(make_spec("B", 3, 3, 3, tri, Z0))
        assert pres.rows == ((-1, -1, -1, 2),)

    def test_one_pivot_per_row(self):
        for label, spec in reference_corpus():
            pres = center_presentation(spec)
            npairs = len(pres.pairs)
            for i, row in enumerate(pres.rows):
                jblock = row[npairs:]
                assert jblock[i] == 2
                assert all(x == 0 for pos, x in enumerate(jblock) if pos != i), label


class TestStructure:
    def test_free_rank_formula(self):
        for label, spec in reference_corpus():
            cs = center_structure(spec)
            nu = spec.nullity
            assert cs.free_rank == nu * (nu - 1) // 2, label

    def test_b3_lattice_torsion(self):
        cs = center_structure(make_spec("B", 3, 3, 3, LAT(3), Z0))
        assert cs.torsion == (2,)
        assert cs.torsion_order == 2

    def test_sparse_no_torsion(self):
        tri = make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])
        cs = center_structure(make_spec("B", 3, 3, 3, tri, Z0))
        assert cs.torsion == ()

    def test_b3_nu8_lattice_torsion_is_the_closed_form(self):
        # 219 x 247: no Delta = 2 pair, so n0 = |family| with no elimination
        spec = make_spec("B", 3, 8, 8, LAT(8), Z0)
        assert closed_form_exponent(spec) == len(spec.incidence.family) == 219
        cs = center_structure(spec)
        assert cs.torsion == (2,) * 219
        assert cs.free_rank == 8 * 7 // 2

    def test_torsion_order_equals_collection_count(self):
        for label, spec in reference_corpus():
            cs = center_structure(spec)
            assert cs.torsion_order == count_collections(spec).inc, label
            assert all(d == 2 for d in cs.torsion), label


class TestKernel:
    def test_trivial_collection_is_zero(self):
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        assert kernel_exponents(spec, 0) == (0, 0, 0, 0)

    def test_doubling_lands_in_row_space(self):
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        rows = center_presentation(spec).rows
        for bits in _integral_bitsets(spec.incidence):
            vec = kernel_exponents(spec, bits)
            assert in_row_space(rows, [2 * x for x in vec])

    def test_rejects_non_integral(self):
        tri = make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])
        spec = make_spec("B", 3, 3, 3, tri, Z0)
        with pytest.raises(ValueError, match="^choice 0b1 is not an integral collection$"):
            kernel_exponents(spec, 0b1)

    def test_rejects_a_choice_outside_the_family(self):
        # one family member: a bit past it, or a negative int, is no choice
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        for bits in (0b10, -1):
            with pytest.raises(ValueError, match="is not a set of the 1 positions$"):
                kernel_exponents(spec, bits)

    def test_injective_into_torsion_cosets(self):
        # distinct collections land in distinct cosets of the row space
        cases = [
            make_spec("B", 3, 3, 3, LAT(3), Z0),
            make_spec("B", 3, 4, 4, LAT(4), Z0),
            make_spec("B", 2, 4, 4, LAT(4), Z0),
            make_spec("C", 3, 3, 0, Z0, LAT(3)),
        ]
        for spec in cases:
            rows = center_presentation(spec).rows
            vecs = [kernel_exponents(spec, bits) for bits in _integral_bitsets(spec.incidence)]
            for a, b in itertools.combinations(vecs, 2):
                diff = [x - y for x, y in zip(a, b)]
                assert not in_row_space(rows, diff)
            assert len(vecs) == count_collections(spec).inc
