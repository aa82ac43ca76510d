"""Integral collections, the decision report and the corollary screens."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconj.corpus import random_spec, reference_corpus
from weylconj.integral import (
    FamilyTooLarge,
    _integral_bitsets,
    closed_form_exponent,
    construct_nonminimal,
    count_collections,
    decide_by_reduction,
    essential_family,
    is_integral,
    minimality_screen,
    semilattice_collection_count,
)
from weylconj.rootsystem import make_spec
from weylconj.semilattice import (
    Semilattice,
    elems_of,
    make_semilattice,
    pair_incidence,
    pair_masks,
)

from integral_choices import integral_collections

LAT = Semilattice.lattice
Z0 = Semilattice.lattice(0)
TRI3 = make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])


def naive_collection_count(spec):
    """Independent recount with set-of-frozensets bookkeeping."""
    if spec.family == "B" and spec.rank == 2:
        members = [set(elems_of(m)) for m in spec.s1.essential_supp()]
        members += [
            {x + spec.twist for x in elems_of(m)} for m in spec.s2.essential_supp()
        ]
    elif spec.family == "B":
        members = [set(elems_of(m)) for m in spec.s1.essential_supp()]
    elif spec.family == "C":
        members = [
            {x + spec.twist for x in elems_of(m)} for m in spec.s2.essential_supp()
        ]
    else:
        members = []
    count = 0
    for bits in itertools.product((0, 1), repeat=len(members)):
        good = True
        for r in range(1, spec.nullity + 1):
            for s in range(r + 1, spec.nullity + 1):
                total = sum(
                    b for b, j in zip(bits, members) if r in j and s in j
                )
                if total % spec.pair_divisor(r, s):
                    good = False
        if good:
            count += 1
    return count


def reference_integral_bitsets(table):
    """The per-choice parity test, one pass over the rows per choice: the enumeration's oracle."""
    for bits in range(1 << len(table.family)):
        if all((bits & c).bit_count() % 2 == 0 for c in table.parity):
            yield bits


class TestEnumerationOracle:
    """`_integral_bitsets` yields the oracle's values in the oracle's order."""

    def test_corpus_spec_and_side_tables(self):
        for label, spec in reference_corpus():
            tables = [spec.incidence]
            tables += [side.semilattice.incidence for side in spec.sides if side.free]
            for table in tables:
                assert list(_integral_bitsets(table)) == list(reference_integral_bitsets(table)), label

    def test_empty_family(self):
        table = pair_incidence(3, [], [2, 2, 2])
        assert list(_integral_bitsets(table)) == list(reference_integral_bitsets(table)) == [0]

    def test_no_parity_row_admits_every_choice(self):
        table = pair_incidence(4, [0b0111, 0b1011, 0b1111], [1] * 6)
        assert table.parity == ()
        assert list(_integral_bitsets(table)) == list(reference_integral_bitsets(table))
        assert list(_integral_bitsets(table)) == list(range(8))

    def test_position_in_no_row(self):
        # position 1, the member {4}, contains no pair: it is free to choose
        table = pair_incidence(4, [0b0111, 0b1000], [2] * 6)
        assert not any(row >> 1 & 1 for row in table.rows)
        assert list(_integral_bitsets(table)) == list(reference_integral_bitsets(table)) == [0, 2]


@st.composite
def incidence_tables(draw):
    dim = draw(st.integers(0, 6))
    family = draw(st.sets(st.integers(0, (1 << dim) - 1), max_size=14))
    pairs = len(pair_masks(dim))
    divisors = draw(st.lists(st.sampled_from((1, 2)), min_size=pairs, max_size=pairs))
    return pair_incidence(dim, family, divisors)


@given(incidence_tables())
@settings(max_examples=200, deadline=None)
def test_enumeration_matches_the_oracle_on_drawn_tables(table):
    assert list(_integral_bitsets(table)) == list(reference_integral_bitsets(table))


class TestFamily:
    def test_f4_empty(self):
        spec = make_spec("F4", 4, 3, 1, LAT(1), LAT(2))
        assert essential_family(spec) == ()

    def test_b3_full_twist(self):
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        assert essential_family(spec) == (0b111,)

    def test_b2_both_sides_shifted(self):
        spec = make_spec("B", 2, 6, 3, LAT(3), LAT(3))
        fam = essential_family(spec)
        assert len(fam) == 2
        assert fam == (0b111, 0b111000)

    def test_c3_shifted(self):
        spec = make_spec("C", 3, 4, 1, LAT(1), TRI3)
        assert essential_family(spec) == (0b1110,)


class TestPairDivisor:
    def test_mixed_always_one(self):
        spec = make_spec("B", 2, 4, 2, Semilattice.minimal(2), Semilattice.minimal(2))
        assert spec.pair_divisor(1, 3) == 1
        assert spec.pair_divisor(2, 4) == 1

    def test_twisted_block(self):
        spec = make_spec("B", 2, 4, 2, Semilattice.minimal(2), Semilattice.minimal(2))
        assert spec.pair_divisor(1, 2) == 2
        spec2 = make_spec("B", 2, 4, 2, LAT(2), Semilattice.minimal(2))
        assert spec2.pair_divisor(1, 2) == 1

    def test_untwisted_block_uses_local_indices(self):
        spec = make_spec("B", 2, 4, 2, LAT(2), make_semilattice(2, [[], [1], [2]]))
        assert spec.pair_divisor(3, 4) == 2


class TestIsIntegral:
    def test_trivial_always(self):
        for _, spec in reference_corpus():
            fam = essential_family(spec)
            assert is_integral(spec, {j: 0 for j in fam})

    def test_lattice_triple(self):
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        assert is_integral(spec, {0b111: 1})

    def test_sparse_triple_blocked(self):
        spec = make_spec("B", 3, 3, 3, TRI3, Z0)
        assert not is_integral(spec, {0b111: 1})

    def test_wrong_domain_rejected(self):
        spec = make_spec("B", 3, 3, 3, LAT(3), Z0)
        with pytest.raises(ValueError):
            is_integral(spec, {})


class TestCount:
    def test_empty_family_means_pbc(self):
        spec = make_spec("G2", 2, 3, 2, LAT(2), LAT(1))
        report = count_collections(spec)
        assert report.inc == 1 and report.has_pbc

    def test_b3_lattice(self):
        report = count_collections(make_spec("B", 3, 3, 3, LAT(3), Z0))
        assert (report.inc, report.n0, report.has_pbc) == (2, 1, False)
        assert report.witnesses == ((0b111,),)

    def test_b2_nu4_no_triples(self):
        report = count_collections(make_spec("B", 2, 4, 2, LAT(2), LAT(2)))
        assert report.inc == 1 and report.has_pbc

    def test_matches_naive_recount_on_corpus(self):
        for label, spec in reference_corpus():
            assert count_collections(spec).inc == naive_collection_count(spec), label

    def test_witness_cap(self):
        spec = make_spec("B", 3, 4, 4, LAT(4), Z0)
        report = count_collections(spec, max_witnesses=3)
        assert report.inc == 32
        assert len(report.witnesses) == 3

    def test_enumeration_guard(self):
        spec = make_spec("B", 2, 6, 6, LAT(6), Z0)
        assert len(essential_family(spec)) == 42
        with pytest.raises(FamilyTooLarge) as spec_err:
            count_collections(spec)
        with pytest.raises(FamilyTooLarge) as side_err:
            semilattice_collection_count(LAT(6))
        assert str(side_err.value) == str(spec_err.value)
        assert str(spec_err.value) == "|family| = 42 exceeds the enumeration guard 24"


class TestClosedForm:
    def test_b_lattice_twists(self):
        assert closed_form_exponent(make_spec("B", 3, 2, 2, LAT(2), Z0)) == 0
        assert closed_form_exponent(make_spec("B", 3, 3, 3, LAT(3), Z0)) == 1
        assert closed_form_exponent(make_spec("B", 3, 4, 4, LAT(4), Z0)) == 5

    def test_c_lattice(self):
        assert closed_form_exponent(make_spec("C", 3, 3, 0, Z0, LAT(3))) == 1

    def test_b2_both_lattices(self):
        assert closed_form_exponent(make_spec("B", 2, 4, 2, LAT(2), LAT(2))) == 0

    def test_inapplicable(self):
        assert closed_form_exponent(make_spec("B", 3, 3, 3, TRI3, Z0)) is None

    def test_agreement_with_enumeration(self):
        for label, spec in reference_corpus():
            closed = closed_form_exponent(spec)
            if closed is not None:
                assert closed == count_collections(spec).n0, label


class TestSingleSemilattice:
    def test_lattice_dim3(self):
        assert semilattice_collection_count(LAT(3)) == 2

    def test_sparse_triple(self):
        assert semilattice_collection_count(TRI3) == 1

    def test_minimal(self):
        assert semilattice_collection_count(Semilattice.minimal(4)) == 1


class TestReduction:
    def test_matches_enumeration_on_corpus(self):
        for label, spec in reference_corpus():
            assert decide_by_reduction(spec) == count_collections(spec).has_pbc, label

    def test_g2_always(self):
        assert decide_by_reduction(make_spec("G2", 2, 3, 3, LAT(3), Z0))

    def test_c4_no_triples(self):
        spec = make_spec("C", 4, 3, 1, LAT(1), make_semilattice(2, [[], [1], [2]]))
        assert decide_by_reduction(spec)

    def test_b3_lattice_fails(self):
        assert not decide_by_reduction(make_spec("B", 3, 3, 3, LAT(3), Z0))


class TestScreen:
    def test_lattice_high_twist_not_minimal(self):
        screen = minimality_screen(make_spec("B", 3, 3, 3, LAT(3), Z0))
        assert screen.verdict == "not_minimal"

    def test_low_twist_index_four_minimal(self):
        s1 = make_semilattice(3, [[], [1], [2], [3], [1, 2]])
        screen = minimality_screen(make_spec("B", 3, 3, 3, s1, Z0))
        assert screen.verdict == "minimal"

    def test_near_full_index_not_minimal(self):
        full = Semilattice.lattice(4)
        near = make_semilattice(4, [s for s in full.to_subsets() if s != [3, 4]])
        assert near.index == 14
        screen = minimality_screen(make_spec("B", 3, 4, 4, near, Z0))
        assert screen.verdict == "not_minimal"

    def test_decisive_verdicts_agree_on_corpus(self):
        for label, spec in reference_corpus():
            screen = minimality_screen(spec)
            if screen.verdict == "unknown":
                continue
            assert (screen.verdict == "minimal") == count_collections(spec).has_pbc, label


class TestConstruct:
    def test_b_twist3(self):
        spec, report = construct_nonminimal("B", 3, 3, m1=7)
        assert spec.s1.index == 7 and spec.s1.is_lattice
        assert report.inc == count_collections(spec).inc >= 2

    def test_c_mirror(self):
        spec, report = construct_nonminimal("C", 3, 0, m2=7)
        assert spec.s2.index == 7
        assert report.inc == count_collections(spec).inc >= 2

    def test_b_twist4_mid_index(self):
        spec, report = construct_nonminimal("B", 4, 4, m1=8)
        assert spec.s1.index == 8
        assert report.inc == count_collections(spec).inc >= 2

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            construct_nonminimal("B", 3, 3, m1=6)  # below t+4
        with pytest.raises(ValueError):
            construct_nonminimal("B", 3, 3, m1=8)  # above 2^t - 1
        with pytest.raises(ValueError):
            construct_nonminimal("G2", 3, 3, m1=7)
        with pytest.raises(ValueError, match="^the construction applies to types B and C$"):
            construct_nonminimal("F4", 3, 3, m1=7, rank=4)
        with pytest.raises(ValueError, match="^type B requires m1$"):
            construct_nonminimal("B", 3, 3, m2=7)
        with pytest.raises(ValueError, match="^type C requires m2$"):
            construct_nonminimal("C", 3, 0, m1=7)
        with pytest.raises(ValueError, match=r"^need 7 <= nu-t\+4 <= m2 <= 2\^\(nu-t\) - 1, "
                           r"got nu-t=3, m2=8$"):
            construct_nonminimal("C", 3, 0, m2=8)

    def test_b2_varies_s1(self):
        # B2 leaves both sides free; the first free side, S1, varies
        spec, report = construct_nonminimal("B", 3, 3, m1=7, rank=2)
        assert spec.s1.index == 7 and spec.s2.is_lattice and report.inc >= 2


@st.composite
def specs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_spec(random.Random(seed))


@given(specs())
@settings(max_examples=60, deadline=None)
def test_xor_closure_and_power_of_two(spec):
    fam = essential_family(spec)
    found = [
        tuple(eps[j] for j in fam) for eps in integral_collections(spec)
    ]
    as_set = set(found)
    assert len(as_set) == len(found)
    assert len(found) & (len(found) - 1) == 0
    for a in found:
        for b in found:
            x = tuple(p ^ q for p, q in zip(a, b))
            assert x in as_set
