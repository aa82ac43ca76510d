"""Finite root systems, extended affine membership and the coefficient tables."""

import itertools
from fractions import Fraction

import pytest

from weylconj import rootsystem
from weylconj.rootsystem import (
    InvariantBreach,
    Root,
    RootClass,
    SpecValidationError,
    commutator_coeff,
    conj_exponent,
    exact_div,
    finite_roots,
    generating_roots,
    make_spec,
    root_class,
    spec_from_json,
    spec_to_json,
    type_label,
)
from weylconj.semilattice import Semilattice, make_semilattice


def coordinate_realization(family, rank):
    """Independent oracle: the classical +-e_i realizations, short/long counts."""
    if family == "B":
        short = {tuple(s if j == i else 0 for j in range(rank))
                 for i in range(rank) for s in (1, -1)}
        long_ = set()
        for i, j in itertools.combinations(range(rank), 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = [0] * rank
                v[i], v[j] = si, sj
                long_.add(tuple(v))
        return short, long_
    if family == "C":
        short = set()
        for i, j in itertools.combinations(range(rank), 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = [0] * rank
                v[i], v[j] = si, sj
                short.add(tuple(v))
        long_ = {tuple(2 * s if j == i else 0 for j in range(rank))
                 for i in range(rank) for s in (1, -1)}
        return short, long_
    if family == "F4":
        long_ = set()
        for i, j in itertools.combinations(range(4), 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = [0] * 4
                v[i], v[j] = si, sj
                long_.add(tuple(v))
        short = {tuple(s if j == i else 0 for j in range(4))
                 for i in range(4) for s in (1, -1)}
        short |= {
            tuple(Fraction(s, 2) for s in signs)
            for signs in itertools.product((1, -1), repeat=4)
        }
        return short, long_
    if family == "G2":
        base = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
        short = {v for v in base} | {tuple(-x for x in v) for v in base}
        lbase = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        long_ = {v for v in lbase} | {tuple(-x for x in v) for v in lbase}
        return short, long_
    raise ValueError(family)


CASES = [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("F4", 4), ("G2", 2)]


class TestFiniteRoots:
    @pytest.mark.parametrize("family,rank", CASES)
    def test_counts_match_coordinate_realization(self, family, rank):
        fr = finite_roots(family, rank)
        short, long_ = coordinate_realization(family, rank)
        assert len(fr.short_roots) == len(short)
        assert len(fr.long_roots) == len(long_)

    @pytest.mark.parametrize("family,rank", CASES)
    def test_reflection_and_negation_closure(self, family, rank):
        fr = finite_roots(family, rank)
        allroots = fr.short_roots | fr.long_roots
        for v in allroots:
            assert tuple(-x for x in v) in allroots
            for alpha in allroots:
                c = fr.cartan(v, alpha)
                assert tuple(x - c * a for x, a in zip(v, alpha)) in allroots

    @pytest.mark.parametrize("family,rank", CASES)
    def test_cartan_pairings_integral(self, family, rank):
        fr = finite_roots(family, rank)
        allroots = fr.short_roots | fr.long_roots
        for u in allroots:
            for v in allroots:
                fr.cartan(u, v)  # raises if fractional

    @pytest.mark.parametrize("family,rank", CASES)
    def test_distinguished_simple_roots(self, family, rank):
        fr = finite_roots(family, rank)
        assert fr.theta1 in fr.short_roots
        assert fr.theta2 in fr.long_roots
        assert fr.pairing(fr.theta1, fr.theta2) != 0

    @pytest.mark.parametrize("family,rank", CASES)
    def test_length_normalization(self, family, rank):
        fr = finite_roots(family, rank)
        for v in fr.short_roots:
            assert fr.pairing(v, v) == 2
        for v in fr.long_roots:
            assert fr.pairing(v, v) == 2 * fr.k

    def test_bad_types(self):
        with pytest.raises(SpecValidationError, match="^unknown type 'A'; expected one of "):
            finite_roots("A", 3)
        with pytest.raises(SpecValidationError, match="^unknown type 'BC'; expected one of "):
            finite_roots("BC", 3)
        with pytest.raises(SpecValidationError, match="^type B requires rank >= 2$"):
            finite_roots("B", 1)
        with pytest.raises(SpecValidationError, match="^type C requires rank >= 3$"):
            finite_roots("C", 2)
        with pytest.raises(SpecValidationError, match="^type G2 has rank 2$"):
            finite_roots("G2", 3)

    def test_asymmetric_cartan_data_names_the_entry(self, monkeypatch):
        monkeypatch.setattr(
            rootsystem, "_chain_data", lambda family, rank: ([1, 1], {(1, 2): (-1, -2)})
        )
        with pytest.raises(InvariantBreach, match=r"at \(2, 1\): -2 != -1"):
            finite_roots.__wrapped__("B", 2)

    def test_orthogonal_distinguished_roots_named(self, monkeypatch):
        monkeypatch.setattr(rootsystem, "_chain_data", lambda family, rank: ([1, 2], {}))
        with pytest.raises(InvariantBreach, match=r"\(0, 1\) are orthogonal"):
            finite_roots.__wrapped__("B", 2)

    def test_breach_prints_g2_bare(self, monkeypatch):
        monkeypatch.setattr(rootsystem, "_chain_data", lambda family, rank: ([1, 3], {}))
        with pytest.raises(InvariantBreach, match=r"^G2: alpha_1 = \(1, 0\) and alpha_2"):
            finite_roots.__wrapped__("G2", 2)

    def test_type_label(self):
        # F4 and G2 name their rank already; B and C take it as a suffix
        labels = [type_label(f, r) for f, r in [("B", 3), ("C", 4), ("F4", 4), ("G2", 2)]]
        assert labels == ["B3", "C4", "F4", "G2"]

    def test_exact_div(self):
        assert exact_div(-6, 3, "q") == -2
        with pytest.raises(InvariantBreach, match="q = 3/2 is not an integer"):
            exact_div(3, 2, "q")

    def test_exact_div_formats_its_description_only_when_it_raises(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("formatted")

        assert exact_div(6, 3, "({}, {}^vee)", Unformattable(), Unformattable()) == 2
        with pytest.raises(AssertionError, match="formatted"):
            exact_div(7, 3, "({}, {}^vee)", Unformattable(), Unformattable())

    def test_cartan_names_its_pair_when_not_integral(self):
        # a doubled Gram matrix: 2 (e_1, 2 e_1 + 2 e_2) / (2 e_1 + 2 e_2)^2 = 8/16
        fr = rootsystem.FiniteRoots(
            "B", 2, ((0, 1), (1, -1)), frozenset(), frozenset(), ((2, 0), (0, 2)), 2
        )
        assert fr.cartan((2, 0), (1, 1)) == 2
        with pytest.raises(InvariantBreach) as err:
            fr.cartan((1, 0), (2, 2))
        assert str(err.value) == "((1, 0), (2, 2)^vee) = 8/16 is not an integer"


class TestSpecValidation:
    def test_c3_valid(self):
        spec = make_spec(
            "C", 3, 2, 1, Semilattice.lattice(1), make_semilattice(1, [[], [1]])
        )
        assert spec.k == 2

    def test_b3_needs_lattice_s2(self):
        with pytest.raises(SpecValidationError, match="^S2 must be a lattice for type B$"):
            make_spec("B", 3, 3, 1, Semilattice.lattice(1), Semilattice.minimal(2))

    def test_f4_valid(self):
        spec = make_spec("F4", 4, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        assert spec.nullity == 2

    def test_f4_needs_lattices(self):
        with pytest.raises(SpecValidationError, match="^S1 must be a lattice for type F4$"):
            make_spec("F4", 4, 3, 2, Semilattice.minimal(2), Semilattice.lattice(1))

    def test_validate_slice_builds_no_roots(self, monkeypatch):
        # no rank is refused, and a spec builds its roots on first read only
        def no_roots(*args):
            raise AssertionError("built roots")

        monkeypatch.setattr(rootsystem, "finite_roots", no_roots)
        rootsystem.validate_slice("B", 100_000, 2, 1)
        rootsystem.validate_slice("C", 100_000, 2, 1)
        spec = make_spec("B", 100_000, 1, 1, Semilattice.lattice(1), Semilattice.lattice(0))
        with pytest.raises(AssertionError, match="^built roots$"):
            spec.roots

    def test_twist_bounds(self):
        with pytest.raises(SpecValidationError, match=r"^twist 3 outside 0\.\.2$"):
            make_spec("B", 2, 2, 3, Semilattice.lattice(3), Semilattice.lattice(0))

    @pytest.mark.parametrize("nullity,twist", [(3, -1), (1, 5)])
    def test_json_twist_bounds_come_first(self, nullity, twist):
        # checked before S1 and S2 are built with dimensions t and nu - t
        doc = {"type": "B", "rank": 3, "nullity": nullity, "twist": twist,
               "supp1": [[], [1]], "supp2": [[]]}
        with pytest.raises(SpecValidationError, match=rf"^twist {twist} outside 0\.\.{nullity}$"):
            spec_from_json(doc)

    def test_dimension_agreement(self):
        with pytest.raises(Exception):
            make_spec("B", 2, 2, 1, Semilattice.lattice(2), Semilattice.lattice(1))

    def test_json_round_trip(self):
        spec = make_spec(
            "B", 2, 3, 2, Semilattice.minimal(2), make_semilattice(1, [[], [1]])
        )
        doc = spec_to_json(spec, label="x")
        again = spec_from_json(doc)
        assert again == spec


class TestScales:
    def test_g2_long_twisted(self):
        spec = make_spec("G2", 2, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        assert spec.translation_step(2, 1) == 3

    def test_short_always_one(self):
        for family, rank in CASES:
            nullity, twist = 2, 1
            spec = make_spec(
                family,
                rank,
                nullity,
                twist,
                Semilattice.lattice(1),
                Semilattice.lattice(1),
            )
            short_idx = 1
            for r in (1, 2):
                assert spec.translation_step(short_idx, r) == 1

    def test_b2_long_untwisted(self):
        spec = make_spec("B", 2, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        assert spec.translation_step(2, 2) == 1
        assert spec.translation_step(2, 1) == 2

    def test_index_range(self):
        spec = make_spec("B", 2, 1, 1, Semilattice.lattice(1), Semilattice.lattice(0))
        with pytest.raises(SpecValidationError, match=r"^simple-root index 3 outside 1\.\.2$"):
            spec.translation_step(3, 1)
        with pytest.raises(SpecValidationError, match=r"^direction 2 outside 1\.\.1$"):
            spec.k_r(2)


def small_specs():
    out = []
    out.append(make_spec("B", 2, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1)))
    out.append(make_spec("B", 3, 3, 2, Semilattice.minimal(2), Semilattice.lattice(1)))
    out.append(make_spec("C", 3, 3, 1, Semilattice.lattice(1), Semilattice.minimal(2)))
    out.append(make_spec("F4", 4, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1)))
    out.append(make_spec("G2", 2, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1)))
    return out


class TestCoefficients:
    def test_b2_adjacent_values(self):
        spec = make_spec("B", 2, 1, 1, Semilattice.lattice(1), Semilattice.lattice(0))
        assert conj_exponent(spec, 1, 2, 1) == -2
        assert conj_exponent(spec, 2, 1, 1) == -1

    def test_diagonal_value_two(self):
        # a_{j,j}(r) = 2 always; a_{j,j}(r,s) = 2 when both steps are 1
        for spec in small_specs():
            for j in (1, 2):
                for r in range(1, spec.nullity + 1):
                    assert conj_exponent(spec, j, j, r) == 2
        spec = make_spec("B", 2, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        assert commutator_coeff(spec, 1, 1, 1, 2) == 2

    def test_orthogonal_pairs_vanish(self):
        spec = make_spec("B", 3, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        fr = spec.roots
        for i, j in itertools.permutations(range(1, 4), 2):
            if fr.pairing(fr.simple[i - 1], fr.simple[j - 1]) == 0:
                assert conj_exponent(spec, i, j, 1) == 0
                assert commutator_coeff(spec, i, j, 1, 2) == 0

    def test_divisibility_exhaustive(self):
        # the Delta(r,s)-quotient of every a_{i,j}(r,s) must be an integer
        for spec in small_specs():
            for i in range(1, spec.rank + 1):
                for j in range(1, spec.rank + 1):
                    for r in range(1, spec.nullity + 1):
                        conj_exponent(spec, i, j, r)
                        for s in range(r, spec.nullity + 1):
                            commutator_coeff(spec, i, j, r, s)


class TestMembership:
    def setup_method(self):
        self.spec = make_spec(
            "B", 2, 3, 2, make_semilattice(2, [[], [1], [2]]), Semilattice.lattice(1)
        )

    def test_short_plus_sigma(self):
        th1 = self.spec.roots.theta1
        assert root_class(self.spec, Root(th1, (1, 0, 0))) is RootClass.SHORT

    def test_long_needs_scaled_twisted_part(self):
        th2 = self.spec.roots.theta2
        assert root_class(self.spec, Root(th2, (1, 0, 0))) is RootClass.NONE
        assert root_class(self.spec, Root(th2, (2, 0, 0))) is RootClass.LONG

    def test_long_untwisted_free(self):
        th2 = self.spec.roots.theta2
        assert root_class(self.spec, Root(th2, (0, 0, 5))) is RootClass.LONG

    def test_short_unsupported_pair(self):
        th1 = self.spec.roots.theta1
        assert root_class(self.spec, Root(th1, (1, 1, 0))) is RootClass.NONE

    def test_zero_finite_part_is_no_root(self):
        # isotropic vectors are not classified: no word reflects in one
        zero = (0,) * len(self.spec.roots.theta1)
        for iso in itertools.product(range(-2, 3), repeat=3):
            assert root_class(self.spec, Root(zero, iso)) is RootClass.NONE

    def test_translation_step_orbits(self):
        for spec in small_specs():
            zero_iso = (0,) * spec.nullity
            for i in range(1, spec.rank + 1):
                alpha = spec.roots.simple[i - 1]
                expected = (
                    RootClass.SHORT
                    if alpha in spec.roots.short_roots
                    else RootClass.LONG
                )
                for r in range(1, spec.nullity + 1):
                    step = spec.translation_step(i, r)
                    for n in range(-3, 4):
                        iso = tuple(
                            n * step if q == r - 1 else 0 for q in range(spec.nullity)
                        )
                        assert root_class(spec, Root(alpha, iso)) is expected


class TestGenerators:
    def test_f4_nu2(self):
        spec = make_spec("F4", 4, 2, 1, Semilattice.lattice(1), Semilattice.lattice(1))
        gens = generating_roots(spec)
        assert len(gens) == 6

    def test_b2_nu1_expansion(self):
        spec = make_spec("B", 2, 1, 1, Semilattice.lattice(1), Semilattice.lattice(0))
        gens = generating_roots(spec)
        # oracle: expand the type-B2 case by hand and deduplicate
        th1, th2 = spec.roots.theta1, spec.roots.theta2
        raw = [
            Root(th1, (0,)), Root(th2, (0,)),          # finite simple roots
            Root(th1, (0,)), Root(th1, (1,)),          # theta1 + tau_J over supp(S1)
            Root(th2, (0,)),                            # theta2 + tau_J over supp(S2)
        ]
        assert gens == list(dict.fromkeys(raw))
        assert len(gens) == 3

    def test_b3_untwisted(self):
        spec = make_spec("B", 3, 2, 0, Semilattice.lattice(0), Semilattice.lattice(2))
        gens = generating_roots(spec)
        th2 = spec.roots.theta2
        assert len(gens) == 3 + 2
        assert Root(th2, (1, 0)) in gens
        assert Root(th2, (0, 1)) in gens

    def test_all_generators_are_roots(self):
        for spec in small_specs():
            for g in generating_roots(spec):
                assert root_class(spec, g) in (RootClass.SHORT, RootClass.LONG)
