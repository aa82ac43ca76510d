"""Exact matrix checks for reflections, translations and central elements."""

import itertools
from fractions import Fraction

import pytest

from weylconj import weylgroup
from weylconj.exactmat import Mat
from weylconj.rootsystem import (
    FiniteRoots,
    IntegralityViolation,
    Root,
    SpecValidationError,
    generating_roots,
    make_spec,
)
from weylconj.semilattice import Semilattice, make_semilattice
from weylconj.weylgroup import (
    MAX_COVER_STATES,
    CoverReport,
    NotARoot,
    Representation,
    ambient_dim,
    central_image,
    check_cover_height,
    central_word,
    commutator,
    inverse,
    is_root,
    orbit_cover,
    reflection,
    translation,
    translation_word,
    verify_center_freeness,
    verify_choice_independence,
    verify_structure_identities,
    verify_translation_identities,
)

LAT = Semilattice.lattice
Z0 = Semilattice.lattice(0)


def spec_b2():
    return make_spec("B", 2, 2, 1, LAT(1), LAT(1))


def spec_g2():
    return make_spec("G2", 2, 2, 1, LAT(1), LAT(1))


def spec_b2_mixed():
    return make_spec("B", 2, 3, 2, make_semilattice(2, [[], [1], [2]]), LAT(1))


def apply_mat(m: Mat, vec):
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in m.rows)


def embed(spec, root: Root):
    return tuple(root.finite) + tuple(root.iso) + (0,) * spec.nullity


def ambient_gram(spec):
    """Reference: the whole form on V + span(sigma) + span(lambda'), (sigma_r, lambda'_r) = k."""
    f = len(spec.roots.simple[0])
    nu = spec.nullity
    rows = [[0] * (f + 2 * nu) for _ in range(f + 2 * nu)]
    for i in range(f):
        rows[i][:f] = spec.roots.gram[i]
    for r in range(nu):
        rows[f + r][f + nu + r] = rows[f + nu + r][f + r] = spec.roots.k
    return rows


def unscaled_reflection(spec, root: Root):
    """Reference: (aa I - 2 alpha (G alpha)^T) / aa over the unscaled dual basis lambda_r."""
    fr = spec.roots
    zero = (0,) * spec.nullity
    alpha = root.finite + root.iso + zero
    gfinite = tuple(sum(g * x for g, x in zip(row, root.finite)) for row in fr.gram)
    galpha = gfinite + zero + root.iso
    aa = fr.pairing(root.finite, root.finite)
    return [
        [Fraction(aa * (r == c) - 2 * a * g, aa) for c, g in enumerate(galpha)]
        for r, a in enumerate(alpha)
    ]


def scale_dual_basis(spec, rows):
    """P M P^-1 with P = diag(1, .., 1, 1/k, .., 1/k): M over the basis lambda'_r = k lambda_r."""
    f, nu = len(spec.roots.simple[0]), spec.nullity
    p = [Fraction(1)] * (f + nu) + [Fraction(1, spec.roots.k)] * nu
    return [[p[r] * x / p[c] for c, x in enumerate(row)] for r, row in enumerate(rows)]


def corpus_generators():
    from weylconj.corpus import reference_corpus

    for label, spec in reference_corpus():
        if spec.nullity <= 4:
            for g in generating_roots(spec):
                yield label, spec, g


def half_scaled_b2_realization() -> FiniteRoots:
    """Classical B2 coordinates doubled: the basis vector e_1 / 2 pairs as 1/2 with (e_1 + e_2)^vee."""
    short = frozenset([(2, 0), (-2, 0), (0, 2), (0, -2)])
    long_ = frozenset([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    return FiniteRoots(
        family="B",
        rank=2,
        simple=((0, 2), (2, -2)),
        short_roots=short,
        long_roots=long_,
        gram=((2, 0), (0, 2)),
        k=2,
    )


class TestReflection:
    def test_involution(self):
        spec = spec_b2()
        for g in (Root(spec.roots.theta1, (0, 0)), Root(spec.roots.theta2, (2, 0))):
            w = reflection(spec, g)
            assert (w @ w).is_identity()

    def test_form_preserved(self):
        spec = spec_g2()
        cases = [
            ("G2", spec, g)
            for g in (
                Root(spec.roots.theta1, (1, 0)),
                Root(spec.roots.theta2, (3, 0)),
                Root(spec.roots.theta2, (0, 1)),
            )
        ] + list(corpus_generators())
        for label, spec, g in cases:
            gram = Mat(ambient_gram(spec))
            w = reflection(spec, g)
            assert w.transpose() @ gram @ w == gram, (label, g)

    def test_matches_unscaled_formula_conjugated(self):
        # the formula over the unscaled dual basis, with its rational
        # entries, kept as the oracle of the integer matrices
        checked = 0
        for label, spec, g in corpus_generators():
            expected = scale_dual_basis(spec, unscaled_reflection(spec, g))
            assert [list(row) for row in reflection(spec, g).rows] == expected, (label, g)
            checked += 1
        assert checked == 430

    def test_non_integral_coefficient_raises(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0, roots=half_scaled_b2_realization())
        short, long_ = spec.roots.simple
        assert reflection(spec, Root(short, (0,))).rows  # every coefficient integral
        with pytest.raises(IntegralityViolation, match=r"\(e_0, .*\^vee\) = 8/16"):
            reflection(spec, Root(long_, (0,)))

    def test_orthogonal_reflections_commute(self):
        spec = make_spec("B", 3, 1, 1, LAT(1), Z0)
        fr = spec.roots
        roots = sorted(fr.short_roots | fr.long_roots)
        found = False
        for a in roots:
            for b in roots:
                if fr.pairing(a, b) == 0:
                    wa = reflection(spec, Root(a, (0,)))
                    wb = reflection(spec, Root(b, (0,)))
                    assert wa @ wb == wb @ wa
                    found = True
        assert found

    def test_conjugation_covariance(self):
        spec = spec_b2()
        fr = spec.roots
        for wroot in (Root(fr.theta1, (0, 0)), Root(fr.theta2, (0, 1))):
            w = reflection(spec, wroot)
            for aroot in (Root(fr.theta1, (1, 0)), Root(fr.theta2, (2, 0))):
                c = fr.cartan(aroot.finite, wroot.finite)
                image = Root(
                    tuple(x - c * y for x, y in zip(aroot.finite, wroot.finite)),
                    tuple(x - c * y for x, y in zip(aroot.iso, wroot.iso)),
                )
                assert w @ reflection(spec, aroot) @ w == reflection(spec, image)

    def test_rejects_non_roots(self):
        spec = spec_b2()
        with pytest.raises(NotARoot):
            reflection(spec, Root(spec.roots.theta2, (1, 0)))  # needs k | twisted part

    def test_involution_and_covariance_over_generators(self):
        # every generator reflection is an involution and conjugation
        # maps reflections to reflections of the reflected root
        from weylconj.rootsystem import generating_roots

        for spec in (spec_b2_mixed(), spec_g2()):
            gens = generating_roots(spec)
            fr = spec.roots
            for g in gens:
                w = reflection(spec, g)
                assert (w @ w).is_identity()
            for g in gens:
                w = reflection(spec, g)
                for x in gens:
                    c = fr.cartan(x.finite, g.finite)
                    image = Root(
                        tuple(a - c * b for a, b in zip(x.finite, g.finite)),
                        tuple(a - c * b for a, b in zip(x.iso, g.iso)),
                    )
                    assert w @ reflection(spec, x) @ w == reflection(spec, image)


class TestTranslation:
    def test_displaces_theta_by_two_sigma(self):
        spec = spec_b2()
        fr = spec.roots
        # k_{1,r} = 1 for short theta1; k_{2,2} = 1 since direction 2 is untwisted
        for j, r in ((1, 1), (1, 2), (2, 2)):
            tm = Representation(spec).mat(translation(spec, j, r))
            theta = embed(spec, Root(fr.simple[j - 1], (0, 0)))
            moved = apply_mat(tm, theta)
            expected = list(theta)
            expected[len(fr.theta1) + (r - 1)] += 2
            assert list(moved) == expected

    def test_fixes_isotropic_directions(self):
        spec = spec_g2()
        n = ambient_dim(spec)
        f = len(spec.roots.theta1)
        for i, r in ((1, 1), (2, 1), (2, 2)):
            tm = Representation(spec).mat(translation(spec, i, r))
            for q in range(spec.nullity):
                e = tuple(1 if c == f + q else 0 for c in range(n))
                assert apply_mat(tm, e) == e

    def test_power_law(self):
        spec = spec_b2()
        rep = Representation(spec)
        base = Root(spec.roots.theta2, (0, 0))
        word = translation(spec, 2, 1)
        tm = rep.mat(word)
        acc = Mat.identity(ambient_dim(spec))
        for n in range(1, 4):
            acc = acc @ tm
            assert acc == rep.mat(translation_word(base, (2 * n, 0)))
            assert rep.power(word, n) == acc
        assert rep.power(word, -2) == rep.mat(translation_word(base, (-4, 0)))


class TestCentralImages:
    def test_commutes_with_all_generators(self):
        from weylconj.rootsystem import generating_roots

        spec = spec_b2_mixed()
        rep = Representation(spec)
        gens = [reflection(spec, g) for g in generating_roots(spec)]
        for r in range(1, spec.nullity + 1):
            for s in range(r + 1, spec.nullity + 1):
                z = rep.mat(central_image(spec, r, s))
                assert all(z @ w == w @ z for w in gens)

    def test_choice_independence(self):
        for spec in (spec_b2(), spec_g2(), spec_b2_mixed()):
            report = verify_choice_independence(Representation(spec))
            assert report.passed

    def test_nu1_has_no_pairs(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        with pytest.raises(ValueError):
            central_image(spec, 1, 1)

    def test_supported_pair_word_squares_correctly(self):
        # z_J^2 for a supported pair J = {r,s} collapses to z_{r,s}^2
        spec = make_spec("B", 2, 2, 2, LAT(2), Z0)
        rep = Representation(spec)
        zj = rep.mat(central_word(spec, 1, 0b11))
        z = rep.mat(central_image(spec, 1, 2))
        assert zj @ zj == z @ z


class TestWords:
    def test_identity_and_inverse(self):
        spec = spec_b2_mixed()
        rep = Representation(spec)
        ident = rep.mat(())
        assert ident.is_identity()
        x, y = translation(spec, 1, 1), translation(spec, 2, 3)
        for word in (x, x + y, commutator(x, y), central_image(spec, 1, 3)):
            m = rep.mat(word)
            assert ident @ m == m == m @ ident
            assert inverse(inverse(word)) == word
            assert (m @ rep.mat(inverse(word))).is_identity()
            assert (rep.mat(inverse(word)) @ m).is_identity()
        assert inverse(x + y) == inverse(y) + inverse(x)

    def test_commutator_of_commuting_is_identity(self):
        # translations along one direction commute; across directions
        # their commutator is the central z_{1,2}, not the identity
        spec = spec_b2()
        rep = Representation(spec)
        x, y = translation(spec, 1, 1), translation(spec, 2, 1)
        assert commutator(x, y) == inverse(x) + inverse(y) + x + y
        assert rep.mat(commutator(x, y)).is_identity()
        assert not rep.mat(commutator(x, translation(spec, 2, 2))).is_identity()

    def test_negative_power_raises_the_inverse_word(self):
        spec = spec_g2()
        rep = Representation(spec)
        word = central_image(spec, 1, 2)
        for e in (1, 2, 3):
            assert rep.power(word, -e) == rep.power(inverse(word), e)
            assert (rep.power(word, e) @ rep.power(word, -e)).is_identity()
        assert rep.power(word, 0).is_identity()


class TestVerifiers:
    @pytest.mark.parametrize(
        "spec",
        [spec_b2(), spec_g2(), spec_b2_mixed(),
         make_spec("B", 3, 2, 1, LAT(1), LAT(1)),
         make_spec("C", 3, 2, 1, LAT(1), LAT(1))],
        ids=["B2", "G2", "B2mix", "B3", "C3"],
    )
    def test_all_identities_pass(self, spec):
        rep = Representation(spec)
        assert verify_structure_identities(rep).passed
        assert verify_translation_identities(rep).passed

    def test_guard(self):
        spec = make_spec("B", 2, 5, 2, LAT(2), LAT(3))
        with pytest.raises(SpecValidationError, match="guarded at rank <= 4, nullity <= 4"):
            Representation(spec)

    def test_report_serialization(self):
        report = verify_structure_identities(Representation(spec_b2()))
        payload = report.to_json()
        assert all(item["pass"] for item in payload)
        assert report.counts()["commutator"] > 0

    def test_rank4_chain(self):
        rep = Representation(make_spec("B", 4, 1, 1, LAT(1), Z0))
        assert verify_structure_identities(rep).passed
        assert verify_translation_identities(rep).passed

    def test_whole_corpus_identities(self):
        # every corpus spec fits the rank <= 4, nullity <= 4 guard
        from weylconj.corpus import reference_corpus

        for label, spec in reference_corpus():
            rep = Representation(spec)
            assert verify_structure_identities(rep).passed, label
            assert verify_translation_identities(rep).passed, label


def reference_orbit_cover(spec, height_bound: int, gens=None) -> CoverReport:
    """Reference: the same BFS with `Root` tuples as states, no index table."""
    fr = spec.roots
    nu = spec.nullity
    slack = height_bound + 2
    gens = generating_roots(spec) if gens is None else gens
    finite_parts = sorted(fr.short_roots) + sorted(fr.long_roots)
    cartan = {v: [fr.cartan(v, g.finite) for g in gens] for v in finite_parts}
    visited = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g, c in zip(gens, cartan[x.finite]):
                if c == 0:
                    continue
                img = Root(
                    tuple(a - c * b for a, b in zip(x.finite, g.finite)),
                    tuple(a - c * b for a, b in zip(x.iso, g.iso)),
                )
                if img not in visited and all(abs(q) <= slack for q in img.iso):
                    visited.add(img)
                    nxt.append(img)
        frontier = nxt
    target = [
        Root(finite, iso)
        for finite in finite_parts
        for iso in itertools.product(range(-height_bound, height_bound + 1), repeat=nu)
        if is_root(spec, Root(finite, iso))
    ]
    unreached = [root for root in target if root not in visited]
    return CoverReport(
        bound=height_bound,
        slack=slack,
        target_count=len(target),
        reached_count=len(target) - len(unreached),
        unreached=unreached,
    )


def corpus_cover_cases():
    from weylconj.corpus import reference_corpus

    # the reference needs up to 2.3 s for one nullity-4 spec at height 1
    for label, spec in reference_corpus():
        if spec.nullity <= 2:
            heights = (0, 1, 2)
        elif spec.nullity == 3:
            heights = (1,)
        else:
            heights = ()
        for height in heights:
            yield pytest.param(spec, height, id=f"{label} h{height}")


class TestOrbitCover:
    @pytest.mark.parametrize("spec,height", corpus_cover_cases())
    def test_matches_reference_bfs(self, spec, height):
        assert orbit_cover(spec, height).to_json() == (
            reference_orbit_cover(spec, height).to_json()
        )

    def test_matches_reference_with_unreached_roots(self, monkeypatch):
        # without its last affine generator the B2 set leaves roots
        # unreached, which the corpus cases above never do
        spec = spec_b2()
        gens = generating_roots(spec)[:-1]
        monkeypatch.setattr(weylgroup, "generating_roots", lambda s: gens)
        got = orbit_cover(spec, 1)
        assert got.unreached
        assert got.to_json() == reference_orbit_cover(spec, 1, gens).to_json()

    def test_b2_nu1(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        report = orbit_cover(spec, 2)
        assert report.passed and report.target_count > 0

    def test_f4_nu2(self):
        spec = make_spec("F4", 4, 2, 1, LAT(1), LAT(1))
        report = orbit_cover(spec, 1)
        assert report.passed

    def test_finite_slice(self):
        # bound 0: the finite Weyl group reaches every finite root from the basis
        spec = make_spec("C", 3, 2, 1, LAT(1), LAT(1))
        report = orbit_cover(spec, 0)
        assert report.passed
        fr = spec.roots
        assert report.target_count == len(fr.short_roots) + len(fr.long_roots)

    @pytest.mark.parametrize(
        "family,rank", [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("F4", 4), ("G2", 2)]
    )
    def test_height_two_admitted_at_nullity_four(self, family, rank):
        # the largest box the tests and the benchmark ask for: F4, 48 roots * 9^4 states
        check_cover_height(make_spec(family, rank, 4, 2, LAT(2), LAT(2)), 2)

    def test_height_bound(self):
        # B3 at nullity 4: 18 finite roots, (2h + 5)^4 iso tuples each
        spec = make_spec("B", 3, 4, 4, Semilattice.minimal(4), Z0)
        assert 18 * 11**4 <= MAX_COVER_STATES < 18 * 13**4
        check_cover_height(spec, 3)
        with pytest.raises(SpecValidationError) as err:
            orbit_cover(spec, 4)
        assert str(err.value) == (
            f"orbit cover at height 4 spans {18 * 13**4} states, "
            f"above the bound {MAX_COVER_STATES}"
        )


class TestFreeness:
    def test_nu2_single_pair(self):
        rep = Representation(spec_b2())
        report = verify_center_freeness(rep)
        assert report.pairs == 1 and report.passed
        assert not rep.mat(central_image(spec_b2(), 1, 2)).is_identity()

    def test_nu3_three_pairs(self):
        spec = make_spec("B", 3, 3, 2, LAT(2), LAT(1))
        report = verify_center_freeness(Representation(spec))
        assert report.pairs == 3 and report.passed

    def test_nu1_vacuous(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        report = verify_center_freeness(Representation(spec))
        assert report.pairs == 0 and report.passed


def alternate_b2_realization() -> FiniteRoots:
    """Classical coordinates: short +-e_i, long +-e1+-e2, form doubled."""
    short = frozenset([(1, 0), (-1, 0), (0, 1), (0, -1)])
    long_ = frozenset([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return FiniteRoots(
        family="B",
        rank=2,
        simple=((0, 1), (1, -1)),
        short_roots=short,
        long_roots=long_,
        gram=((2, 0), (0, 2)),
        k=2,
    )


class TestRealizationIndependence:
    def test_same_verdicts_under_alternate_realization(self):
        alt = alternate_b2_realization()
        for s1, s2, nu, t in [
            (LAT(1), LAT(1), 2, 1),
            (make_semilattice(2, [[], [1], [2]]), LAT(1), 3, 2),
        ]:
            default = make_spec("B", 2, nu, t, s1, s2)
            other = make_spec("B", 2, nu, t, s1, s2, roots=alt)
            for verifier in (
                verify_structure_identities,
                verify_translation_identities,
            ):
                rep_a = verifier(Representation(default))
                rep_b = verifier(Representation(other))
                assert rep_a.passed and rep_b.passed
            cov_a = orbit_cover(default, 1)
            cov_b = orbit_cover(other, 1)
            assert cov_a.passed and cov_b.passed
            assert cov_a.target_count == cov_b.target_count
