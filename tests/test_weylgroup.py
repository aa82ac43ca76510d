"""Exact matrix checks for reflections, translations and central elements."""

import itertools
from fractions import Fraction

import pytest

from weylconj import weylgroup
from weylconj.exactmat import Mat, commutator
from weylconj.rootsystem import FiniteRoots, Root, generating_roots, make_spec
from weylconj.semilattice import Semilattice, make_semilattice
from weylconj.weylgroup import (
    CoverReport,
    NotARoot,
    ambient_dim,
    ambient_gram,
    central_image,
    central_word,
    is_root,
    orbit_cover,
    reflection,
    translation,
    translation_element,
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
    return tuple(
        Fraction(sum(row[j] * vec[j] for j in range(len(vec))), m.den)
        for row in m.num
    )


def embed(spec, root: Root):
    return tuple(root.finite) + tuple(root.iso) + (0,) * spec.nullity


class TestReflection:
    def test_involution(self):
        spec = spec_b2()
        for g in (Root(spec.roots.theta1, (0, 0)), Root(spec.roots.theta2, (2, 0))):
            w = reflection(spec, g)
            assert (w @ w).is_identity()

    def test_form_preserved(self):
        spec = spec_g2()
        gram = Mat([list(r) for r in ambient_gram(spec)])
        for g in (
            Root(spec.roots.theta1, (1, 0)),
            Root(spec.roots.theta2, (3, 0)),
            Root(spec.roots.theta2, (0, 1)),
        ):
            w = reflection(spec, g)
            assert w.transpose() @ gram @ w == gram

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
            tm = translation(spec, j, r)
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
            tm = translation(spec, i, r)
            for q in range(spec.nullity):
                e = tuple(1 if c == f + q else 0 for c in range(n))
                assert apply_mat(tm, e) == e

    def test_power_law(self):
        spec = spec_b2()
        base = Root(spec.roots.theta2, (0, 0))
        tm = translation(spec, 2, 1)
        acc = Mat.identity(ambient_dim(spec))
        for n in range(1, 4):
            acc = acc @ tm
            assert acc == translation_element(spec, base, (2 * n, 0))
        assert tm ** -2 == translation_element(spec, base, (-4, 0))


class TestCentralImages:
    def test_commutes_with_all_generators(self):
        from weylconj.rootsystem import generating_roots

        spec = spec_b2_mixed()
        gens = [reflection(spec, g) for g in generating_roots(spec)]
        for r in range(1, spec.nullity + 1):
            for s in range(r + 1, spec.nullity + 1):
                z = central_image(spec, r, s)
                assert all(z @ w == w @ z for w in gens)

    def test_choice_independence(self):
        for spec in (spec_b2(), spec_g2(), spec_b2_mixed()):
            report = verify_choice_independence(spec)
            assert report.passed

    def test_nu1_has_no_pairs(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        with pytest.raises(ValueError):
            central_image(spec, 1, 1)

    def test_supported_pair_word_squares_correctly(self):
        # z_J^2 for a supported pair J = {r,s} collapses to z_{r,s}^2
        spec = make_spec("B", 2, 2, 2, LAT(2), Z0)
        zj = central_word(spec, 1, 0b11)
        z = central_image(spec, 1, 2)
        assert zj @ zj == z @ z


class TestVerifiers:
    @pytest.mark.parametrize(
        "spec",
        [spec_b2(), spec_g2(), spec_b2_mixed(),
         make_spec("B", 3, 2, 1, LAT(1), LAT(1)),
         make_spec("C", 3, 2, 1, LAT(1), LAT(1))],
        ids=["B2", "G2", "B2mix", "B3", "C3"],
    )
    def test_all_identities_pass(self, spec):
        assert verify_structure_identities(spec).passed
        assert verify_translation_identities(spec).passed

    def test_guard(self):
        spec = make_spec("B", 2, 5, 2, LAT(2), LAT(3))
        with pytest.raises(ValueError):
            verify_structure_identities(spec)

    def test_report_serialization(self):
        report = verify_structure_identities(spec_b2())
        payload = report.to_json()
        assert all(item["pass"] for item in payload)
        assert report.counts()["commutator"] > 0

    def test_raise_on_failure(self):
        from weylconj.weylgroup import CheckItem, IdentityFailure, VerifyReport

        good = VerifyReport([CheckItem("x", (1,), True)])
        good.raise_on_failure()
        bad = VerifyReport([CheckItem("x", (1,), True), CheckItem("y", (2,), False)])
        with pytest.raises(IdentityFailure):
            bad.raise_on_failure()

    def test_rank4_chain(self):
        spec = make_spec("B", 4, 1, 1, LAT(1), Z0)
        assert verify_structure_identities(spec).passed
        assert verify_translation_identities(spec).passed

    def test_whole_corpus_identities(self):
        # every corpus spec fits the rank <= 4, nullity <= 4 guard
        from weylconj.corpus import reference_corpus

        for label, spec in reference_corpus():
            assert verify_structure_identities(spec).passed, label
            assert verify_translation_identities(spec).passed, label


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


class TestFreeness:
    def test_nu2_single_pair(self):
        report = verify_center_freeness(spec_b2())
        assert report.pairs == 1 and report.passed
        assert central_image(spec_b2(), 1, 2) != Mat.identity(ambient_dim(spec_b2()))

    def test_nu3_three_pairs(self):
        spec = make_spec("B", 3, 3, 2, LAT(2), LAT(1))
        report = verify_center_freeness(spec)
        assert report.pairs == 3 and report.passed

    def test_nu1_vacuous(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        report = verify_center_freeness(spec)
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
                rep_a = verifier(default)
                rep_b = verifier(other)
                assert rep_a.passed and rep_b.passed
            cov_a = orbit_cover(default, 1)
            cov_b = orbit_cover(other, 1)
            assert cov_a.passed and cov_b.passed
            assert cov_a.target_count == cov_b.target_count
