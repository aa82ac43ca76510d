"""Exact matrix checks for reflections, translations and central elements."""

import inspect
import itertools
import json
import textwrap
import types
from fractions import Fraction
from functools import cache, reduce
from operator import matmul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylconj import cli, weylgroup
from weylconj.cli import EXIT_INVARIANT
from weylconj.exactmat import Mat
from weylconj.rootsystem import (
    FiniteRoots,
    InvariantBreach,
    Root,
    generating_roots,
    make_spec,
    sigma_vec,
)
from weylconj.semilattice import Semilattice, elems_of, make_semilattice
from weylconj.weylgroup import (
    CoverReport,
    Representation,
    ambient_dim,
    is_root,
    orbit_cover,
    reflection,
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
            assert Mat(list(zip(*w.rows))) @ gram @ w == gram, (label, g)

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
        with pytest.raises(InvariantBreach, match=r"\(e_0, .*\^vee\) = 8/16"):
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
        with pytest.raises(InvariantBreach, match="is not a non-isotropic root of the system$"):
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
            rep = Representation(spec)
            tm = rep.mat(rep.translation(j, r))
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
            rep = Representation(spec)
            tm = rep.mat(rep.translation(i, r))
            for q in range(spec.nullity):
                e = tuple(1 if c == f + q else 0 for c in range(n))
                assert apply_mat(tm, e) == e

    def test_power_law(self):
        spec = spec_b2()
        rep = Representation(spec)
        base = Root(spec.roots.theta2, (0, 0))
        word = rep.translation(2, 1)
        tm = rep.mat(word)
        acc = Mat.identity(ambient_dim(spec))
        for n in range(1, 4):
            acc = acc @ tm
            assert acc == rep.mat(rep.translation_word(base, (2 * n, 0)))
            assert rep.mat(rep.power(word, n)) == acc
        assert rep.mat(rep.power(word, -2)) == rep.mat(rep.translation_word(base, (-4, 0)))


class TestCentralImages:
    def test_commutes_with_all_generators(self):
        from weylconj.rootsystem import generating_roots

        spec = spec_b2_mixed()
        rep = Representation(spec)
        gens = [reflection(spec, g) for g in generating_roots(spec)]
        for r in range(1, spec.nullity + 1):
            for s in range(r + 1, spec.nullity + 1):
                z = rep.mat(rep.central_image(r, s))
                assert all(z @ w == w @ z for w in gens)

    def test_choice_independence(self):
        for spec in (spec_b2(), spec_g2(), spec_b2_mixed()):
            report = verify_choice_independence(Representation(spec))
            assert report.passed

    def test_nu1_has_no_pairs(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        with pytest.raises(ValueError):
            Representation(spec).central_image(1, 1)

    def test_supported_pair_word_squares_correctly(self):
        # z_J^2 for a supported pair J = {r,s} collapses to z_{r,s}^2
        spec = make_spec("B", 2, 2, 2, LAT(2), Z0)
        rep = Representation(spec)
        zj = rep.mat(rep.central_word(Root(spec.roots.theta1, (0, 0)), 0b11))
        z = rep.mat(rep.central_image(1, 2))
        assert zj @ zj == z @ z


def roots_of(rep, word) -> tuple:
    """The root of each letter of a word, read back from the representation."""
    by_letter = {n: root for root, n in rep._numbers.items()}
    return tuple(by_letter[n] for n in word)


def shifted(root: Root, sigma) -> Root:
    return Root(root.finite, tuple(a + b for a, b in zip(root.iso, sigma)))


class TestWords:
    def test_identity_and_inverse(self):
        spec = spec_b2_mixed()
        rep = Representation(spec)
        ident = rep.mat(())
        assert ident.is_identity()
        x, y = rep.translation(1, 1), rep.translation(2, 3)
        for word in (x, x + y, rep.commutator(x, y), rep.central_image(1, 3)):
            m = rep.mat(word)
            assert ident @ m == m == m @ ident
            assert rep.inverse(rep.inverse(word)) == word
            assert roots_of(rep, rep.inverse(word)) == roots_of(rep, word)[::-1]
            assert (m @ rep.mat(rep.inverse(word))).is_identity()
            assert (rep.mat(rep.inverse(word)) @ m).is_identity()
            assert rep.mat(rep.inverse(word) + word).is_identity()
        assert rep.inverse(x + y) == rep.inverse(y) + rep.inverse(x)

    def test_commutator_of_commuting_is_identity(self):
        # translations along one direction commute; across directions
        # their commutator is the central z_{1,2}, not the identity
        spec = spec_b2()
        rep = Representation(spec)
        x, y = rep.translation(1, 1), rep.translation(2, 1)
        assert rep.commutator(x, y) == rep.inverse(x) + rep.inverse(y) + x + y
        assert rep.mat(rep.commutator(x, y)).is_identity()
        assert not rep.mat(rep.commutator(x, rep.translation(2, 2))).is_identity()

    def test_negative_power_raises_the_inverse_word(self):
        spec = spec_g2()
        rep = Representation(spec)
        word = rep.central_image(1, 2)
        for e in (1, 2, 3):
            assert rep.mat(rep.power(word, -e)) == rep.mat(rep.power(rep.inverse(word), e))
            assert (rep.mat(rep.power(word, e)) @ rep.mat(rep.power(word, -e))).is_identity()
        assert rep.mat(rep.power(word, 0)).is_identity()

    def test_power_is_a_word(self):
        spec = spec_b2_mixed()
        rep = Representation(spec)
        x, y = rep.translation(1, 1), rep.translation(2, 3)
        assert rep.power(x + y, 0) == ()
        assert rep.power(x + y, 1) == x + y
        assert rep.power(x + y, 3) == x + y + x + y + x + y
        assert rep.power(x + y, -2) == rep.inverse(x + y) * 2 == rep.inverse(rep.power(x + y, 2))

    def test_each_root_is_one_letter_and_the_inverse_reverses(self):
        # a translation factor is two letters, and with sigma = 0 one letter twice
        spec = corpus_spec("B3 nu3 t3 S1=pairs S2=0")
        rep, words = suite_words(spec)
        assert sorted(rep._numbers.values()) == list(range(len(rep._letters)))
        for root, n in rep._numbers.items():
            assert rep.letter(root) == n
            assert rep.pair(root) == rep._letters[n]
        assert {n for word in words for n in word} <= set(rep._numbers.values())
        for word in words:
            assert rep.inverse(word) == word[::-1]
        word = rep.translation_word(Root(spec.roots.theta1, (0, 0, 0)), (0, 0, 0))
        assert word[0] == word[1] and rep.inverse(word) == word
        assert rep.mat(word).is_identity()


WORD_SPECS = (
    "B2 nu3 t1 S1=lat S2=min",
    "B3 nu3 t3 S1=pairs S2=0",
    "C3 nu3 t1 S1=lat S2=lat",
    "F4 nu2 t1 S1=lat S2=lat",
    "G2 nu3 t1 S1=lat S2=lat",
)


@cache
def corpus_roots(label) -> list:
    """Every root the suites give a letter on a corpus spec, in sorted order."""
    rep, _ = suite_words(corpus_spec(label))
    return sorted(rep._numbers)


word_trees = st.recursive(
    st.tuples(st.sampled_from(["letter", "factor"]), st.integers(0, 10**6), st.integers(0, 10**6)),
    lambda inner: st.one_of(
        st.tuples(st.just("product"), inner, inner),
        st.tuples(st.just("inverse"), inner),
        st.tuples(st.just("power"), inner, st.integers(-2, 2)),
        st.tuples(st.just("commutator"), inner, inner),
    ),
    max_leaves=5,
)


def build_word(rep, pool, tree) -> tuple:
    """(word, its reflection roots): the tree built by `rep`, and as reflections.

    The second part lists the roots whose reflections multiply, left to
    right, to the word's matrix: a letter is one root of the pool, a
    factor t_a^s is w_(a+s) w_a for two roots of the pool with one finite
    part, and as reflections are involutions, an inverse reverses the list.
    """
    kind, *args = tree
    if kind in ("letter", "factor"):
        root = pool[args[0] % len(pool)]
        if kind == "letter":
            return (rep.letter(root),), [root]
        same = [other for other in pool if other.finite == root.finite]
        moved = same[args[1] % len(same)]
        sigma = tuple(b - a for a, b in zip(root.iso, moved.iso))
        return rep.translation_word(root, sigma), [moved, root]
    x, xs = build_word(rep, pool, args[0])
    if kind == "inverse":
        return rep.inverse(x), xs[::-1]
    if kind == "power":
        e = args[1]
        return rep.power(x, e), (xs if e >= 0 else xs[::-1]) * abs(e)
    y, ys = build_word(rep, pool, args[1])
    if kind == "product":
        return x + y, xs + ys
    return rep.commutator(x, y), xs[::-1] + ys[::-1] + xs + ys


@given(st.sampled_from(WORD_SPECS), word_trees)
@settings(max_examples=60, deadline=None)
def test_numbered_words_match_dense_products(label, tree):
    spec = corpus_spec(label)
    rep = Representation(spec)
    word, roots = build_word(rep, corpus_roots(label), tree)
    assert roots_of(rep, word) == tuple(roots)
    dense = reduce(matmul, [reflection(spec, root) for root in roots], Mat.identity(rep.dim))
    assert rep.mat(word) == dense
    assert rep.mat(rep.inverse(word) + word).is_identity()


def reference_mat(rep, word, reflections: dict | None = None) -> Mat:
    """Oracle: a word's matrix as the product of dense reflections.

    Each letter's root, read back from the representation, gives one
    `reflection` matrix; `reflections` keeps them by root.
    """
    reflections = {} if reflections is None else reflections
    mats = []
    for root in roots_of(rep, word):
        if root not in reflections:
            reflections[root] = reflection(rep.spec, root)
        mats.append(reflections[root])
    return reduce(matmul, mats, Mat.identity(rep.dim))


def right_update(rows: list[list[int]], beta, coroot) -> None:
    """rows <- rows (I - beta beta^vee) in place on list rows: row u loses (u beta) beta^vee."""
    for row in rows:
        x = sum(row[c] * b for c, b in beta)
        if x:
            for c, y in coroot:
                row[c] -= x * y


def in_place_mat(rep, word, prefixes: dict) -> Mat:
    """Oracle: a word's matrix built on list rows, with no row shared between matrices.

    The prefix's rows are copied into lists and updated in place by the
    last letter's reflection, with the pair of a fresh representation;
    `prefixes` caches each prefix.
    """
    got = prefixes.get(word)
    if got is None:
        if not word:
            return Mat.identity(rep.dim)
        (root,) = roots_of(rep, word[-1:])
        rows = [list(row) for row in in_place_mat(rep, word[:-1], prefixes).rows]
        right_update(rows, *Representation(rep.spec).pair(root))
        got = prefixes[word] = Mat(rows)
    return got


def suite_words(spec) -> tuple[Representation, set]:
    """A representation the suites and freeness ran on, and every word they built.

    Recorded by wrapping `Representation.mat`, so the prefixes a word is
    built from are recorded too.
    """
    words = set()
    original = Representation.mat

    def recording(self, word):
        words.add(word)
        return original(self, word)

    rep = Representation(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Representation, "mat", recording)
        verify_structure_identities(rep)
        verify_translation_identities(rep)
        if spec.nullity >= 2:
            verify_choice_independence(rep)
        verify_center_freeness(rep)
    return rep, words


def mismatched_words(spec) -> list:
    """The suite words whose `Representation.mat` differs from either oracle.

    The oracles are `reference_mat` and `in_place_mat`.
    """
    rep, words = suite_words(spec)
    assert words
    reflections: dict = {}
    prefixes: dict = {}
    return [
        word
        for word in words
        if not (
            rep.mat(word)
            == reference_mat(rep, word, reflections)
            == in_place_mat(rep, word, prefixes)
        )
    ]


def corpus_specs():
    from weylconj.corpus import reference_corpus

    return [pytest.param(spec, id=label) for label, spec in reference_corpus()]


def corpus_spec(label):
    from weylconj.corpus import reference_corpus

    return dict(reference_corpus())[label]


def loop_right_rows(rows, beta, coroot):
    """Reference: rows (I - beta beta^vee) with u beta summed over beta, whatever its length."""
    out = []
    for row in rows:
        x = sum(row[c] * b for c, b in beta)
        out.append(tuple(v - x * dict(coroot).get(c, 0) for c, v in enumerate(row)) if x else row)
    return tuple(out)


@st.composite
def kernel_cases(draw):
    """(rows, beta, coroot): integer rows, mostly zero, and a beta of 1-4 entries."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=8))
    nonzero = st.sampled_from([1, -1, 2, -2, 3])
    columns = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True)
    beta = tuple((c, draw(nonzero)) for c in sorted(draw(columns)))
    coroot = tuple((c, draw(nonzero)) for c in sorted(draw(columns)))
    return rows, beta, coroot


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_right_rows_matches_the_loop_and_the_dense_update(case):
    # the two-term path (beta of one or two entries) and the loop (three
    # or four) against the loop alone and the in-place list update
    rows, beta, coroot = case
    got = weylgroup._right_rows(rows, beta, coroot)
    dense = [list(row) for row in rows]
    right_update(dense, beta, coroot)
    assert got == loop_right_rows(rows, beta, coroot) == tuple(map(tuple, dense))
    for before, after in zip(rows, got):
        if not sum(before[c] * b for c, b in beta):
            assert after is before


def flipped_right_rows(rows, beta, coroot):
    """Mutant: rows (I + beta beta^vee), the sign of the right update flipped."""
    out = []
    for row in rows:
        x = sum(row[c] * b for c, b in beta)
        out.append(tuple(v + x * dict(coroot).get(c, 0) for c, v in enumerate(row)))
    return tuple(out)


def first_term_right_rows(rows, beta, coroot):
    """Mutant: a row is shared when the first term of u beta is 0, though u beta may not be."""
    c0, b0 = beta[0]
    out = []
    for row in rows:
        if row[c0] * b0:
            x = sum(row[c] * b for c, b in beta)
            row = tuple(v - x * dict(coroot).get(c, 0) for c, v in enumerate(row))
        out.append(row)
    return tuple(out)


def one_term_right_rows(rows, beta, coroot):
    """Mutant: the two-term path drops beta's second term, so u beta is u_c b alone."""
    if len(beta) > 2:
        return loop_right_rows(rows, beta, coroot)
    (c, b), *_ = beta
    out = []
    for row in rows:
        x = row[c] * b
        out.append(tuple(v - x * dict(coroot).get(k, 0) for k, v in enumerate(row)) if x else row)
    return tuple(out)


def unreversed_inverse(self, word):
    """Mutant: the inverse keeps the letters in order, so t_root^sigma is its own inverse."""
    return word


LETTER = Representation.letter


def finite_keyed_letter(self, root):
    """Mutant: letters keyed by the finite part alone, so every shift of a root shares one letter."""
    return LETTER(self, Root(root.finite, (0,) * len(root.iso)))


def conjugation_without_trailing_reflection():
    """Mutant: `verify_structure_identities` with w_i t_{j,r} for w_i t_{j,r} w_i.

    Built from the suite's own source with the trailing letter cut from
    the left side of the conjugation relation.
    """
    source = textwrap.dedent(inspect.getsource(verify_structure_identities))
    whole = "rep.mat(w + trans[(j, r)] + w)"
    assert source.count(whole) == 1
    namespace = dict(vars(weylgroup))
    exec(compile(source.replace(whole, "rep.mat(w + trans[(j, r)])"), weylgroup.__file__, "exec"),
         namespace)
    return namespace["verify_structure_identities"]


def beta_side_commutes(self, mat, root):
    """Mutant: commutation read from M beta alone, as M beta a multiple of beta.

    It drops the beta^vee M side, beta^vee M the same multiple of beta^vee.
    """
    beta, _ = self.pair(root)
    m_beta = [sum(row[c] * b for c, b in beta) for row in mat.rows]
    i, b = beta[0]
    want = [0] * self.dim
    for c, x in beta:
        want[c] = m_beta[i] * x
    return [b * x for x in m_beta] == want


def non_central_word(self, base, mask):
    """Mutant: z_J becomes t_base^(sigma_r) for the least r in J, which is not central."""
    return self.translation_word(base, sigma_vec(self.spec, elems_of(mask)[0]))


def verify_exit(tmp_path, spec) -> int:
    """The exit code of `weylconj verify` on the spec."""
    from weylconj.cli import main
    from weylconj.rootsystem import spec_to_json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    return main(["verify", str(path)])


def sample_words(rep) -> list:
    """Translation and central-image words: some commute with a given reflection, some not."""
    spec = rep.spec
    nu = spec.nullity
    words = [rep.translation(i, r) for i in range(1, spec.rank + 1) for r in range(1, nu + 1)]
    return words + [rep.central_image(r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1)]


def dense_factor_mismatches(rep) -> list:
    """The factors t_{i,r}^n, n in -2..2, whose matrix differs from w_(root+sigma) w_root."""
    spec = rep.spec
    found = []
    for i in range(1, spec.rank + 1):
        for r in range(1, spec.nullity + 1):
            base = Root(spec.roots.simple[i - 1], (0,) * spec.nullity)
            for n in range(-2, 3):
                sigma = sigma_vec(spec, r, n * spec.translation_step(i, r))
                dense = reflection(spec, shifted(base, sigma)) @ reflection(spec, base)
                if rep.mat(rep.translation_word(base, sigma)) != dense:
                    found.append((i, r, n))
    return found


def conjugation_cases(spec):
    """(root, dense reflection) for the generating and the simple roots."""
    roots = generating_roots(spec) + [
        Root(a, (0,) * spec.nullity) for a in spec.roots.simple
    ]
    return [(root, reflection(spec, root)) for root in roots]


def commute_mismatches() -> tuple[list, set]:
    """Where `commutes` disagrees with dense products on elementary matrices, and its outcomes.

    On group elements M beta = beta forces beta^vee M = beta^vee, so the
    suites' matrices cannot tell whether `commutes` reads both sides;
    the matrices E_ij with one entry 1 can.
    """
    mismatches, outcomes = [], set()
    for spec in (spec_b2_mixed(), spec_g2(), corpus_spec("B3 nu3 t3 S1=pairs S2=0")):
        rep = Representation(spec)
        n = rep.dim
        for root, w in conjugation_cases(spec):
            for i, j in itertools.product(range(n), repeat=2):
                m = Mat([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
                commutes = rep.commutes(m, root)
                if commutes != (m @ w == w @ m):
                    mismatches.append((root, i, j))
                outcomes.add(commutes)
    return mismatches, outcomes


class TestUpdatesAgainstProducts:
    """The rank-one updates against the dense products they replace."""

    @pytest.mark.parametrize("spec", corpus_specs())
    def test_mat_matches_reference_on_suite_words(self, spec):
        assert mismatched_words(spec) == []

    def test_conjugate_and_commutes_match_products(self):
        # the conjugate w M w of a word's matrix is the word between two copies of w's letter
        outcomes = set()
        for spec in (spec_b2_mixed(), spec_g2(), corpus_spec("B3 nu3 t3 S1=pairs S2=0"),
                     corpus_spec("F4 nu2 t1 S1=lat S2=lat")):
            rep = Representation(spec)
            words = sample_words(rep)
            for root, w in conjugation_cases(spec):
                letter = (rep.letter(root),)
                for word in words:
                    m = rep.mat(word)
                    assert rep.mat(letter + word + letter) == w @ m @ w
                    commutes = rep.commutes(m, root)
                    assert commutes == (m @ w == w @ m)
                    outcomes.add(commutes)
        assert outcomes == {False, True}

    def test_commutes_matches_products_on_any_matrix(self):
        mismatches, outcomes = commute_mismatches()
        assert mismatches == [] and outcomes == {False, True}

    def test_flipped_right_update_fails_the_oracle(self, tmp_path, monkeypatch):
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        monkeypatch.setattr(weylgroup, "_right_rows", flipped_right_rows)
        assert mismatched_words(spec)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_row_shared_despite_a_non_zero_product_fails_the_oracle(self, tmp_path, monkeypatch):
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        monkeypatch.setattr(weylgroup, "_right_rows", first_term_right_rows)
        assert mismatched_words(spec)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_commutes_without_the_coroot_side_fails(self, monkeypatch):
        monkeypatch.setattr(Representation, "commutes", beta_side_commutes)
        mismatches, _ = commute_mismatches()
        assert mismatches

    def test_conjugation_word_without_trailing_reflection_fails(self, tmp_path, monkeypatch):
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        mutant = conjugation_without_trailing_reflection()
        report = mutant(Representation(spec))
        conjugations = [item for item in report.items if item.identity == "conjugation"]
        assert conjugations and not any(item.passed for item in conjugations)
        monkeypatch.setattr(cli, "verify_structure_identities", mutant)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_one_term_path_fails_the_oracle(self, tmp_path, monkeypatch):
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        monkeypatch.setattr(weylgroup, "_right_rows", one_term_right_rows)
        assert mismatched_words(spec)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_unreversed_inverse_fails(self, tmp_path, monkeypatch):
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        monkeypatch.setattr(Representation, "inverse", unreversed_inverse)
        rep = Representation(spec)
        word = rep.translation(1, 1)
        assert not rep.mat(rep.inverse(word) + word).is_identity()
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_letters_keyed_by_the_finite_part_fail(self, tmp_path, monkeypatch):
        # the dense oracle, `reflection`, reads letters too, so the mutant
        # goes on one representation for the oracle and on the class for verify
        spec = corpus_spec("B2 nu3 t1 S1=lat S2=min")
        rep = Representation(spec)
        monkeypatch.setattr(rep, "letter", types.MethodType(finite_keyed_letter, rep))
        assert dense_factor_mismatches(rep)
        monkeypatch.setattr(Representation, "letter", finite_keyed_letter)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT

    def test_translation_factors_match_dense_products(self):
        for spec in (spec_b2_mixed(), spec_g2(), corpus_spec("B2 nu3 t1 S1=lat S2=min")):
            assert dense_factor_mismatches(Representation(spec)) == []

    def test_non_central_word_fails_central_defect(self, tmp_path, monkeypatch):
        spec = corpus_spec("B3 nu3 t3 S1=pairs S2=0")
        monkeypatch.setattr(Representation, "central_word", non_central_word)
        report = verify_translation_identities(Representation(spec))
        defects = [item for item in report.items if item.identity == "central-defect"]
        assert defects and not any(item.passed for item in defects)
        assert verify_exit(tmp_path, spec) == EXIT_INVARIANT


class TestCaches:
    """What a `Representation` keeps, it derives once per representation."""

    def test_one_root_class_call_per_root(self, monkeypatch):
        spec = corpus_spec("B3 nu3 t3 S1=pairs S2=0")
        tested = []
        original = weylgroup.root_class
        monkeypatch.setattr(
            weylgroup, "root_class", lambda spec, root: tested.append(root) or original(spec, root)
        )
        rep, _ = suite_words(spec)
        assert len(tested) == len(set(tested)) > 0
        assert all(rep.is_root(root) for root in rep._numbers)

    def test_kept_words_equal_fresh_words(self):
        spec = spec_b2_mixed()
        rep = Representation(spec)
        for i in (1, 2):
            for r in range(1, spec.nullity + 1):
                for n in (-2, -1, 1, 2):
                    word = rep.translation(i, r, n)
                    assert word is rep.translation(i, r, n)
                    sigma = sigma_vec(spec, r, n * spec.translation_step(i, r))
                    base = Root(spec.roots.simple[i - 1], (0,) * spec.nullity)
                    assert roots_of(rep, word) == (shifted(base, sigma), base)
                    fresh = Representation(spec)
                    assert roots_of(fresh, fresh.translation(i, r, n)) == (shifted(base, sigma), base)


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
    """Reference: the BFS over whole `Root` states, one per (finite part, iso) pair."""
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


def set_orbit_cover(spec, height_bound: int, gens=None) -> CoverReport:
    """Oracle: the search by root length over iso tuples, as a set BFS.

    The same per-length shifts as `orbit_cover`, but each state is a
    tuple, each step a tuple difference and each box test a set test.
    """
    fr = spec.roots
    nu = spec.nullity
    slack = height_bound + 2
    gens = generating_roots(spec) if gens is None else gens
    affine = [g for g in gens if any(g.iso)]
    box = frozenset(range(-slack, slack + 1))
    isos = list(itertools.product(range(-height_bound, height_bound + 1), repeat=nu))
    target_count = 0
    unreached = []
    for roots in (fr.short_roots, fr.long_roots):
        parts = sorted(roots)
        cartans = {
            v: {fr.cartan(f, v) for f in parts} - {0}
            for v in {g.finite for g in affine}
        }
        shifts = {tuple(c * b for b in g.iso) for g in affine for c in cartans[g.finite]}
        visited = {g.iso for g in gens if g.finite in roots}
        frontier = list(visited)
        while frontier:
            nxt = []
            for iso in frontier:
                for shift in shifts:
                    moved = tuple(a - b for a, b in zip(iso, shift))
                    if moved not in visited and box.issuperset(moved):
                        visited.add(moved)
                        nxt.append(moved)
            frontier = nxt
        targets = [iso for iso in isos if is_root(spec, Root(parts[0], iso))]
        missed = [iso for iso in targets if iso not in visited]
        target_count += len(parts) * len(targets)
        unreached += [Root(f, iso) for f in parts for iso in missed]
    return CoverReport(
        bound=height_bound,
        slack=slack,
        target_count=target_count,
        reached_count=target_count - len(unreached),
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


def corpus_set_cover_cases():
    """Where `reference_orbit_cover` is slow: nullity 3 at heights 0 and 2, nullity 4 at 0-3."""
    from weylconj.corpus import reference_corpus

    for label, spec in reference_corpus():
        heights = {3: (0, 2), 4: (0, 1, 2, 3)}.get(spec.nullity, ())
        for height in heights:
            yield pytest.param(spec, height, id=f"{label} h{height}")


def corpus_affine_cuts(nullities=(1, 2)):
    from weylconj.corpus import reference_corpus

    for label, spec in reference_corpus():
        if spec.nullity in nullities:
            for k, g in enumerate(generating_roots(spec)):
                if any(g.iso):
                    yield pytest.param(spec, k, id=f"{label} drop {k}")


def cut_generators(spec, k, monkeypatch) -> list:
    """The generating roots without the k-th, installed for `orbit_cover`."""
    gens = generating_roots(spec)
    gens = gens[:k] + gens[k + 1:]
    monkeypatch.setattr(weylgroup, "generating_roots", lambda s: gens)
    return gens


def cover_mismatches(monkeypatch) -> list:
    """The nullity-2 corpus cuts where the bitset cover and the set BFS differ at height 1."""
    found = []
    for param in corpus_affine_cuts((2,)):
        spec, k = param.values
        with monkeypatch.context() as patch:
            gens = cut_generators(spec, k, patch)
            if orbit_cover(spec, 1).to_json() != set_orbit_cover(spec, 1, gens).to_json():
                found.append(param.id)
    return found


class TestOrbitCover:
    @pytest.mark.parametrize("spec,height", corpus_cover_cases())
    def test_matches_reference_bfs(self, spec, height):
        assert orbit_cover(spec, height).to_json() == (
            reference_orbit_cover(spec, height).to_json()
        )

    @pytest.mark.parametrize("spec,k", corpus_affine_cuts())
    def test_matches_reference_with_unreached_roots(self, spec, k, monkeypatch):
        # without any one affine generator the set leaves roots unreached,
        # which the corpus cases above never do; the search by root length
        # must report the same roots, in the same order, as the search
        # over whole roots
        gens = cut_generators(spec, k, monkeypatch)
        got = orbit_cover(spec, 1)
        assert not got.passed
        assert got.to_json() == reference_orbit_cover(spec, 1, gens).to_json()

    @pytest.mark.parametrize("spec,height", corpus_set_cover_cases())
    def test_matches_set_bfs(self, spec, height):
        assert orbit_cover(spec, height).to_json() == set_orbit_cover(spec, height).to_json()

    @pytest.mark.parametrize("spec,k", corpus_affine_cuts((3,)))
    def test_matches_set_bfs_with_unreached_roots(self, spec, k, monkeypatch):
        gens = cut_generators(spec, k, monkeypatch)
        got = orbit_cover(spec, 1)
        assert not got.passed
        assert got.to_json() == set_orbit_cover(spec, 1, gens).to_json()

    def test_starts_outside_the_box_match_set_bfs(self, monkeypatch):
        # every affine generator moved 4 steps out, past the height-0 box:
        # its digits may borrow, and the states they stand for lie outside
        spec = spec_b2()
        gens = [
            Root(g.finite, tuple(x + 4 for x in g.iso)) if any(g.iso) else g
            for g in generating_roots(spec)
        ]
        assert all(is_root(spec, g) for g in gens)
        monkeypatch.setattr(weylgroup, "generating_roots", lambda s: gens)
        for height in (0, 1):
            got = orbit_cover(spec, height)
            assert got.to_json() == set_orbit_cover(spec, height, gens).to_json()

    def test_nu5_lattice_matches_set_bfs(self):
        spec = make_spec("B", 3, 5, 5, LAT(5), Z0)
        got = orbit_cover(spec, 0)
        assert got.passed and got.to_json() == set_orbit_cover(spec, 0).to_json()

    def test_cover_without_digit_pad_fails_the_oracle(self, monkeypatch):
        # digits with no margin borrow from their neighbours
        monkeypatch.setattr(weylgroup, "_digit_pad", lambda shifts: 0)
        assert cover_mismatches(monkeypatch)

    def test_cover_without_box_mask_fails_the_oracle(self, monkeypatch):
        # every index below base^nu allowed: states leave the box and come back
        def unboxed(nu, slack, pad):
            return (1 << (2 * slack + 1 + 2 * pad) ** nu) - 1

        monkeypatch.setattr(weylgroup, "_box_mask", unboxed)
        assert cover_mismatches(monkeypatch)

    def test_missing_simple_root_is_an_invariant_breach(self, monkeypatch):
        spec = spec_b2()
        gens = generating_roots(spec)
        assert gens[1] == Root(spec.roots.simple[1], (0, 0))
        monkeypatch.setattr(weylgroup, "generating_roots", lambda s: gens[:1] + gens[2:])
        with pytest.raises(InvariantBreach) as err:
            orbit_cover(spec, 1)
        assert str(err.value) == f"generator set lacks the finite simple root {gens[1]}"

    def test_one_root_class_call_per_residue_class(self, monkeypatch):
        # the costliest boxes limits.MAX_COVER_STATES admits, 399,992 states;
        # a test per iso tuple made 99,990 root_class calls per cover
        tested = []
        original = weylgroup.root_class
        monkeypatch.setattr(
            weylgroup, "root_class", lambda spec, root: tested.append(root) or original(spec, root)
        )
        for t, target in ((0, 399_960), (1, 299_968)):
            tested.clear()
            cover = orbit_cover(make_spec("B", 2, 1, t, LAT(t), LAT(1 - t)), 24_997)
            assert (cover.target_count, cover.reached_count) == (target, target)
            assert len(tested) == 4  # two residues mod 2, per root length

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


GRID_EXPONENTS = range(-2, 3)


def reference_freeness_grid(rep: Representation, zwords) -> list[tuple[int, ...]]:
    """Oracle: the non-zero exponent vectors in GRID_EXPONENTS^pairs whose product is I.

    Each point multiplies rep.mat(rep.power(z, e)) over the words in order; the
    grid holds 5^pairs points, 124 non-zero ones at nullity 3.
    """
    found = []
    for exps in itertools.product(GRID_EXPONENTS, repeat=len(zwords)):
        if not any(exps):
            continue
        product = rep.mat(())
        for z, e in zip(zwords, exps):
            if e:
                product = product @ rep.mat(rep.power(z, e))
        if product.is_identity():
            found.append(exps)
    return found


def central_words(rep) -> list:
    """z_{r,s} for the pairs r < s in the order `verify_center_freeness` takes them."""
    nu = rep.spec.nullity
    return [
        rep.central_image(r, s)
        for r in range(1, nu + 1)
        for s in range(r + 1, nu + 1)
    ]


def corpus_nullity_at_most_3():
    from weylconj.corpus import reference_corpus

    return [(label, spec) for label, spec in reference_corpus() if spec.nullity <= 3]


def dependent_central_image(original):
    """Mutant: z_{1,3} becomes z_{1,2}^2, so D_{1,3} = 2 D_{1,2}."""

    def mutant(self, r, s, **bases):
        if (r, s) == (1, 3):
            return self.power(original(self, 1, 2, **bases), 2)
        return original(self, r, s, **bases)

    return mutant


def translation_central_image(original):
    """Mutant: z_{1,2} becomes t_{1,1}, a one-factor translation that is not central."""

    def mutant(self, r, s, **bases):
        if (r, s) == (1, 2):
            return self.translation(1, 1)
        return original(self, r, s, **bases)

    return mutant


class TestFreeness:
    def test_nu2_single_pair(self):
        rep = Representation(spec_b2())
        report = verify_center_freeness(rep)
        assert report.pairs == 1 and report.passed
        assert not rep.mat(rep.central_image(1, 2)).is_identity()

    def test_nu3_three_pairs(self):
        spec = make_spec("B", 3, 3, 2, LAT(2), LAT(1))
        report = verify_center_freeness(Representation(spec))
        assert report.pairs == 3 and report.passed

    def test_nu1_vacuous(self):
        spec = make_spec("B", 2, 1, 1, LAT(1), Z0)
        report = verify_center_freeness(Representation(spec))
        assert report.pairs == 0 and report.passed
        assert report.to_json() == {"pairs": 0, "independent": True, "products_vanish": True}

    def test_grid_oracle_finds_no_identity_on_corpus(self):
        specs = corpus_nullity_at_most_3()
        assert {spec.nullity for _, spec in specs} == {1, 2, 3}
        for label, spec in specs:
            rep = Representation(spec)
            assert verify_center_freeness(rep).passed, label
            assert reference_freeness_grid(rep, central_words(rep)) == [], label

    def test_dependent_images_fail(self, monkeypatch):
        spec = dict(corpus_nullity_at_most_3())["B2 nu3 t1 S1=lat S2=min"]
        monkeypatch.setattr(
            Representation, "central_image", dependent_central_image(Representation.central_image)
        )
        rep = Representation(spec)
        report = verify_center_freeness(rep)
        assert (report.independent, report.products_vanish, report.passed) == (False, True, False)
        assert (2, -1, 0) in reference_freeness_grid(rep, central_words(rep))

    def test_non_central_image_fails(self, monkeypatch):
        spec = dict(corpus_nullity_at_most_3())["B2 nu3 t1 S1=lat S2=min"]
        monkeypatch.setattr(
            Representation, "central_image", translation_central_image(Representation.central_image)
        )
        report = verify_center_freeness(Representation(spec))
        assert not report.products_vanish and not report.passed

    @pytest.mark.parametrize("mutant", [dependent_central_image, translation_central_image])
    def test_verify_exits_2_on_a_mutant(self, tmp_path, capsys, monkeypatch, mutant):
        from weylconj.cli import EXIT_INVARIANT, main
        from weylconj.rootsystem import spec_to_json

        spec = dict(corpus_nullity_at_most_3())["B3 nu3 t3 S1=pairs S2=0"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        monkeypatch.setattr(Representation, "central_image", mutant(Representation.central_image))
        assert main(["verify", str(path)]) == EXIT_INVARIANT
        assert "  center freeness: FAILED" in capsys.readouterr().out.splitlines()


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


def test_records_compare_and_hash_by_their_fields():
    # cached attributes sit in the instance dict beside the fields and take
    # no part in equality or hashing, whatever realisation the roots come
    # from; the fields themselves are read-only
    from weylconj.integral import count_collections
    from weylconj.rootsystem import spec_from_json, spec_to_json

    corpus = dict(corpus_nullity_at_most_3())
    for label in ("B2 nu3 t1 S1=lat S2=min", "B3 nu3 t3 S1=pairs S2=0"):
        doc = spec_to_json(corpus[label])
        spec = spec_from_json(doc)
        specs = [spec]
        if spec.rank == 2:
            alt = alternate_b2_realization()
            specs.append(make_spec("B", 2, spec.nullity, spec.twist, spec.s1, spec.s2, roots=alt))
        for read in specs:
            read.roots, read.sides, read.essential_members, read.incidence
            for sl in (read.s1, read.s2):
                sl.members, sl.incidence
                assert {"members", "incidence"} <= vars(sl).keys()
            assert {"roots", "sides", "essential_members", "incidence"} <= vars(read).keys()
            fresh = spec_from_json(doc)
            assert read == fresh and hash(read) == hash(fresh)
            for sl, supp in ((read.s1, doc["supp1"]), (read.s2, doc["supp2"])):
                other = make_semilattice(sl.dim, supp)
                assert sl == other and hash(sl) == hash(other)
        report = count_collections(spec)
        for record, field in ((spec, "nullity"), (spec.s1, "dim"), (report, "inc")):
            with pytest.raises(AttributeError):
                setattr(record, field, 3)
