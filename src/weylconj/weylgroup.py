"""Exact reflection representation of the extended affine Weyl group.

The ambient space is the finite realisation extended by the isotropic
directions sigma_1..sigma_nu and a scaled dual copy lambda'_1..lambda'_nu
with (sigma_r, lambda'_s) = k delta_rs; reflections then act faithfully
enough to separate the translation and central parts.  The factor k
makes every reflection an integer matrix (see `Representation.letter`).  A
matrix M in this basis is P M_0 P^-1 for its matrix M_0 in the unscaled
basis lambda_r, P = diag(1, .., 1, 1/k, .., 1/k), and conjugation
changes no identity below.  Arithmetic is integer-only: roots have integer
coordinates, every coefficient of a reflection is an integer, and each
matrix is an integer `Mat`, so each identity below is checked with zero
tolerance.

Group elements are words of reflections w_root, multiplied left to
right.  A `Representation` gives each root a small int, its letter, the
first time it meets it, so a word is a tuple of letters; the
translation factor t_root^sigma is the two-letter word w_(root+sigma)
w_root.  Reflections are involutions, so a word's inverse is the word
reversed, and a power is a longer word: no matrix is ever inverted or
raised to a power.  Every reflection is w_beta = I - beta beta^vee, the
identity minus one outer product, so it acts on a matrix as a rank-one
update, M w_beta = M - (M beta) beta^vee, and no two matrices are ever
multiplied to build a word: a product of two elements is the matrix of
the concatenated word, and the conjugate w M w of a word's matrix is
the matrix of the word between two copies of w's letter.  A
`Representation` owns the matrices of one spec: the pair (beta,
beta^vee) of each letter, the finite part of each finite root's coroot,
and the matrix of each word, built from its cached prefix by one right
update on row tuples.  A row whose product with beta is 0 is unchanged
by w_beta, so the new matrix holds the prefix's row object itself.
`Representation.mat` is the only way a word becomes a matrix, and
`Representation.commutes` tests M w_beta = w_beta M as the equality of
two rank-one matrices, (M beta) beta^vee = beta (beta^vee M), without
building either side.

Three builders of a `Representation` make the paper's elements, and
every suite calls them: `translation` builds t_{i,r}^n, `central_word`
builds z_J on a given base root, and `central_image` builds z_{r,s} (a
mixed pair's commutator, a supported pair's `central_word`, or an
unsupported pair's commutator, by Delta(r,s)).

The verifiers exercise, as matrix identities, the relations the
presented group imposes on its distinguished generators: the conjugation
relation w_i t_{j,r} w_i = t_{j,r} t_{i,r}^(-a), the commutator relation
[t_{i,r}, t_{j,s}] = z_{r,s}^(a/Delta), the square relation for the
central words z_J, and the elementary translation identities (power law,
base shift, exchange, centrality of the residual forms).
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .exactmat import Mat, smith_diagonal
from .limits import MAX_COVER_STATES, MAX_VERIFY_NULLITY, MAX_VERIFY_RANK, refuse_past
from .rootsystem import (
    InvariantBreach,
    Root,
    RootClass,
    RootSystemSpec,
    commutator_coeff,
    conj_exponent,
    exact_div,
    generating_roots,
    root_class,
    sigma_vec,
)
from .semilattice import elems_of

Word = tuple  # of letters (`Representation.letter`), the reflections multiplied left to right


def ambient_dim(spec: RootSystemSpec) -> int:
    return len(spec.roots.simple[0]) + 2 * spec.nullity


Sparse = tuple  # of (index, value) pairs, value != 0


def _finite_coroot(spec: RootSystemSpec, root: Root) -> tuple[int, Sparse]:
    """(alpha, alpha) and the finite columns of beta^vee, for the finite part alpha of a root."""
    fr = spec.roots
    gram_alpha = [sum(map(mul, row, root.finite)) for row in fr.gram]
    aa = sum(map(mul, gram_alpha, root.finite))
    coroot = tuple([
        (c, exact_div(2 * g, aa, "(e_{}, {}^vee)", c, root))
        for c, g in enumerate(gram_alpha)
        if g
    ])
    return aa, coroot


def reflection(spec: RootSystemSpec, root: Root) -> Mat:
    """The matrix I - beta beta^vee of w_root (see `Representation.letter`)."""
    beta, coroot = Representation(spec).pair(root)
    n = ambient_dim(spec)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for r, b in beta:
        for c, x in coroot:
            rows[r][c] -= b * x
    return Mat(rows)


def _right_rows(rows: Sequence[tuple[int, ...]], beta: Sparse, coroot: Sparse) -> tuple:
    """rows (I - beta beta^vee) as a tuple of row tuples: row u loses (u beta) beta^vee.

    A row with u beta = 0 is unchanged, and the result holds that same
    row object rather than a copy.  Most beta have at most two entries
    (a simple root, one finite coordinate, shifted along one sigma_r),
    and for those u beta is one two-term expression, its second term
    u_0 * 0 when beta has one entry; a longer beta takes the loop.
    """
    out = []
    if len(beta) <= 2:
        (c, b), (d, e) = (beta + ((0, 0),))[:2]
        for row in rows:
            x = row[c] * b + row[d] * e
            if x:
                row = list(row)
                for k, y in coroot:
                    row[k] -= x * y
                row = tuple(row)
            out.append(row)
        return tuple(out)
    for row in rows:
        x = 0
        for c, b in beta:
            x += row[c] * b
        if x:
            row = list(row)
            for c, y in coroot:
                row[c] -= x * y
            row = tuple(row)
        out.append(row)
    return tuple(out)


def refuse_verify_size(rank: int, nullity: int) -> None:
    """Refuse a rank or nullity past `verify`'s bounds, before any matrix is built."""
    refuse_past("verify rank", rank, MAX_VERIFY_RANK)
    refuse_past("verify nullity", nullity, MAX_VERIFY_NULLITY)


def _add_iso(root: Root, delta: Sequence[int]) -> Root:
    return Root(root.finite, tuple(a + b for a, b in zip(root.iso, delta)))


def _neg(vec: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in vec)


def is_root(spec: RootSystemSpec, root: Root) -> bool:
    return root_class(spec, root) in (RootClass.SHORT, RootClass.LONG)


def _simple_root(spec: RootSystemSpec, i: int) -> Root:
    """alpha_i with zero isotropic part: the base of t_{i,r} (theta_i for i = 1, 2)."""
    return Root(spec.roots.simple[i - 1], (0,) * spec.nullity)


def _step_sigma(spec: RootSystemSpec, i: int, r: int, n: int = 1) -> tuple[int, ...]:
    """n step sigma_r, the shift of t_{i,r}^n: step is the least n >= 1 keeping alpha_i a root."""
    return sigma_vec(spec, r, n * spec.translation_step(i, r))


class Representation:
    """The reflection representation of one spec, within `verify`'s rank and nullity bounds.

    It keeps what the suites would otherwise derive again on every use:
    whether each root it meets is a root (one `root_class` call each),
    the letter of each root and the pair (beta, beta^vee) of each
    letter, the finite part of each finite root's coroot, each word
    t_{i,r}^n and the matrix of each word it builds.  Words are tuples
    of letters, so a matrix lookup hashes small ints, and a word's
    inverse is its letters reversed.  Every table lives as long as the
    representation, which `verify` builds once per call.  Reflections
    act on matrices as rank-one updates, so nothing here multiplies two
    matrices.
    """

    def __init__(self, spec: RootSystemSpec):
        refuse_verify_size(spec.rank, spec.nullity)
        self.spec = spec
        self.dim = ambient_dim(spec)
        self._roots: dict[Root, bool] = {}
        self._finite: dict = {}
        self._numbers: dict[Root, int] = {}
        self._letters: list[tuple[Sparse, Sparse]] = []
        self._translations: dict[tuple[int, int, int], Word] = {}
        self._words: dict[Word, Mat] = {(): Mat.identity(self.dim)}

    def is_root(self, root: Root) -> bool:
        """Whether root is a non-isotropic root of the system, by one `root_class` call."""
        got = self._roots.get(root)
        if got is None:
            got = self._roots[root] = is_root(self.spec, root)
        return got

    def letter(self, root: Root) -> int:
        """The letter of w_root, for a non-isotropic root: its number, kept with its pair.

        w_root = I - beta beta^vee is u -> u - (u, alpha^vee) alpha.  beta
        is the ambient column of alpha, (finite, iso, 0..0).  The form
        pairs sigma_r with lambda'_r only, as k, so G alpha = (gram finite,
        0..0, k iso) and (alpha, alpha) is the finite pairing.  beta^vee is
        the row of coefficients (e_c, alpha^vee) = 2 (G alpha)_c / (alpha,
        alpha): the finite coroot, a Cartan integer per finite column, 0 on
        the sigma columns and 2k iso_r / (alpha, alpha) on the lambda'
        columns, which is k iso_r for a short alpha and iso_r for a long
        one.  The lambda' entries are divided per root: in a scaled
        realisation 2k / (alpha, alpha) may be a fraction whose multiples
        by iso_r are integers.  The finite part, (alpha, alpha) and the
        finite columns, depends on the finite root only and is kept by
        finite root.
        """
        got = self._numbers.get(root)
        if got is None:
            if not self.is_root(root):
                raise InvariantBreach(f"{root} is not a non-isotropic root of the system")
            spec = self.spec
            finite = self._finite.get(root.finite)
            if finite is None:
                finite = self._finite[root.finite] = _finite_coroot(spec, root)
            aa, coroot = finite
            lam = len(root.finite) + spec.nullity  # the first lambda' column
            coroot += tuple(
                (lam + r, exact_div(2 * spec.roots.k * x, aa, "(e_{}, {}^vee)", lam + r, root))
                for r, x in enumerate(root.iso)
                if x
            )
            beta = tuple((c, x) for c, x in enumerate(root.finite + root.iso) if x)
            got = self._numbers[root] = len(self._letters)
            self._letters.append((beta, coroot))
        return got

    def pair(self, root: Root) -> tuple[Sparse, Sparse]:
        """(beta, beta^vee) with w_root = I - beta beta^vee (see `letter`)."""
        return self._letters[self.letter(root)]

    def translation_word(self, root: Root, sigma: tuple[int, ...]) -> Word:
        """The two-letter word t_root^sigma = w_(root+sigma) w_root."""
        return self.letter(_add_iso(root, sigma)), self.letter(root)

    def inverse(self, word: Word) -> Word:
        """The inverse word: reflections are involutions, so the letters reversed."""
        return word[::-1]

    def commutator(self, x: Word, y: Word) -> Word:
        """The word x^-1 y^-1 x y."""
        return self.inverse(x) + self.inverse(y) + x + y

    def power(self, word: Word, e: int) -> Word:
        """The word word^e: |e| copies of the word, or of its inverse when e < 0."""
        return (word if e >= 0 else self.inverse(word)) * abs(e)

    def translation(self, i: int, r: int, n: int = 1) -> Word:
        """t_{i,r}^n: the basic translation along sigma_r attached to the i-th simple root.

        The two-letter word t_(alpha_i)^(n step sigma_r) (`_step_sigma`),
        built once per (i, r, n).
        """
        key = (i, r, n)
        got = self._translations.get(key)
        if got is None:
            base, sigma = _simple_root(self.spec, i), _step_sigma(self.spec, i, r, n)
            got = self._translations[key] = self.translation_word(base, sigma)
        return got

    def central_word(self, base: Root, mask: int) -> Word:
        """psi(z_J) on a base root for a global mask J.

        The word t_base^(-tau_J), then t_base^(sigma_r) for r in J ascending.
        """
        spec = self.spec
        tau = tuple(-(mask >> q & 1) for q in range(spec.nullity))
        word = self.translation_word(base, tau)
        for r in elems_of(mask):
            word += self.translation_word(base, sigma_vec(spec, r))
        return word

    def central_image(
        self,
        r: int,
        s: int,
        short_base: Root | None = None,
        long_base: Root | None = None,
    ) -> Word:
        """psi(z_{r,s}) for a global pair r < s.

        A mixed pair (r in S1's block, s in S2's) is the long/short
        commutator.  On one side, a supported pair (Delta(r,s) = 1) is the
        central word z_{r,s}, an unsupported one the commutator of the two
        singleton translations.  The optional bases override the default
        theta choices (they must pair negatively in the mixed case); the
        result is choice-independent.
        """
        spec = self.spec
        delta = spec.pair_divisor(r, s)  # first: it rejects a pair outside 1 <= r < s <= nu
        alpha = short_base if short_base is not None else _simple_root(spec, 1)
        beta = long_base if long_base is not None else _simple_root(spec, 2)
        if r <= spec.twist < s:
            if spec.roots.pairing(alpha.finite, beta.finite) >= 0:
                raise ValueError("mixed-pair bases must pair negatively")
            return self.commutator(
                self.translation_word(beta, sigma_vec(spec, s)),
                self.translation_word(alpha, sigma_vec(spec, r)),
            )
        base = alpha if s <= spec.twist else beta
        if delta == 1:
            return self.central_word(base, (1 << (r - 1)) | (1 << (s - 1)))
        return self.commutator(
            self.translation_word(base, sigma_vec(spec, r)),
            self.translation_word(base, sigma_vec(spec, s)),
        )

    def mat(self, word: Word) -> Mat:
        """The matrix of a word: its cached prefix times the reflection of its last letter.

        The last letter acts as one right update on the prefix's row
        tuples, so every prefix is built once.  A row the reflection
        leaves alone is shared with the prefix's matrix, not copied.
        """
        got = self._words.get(word)
        if got is None:
            rows = _right_rows(self.mat(word[:-1]).rows, *self._letters[word[-1]])
            got = self._words[word] = Mat.wrap(rows)
        return got

    def commutes(self, mat: Mat, root: Root) -> bool:
        """Whether mat w_root = w_root mat, by comparing two rank-one matrices.

        With w_root = I - beta beta^vee, M w_root = M - (M beta) beta^vee
        and w_root M = M - beta (beta^vee M), so they are equal exactly
        when (M beta) beta^vee = beta (beta^vee M).  As beta^vee != 0,
        that holds exactly when M beta = l beta and beta^vee M = l beta^vee
        for one rational l; with i a row where beta_i != 0, l is
        (M beta)_i / beta_i, and both are tested multiplied by beta_i.
        """
        beta, coroot = self.pair(root)
        rows = mat.rows
        n = self.dim
        m_beta = [0] * n
        for c, b in beta:
            m_beta = [x + b * row[c] for x, row in zip(m_beta, rows)]
        co_m = [0] * n
        for c, y in coroot:
            co_m = [x + y * z for x, z in zip(co_m, rows[c])]
        i, b = beta[0]
        want_m, want_co = [0] * n, [0] * n  # (M beta)_i beta and (M beta)_i beta^vee
        for c, x in beta:
            want_m[c] = m_beta[i] * x
        for c, y in coroot:
            want_co[c] = m_beta[i] * y
        return [b * x for x in m_beta] == want_m and [b * x for x in co_m] == want_co


def _class_members(spec: RootSystemSpec) -> Iterator[tuple[int, int]]:
    """(side number, global mask) of each supporting-class member of size >= 2."""
    for side in spec.sides:
        for local in side.semilattice.members:
            mask = local << side.shift
            if mask.bit_count() >= 2:
                yield side.number, mask


class CheckItem(NamedTuple):
    identity: str
    indices: tuple
    passed: bool


class VerifyReport(NamedTuple):
    items: list[CheckItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for item in self.items:
            out[item.identity] = out.get(item.identity, 0) + 1
        return out

    def to_json(self) -> list[dict]:
        return [
            {"identity": it.identity, "indices": list(it.indices), "pass": it.passed}
            for it in self.items
        ]


def verify_structure_identities(rep: Representation) -> VerifyReport:
    """Check the conjugation, commutator and square relations as exact matrices."""
    spec = rep.spec
    nu, rank = spec.nullity, spec.rank
    items: list[CheckItem] = []
    trans = {
        (i, r): rep.translation(i, r)
        for i in range(1, rank + 1)
        for r in range(1, nu + 1)
    }
    zword = {
        (r, s): rep.central_image(r, s)
        for r in range(1, nu + 1)
        for s in range(r + 1, nu + 1)
    }

    for i in range(1, rank + 1):
        w = (rep.letter(_simple_root(spec, i)),)
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                a = conj_exponent(spec, i, j, r)
                lhs = rep.mat(w + trans[(j, r)] + w)
                rhs = rep.mat(trans[(j, r)] + rep.power(trans[(i, r)], -a))
                items.append(CheckItem("conjugation", (i, j, r), lhs == rhs))

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                for s in range(r, nu + 1):
                    lhs = rep.mat(rep.commutator(trans[(i, r)], trans[(j, s)]))
                    if r == s:
                        ok = lhs.is_identity()
                    else:
                        e = commutator_coeff(spec, i, j, r, s) // spec.pair_divisor(r, s)
                        ok = lhs == rep.mat(rep.power(zword[(r, s)], e))
                    items.append(CheckItem("commutator", (i, j, r, s), ok))

    for side, mask in _class_members(spec):
        zj = rep.central_word(_simple_root(spec, side), mask)
        rhs: Word = ()
        members = elems_of(mask)
        for r, s in itertools.combinations(members, 2):
            rhs += rep.power(zword[(r, s)], 2 // spec.pair_divisor(r, s))
        ok = rep.mat(rep.power(zj, 2)) == rep.mat(rhs)
        items.append(CheckItem("square", (side, members), ok))
    return VerifyReport(items)


def _centrality(rep: Representation, mat: Mat, gens: list[Root]) -> bool:
    return all(rep.commutes(mat, g) for g in gens)


def verify_translation_identities(rep: Representation) -> VerifyReport:
    """Check the elementary translation identities on a deterministic sample."""
    spec = rep.spec
    nu, rank = spec.nullity, spec.rank
    gens = generating_roots(spec)
    powers: list[CheckItem] = []
    shift: list[CheckItem] = []
    exchange: list[CheckItem] = []
    central: list[CheckItem] = []
    difference: list[CheckItem] = []
    defect: list[CheckItem] = []

    def t(root: Root, sigma: tuple[int, ...]) -> Mat:
        return rep.mat(rep.translation_word(root, sigma))

    for i in range(1, rank + 1):
        for r in range(1, nu + 1):
            # power law (t^sigma)^n = t^(n sigma) and inverse symmetry
            word = rep.translation(i, r)
            tmat = rep.mat(word)
            for n in range(1, 4):
                direct = rep.mat(rep.translation(i, r, n))
                ok = rep.mat(rep.power(word, n)) == direct
                powers.append(CheckItem("power", (i, r, n), ok))
                ok = rep.mat(rep.power(word, n) + rep.translation(i, r, -n)).is_identity()
                powers.append(CheckItem("power", (i, r, -n), ok))
            # base shift t_(alpha + n sigma)^sigma = t_alpha^sigma, and negation
            base, sigma = _simple_root(spec, i), _step_sigma(spec, i, r)
            for n in (-2, -1, 1, 2):
                ok = t(_add_iso(base, _step_sigma(spec, i, r, n)), sigma) == tmat
                shift.append(CheckItem("base-shift", (i, r, n), ok))
            neg = Root(_neg(base.finite), base.iso)
            ok = rep.mat(rep.translation(i, r, -1)) == t(neg, sigma)
            shift.append(CheckItem("negation", (i, r), ok))

    for side in (1, 2):
        for r, s in itertools.permutations(range(1, nu + 1), 2):
            alpha = _simple_root(spec, side)
            sig, del_ = _step_sigma(spec, side, r), _step_sigma(spec, side, s)
            a_sig, a_del = _add_iso(alpha, sig), _add_iso(alpha, del_)
            # exchange identity t^(-d)_(a+s) t^d_a = t^s_(a+d) t^(-s)_a
            needed = [
                a_sig,
                a_del,
                _add_iso(a_sig, _neg(del_)),
                _add_iso(a_del, sig),
                _add_iso(alpha, _neg(sig)),
                _add_iso(alpha, _neg(del_)),
            ]
            if all(map(rep.is_root, needed)):
                lhs = rep.mat(rep.translation_word(a_sig, _neg(del_)) + rep.translation(side, s))
                rhs = rep.mat(rep.translation_word(a_del, sig) + rep.translation(side, r, -1))
                exchange.append(CheckItem("exchange", (side, r, s), lhs == rhs))
            # the difference word t^d_(a+s) t^(-d)_a is central
            if (
                rep.is_root(a_sig)
                and rep.is_root(_add_iso(a_sig, del_))
                and rep.is_root(_add_iso(alpha, _neg(del_)))
            ):
                word = rep.translation_word(a_sig, del_) + rep.translation(side, s, -1)
                ok = _centrality(rep, rep.mat(word), gens)
                difference.append(CheckItem("central-difference", (side, r, s), ok))

    # commutators of basic translations are central
    for (si, sj) in ((1, 1), (1, 2), (2, 2)):
        for r in range(1, nu + 1):
            for s in range(r + 1, nu + 1):
                com = rep.commutator(rep.translation(si, r), rep.translation(sj, s))
                ok = _centrality(rep, rep.mat(com), gens)
                central.append(CheckItem("central-commutator", (si, sj, r, s), ok))

    # the central words z_J are central
    for side, mask in _class_members(spec):
        zj = rep.mat(rep.central_word(_simple_root(spec, side), mask))
        ok = _centrality(rep, zj, gens)
        defect.append(CheckItem("central-defect", (side, elems_of(mask)), ok))
    return VerifyReport(powers + shift + exchange + central + difference + defect)


def verify_choice_independence(rep: Representation) -> VerifyReport:
    """z_{r,s} must not depend on which short/long roots realise its word."""
    spec = rep.spec
    fr = spec.roots
    items: list[CheckItem] = []
    zero = (0,) * spec.nullity
    shorts = sorted(fr.short_roots)
    longs = sorted(fr.long_roots)
    alt_short = next(Root(v, zero) for v in shorts if v != fr.theta1)
    default = (_simple_root(spec, 1), _simple_root(spec, 2))
    # the first short x long pair that pairs negatively, other than the default
    alt = next(
        pair
        for pair in (
            (Root(a, zero), Root(b, zero))
            for a in shorts
            for b in longs
            if fr.pairing(a, b) < 0
        )
        if pair != default
    )
    for r in range(1, spec.nullity + 1):
        for s in range(r + 1, spec.nullity + 1):
            base = rep.mat(rep.central_image(r, s))
            other = rep.mat(rep.central_image(
                r, s, short_base=alt_short if s <= spec.twist else alt[0],
                long_base=alt[1],
            ))
            items.append(CheckItem("choice-independence", (r, s), base == other))
    return VerifyReport(items)


class CoverReport(NamedTuple):
    bound: int
    slack: int
    target_count: int
    reached_count: int
    unreached: list[Root]

    @property
    def passed(self) -> bool:
        return not self.unreached

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "slack": self.slack,
            "target": self.target_count,
            "reached": self.reached_count,
            "unreached": [
                {"finite": list(map(str, r.finite)), "iso": list(r.iso)}
                for r in self.unreached
            ],
        }


def _digit_pad(shifts: set[tuple[int, ...]]) -> int:
    """The largest |coordinate| of a shift: each digit's margin on both sides of the box."""
    return max((abs(x) for shift in shifts for x in shift), default=0)


def _box_mask(nu: int, slack: int, pad: int) -> int:
    """The bits of the iso tuples in [-slack, slack]^nu; digit q of x is x_q + slack + pad."""
    base = 2 * slack + 1 + 2 * pad
    mask, weight = 1, 1
    for _ in range(nu):
        # mask < 2^weight, so its copies shifted by multiples of weight are disjoint
        mask *= sum(1 << d * weight for d in range(pad, pad + 2 * slack + 1))
        weight *= base
    return mask


def orbit_cover(spec: RootSystemSpec, height_bound: int) -> CoverReport:
    """BFS of the generator set under its own reflections.

    Expands inside a box two steps slacker than the requested bound and
    reports which non-isotropic roots inside the bound were not reached.
    The claim certified is only about the bounded slice.

    The search runs once per root length, over iso tuples.  The finite
    simple roots at iso 0 are generators (`InvariantBreach`
    otherwise).  Their reflections generate the finite Weyl group W_0,
    which moves the finite part and leaves the iso part alone, so the
    reached set is W_0-stable.  W_0 is transitive on the roots of each
    length (Humphreys, Lie Algebras, 10.4 Lemma C), so whether (f, tau)
    is reached depends only on tau and the length of f.  Reflecting
    (f, tau) in a generator g gives (f - c g, tau - c g.iso) with
    c = (f, g^vee), a root of the same length.  The search over length
    l therefore steps by the shifts c g.iso, g a generator with a
    non-zero iso part and c a non-zero (f, g^vee) over f of length l,
    from the iso parts of the generators of length l; its closure is
    the projection of the search over (finite part, iso) states.
    `root_class` reads only the length and the iso residues mod 2 and
    mod k, so one representative per length and residue class decides
    which iso tuples are roots.

    Each search is one bitset, a Python int.  Tuple x is bit
    sum_q (x_q + slack + pad) base^q, base = 2 slack + 1 + 2 pad, with
    pad the largest |shift coordinate|.  Every start is within pad of 0
    in each coordinate (a generator's own shifts include 2 g.iso), so it
    has a bit.  A shift moves each digit by at most pad, so from a state
    in the box no digit leaves 0..base - 1 and nothing borrows across
    digits.  From a start outside the box a digit may leave that range,
    but then it lands outside the box's digits, as the coordinate of the
    state it stands for lies outside the box.  Subtracting a shift is a
    bit shift of the whole frontier by that shift's index, and one AND
    with the in-box bits not yet reached (`_box_mask`) keeps the new
    states.
    """
    fr = spec.roots
    nu = spec.nullity
    states = (len(fr.short_roots) + len(fr.long_roots)) * (2 * height_bound + 5) ** nu
    refuse_past("orbit cover states", states, MAX_COVER_STATES)  # before any search
    slack = height_bound + 2
    gens = generating_roots(spec)
    zero = (0,) * nu
    for alpha in fr.simple:
        if Root(alpha, zero) not in gens:
            raise InvariantBreach(
                f"generator set lacks the finite simple root {Root(alpha, zero)}"
            )
    affine = [g for g in gens if any(g.iso)]
    # the values of one iso coordinate: at nu = 0 the one iso tuple () has no
    # coordinate, so none is built, whatever the height
    values = range(-height_bound, height_bound + 1) if nu else range(0)
    isos = list(itertools.product(values, repeat=nu))
    modulus = 2 * fr.k // math.gcd(2, fr.k)
    residues = [x % modulus for x in values]
    target_count = 0
    unreached: list[Root] = []
    for roots in (fr.short_roots, fr.long_roots):
        parts = sorted(roots)
        cartans = {
            v: {fr.cartan(f, v) for f in parts} - {0}
            for v in {g.finite for g in affine}
        }
        shifts = {
            tuple(c * b for b in g.iso) for g in affine for c in cartans[g.finite]
        }
        pad = _digit_pad(shifts)
        base = 2 * slack + 1 + 2 * pad
        weights = [base**q for q in range(nu)]

        def index(iso: Sequence[int]) -> int:
            return sum((x + slack + pad) * w for x, w in zip(iso, weights))

        offsets = {-sum(map(mul, shift, weights)) for shift in shifts}
        frontier = 0
        for g in gens:
            if g.finite in roots:
                frontier |= 1 << index(g.iso)
        box = _box_mask(nu, slack, pad)
        allowed = box & ~frontier  # in the box and not reached yet
        while frontier:
            moved = 0
            for offset in offsets:
                moved |= frontier << offset if offset > 0 else frontier >> -offset
            frontier = moved & allowed
            allowed ^= frontier
        seen = (box & ~allowed).to_bytes(base**nu // 8 + 1, "little")
        member = {
            key: is_root(spec, Root(parts[0], key))
            for key in itertools.product(sorted(set(residues)), repeat=nu)
        }
        # each iso tuple's residue class and bit, in the order of isos
        classes = itertools.product(residues, repeat=nu)
        bits = map(sum, itertools.product(
            *[[(x + slack + pad) * w for x in values] for w in weights]
        ))
        targets = [(iso, k) for iso, key, k in zip(isos, classes, bits) if member[key]]
        missed = [iso for iso, k in targets if not seen[k >> 3] >> (k & 7) & 1]
        target_count += len(parts) * len(targets)
        unreached += [Root(f, iso) for f in parts for iso in missed]
    return CoverReport(
        bound=height_bound,
        slack=slack,
        target_count=target_count,
        reached_count=target_count - len(unreached),
        unreached=unreached,
    )


class FreenessReport(NamedTuple):
    """The two facts that prove the z_{r,s} images free (`verify_center_freeness`)."""

    pairs: int
    independent: bool  # the displacements D = z - I are linearly independent
    products_vanish: bool  # D_a D_b = 0 for every ordered pair, a = b included

    @property
    def passed(self) -> bool:
        return self.independent and self.products_vanish

    def to_json(self) -> dict:
        return self._asdict()


def verify_center_freeness(rep: Representation) -> FreenessReport:
    """No non-trivial product of the z_{r,s} images is the identity.

    The proof covers every exponent vector.  Write D_a = z_a - I.  If
    every product D_a D_b vanishes, then z_a^e = I + e D_a for every
    integer e (also e < 0, since (I + D)(I - D) = I), and a product
    of such powers in any order is I + sum_a e_a D_a, all cross terms
    being zero.  With the D_a linearly independent, that sum is zero
    only when e = 0.  So the images generate a free abelian group of
    rank nu(nu-1)/2 once both facts hold.  Independence is read from the
    flattened displacements' Smith diagonal (`exactmat.smith_diagonal`):
    their rank is its number of non-zero entries.
    """
    spec = rep.spec
    nu = spec.nullity
    pairs = [(r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1)]
    disp = [
        Mat([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(z.rows)])
        for z in (rep.mat(rep.central_image(r, s)) for r, s in pairs)
    ]
    flat = [[x for row in d.rows for x in row] for d in disp]
    rank = sum(1 for entry in smith_diagonal(flat) if entry)
    products_vanish = all(
        not any(map(any, (da @ db).rows)) for da in disp for db in disp
    )
    return FreenessReport(
        pairs=len(pairs),
        independent=rank == len(pairs),
        products_vanish=products_vanish,
    )
