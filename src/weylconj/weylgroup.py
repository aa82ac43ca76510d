"""Exact reflection representation of the extended affine Weyl group.

The ambient space is the finite realisation extended by the isotropic
directions sigma_1..sigma_nu and a scaled dual copy lambda'_1..lambda'_nu
with (sigma_r, lambda'_s) = k delta_rs; reflections then act faithfully
enough to separate the translation and central parts.  The factor k
makes every reflection an integer matrix (see `reflection`).  A matrix
M in this basis is P M_0 P^-1 for its matrix M_0 in the unscaled basis
lambda_r, P = diag(1, .., 1, 1/k, .., 1/k), and conjugation changes no
identity below.  Arithmetic is integer-only: roots have integer
coordinates, every coefficient of a reflection is an integer, and each
matrix is an integer `Mat`, so each identity below is checked with zero
tolerance.

Group elements are words: tuples of translation factors (root, sigma),
each t_root^sigma = w_(root+sigma) w_root.  Reflections are involutions,
so a word's inverse is the reversed word of factors (root + sigma,
-sigma) and no matrix is ever inverted.  A `Representation` owns the
matrices of one spec, cached by reflection root and by word.

The verifiers exercise, as matrix identities, the relations the
presented group imposes on its distinguished generators: the conjugation
relation w_i t_{j,r} w_i = t_{j,r} t_{i,r}^(-a), the commutator relation
[t_{i,r}, t_{j,s}] = z_{r,s}^(a/Delta), the square relation for the
central words z_J, and the elementary translation identities (power law,
base shift, exchange, centrality of the residual forms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import matmul, sub
from typing import Sequence

from .exactmat import Mat, row_reduce
from .rootsystem import (
    Root,
    RootClass,
    RootSystemSpec,
    SpecValidationError,
    commutator_coeff,
    conj_exponent,
    exact_div,
    generating_roots,
    root_class,
    sigma_vec,
)
from .semilattice import elems_of

Word = tuple  # of (Root, sigma) translation factors, multiplied left to right

# Admits F4 at nullity 4, height 2: 314,928 states, about 2 s and 60 MB.
MAX_COVER_STATES = 400_000


class NotARoot(ValueError):
    pass


def ambient_dim(spec: RootSystemSpec) -> int:
    return len(spec.roots.simple[0]) + 2 * spec.nullity


def reflection(spec: RootSystemSpec, root: Root) -> Mat:
    """Matrix of u -> u - (u, alpha^vee) alpha for a non-isotropic root.

    alpha has ambient coordinates (finite, iso, 0..0).  The form pairs
    sigma_r with lambda'_r only, as k, so G alpha = (gram finite, 0..0,
    k iso) and (alpha, alpha) is the finite pairing.  The coefficient
    (e_c, alpha^vee) = 2 (G alpha)_c / (alpha, alpha) is a Cartan integer
    on the finite columns, 0 on the sigma columns and k iso_r (short
    alpha) or iso_r (long alpha) on the lambda' columns.
    """
    if not is_root(spec, root):
        raise NotARoot(f"{root} is not a non-isotropic root of the system")
    fr = spec.roots
    zero = (0,) * spec.nullity
    alpha = root.finite + root.iso + zero
    gfinite = tuple(sum(g * x for g, x in zip(row, root.finite)) for row in fr.gram)
    galpha = gfinite + zero + tuple(fr.k * x for x in root.iso)
    aa = fr.pairing(root.finite, root.finite)
    coeff = [exact_div(2 * g, aa, f"(e_{c}, {root}^vee)") for c, g in enumerate(galpha)]
    return Mat([[(r == c) - a * x for c, x in enumerate(coeff)]
                for r, a in enumerate(alpha)])


def _add_iso(root: Root, delta: Sequence[int]) -> Root:
    return Root(root.finite, tuple(a + b for a, b in zip(root.iso, delta)))


def _neg(vec: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in vec)


def is_root(spec: RootSystemSpec, root: Root) -> bool:
    return root_class(spec, root) in (RootClass.SHORT, RootClass.LONG)


def translation_word(root: Root, sigma: Sequence[int]) -> Word:
    """The one-factor word t_root^sigma = w_(root+sigma) w_root."""
    return ((root, sigma),)


def inverse(word: Word) -> Word:
    """The inverse word: (t_a^s)^-1 = w_a w_(a+s) = t_(a+s)^(-s), reversed."""
    return tuple((_add_iso(root, sigma), _neg(sigma)) for root, sigma in reversed(word))


def commutator(x: Word, y: Word) -> Word:
    """The word x^-1 y^-1 x y."""
    return inverse(x) + inverse(y) + x + y


class Representation:
    """The reflection representation of one spec, guarded at rank and nullity <= 4."""

    def __init__(self, spec: RootSystemSpec):
        if spec.rank > 4 or spec.nullity > 4:
            raise SpecValidationError("verification is guarded at rank <= 4, nullity <= 4")
        self.spec = spec
        self.dim = ambient_dim(spec)
        self._reflections: dict[Root, Mat] = {}
        self._words: dict[Word, Mat] = {(): Mat.identity(self.dim)}

    def reflection(self, root: Root) -> Mat:
        got = self._reflections.get(root)
        if got is None:
            got = self._reflections[root] = reflection(self.spec, root)
        return got

    def mat(self, word: Word) -> Mat:
        """The matrix of a word."""
        got = self._words.get(word)
        if got is None:
            if len(word) == 1:
                ((root, sigma),) = word
                got = self.reflection(_add_iso(root, sigma)) @ self.reflection(root)
            else:
                got = reduce(matmul, [self.mat((factor,)) for factor in word])
            self._words[word] = got
        return got

    def power(self, word: Word, e: int) -> Mat:
        """The matrix of word^e; a negative power raises the inverse word."""
        base = word if e >= 0 else inverse(word)
        key = base * abs(e)
        got = self._words.get(key)
        if got is None:
            got = self._words[key] = self.mat(base) ** abs(e)
        return got


def translation(spec: RootSystemSpec, i: int, r: int) -> Word:
    """t_{i,r}: the basic translation along sigma_r attached to the i-th simple root."""
    base = Root(spec.roots.simple[i - 1], (0,) * spec.nullity)
    return translation_word(base, sigma_vec(spec, r, spec.translation_step(i, r)))


def _theta_root(spec: RootSystemSpec, side: int) -> Root:
    finite = spec.roots.theta1 if side == 1 else spec.roots.theta2
    return Root(finite, (0,) * spec.nullity)


def central_word(spec: RootSystemSpec, side: int, mask: int) -> Word:
    """psi(z_J) for J in the supporting class of side 1 or 2 (global mask)."""
    theta = _theta_root(spec, side)
    tau = tuple(-(mask >> q & 1) for q in range(spec.nullity))
    word = translation_word(theta, tau)
    for r in elems_of(mask):
        word += translation_word(theta, sigma_vec(spec, r))
    return word


def central_image(
    spec: RootSystemSpec,
    r: int,
    s: int,
    short_base: Root | None = None,
    long_base: Root | None = None,
) -> Word:
    """psi(z_{r,s}) for a global pair r < s.

    Supported pairs use the three-translation product word, unsupported
    pairs the commutator of the two singleton translations, and mixed
    pairs the short/long commutator.  The optional bases override the
    default theta choices (they must pair negatively in the mixed case);
    the result is choice-independent.
    """
    if not 1 <= r < s <= spec.nullity:
        raise ValueError(f"need 1 <= r < s <= {spec.nullity}")
    t = spec.twist
    alpha = short_base if short_base is not None else _theta_root(spec, 1)
    beta = long_base if long_base is not None else _theta_root(spec, 2)
    pair_mask = (1 << (r - 1)) | (1 << (s - 1))
    if s <= t or r > t:  # both directions on one side
        base, supp, shift = (alpha, spec.s1.supp, 0) if s <= t else (beta, spec.s2.supp, t)
        if (pair_mask >> shift) in supp:
            return _pair_word(spec, base, r, s)
        return commutator(
            translation_word(base, sigma_vec(spec, r)),
            translation_word(base, sigma_vec(spec, s)),
        )
    fr = spec.roots
    if fr.pairing(alpha.finite, beta.finite) >= 0:
        raise ValueError("mixed-pair bases must pair negatively")
    return commutator(
        translation_word(beta, sigma_vec(spec, s)),
        translation_word(alpha, sigma_vec(spec, r)),
    )


def _pair_word(spec: RootSystemSpec, base: Root, r: int, s: int) -> Word:
    tau = tuple(-1 if q in (r - 1, s - 1) else 0 for q in range(spec.nullity))
    return (
        translation_word(base, tau)
        + translation_word(base, sigma_vec(spec, r))
        + translation_word(base, sigma_vec(spec, s))
    )


@dataclass(frozen=True)
class CheckItem:
    identity: str
    indices: tuple
    passed: bool


@dataclass
class VerifyReport:
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
    refl = [rep.reflection(Root(a, (0,) * nu)) for a in spec.roots.simple]
    trans = {
        (i, r): translation(spec, i, r)
        for i in range(1, rank + 1)
        for r in range(1, nu + 1)
    }
    zword = {
        (r, s): central_image(spec, r, s)
        for r in range(1, nu + 1)
        for s in range(r + 1, nu + 1)
    }

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                a = conj_exponent(spec, i, j, r)
                tjr = rep.mat(trans[(j, r)])
                lhs = refl[i - 1] @ tjr @ refl[i - 1]
                rhs = tjr @ rep.power(trans[(i, r)], -a)
                items.append(CheckItem("conjugation", (i, j, r), lhs == rhs))

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                for s in range(r, nu + 1):
                    lhs = rep.mat(commutator(trans[(i, r)], trans[(j, s)]))
                    if r == s:
                        ok = lhs.is_identity()
                    else:
                        e = commutator_coeff(spec, i, j, r, s) // spec.pair_divisor(r, s)
                        ok = lhs == rep.power(zword[(r, s)], e)
                    items.append(CheckItem("commutator", (i, j, r, s), ok))

    for side in spec.sides:
        for local in sorted(side.semilattice.supp):
            mask = local << side.shift
            if mask.bit_count() < 2:
                continue
            zj = rep.mat(central_word(spec, side.number, mask))
            rhs = rep.mat(())
            members = elems_of(mask)
            for r, s in itertools.combinations(members, 2):
                e = 2 // spec.pair_divisor(r, s)
                rhs = rhs @ rep.power(zword[(r, s)], e)
            items.append(
                CheckItem("square", (side.number, members), zj @ zj == rhs)
            )
    return VerifyReport(items)


def _centrality(mat: Mat, gens: list[Mat]) -> bool:
    return all(mat @ w == w @ mat for w in gens)


def verify_translation_identities(rep: Representation) -> VerifyReport:
    """Check the elementary translation identities on a deterministic sample."""
    spec = rep.spec
    nu, rank = spec.nullity, spec.rank
    zero = (0,) * nu
    items: list[CheckItem] = []
    pi_refl = [rep.reflection(g) for g in generating_roots(spec)]

    def t(root: Root, sigma: Sequence[int]) -> Mat:
        return rep.mat(translation_word(root, sigma))

    # power law (t^sigma)^n = t^(n sigma) and inverse symmetry
    for i in range(1, rank + 1):
        base = Root(spec.roots.simple[i - 1], zero)
        for r in range(1, nu + 1):
            step = spec.translation_step(i, r)
            tmat = t(base, sigma_vec(spec, r, step))
            acc = rep.mat(())
            for n in range(1, 4):
                acc = acc @ tmat
                direct = t(base, sigma_vec(spec, r, n * step))
                items.append(CheckItem("power", (i, r, n), acc == direct))
                inv_direct = t(base, sigma_vec(spec, r, -n * step))
                items.append(
                    CheckItem("power", (i, r, -n), (acc @ inv_direct).is_identity())
                )

    # base shift t_(alpha + n sigma)^sigma = t_alpha^sigma, and negation
    for i in range(1, rank + 1):
        base = Root(spec.roots.simple[i - 1], zero)
        for r in range(1, nu + 1):
            step = spec.translation_step(i, r)
            sigma = sigma_vec(spec, r, step)
            ref = t(base, sigma)
            for n in (-2, -1, 1, 2):
                shifted = _add_iso(base, sigma_vec(spec, r, n * step))
                items.append(
                    CheckItem("base-shift", (i, r, n), t(shifted, sigma) == ref)
                )
            neg = Root(_neg(base.finite), zero)
            items.append(
                CheckItem(
                    "negation",
                    (i, r),
                    t(base, sigma_vec(spec, r, -step)) == t(neg, sigma),
                )
            )

    # exchange identity t^(-d)_(a+s) t^d_a = t^s_(a+d) t^(-s)_a
    for side in (1, 2):
        alpha = _theta_root(spec, side)
        i = side
        for r in range(1, nu + 1):
            for s in range(1, nu + 1):
                if r == s:
                    continue
                sig = sigma_vec(spec, r, spec.translation_step(i, r))
                del_ = sigma_vec(spec, s, spec.translation_step(i, s))
                needed = [
                    _add_iso(alpha, sig),
                    _add_iso(alpha, del_),
                    _add_iso(_add_iso(alpha, sig), _neg(del_)),
                    _add_iso(_add_iso(alpha, del_), sig),
                    _add_iso(alpha, _neg(sig)),
                    _add_iso(alpha, _neg(del_)),
                ]
                if not all(is_root(spec, root) for root in needed):
                    continue
                lhs = t(_add_iso(alpha, sig), _neg(del_)) @ t(alpha, del_)
                rhs = t(_add_iso(alpha, del_), sig) @ t(alpha, _neg(sig))
                items.append(CheckItem("exchange", (side, r, s), lhs == rhs))

    # centrality of commutators, difference words and defect words
    for (si, sj) in ((1, 1), (1, 2), (2, 2)):
        a = _theta_root(spec, si)
        b = _theta_root(spec, sj)
        for r in range(1, nu + 1):
            for s in range(r + 1, nu + 1):
                com = commutator(
                    translation_word(a, sigma_vec(spec, r, spec.translation_step(si, r))),
                    translation_word(b, sigma_vec(spec, s, spec.translation_step(sj, s))),
                )
                items.append(
                    CheckItem(
                        "central-commutator",
                        (si, sj, r, s),
                        _centrality(rep.mat(com), pi_refl),
                    )
                )

    for side in (1, 2):
        alpha = _theta_root(spec, side)
        i = side
        for r in range(1, nu + 1):
            for s in range(1, nu + 1):
                if r == s:
                    continue
                sig = sigma_vec(spec, r, spec.translation_step(i, r))
                del_ = sigma_vec(spec, s, spec.translation_step(i, s))
                shifted = _add_iso(alpha, sig)
                if not (
                    is_root(spec, shifted)
                    and is_root(spec, _add_iso(shifted, del_))
                    and is_root(spec, _add_iso(alpha, _neg(del_)))
                ):
                    continue
                word = t(shifted, del_) @ t(alpha, _neg(del_))
                items.append(
                    CheckItem(
                        "central-difference",
                        (side, r, s),
                        _centrality(word, pi_refl),
                    )
                )

    for side in spec.sides:
        for local in sorted(side.semilattice.supp):
            mask = local << side.shift
            if mask.bit_count() < 2:
                continue
            items.append(
                CheckItem(
                    "central-defect",
                    (side.number, elems_of(mask)),
                    _centrality(rep.mat(central_word(spec, side.number, mask)), pi_refl),
                )
            )
    return VerifyReport(items)


def verify_choice_independence(rep: Representation) -> VerifyReport:
    """z_{r,s} must not depend on which short/long roots realise its word."""
    spec = rep.spec
    fr = spec.roots
    items: list[CheckItem] = []
    zero = (0,) * spec.nullity
    shorts = sorted(fr.short_roots)
    longs = sorted(fr.long_roots)
    alt_short = next(Root(v, zero) for v in shorts if v != fr.theta1)
    alt_pairs = [
        (Root(a, zero), Root(b, zero))
        for a in shorts
        for b in longs
        if fr.pairing(a, b) < 0
    ]
    default = (_theta_root(spec, 1), _theta_root(spec, 2))
    alt = next(p for p in alt_pairs if p != default)
    for r in range(1, spec.nullity + 1):
        for s in range(r + 1, spec.nullity + 1):
            base = rep.mat(central_image(spec, r, s))
            other = rep.mat(central_image(
                spec, r, s, short_base=alt_short if s <= spec.twist else alt[0],
                long_base=alt[1],
            ))
            items.append(CheckItem("choice-independence", (r, s), base == other))
    return VerifyReport(items)


@dataclass
class CoverReport:
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


def check_cover_height(spec: RootSystemSpec, height_bound: int) -> None:
    """Refuse a height whose box, |finite roots| (2h + 5)^nu states, exceeds `MAX_COVER_STATES`."""
    roots = spec.roots.short_roots | spec.roots.long_roots
    states = len(roots) * (2 * height_bound + 5) ** spec.nullity
    if states > MAX_COVER_STATES:
        raise SpecValidationError(
            f"orbit cover at height {height_bound} spans {states} states, "
            f"above the bound {MAX_COVER_STATES}"
        )


def orbit_cover(spec: RootSystemSpec, height_bound: int) -> CoverReport:
    """BFS of the generator set under its own reflections.

    Expands inside a box two steps slacker than the requested bound and
    reports which non-isotropic roots inside the bound were not reached.
    The claim certified is only about the bounded slice.

    The BFS runs over (finite-part index, iso tuple) states.  Reflecting
    x in g maps x to x - (x, g^vee) g, and the Cartan number (x, g^vee)
    depends only on the finite parts, so an index table built once per
    finite part lists, for each generator g with (x, g^vee) = c != 0,
    the index of the finite part x - c g and the iso shift c g.iso.
    Each BFS edge is then one table entry and one tuple subtraction.
    """
    check_cover_height(spec, height_bound)
    fr = spec.roots
    nu = spec.nullity
    slack = height_bound + 2
    gens = generating_roots(spec)
    finite_parts = sorted(fr.short_roots) + sorted(fr.long_roots)
    index = {v: i for i, v in enumerate(finite_parts)}
    edges = []
    for v in finite_parts:
        row = []
        for g in gens:
            c = fr.cartan(v, g.finite)
            if c:
                image = tuple(a - c * b for a, b in zip(v, g.finite))
                row.append((index[image], tuple(c * b for b in g.iso)))
        edges.append(row)
    box = frozenset(range(-slack, slack + 1))  # allowed iso coordinates
    visited = {(index[g.finite], g.iso) for g in gens}
    frontier = list(visited)
    while frontier:
        nxt = []
        for i, iso in frontier:
            for j, shift in edges[i]:
                moved = tuple(map(sub, iso, shift))
                img = (j, moved)
                if img not in visited and box.issuperset(moved):
                    visited.add(img)
                    nxt.append(img)
        frontier = nxt

    target = []
    for finite in finite_parts:
        for iso in itertools.product(range(-height_bound, height_bound + 1), repeat=nu):
            root = Root(finite, iso)
            if is_root(spec, root):
                target.append(root)
    unreached = [
        root for root in target if (index[root.finite], root.iso) not in visited
    ]
    return CoverReport(
        bound=height_bound,
        slack=slack,
        target_count=len(target),
        reached_count=len(target) - len(unreached),
        unreached=unreached,
    )


@dataclass
class FreenessReport:
    pairs: int
    independent: bool
    products_vanish: bool
    grid_checked: int
    grid_failures: list[tuple[int, ...]]

    @property
    def passed(self) -> bool:
        return self.independent and self.products_vanish and not self.grid_failures

    def to_json(self) -> dict:
        return {
            "pairs": self.pairs,
            "independent": self.independent,
            "products_vanish": self.products_vanish,
            "grid_checked": self.grid_checked,
            "grid_failures": [list(m) for m in self.grid_failures],
        }


def verify_center_freeness(rep: Representation, exponent_bound: int = 2) -> FreenessReport:
    """No bounded non-trivial product of the z_{r,s} images is the identity.

    The displacement parts z - 1 are checked linearly independent and
    mutually annihilating, which settles the claim for every exponent
    vector; a direct product sweep over the bounded grid double-checks
    small cases.
    """
    spec = rep.spec
    nu = spec.nullity
    pairs = [(r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1)]
    zwords = [central_image(spec, r, s) for r, s in pairs]
    zs = [rep.mat(w) for w in zwords]
    if not pairs:
        return FreenessReport(0, True, True, 0, [])
    disp = [
        Mat([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(z.rows)])
        for z in zs
    ]
    _, pivots = row_reduce([[x for row in d.rows for x in row] for d in disp])
    independent = len(pivots) == len(pairs)
    products_vanish = all(
        not any(map(any, (da @ db).rows)) for da in disp for db in disp
    )
    grid_failures: list[tuple[int, ...]] = []
    grid_checked = 0
    span = 2 * exponent_bound + 1
    if span ** len(pairs) <= 4096:
        for exps in itertools.product(
            range(-exponent_bound, exponent_bound + 1), repeat=len(pairs)
        ):
            if not any(exps):
                continue
            word = rep.mat(())
            for z, e in zip(zwords, exps):
                if e:
                    word = word @ rep.power(z, e)
            grid_checked += 1
            if word.is_identity():
                grid_failures.append(exps)
    return FreenessReport(
        pairs=len(pairs),
        independent=independent,
        products_vanish=products_vanish,
        grid_checked=grid_checked,
        grid_failures=grid_failures,
    )
