"""Exact reflection representation of the extended affine Weyl group.

The ambient space is the finite realisation extended by the isotropic
directions sigma_1..sigma_nu and a dual copy lambda_1..lambda_nu with
(sigma_r, lambda_s) = delta_rs; reflections then act faithfully enough
to separate the translation and central parts.  Arithmetic is
integer-only: roots have integer coordinates, every Cartan number is an
integer, and each matrix is a `Mat`, integers over one denominator, so
each identity below is checked with zero tolerance.

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
from functools import lru_cache
from typing import Sequence

from .exactmat import Mat, commutator, row_reduce
from .rootsystem import (
    Root,
    RootClass,
    RootSystemSpec,
    commutator_coeff,
    conj_exponent,
    generating_roots,
    root_class,
    sigma_vec,
)
from .semilattice import elems_of


class NotARoot(ValueError):
    pass


class IdentityFailure(RuntimeError):
    pass


def _guard(spec: RootSystemSpec, max_nullity: int = 4, max_rank: int = 4) -> None:
    if spec.nullity > max_nullity or spec.rank > max_rank:
        raise ValueError(
            f"matrix verification guarded at rank <= {max_rank}, nullity <= {max_nullity}"
        )


@lru_cache(maxsize=None)
def ambient_gram(spec: RootSystemSpec) -> tuple[tuple[int, ...], ...]:
    """Gram matrix on (finite realisation) + span(sigma) + span(lambda)."""
    f = len(spec.roots.simple[0])
    nu = spec.nullity
    n = f + 2 * nu
    rows = [[0] * n for _ in range(n)]
    for i in range(f):
        for j in range(f):
            rows[i][j] = spec.roots.gram[i][j]
    for r in range(nu):
        rows[f + r][f + nu + r] = 1
        rows[f + nu + r][f + r] = 1
    return tuple(tuple(row) for row in rows)


def ambient_dim(spec: RootSystemSpec) -> int:
    return len(spec.roots.simple[0]) + 2 * spec.nullity


def _embed(spec: RootSystemSpec, root: Root) -> tuple:
    return tuple(root.finite) + tuple(root.iso) + (0,) * spec.nullity


@lru_cache(maxsize=None)
def reflection(spec: RootSystemSpec, root: Root) -> Mat:
    """Matrix of u -> u - (u, alpha^vee) alpha for a non-isotropic root."""
    if root_class(spec, root) not in (RootClass.SHORT, RootClass.LONG):
        raise NotARoot(f"{root} is not a non-isotropic root of the system")
    gram = ambient_gram(spec)
    alpha = _embed(spec, root)
    n = len(alpha)
    galpha = [sum(gram[c][d] * alpha[d] for d in range(n) if alpha[d]) for c in range(n)]
    aa = sum(alpha[c] * galpha[c] for c in range(n) if alpha[c])
    num = [
        [aa * (r == c) - 2 * alpha[r] * galpha[c] for c in range(n)]
        for r in range(n)
    ]
    return Mat(num, aa)


def _add_iso(root: Root, delta: Sequence[int]) -> Root:
    return Root(root.finite, tuple(a + b for a, b in zip(root.iso, delta)))


def is_root(spec: RootSystemSpec, root: Root) -> bool:
    return root_class(spec, root) in (RootClass.SHORT, RootClass.LONG)


@lru_cache(maxsize=None)
def translation_element(spec: RootSystemSpec, root: Root, sigma: tuple) -> Mat:
    """Image of the pair word w_(alpha+sigma) w_alpha."""
    return reflection(spec, _add_iso(root, sigma)) @ reflection(spec, root)


def translation(spec: RootSystemSpec, i: int, r: int) -> Mat:
    """t_{i,r}: the basic translation along sigma_r attached to the i-th simple root."""
    base = Root(spec.roots.simple[i - 1], (0,) * spec.nullity)
    return translation_element(
        spec, base, sigma_vec(spec, r, spec.translation_step(i, r))
    )


def _theta_root(spec: RootSystemSpec, side: int) -> Root:
    finite = spec.roots.theta1 if side == 1 else spec.roots.theta2
    return Root(finite, (0,) * spec.nullity)


@lru_cache(maxsize=None)
def central_word(spec: RootSystemSpec, side: int, mask: int) -> Mat:
    """psi(z_J) for J in the supporting class of side 1 or 2 (global mask)."""
    theta = _theta_root(spec, side)
    tau = tuple(-(mask >> q & 1) for q in range(spec.nullity))
    word = translation_element(spec, theta, tau)
    for r in elems_of(mask):
        word = word @ translation_element(spec, theta, sigma_vec(spec, r))
    return word


def central_image(
    spec: RootSystemSpec,
    r: int,
    s: int,
    short_base: Root | None = None,
    long_base: Root | None = None,
) -> Mat:
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
    if s <= t:
        if pair_mask in spec.s1.supp:
            return _pair_word(spec, alpha, r, s)
        return commutator(
            translation_element(spec, alpha, sigma_vec(spec, r)),
            translation_element(spec, alpha, sigma_vec(spec, s)),
        )
    if r > t:
        if (pair_mask >> t) in spec.s2.supp:
            return _pair_word(spec, beta, r, s)
        return commutator(
            translation_element(spec, beta, sigma_vec(spec, r)),
            translation_element(spec, beta, sigma_vec(spec, s)),
        )
    fr = spec.roots
    if fr.pairing(alpha.finite, beta.finite) >= 0:
        raise ValueError("mixed-pair bases must pair negatively")
    return commutator(
        translation_element(spec, beta, sigma_vec(spec, s)),
        translation_element(spec, alpha, sigma_vec(spec, r)),
    )


def _pair_word(spec: RootSystemSpec, base: Root, r: int, s: int) -> Mat:
    tau = tuple(-1 if q in (r - 1, s - 1) else 0 for q in range(spec.nullity))
    return (
        translation_element(spec, base, tau)
        @ translation_element(spec, base, sigma_vec(spec, r))
        @ translation_element(spec, base, sigma_vec(spec, s))
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

    def raise_on_failure(self) -> None:
        bad = self.failures()
        if bad:
            raise IdentityFailure(f"{len(bad)} identities failed; first: {bad[0]}")


def _pow_cached(mat: Mat, e: int, cache: dict) -> Mat:
    key = (id(mat), e)
    got = cache.get(key)
    if got is None:
        got = mat**e
        cache[key] = got
    return got


def verify_structure_identities(spec: RootSystemSpec) -> VerifyReport:
    """Check the conjugation, commutator and square relations as exact matrices."""
    _guard(spec)
    nu, rank, t = spec.nullity, spec.rank, spec.twist
    items: list[CheckItem] = []
    refl = [
        reflection(spec, Root(a, (0,) * nu)) for a in spec.roots.simple
    ]
    trans = {
        (i, r): translation(spec, i, r)
        for i in range(1, rank + 1)
        for r in range(1, nu + 1)
    }
    zmat = {
        (r, s): central_image(spec, r, s)
        for r in range(1, nu + 1)
        for s in range(r + 1, nu + 1)
    }
    powers: dict = {}

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                a = conj_exponent(spec, i, j, r)
                lhs = refl[i - 1] @ trans[(j, r)] @ refl[i - 1]
                rhs = trans[(j, r)] @ _pow_cached(trans[(i, r)], -a, powers)
                items.append(CheckItem("conjugation", (i, j, r), lhs == rhs))

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for r in range(1, nu + 1):
                for s in range(r, nu + 1):
                    lhs = commutator(trans[(i, r)], trans[(j, s)])
                    if r == s:
                        ok = lhs.is_identity()
                    else:
                        e = commutator_coeff(spec, i, j, r, s) // spec.pair_divisor(r, s)
                        ok = lhs == _pow_cached(zmat[(r, s)], e, powers)
                    items.append(CheckItem("commutator", (i, j, r, s), ok))

    for side, semi, shift in ((1, spec.s1, 0), (2, spec.s2, t)):
        for local in sorted(semi.supp):
            mask = local << shift
            if mask.bit_count() < 2:
                continue
            zj = central_word(spec, side, mask)
            rhs = Mat.identity(ambient_dim(spec))
            members = elems_of(mask)
            for r, s in itertools.combinations(members, 2):
                e = 2 // spec.pair_divisor(r, s)
                rhs = rhs @ _pow_cached(zmat[(r, s)], e, powers)
            items.append(
                CheckItem("square", (side, members), zj @ zj == rhs)
            )
    return VerifyReport(items)


def _centrality(spec: RootSystemSpec, mat: Mat, gens: list[Mat]) -> bool:
    return all(mat @ w == w @ mat for w in gens)


def verify_translation_identities(spec: RootSystemSpec) -> VerifyReport:
    """Check the elementary translation identities on a deterministic sample."""
    _guard(spec)
    nu, rank = spec.nullity, spec.rank
    zero = (0,) * nu
    items: list[CheckItem] = []
    pi_refl = [reflection(spec, g) for g in generating_roots(spec)]

    # power law (t^sigma)^n = t^(n sigma) and inverse symmetry
    for i in range(1, rank + 1):
        base = Root(spec.roots.simple[i - 1], zero)
        for r in range(1, nu + 1):
            step = spec.translation_step(i, r)
            tmat = translation_element(spec, base, sigma_vec(spec, r, step))
            acc = Mat.identity(ambient_dim(spec))
            for n in range(1, 4):
                acc = acc @ tmat
                direct = translation_element(spec, base, sigma_vec(spec, r, n * step))
                items.append(CheckItem("power", (i, r, n), acc == direct))
                inv_direct = translation_element(
                    spec, base, sigma_vec(spec, r, -n * step)
                )
                items.append(
                    CheckItem("power", (i, r, -n), acc.inv() == inv_direct)
                )

    # base shift t_(alpha + n sigma)^sigma = t_alpha^sigma, and negation
    for i in range(1, rank + 1):
        base = Root(spec.roots.simple[i - 1], zero)
        for r in range(1, nu + 1):
            step = spec.translation_step(i, r)
            sigma = sigma_vec(spec, r, step)
            ref = translation_element(spec, base, sigma)
            for n in (-2, -1, 1, 2):
                shifted = _add_iso(base, sigma_vec(spec, r, n * step))
                items.append(
                    CheckItem(
                        "base-shift",
                        (i, r, n),
                        translation_element(spec, shifted, sigma) == ref,
                    )
                )
            neg = Root(tuple(-x for x in base.finite), zero)
            items.append(
                CheckItem(
                    "negation",
                    (i, r),
                    translation_element(spec, base, sigma_vec(spec, r, -step))
                    == translation_element(spec, neg, sigma),
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
                    _add_iso(_add_iso(alpha, sig), tuple(-x for x in del_)),
                    _add_iso(_add_iso(alpha, del_), sig),
                    _add_iso(alpha, tuple(-x for x in sig)),
                    _add_iso(alpha, tuple(-x for x in del_)),
                ]
                if not all(is_root(spec, root) for root in needed):
                    continue
                lhs = translation_element(
                    spec, _add_iso(alpha, sig), tuple(-x for x in del_)
                ) @ translation_element(spec, alpha, del_)
                rhs = translation_element(
                    spec, _add_iso(alpha, del_), sig
                ) @ translation_element(spec, alpha, tuple(-x for x in sig))
                items.append(CheckItem("exchange", (side, r, s), lhs == rhs))

    # centrality of commutators, difference words and defect words
    for (si, sj) in ((1, 1), (1, 2), (2, 2)):
        a = _theta_root(spec, si)
        b = _theta_root(spec, sj)
        for r in range(1, nu + 1):
            for s in range(r + 1, nu + 1):
                com = commutator(
                    translation_element(
                        spec, a, sigma_vec(spec, r, spec.translation_step(si, r))
                    ),
                    translation_element(
                        spec, b, sigma_vec(spec, s, spec.translation_step(sj, s))
                    ),
                )
                items.append(
                    CheckItem(
                        "central-commutator",
                        (si, sj, r, s),
                        _centrality(spec, com, pi_refl),
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
                    and is_root(spec, _add_iso(alpha, tuple(-x for x in del_)))
                ):
                    continue
                word = translation_element(spec, shifted, del_) @ translation_element(
                    spec, alpha, tuple(-x for x in del_)
                )
                items.append(
                    CheckItem(
                        "central-difference",
                        (side, r, s),
                        _centrality(spec, word, pi_refl),
                    )
                )

    for side, semi, shift in ((1, spec.s1, 0), (2, spec.s2, spec.twist)):
        for local in sorted(semi.supp):
            mask = local << shift
            if mask.bit_count() < 2:
                continue
            items.append(
                CheckItem(
                    "central-defect",
                    (side, elems_of(mask)),
                    _centrality(spec, central_word(spec, side, mask), pi_refl),
                )
            )
    return VerifyReport(items)


def verify_choice_independence(spec: RootSystemSpec) -> VerifyReport:
    """z_{r,s} must not depend on which short/long roots realise its word."""
    _guard(spec)
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
            base = central_image(spec, r, s)
            other = central_image(
                spec, r, s, short_base=alt_short if s <= spec.twist else alt[0],
                long_base=alt[1],
            )
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


def orbit_cover(spec: RootSystemSpec, height_bound: int) -> CoverReport:
    """BFS of the generator set under its own reflections.

    Expands inside a box two steps slacker than the requested bound and
    reports which non-isotropic roots inside the bound were not reached.
    The claim certified is only about the bounded slice.
    """
    fr = spec.roots
    nu = spec.nullity
    slack = height_bound + 2
    gens = generating_roots(spec)
    finite_parts = sorted(fr.short_roots) + sorted(fr.long_roots)
    # (x, g^vee) depends only on the finite parts: one integer per pair
    cartan = {v: [fr.cartan(v, g.finite) for g in gens] for v in finite_parts}
    visited: set[Root] = set(gens)
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

    target = []
    for finite in finite_parts:
        for iso in itertools.product(range(-height_bound, height_bound + 1), repeat=nu):
            root = Root(finite, iso)
            if is_root(spec, root):
                target.append(root)
    unreached = [root for root in target if root not in visited]
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


def verify_center_freeness(spec: RootSystemSpec, exponent_bound: int = 2) -> FreenessReport:
    """No bounded non-trivial product of the z_{r,s} images is the identity.

    The displacement parts z - 1 are checked linearly independent and
    mutually annihilating, which settles the claim for every exponent
    vector; a direct product sweep over the bounded grid double-checks
    small cases.  For z = num / den the displacement is scaled to the
    integer matrix num - den * 1, which changes neither test.
    """
    _guard(spec)
    nu = spec.nullity
    n = ambient_dim(spec)
    pairs = [(r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1)]
    zs = [central_image(spec, r, s) for r, s in pairs]
    if not pairs:
        return FreenessReport(0, True, True, 0, [])
    disp = [
        Mat([
            [x - z.den * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(z.num)
        ])
        for z in zs
    ]
    _, pivots = row_reduce([[x for row in d.num for x in row] for d in disp])
    independent = len(pivots) == len(pairs)
    products_vanish = all(
        not any(map(any, (da @ db).num)) for da in disp for db in disp
    )
    grid_failures: list[tuple[int, ...]] = []
    grid_checked = 0
    span = 2 * exponent_bound + 1
    if span ** len(pairs) <= 4096:
        powcache: dict = {}
        for exps in itertools.product(
            range(-exponent_bound, exponent_bound + 1), repeat=len(pairs)
        ):
            if not any(exps):
                continue
            word = Mat.identity(n)
            for z, e in zip(zs, exps):
                if e:
                    word = word @ _pow_cached(z, e, powcache)
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
