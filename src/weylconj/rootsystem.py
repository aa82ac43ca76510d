"""Finite root systems B/C/F4/G2 and extended affine systems built on them.

Finite roots are realised abstractly: vectors are integer coordinate
tuples in the simple-root basis and the bilinear form is carried by the
Gram matrix derived from the Cartan data.  Short roots have squared
length 2 and long roots 2k, where k = 3 for G2 and 2 otherwise, which
makes every pairing (alpha, beta^vee) an integer.  The simple roots are
ordered so that alpha_1 is short, alpha_2 is long and the two are
non-orthogonal; the remaining simple roots follow the chain.  Nothing
downstream depends on the realisation beyond Gram pairings and the
short/long sets, so alternative realisations (with integer coordinates)
can be substituted.

Arithmetic is integer-only: coordinates, pairings and Cartan numbers are
ints, and every quotient the construction guarantees integral goes
through `exact_div`, which raises `InvariantBreach` otherwise.

An extended affine system R(X, S1, S2) of rank l, nullity nu and twist t
consists of the vectors

    (S+S)  u  (R_sh + S1 (+) <S2>)  u  (R_lg + k<S1> (+) S2)

with S = S1 (+) <S2>; roots are stored as (finite part, nu integer
isotropic coordinates).

`free_sides` states which semilattices the type leaves free (B2 both,
B_l (l >= 3) S1, C_l S2, F4/G2 neither; every other side is a lattice),
and `RootSystemSpec.sides` carries that flag for every module that asks.
The decision paths see the type and the rank only there, so a spec
builds its finite roots on first read of `RootSystemSpec.roots`, which
only `verify` makes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .limits import MAX_NULLITY, refuse_past
from .semilattice import (
    PairIncidence,
    Semilattice,
    SpecValidationError,
    cached_attribute,
    make_semilattice,
    pair_incidence,
    pair_masks,
)

FAMILIES = ("B", "C", "F4", "G2")


class InvariantBreach(RuntimeError):
    """An invariant the construction guarantees failed; the message names the witness."""


Vec = tuple  # integer coordinate tuple


def exact_div(num: int, den: int, what: str, *args) -> int:
    """num / den for a quotient the construction guarantees integral.

    `what` names the quotient in the error as a `str.format` template,
    filled with `args` only when the division fails: formatting it on
    every call would cost ten times the division.
    """
    q, rem = divmod(num, den)
    if rem:
        raise InvariantBreach(f"{what.format(*args)} = {num}/{den} is not an integer")
    return q


def _pairing(gram: Sequence[Sequence[int]], u: Vec, v: Vec) -> int:
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = gram[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


@dataclass(frozen=True)
class FiniteRoots:
    """A finite root system with distinguished short alpha_1, long alpha_2."""

    family: str
    rank: int
    simple: tuple[Vec, ...]
    short_roots: frozenset
    long_roots: frozenset
    gram: tuple[tuple[int, ...], ...]
    k: int

    @property
    def theta1(self) -> Vec:
        return self.simple[0]

    @property
    def theta2(self) -> Vec:
        return self.simple[1]

    def pairing(self, u: Vec, v: Vec) -> int:
        return _pairing(self.gram, u, v)

    def cartan(self, u: Vec, v: Vec) -> int:
        """(u, v^vee) for a non-isotropic v; integral whenever u, v are roots."""
        return exact_div(2 * self.pairing(u, v), self.pairing(v, v), "({}, {}^vee)", u, v)


# Cartan data in the required ordering: half squared lengths per simple
# root, and bonds (i, j) -> ((a_i, a_j^vee), (a_j, a_i^vee)), 1-based.
def _chain_data(family: str, rank: int):
    if family == "B":
        d = [1] + [2] * (rank - 1)
        bonds = {(1, 2): (-1, -2)}
        for i in range(2, rank):
            bonds[(i, i + 1)] = (-1, -1)
    elif family == "C":
        d = [1, 2] + [1] * (rank - 2)
        bonds = {(1, 2): (-1, -2)}
        if rank >= 3:
            bonds[(1, 3)] = (-1, -1)
        for i in range(3, rank):
            bonds[(i, i + 1)] = (-1, -1)
    elif family == "F4":
        d = [1, 2, 2, 1]
        bonds = {(1, 2): (-1, -2), (2, 3): (-1, -1), (1, 4): (-1, -1)}
    elif family == "G2":
        d = [1, 3]
        bonds = {(1, 2): (-1, -3)}
    else:  # pragma: no cover - guarded by finite_roots
        raise SpecValidationError(family)
    return d, bonds


def type_label(family: str, rank: int) -> str:
    """The type as printed: F4 and G2 name their rank, B and C take it as a suffix."""
    return family if family in ("F4", "G2") else f"{family}{rank}"


def _validate_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise SpecValidationError(f"unknown type {family!r}; expected one of {FAMILIES}")
    if family == "B" and rank < 2:
        raise SpecValidationError("type B requires rank >= 2")
    if family == "C" and rank < 3:
        raise SpecValidationError("type C requires rank >= 3")
    if family == "F4" and rank != 4:
        raise SpecValidationError("type F4 has rank 4")
    if family == "G2" and rank != 2:
        raise SpecValidationError("type G2 has rank 2")


# Only `verify` reads roots, at rank <= MAX_VERIFY_RANK, so the cache holds at
# most 7 keys (B2-B4, C3, C4, F4, G2); each of its specs would rebuild them otherwise.
@lru_cache(maxsize=None)
def finite_roots(family: str, rank: int) -> FiniteRoots:
    """Build the finite root system by reflection closure of the simple roots."""
    _validate_family_rank(family, rank)
    d, bonds = _chain_data(family, rank)
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for (i, j), (cij, cji) in bonds.items():
        cartan[i - 1][j - 1] = cij
        cartan[j - 1][i - 1] = cji
    gram = tuple(
        tuple(cartan[i][j] * d[j] for j in range(rank)) for i in range(rank)
    )
    for i in range(rank):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise InvariantBreach(
                    f"Cartan data of {type_label(family, rank)} do not symmetrise at "
                    f"({i + 1}, {j + 1}): {gram[i][j]} != {gram[j][i]}"
                )

    simple = tuple(
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    )
    roots = set(simple) | {tuple(-x for x in v) for v in simple}
    frontier = list(roots)
    cap = 4 * rank * rank + 8
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                c = sum(beta[j] * gram[j][i] for j in range(rank))
                q = exact_div(c, d[i], "({}, alpha_{}^vee)", beta, i + 1)
                img = list(beta)
                img[i] -= q
                img_t = tuple(img)
                if img_t not in roots:
                    roots.add(img_t)
                    nxt.append(img_t)
        frontier = nxt
        if len(roots) > cap:  # pragma: no cover - malformed Cartan data only
            raise InvariantBreach(
                f"reflection closure of {type_label(family, rank)} exceeds {cap} roots"
            )

    k = 3 if family == "G2" else 2
    short, long_ = set(), set()
    for v in roots:
        sq = _pairing(gram, v, v)
        if sq == 2:
            short.add(v)
        elif sq == 2 * k:
            long_.add(v)
        else:  # pragma: no cover
            raise InvariantBreach(f"unexpected root length {sq} for {v}")
    fr = FiniteRoots(
        family=family,
        rank=rank,
        simple=simple,
        short_roots=frozenset(short),
        long_roots=frozenset(long_),
        gram=gram,
        k=k,
    )
    if fr.theta1 not in fr.short_roots or fr.theta2 not in fr.long_roots:
        raise InvariantBreach(
            f"{type_label(family, rank)}: need alpha_1 = {fr.theta1} short and "
            f"alpha_2 = {fr.theta2} long"
        )
    if fr.pairing(fr.theta1, fr.theta2) == 0:
        raise InvariantBreach(
            f"{type_label(family, rank)}: alpha_1 = {fr.theta1} and alpha_2 = {fr.theta2} "
            "are orthogonal"
        )
    return fr


class Root(NamedTuple):
    """An extended affine root: finite part plus integer isotropic coordinates."""

    finite: Vec
    iso: tuple[int, ...]


def free_sides(family: str, rank: int) -> tuple[int, ...]:
    """The sides (1 for S1, 2 for S2) the type leaves free; the rest are lattices."""
    if family == "B":
        return (1, 2) if rank == 2 else (1,)
    if family == "C":
        return (2,)
    return ()


class Side(NamedTuple):
    """One semilattice of a spec, placed in the global isotropic coordinates."""

    number: int  # 1 or 2
    name: str  # "S1" or "S2"
    semilattice: Semilattice
    shift: int  # local coordinate q is global coordinate q + shift: 0 or twist
    free: bool  # False when the type forces a lattice


class RootClass(enum.Enum):
    SHORT = "short"
    LONG = "long"
    NONE = "none"


@dataclass(frozen=True)
class RootSystemSpec:
    """R(X, S1, S2): type, rank, nullity, twist and the two semilattices.

    S1 lives in the first `twist` isotropic coordinates, S2 in the rest;
    S2's own coordinates are 1..nullity-twist and get shifted when a
    global index is needed.
    """

    family: str
    rank: int
    nullity: int
    twist: int
    s1: Semilattice
    s2: Semilattice

    @cached_attribute
    def roots(self) -> FiniteRoots:
        """The finite root system, unless `make_spec` was given another realisation."""
        return finite_roots(self.family, self.rank)

    @property
    def k(self) -> int:
        return self.roots.k

    @cached_attribute
    def sides(self) -> tuple[Side, Side]:
        """S1 and S2 with their global shift and whether the type leaves them free."""
        free = free_sides(self.family, self.rank)
        return (
            Side(1, "S1", self.s1, 0, 1 in free),
            Side(2, "S2", self.s2, self.twist, 2 in free),
        )

    @cached_attribute
    def essential_members(self) -> tuple[int, ...]:
        """The free sides' essential members as global masks, unsorted; no pair table needed."""
        return tuple([
            m << side.shift
            for side in self.sides
            if side.free
            for m in side.semilattice.essential_supp()
        ])

    @cached_attribute
    def incidence(self) -> PairIncidence:
        """`essential_members`, sorted, against every global pair.

        The one statement of the spec's Delta, which `pair_divisor` reads.
        Not glued from the sides' tables: the count stays independent of the
        reduction.  A global pair is supported (Delta = 1) exactly when its
        S1 part is in S1's class and its S2 part in S2's: a pair inside one
        block meets the other in the empty set, and a pair across the two
        blocks has a singleton on each side, so it is always supported.
        """
        t, low = self.twist, (1 << self.twist) - 1
        supp1, supp2 = self.s1.supp, self.s2.supp
        divisors = [
            1 if (pair & low) in supp1 and (pair >> t) in supp2 else 2
            for pair in pair_masks(self.nullity)
        ]
        return pair_incidence(self.nullity, self.essential_members, divisors)

    def k_r(self, r: int) -> int:
        """Scale of the isotropic direction r: k on the twisted block, else 1."""
        if not 1 <= r <= self.nullity:
            raise SpecValidationError(f"direction {r} outside 1..{self.nullity}")
        return self.k if r <= self.twist else 1

    def translation_step(self, i: int, r: int) -> int:
        """Least n >= 1 with alpha_i + n sigma_r a root: 1 for short alpha_i, k_r for long."""
        if not 1 <= i <= self.rank:
            raise SpecValidationError(f"simple-root index {i} outside 1..{self.rank}")
        alpha = self.roots.simple[i - 1]
        return 1 if alpha in self.roots.short_roots else self.k_r(r)

    def pair_divisor(self, r: int, s: int) -> int:
        """Divisor Delta(r,s) for a global pair r < s, read from `incidence`."""
        if not 1 <= r < s <= self.nullity:
            raise SpecValidationError(f"need 1 <= r < s <= {self.nullity}, got ({r}, {s})")
        table = self.incidence
        return table.divisors[table.pairs.index((r, s))]


def validate_slice(family: str, rank: int, nullity: int, twist: int) -> None:
    """Reject a type, rank, nullity and twist; builds no roots and bounds no rank."""
    _validate_family_rank(family, rank)
    if nullity < 0:
        raise SpecValidationError("nullity must be non-negative")
    if not 0 <= twist <= nullity:
        raise SpecValidationError(f"twist {twist} outside 0..{nullity}")


def make_spec(
    family: str,
    rank: int,
    nullity: int,
    twist: int,
    s1: Semilattice,
    s2: Semilattice,
    roots: FiniteRoots | None = None,
) -> RootSystemSpec:
    """Validate and assemble an extended affine root system description.

    `roots`, if given, is the finite realisation `spec.roots` returns in
    place of `finite_roots(family, rank)`; no roots are built here.
    """
    validate_slice(family, rank, nullity, twist)
    if s1.dim != twist:
        raise SpecValidationError(f"S1 has dimension {s1.dim}, expected twist {twist}")
    if s2.dim != nullity - twist:
        raise SpecValidationError(
            f"S2 has dimension {s2.dim}, expected nullity - twist = {nullity - twist}"
        )
    spec = RootSystemSpec(family, rank, nullity, twist, s1, s2)
    for side in spec.sides:
        if not side.free and not side.semilattice.is_lattice:
            raise SpecValidationError(f"{side.name} must be a lattice for type {family}")
    if roots is not None:
        spec.__dict__["roots"] = roots  # where `cached_attribute` keeps its value
    return spec


def conj_exponent(spec: RootSystemSpec, i: int, j: int, r: int) -> int:
    """Exponent a_{i,j}(r) in the conjugation relation w_i t_{j,r} w_i = t_{j,r} t_{i,r}^-a."""
    cartan = spec.roots.cartan(spec.roots.simple[i - 1], spec.roots.simple[j - 1])
    return exact_div(
        spec.translation_step(j, r) * cartan,
        spec.translation_step(i, r),
        "a_({},{})({})", i, j, r,
    )


def commutator_coeff(spec: RootSystemSpec, i: int, j: int, r: int, s: int) -> int:
    """Coefficient a_{i,j}(r,s); its Delta(r,s)-quotient is the commutator exponent."""
    if not 1 <= r <= s <= spec.nullity:
        raise SpecValidationError(f"need r <= s in 1..{spec.nullity}, got ({r}, {s})")
    fr = spec.roots
    ai = fr.simple[i - 1]
    aj = fr.simple[j - 1]
    out = exact_div(
        4 * fr.k * spec.translation_step(i, r) * spec.translation_step(j, s)
        * fr.pairing(ai, aj),
        spec.k_r(r) * fr.pairing(ai, ai) * fr.pairing(aj, aj),
        "a_({},{})({},{})", i, j, r, s,
    )
    if r < s and out % spec.pair_divisor(r, s):
        raise InvariantBreach(
            f"Delta({r},{s}) does not divide a_({i},{j})({r},{s}) = {out}"
        )
    return out


def root_class(spec: RootSystemSpec, root: Root) -> RootClass:
    """SHORT or LONG when `root` is a non-isotropic root of the system, else NONE.

    A finite part that is no finite root, the zero part included, is NONE.
    """
    finite, iso = root
    if len(iso) != spec.nullity:
        raise SpecValidationError(
            f"expected {spec.nullity} isotropic coordinates, got {len(iso)}"
        )
    head = iso[:spec.twist]
    if finite in spec.roots.short_roots:
        return RootClass.SHORT if spec.s1.contains(head) else RootClass.NONE
    if finite in spec.roots.long_roots:
        if any(c % spec.k for c in head):
            return RootClass.NONE
        return RootClass.LONG if spec.s2.contains(iso[spec.twist:]) else RootClass.NONE
    return RootClass.NONE


def sigma_vec(spec: RootSystemSpec, r: int, coeff: int = 1) -> tuple[int, ...]:
    """Isotropic coordinates of coeff * sigma_r."""
    return tuple(coeff if q == r - 1 else 0 for q in range(spec.nullity))


def _tau(spec: RootSystemSpec, mask: int) -> tuple[int, ...]:
    return tuple(1 if mask >> q & 1 else 0 for q in range(spec.nullity))


def generating_roots(spec: RootSystemSpec) -> list[Root]:
    """The finite-type simple roots plus the type-dependent affine generators.

    Side j contributes theta_j shifted by tau_J: J runs over the whole
    supporting class of a free side and over the singletons of a lattice
    side.  The raw list repeats theta_j whenever the empty set indexes a
    shift; duplicates are removed, keeping first occurrence order.
    """
    fr = spec.roots
    raw: list[Root] = [Root(a, (0,) * spec.nullity) for a in fr.simple]
    for side in spec.sides:
        theta = fr.simple[side.number - 1]
        semi = side.semilattice
        masks = semi.members if side.free else [1 << q for q in range(semi.dim)]
        raw += [Root(theta, _tau(spec, m << side.shift)) for m in masks]
    out: list[Root] = []
    seen = set()
    for root in raw:
        if root not in seen:
            seen.add(root)
            out.append(root)
    for root in out:
        cls = root_class(spec, root)
        if cls not in (RootClass.SHORT, RootClass.LONG):
            raise InvariantBreach(f"generator {root} classified {cls.value}")
    return out


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:  # also rejects bool, a subclass of int
        raise SpecValidationError(f"{key} must be an integer, got {value!r}")
    return value


def _json_class(doc: dict, key: str) -> list[list[int]]:
    value = doc[key]
    if not (
        isinstance(value, list)
        and all(
            isinstance(sub, list) and all(type(c) is int for c in sub)
            for sub in value
        )
    ):
        raise SpecValidationError(f"{key} must be a list of integer lists")
    return value


def spec_from_json(
    doc: dict, admit: Callable[[int, int], None] | None = None
) -> RootSystemSpec:
    """Build a spec from the JSON document form.

    Schema: {"type": "B"|"C"|"F4"|"G2", "rank": l, "nullity": nu,
    "twist": t, "supp1": [[...]], "supp2": [[...]]}; supp2 uses local
    indices 1..nu-t.  An optional "label" is ignored here.  The numbers
    must be JSON integers (not booleans, not floats) and each supporting
    class a list of integer lists; nothing is coerced.  The nullity is at
    most `MAX_NULLITY`; the rank is unbounded, as no roots are built.
    `admit`, if given, is called with the validated rank and nullity
    before S1 and S2 are built, so a caller's own bound refuses first.
    """
    try:
        family = doc["type"]
        rank = _json_int(doc, "rank")
        nullity = _json_int(doc, "nullity")
        twist = _json_int(doc, "twist")
        supp1 = _json_class(doc, "supp1")
        supp2 = _json_class(doc, "supp2")
    except (KeyError, TypeError) as exc:
        raise SpecValidationError(f"malformed spec document: {exc}") from exc
    refuse_past("nullity", nullity, MAX_NULLITY)
    validate_slice(family, rank, nullity, twist)  # before S1 and S2 take their dimensions
    if admit is not None:
        admit(rank, nullity)
    s1 = make_semilattice(twist, supp1)
    s2 = make_semilattice(nullity - twist, supp2)
    return make_spec(family, rank, nullity, twist, s1, s2)


def spec_to_json(spec: RootSystemSpec, label: str | None = None) -> dict:
    doc = {
        "type": spec.family,
        "rank": spec.rank,
        "nullity": spec.nullity,
        "twist": spec.twist,
        "supp1": spec.s1.to_subsets(),
        "supp2": spec.s2.to_subsets(),
    }
    if label is not None:
        doc["label"] = label
    return doc
