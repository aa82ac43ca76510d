"""Integral collections and the presentation-by-conjugation decision.

For the relevant essential supporting-class members J (subsets of the
isotropic directions of size >= 3, drawn from the semilattices the type
leaves free, see `RootSystemSpec.sides`), an assignment eps: J -> {0,1}
is *integral* when for every pair r < s the divisor Delta(r,s) divides
the number of chosen J strictly containing {r,s}.  The extended affine
Weyl group has the presentation by conjugation exactly when the trivial
assignment is the only integral one; the count Inc is always a power of
two (the integral assignments form a GF(2)-subspace under coordinatewise
XOR) and n0 = log2(Inc) counts the 2-torsion factors in the kernel of
the canonical epimorphism from the presented group.

Every path reads a pair-incidence table (`semilattice.PairIncidence`):
the count, `is_integral` and the closed form read the spec's table, and
the reduction and the screen read each free side's own.  The one
enumeration of integral choices is `_integral_bitsets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Mapping

from .semilattice import PairIncidence, Semilattice, elems_of, enumerate_semilattices
from .rootsystem import InvariantBreach, RootSystemSpec, make_spec, validate_slice

MAX_FAMILY = 24
WITNESS_CAP = 16


class FamilyTooLarge(ValueError):
    pass


class NotPowerOfTwo(InvariantBreach):
    """Enumeration produced a count that is not a power of two: an implementation bug."""


class VerdictMismatch(InvariantBreach):
    """A decision report whose verdict does not follow from its count."""


class ContradictoryScreen(InvariantBreach):
    """The minimality screen fired both a minimal and a non-minimal condition."""


class SearchExhausted(RuntimeError):
    """The non-minimal construction found no witness; contradicts the existence result."""


def essential_family(spec: RootSystemSpec) -> tuple[int, ...]:
    """The index family governing collections, as sorted global bitmasks."""
    return spec.incidence.family


def _integral_bitsets(table: PairIncidence) -> Iterator[int]:
    """Integral choices as bitsets over the table's family positions, in ascending order."""
    if len(table.family) > MAX_FAMILY:
        raise FamilyTooLarge(
            f"|family| = {len(table.family)} exceeds the enumeration guard {MAX_FAMILY}"
        )
    constraints = table.parity
    for bits in range(1 << len(table.family)):
        if all((bits & c).bit_count() % 2 == 0 for c in constraints):
            yield bits


def is_integral(spec: RootSystemSpec, eps: Mapping[int, int]) -> bool:
    """Whether Delta(r,s) divides the chi-weighted sum for every pair r < s."""
    table = spec.incidence
    if set(eps) != set(table.family):
        raise ValueError("assignment must cover exactly the essential family")
    sums = table.pair_sums([eps[j] for j in table.family])
    return all(total % delta == 0 for total, delta in zip(sums, table.divisors))


def integral_collections(spec: RootSystemSpec) -> Iterator[dict[int, int]]:
    """All integral assignments, in lexicographic bit order (trivial one first)."""
    table = spec.incidence
    for bits in _integral_bitsets(table):
        yield {j: bits >> pos & 1 for pos, j in enumerate(table.family)}


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the collection count for one root system."""

    inc: int
    n0: int
    has_pbc: bool
    witnesses: tuple[tuple[int, ...], ...]  # chosen-J masks of non-trivial collections
    corollary_notes: tuple[str, ...] = ()
    screen: str = "unknown"  # the minimality_screen verdict

    def __post_init__(self) -> None:
        if self.inc != 1 << self.n0:
            raise NotPowerOfTwo(f"inc = {self.inc} is not 2^{self.n0}")
        if self.has_pbc != (self.inc == 1):
            raise VerdictMismatch(f"has_pbc = {self.has_pbc} but inc = {self.inc}")

    def to_json(self) -> dict:
        return {
            "inc": self.inc,
            "n0": self.n0,
            "pbc": self.has_pbc,
            "witnesses": [
                [list(elems_of(j)) for j in w] for w in self.witnesses
            ],
            "corollaries": list(self.corollary_notes),
        }


def count_collections(
    spec: RootSystemSpec, max_witnesses: int = WITNESS_CAP
) -> DecisionReport:
    """Count integral collections and decide the presentation by conjugation."""
    family = spec.incidence.family
    inc = 0
    witnesses: list[tuple[int, ...]] = []
    for bits in _integral_bitsets(spec.incidence):
        inc += 1
        if bits and len(witnesses) < max_witnesses:
            witnesses.append(tuple(j for pos, j in enumerate(family) if bits >> pos & 1))
    if inc & (inc - 1):
        raise NotPowerOfTwo(f"{inc} integral collections")
    screen = minimality_screen(spec)
    notes = [f"{screen.verdict}: {reason}" for reason in screen.reasons]
    closed = closed_form_exponent(spec)
    if closed is not None:
        notes.append(f"closed-form: n0 = {closed}")
    return DecisionReport(
        inc=inc,
        n0=inc.bit_length() - 1,
        has_pbc=inc == 1,
        witnesses=tuple(sorted(witnesses)),
        corollary_notes=tuple(notes),
        screen=screen.verdict,
    )


def semilattice_collection_count(s: Semilattice) -> int:
    """Integral collections of a single semilattice against its own pair divisors."""
    return sum(1 for _ in _integral_bitsets(s.incidence))


def decide_by_reduction(spec: RootSystemSpec) -> bool:
    """Presentation-by-conjugation verdict: each free side alone has Inc = 1."""
    return all(
        semilattice_collection_count(side.semilattice) == 1
        for side in spec.sides
        if side.free
    )


def closed_form_exponent(spec: RootSystemSpec) -> int | None:
    """n0 in the closed-form regimes (no pair has Delta = 2); None otherwise."""
    table = spec.incidence
    if not table.family:
        return 0
    return None if table.parity else len(table.family)


@dataclass(frozen=True)
class ScreenResult:
    verdict: str  # "minimal" | "not_minimal" | "unknown"
    reasons: tuple[str, ...]


# How the screen's reasons name a side's dimension: in the index gap, in the low bound.
_DIM_NAMES = {"S1": ("t", "twist"), "S2": ("(nu - t)", "nu - twist")}


def _not_minimal_reasons(s: Semilattice, side: str) -> list[str]:
    reasons = []
    table = s.incidence
    # members in no Delta = 2 row: every pair inside them is supported
    supported = ((1 << len(table.family)) - 1) & ~reduce(or_, table.parity, 0)
    if supported:
        members = elems_of(table.family[(supported & -supported).bit_length() - 1])
        reasons.append(f"essential member {list(members)} of {side} has all pairs supported")
    if s.dim >= 3 and s.is_lattice:
        reasons.append(f"{side} is a lattice of dimension >= 3")
    if s.dim > 3 and s.index == (1 << s.dim) - 2:
        reasons.append(f"{side} has near-full index 2^{s.dim} - 2")
    return reasons


def minimality_screen(spec: RootSystemSpec) -> ScreenResult:
    """Fast sufficient conditions for minimality / non-minimality.

    Applies the index-gap and low-twist bounds for the minimal verdicts
    and the supported-essential-member family for the non-minimal ones;
    returns "unknown" when nothing fires.  Decisive verdicts always
    agree with the full enumeration.
    """
    free = [side for side in spec.sides if side.free]
    minimal: list[str] = []
    not_minimal: list[str] = []
    if not free:
        minimal.append("empty essential family for this type")
    else:
        if all(side.semilattice.index - side.semilattice.dim <= 3 for side in free):
            minimal.append(" and ".join(
                f"ind({side.name}) - {_DIM_NAMES[side.name][0]} <= 3" for side in free
            ))
        if all(side.semilattice.dim <= 3 and side.semilattice.index != 7 for side in free):
            minimal.append(
                "both blocks have dimension <= 3 and index != 7" if len(free) == 2
                else f"{_DIM_NAMES[free[0].name][1]} <= 3 and ind({free[0].name}) != 7"
            )
    for side in free:
        not_minimal += _not_minimal_reasons(side.semilattice, side.name)
    if minimal and not_minimal:
        raise ContradictoryScreen(
            f"contradictory screen for {spec.family}{spec.rank} nu={spec.nullity} "
            f"t={spec.twist} S1={spec.s1.to_subsets()} S2={spec.s2.to_subsets()}: "
            f"minimal {minimal} vs not minimal {not_minimal}"
        )
    if minimal:
        return ScreenResult("minimal", tuple(minimal))
    if not_minimal:
        return ScreenResult("not_minimal", tuple(not_minimal))
    return ScreenResult("unknown", ())


def construct_nonminimal(
    family: str,
    nullity: int,
    twist: int,
    m1: int | None = None,
    m2: int | None = None,
    rank: int = 3,
) -> tuple[RootSystemSpec, DecisionReport]:
    """Search for a non-minimal system with the demanded semilattice indices.

    For type B the varying side is S1 (index m1, with 7 <= t+4 <= m1 <=
    2^t - 1) and S2 is a lattice; for type C the roles swap.  The search
    runs over the permutation representatives of the target index in the
    varying dimension, in ascending raw order, and keeps the first one
    admitting a non-trivial collection; the result is re-certified by
    full enumeration, and that count's report is returned with the spec.
    Visiting only the target index keeps dimension 5 (twist 5 for B,
    nu - t = 5 for C) within a second for every index.
    """
    if family not in ("B", "C"):
        raise ValueError("the construction applies to types B and C")
    t = twist
    if family == "B":
        if m1 is None:
            raise ValueError("type B requires m1")
        if not 7 <= t + 4 <= m1 <= (1 << t) - 1:
            raise ValueError(f"need 7 <= t+4 <= m1 <= 2^t - 1, got t={t}, m1={m1}")
        varying, span, target = 0, t, m1
    else:
        if m2 is None:
            raise ValueError("type C requires m2")
        if not 7 <= nullity - t + 4 <= m2 <= (1 << (nullity - t)) - 1:
            raise ValueError(
                f"need 7 <= nu-t+4 <= m2 <= 2^(nu-t) - 1, got nu-t={nullity - t}, m2={m2}"
            )
        varying, span, target = 1, nullity - t, m2
    validate_slice(family, rank, nullity, t)
    for cand in enumerate_semilattices(span, up_to_permutation=True, index=target):
        if semilattice_collection_count(cand) > 1:
            semis = [Semilattice.lattice(t), Semilattice.lattice(nullity - t)]
            semis[varying] = cand
            spec = make_spec(family, rank, nullity, t, *semis)
            report = count_collections(spec)
            if report.inc > 1:
                return spec, report
    raise SearchExhausted(
        f"no index-{target} semilattice of dimension {span} with a non-trivial collection"
    )
