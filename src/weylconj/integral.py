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

Every path reads Delta and integrality from a pair-incidence table
(`semilattice.PairIncidence`): the count and the closed form read the
spec's table, and the reduction and the screen read each free side's
own.  The count and the reduction run different algorithms.  The count
enumerates: `_integral_bitsets` is the one enumeration of integral
choices, one ascending pass over bits = 0 .. 2^|family| - 1, one XOR per
choice (from bits - 1 to bits the parity syndrome changes by a value
precomputed for the lowest set bit of bits).  `count_collections`
re-tests each witness it keeps with the table's own predicate,
`PairIncidence.is_integral`, so a wrong step cannot print a
non-integral witness.  The reduction enumerates nothing: a side's
integral choices are the kernel of its Delta = 2 rows over GF(2), so its
count is 2^(|family| - rank), the rank taken by `gf2_rank`.

`minimality_screen` decides its verdict from integer tests on the free
sides and keeps each condition that fired as a small tuple, a fact.
`count_collections` stores the screen result and the closed-form
exponent in its `DecisionReport`; the note strings `check` prints are
written from them by `DecisionReport.corollary_notes` only when read, so
a `classify` row, which prints the verdict alone, formats nothing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .limits import MAX_FAMILY, refuse_past
from .semilattice import PairIncidence, Semilattice, elems_of, enumerate_semilattices
from .rootsystem import (
    InvariantBreach,
    RootSystemSpec,
    SpecValidationError,
    free_sides,
    make_spec,
    type_label,
    validate_slice,
)

WITNESS_CAP = 16


def _named(spec: RootSystemSpec) -> str:
    """The spec as a breach names it: type, rank, nullity, twist and both classes."""
    return (
        f"{type_label(spec.family, spec.rank)} nu={spec.nullity} t={spec.twist} "
        f"S1={spec.s1.to_subsets()} S2={spec.s2.to_subsets()}"
    )


def essential_family(spec: RootSystemSpec) -> tuple[int, ...]:
    """The index family governing collections, as sorted global bitmasks."""
    return spec.incidence.family


def _integral_bitsets(table: PairIncidence) -> Iterator[int]:
    """Integral choices as bitsets over the table's family positions, in ascending order.

    One pass over bits = 0, 1, 2, ...: the syndrome, the bitset of
    `table.parity` rows that `bits` meets an odd number of times, is kept
    as one int.  From bits - 1 to bits the positions 0..p flip, p the
    lowest set bit of bits, so each step is `syndrome ^= flips[p]` with
    flips[p] the XOR of the column syndromes of positions 0..p; bits is
    yielded when the syndrome is 0.
    """
    cols = [0] * len(table.family)  # per position, the parity rows containing it
    for i, row in enumerate(table.parity):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    flips = []
    running = 0
    for col in cols:
        running ^= col
        flips.append(running)
    yield 0
    syndrome = 0
    for bits in range(1, 1 << len(cols)):
        syndrome ^= flips[(bits & -bits).bit_length() - 1]
        if not syndrome:
            yield bits


class ScreenResult(NamedTuple):
    """The minimality screen's verdict and the conditions behind it, as facts."""

    verdict: str  # "minimal" | "not_minimal" | "unknown"
    facts: tuple[tuple, ...]  # the conditions that fired for the verdict

    @property
    def reasons(self) -> tuple[str, ...]:
        """The facts as text."""
        return tuple(_reason_text(fact) for fact in self.facts)


class DecisionReport(NamedTuple):
    """Outcome of the collection count for one root system.

    `inc` is a power of two (`count_collections` checks it); n0 and the
    verdict are read from it.  The screen and the closed form are kept as
    facts and numbers; `corollary_notes` turns them into text.
    """

    inc: int
    witnesses: tuple[tuple[int, ...], ...]  # chosen-J masks of non-trivial collections
    screen_result: ScreenResult = ScreenResult("unknown", ())
    closed_form: int | None = None  # closed_form_exponent, where it applies

    @property
    def screen(self) -> str:
        """The minimality_screen verdict."""
        return self.screen_result.verdict

    @property
    def n0(self) -> int:
        return self.inc.bit_length() - 1

    @property
    def has_pbc(self) -> bool:
        return self.inc == 1

    @property
    def screen_disagrees(self) -> bool:
        """A decisive screen verdict that contradicts the count: a bug in one of them."""
        return self.screen != "unknown" and (self.screen == "minimal") != self.has_pbc

    @property
    def corollary_notes(self) -> tuple[str, ...]:
        """The screen's reasons, then the closed form, as `check` prints them."""
        verdict = self.screen_result.verdict
        notes = [f"{verdict}: {reason}" for reason in self.screen_result.reasons]
        if self.closed_form is not None:
            notes.append(f"closed-form: n0 = {self.closed_form}")
        return tuple(notes)

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


def count_collections(spec: RootSystemSpec) -> DecisionReport:
    """Count integral collections and decide the presentation by conjugation."""
    refuse_past("|family|", len(spec.essential_members), MAX_FAMILY)  # before the pair table
    table = spec.incidence
    inc = 0
    witnesses: list[tuple[int, ...]] = []
    for bits in _integral_bitsets(table):
        inc += 1
        if bits and len(witnesses) < WITNESS_CAP:
            witness = tuple(j for pos, j in enumerate(table.family) if bits >> pos & 1)
            # re-tested row by row, apart from the syndrome walk: at most
            # WITNESS_CAP * |parity| bit operations
            if not table.is_integral(bits):
                raise InvariantBreach(
                    f"witness {[list(elems_of(j)) for j in witness]} is not integral "
                    f"for {_named(spec)}"
                )
            witnesses.append(witness)
    if inc & (inc - 1):
        raise InvariantBreach(
            f"{inc} integral collections for {_named(spec)}: not a power of two"
        )
    return DecisionReport(
        inc=inc,
        witnesses=tuple(sorted(witnesses)),
        screen_result=minimality_screen(spec),
        closed_form=closed_form_exponent(spec),
    )


def gf2_rank(rows: Iterable[int]) -> int:
    """The GF(2) rank of bitset rows, by one XOR basis keyed on each row's highest set bit.

    Each row is reduced by the basis rows in the order they joined; a
    basis row has none of the earlier keys set, so no step sets a key
    cleared before it.  A row left non-zero joins under its highest bit.
    """
    basis: dict[int, int] = {}
    for row in rows:
        for top, base in basis.items():
            if row >> top & 1:
                row ^= base
        if row:
            basis[row.bit_length() - 1] = row
    return len(basis)


def semilattice_collection_count(s: Semilattice) -> int:
    """Integral collections of a single semilattice against its own pair divisors.

    They are the kernel of the Delta = 2 rows over GF(2), so the count is
    2^(|family| - rank) and nothing is enumerated.
    """
    table = s.incidence
    return 1 << (len(table.family) - gf2_rank(table.parity))


def decide_by_reduction(spec: RootSystemSpec) -> int:
    """Inc by the reduction: the product of the free sides' own counts.

    Each free side's count is a GF(2) rank over its own pair table
    (`semilattice_collection_count`), independent of the spec's table that
    `count_collections` enumerates; no family size is refused here.  The
    presentation by conjugation holds exactly when the product is 1.
    """
    inc = 1
    for side in spec.sides:
        if side.free:
            inc *= semilattice_collection_count(side.semilattice)
    return inc


def closed_form_exponent(spec: RootSystemSpec) -> int | None:
    """n0 in the closed-form regimes (no pair has Delta = 2); None otherwise."""
    table = spec.incidence
    if not table.family:
        return 0
    return None if table.parity else len(table.family)


# How the screen's reasons name a side's dimension: in the index gap, in the low bound.
_DIM_NAMES = {"S1": ("t", "twist"), "S2": ("(nu - t)", "nu - twist")}


def _reason_text(fact: tuple) -> str:
    """The reason a screen fact stands for, as `check` prints it."""
    match fact:
        case ("empty",):
            return "empty essential family for this type"
        case ("index_gap", free):
            return " and ".join(
                f"ind({side.name}) - {_DIM_NAMES[side.name][0]} <= 3" for side in free
            )
        case ("low_dim", free):
            if len(free) == 2:
                return "both blocks have dimension <= 3 and index != 7"
            name = free[0].name
            return f"{_DIM_NAMES[name][1]} <= 3 and ind({name}) != 7"
        case ("supported", name, member):
            return f"essential member {list(elems_of(member))} of {name} has all pairs supported"
        case ("lattice", name):
            return f"{name} is a lattice of dimension >= 3"
        case ("near_full", name, dim):
            return f"{name} has near-full index 2^{dim} - 2"
    raise InvariantBreach(f"unknown screen fact {fact!r}")


def _not_minimal_facts(s: Semilattice, side: str) -> list[tuple]:
    facts = []
    table = s.incidence
    # members in no Delta = 2 row: every pair inside them is supported
    supported = (1 << len(table.family)) - 1
    for row in table.parity:
        supported &= ~row
    if supported:
        facts.append(("supported", side, table.family[(supported & -supported).bit_length() - 1]))
    if s.dim >= 3 and s.is_lattice:
        facts.append(("lattice", side))
    if s.dim > 3 and s.index == (1 << s.dim) - 2:
        facts.append(("near_full", side, s.dim))
    return facts


def minimality_screen(spec: RootSystemSpec) -> ScreenResult:
    """Fast sufficient conditions for minimality / non-minimality.

    Applies the index-gap and low-twist bounds for the minimal verdicts
    and the supported-essential-member family for the non-minimal ones;
    returns "unknown" when nothing fires.  Decisive verdicts always
    agree with the full enumeration.  Each condition is an integer test;
    a condition that fires is kept as a fact, and its text is written
    only when a reason is printed (`ScreenResult.reasons`,
    `DecisionReport.corollary_notes`).
    """
    free = tuple([side for side in spec.sides if side.free])
    minimal: list[tuple] = []
    not_minimal: list[tuple] = []
    if not free:
        minimal.append(("empty",))
    else:
        index_gap = low_dim = True
        for side in free:
            s = side.semilattice
            index_gap = index_gap and s.index - s.dim <= 3
            low_dim = low_dim and s.dim <= 3 and s.index != 7
            not_minimal += _not_minimal_facts(s, side.name)
        if index_gap:
            minimal.append(("index_gap", free))
        if low_dim:
            minimal.append(("low_dim", free))
    if minimal and not_minimal:
        raise InvariantBreach(
            f"contradictory screen for {_named(spec)}: "
            f"minimal {[_reason_text(f) for f in minimal]} "
            f"vs not minimal {[_reason_text(f) for f in not_minimal]}"
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

    The varying side is the type's first free side (`free_sides`): S1 for
    type B, with index m1 and 7 <= t+4 <= m1 <= 2^t - 1, and S2 for type
    C, with index m2 and the same range in nu - t; the other side is a
    lattice, and an index given for it is refused, not ignored.  The
    search runs over the permutation representatives of the target
    index in the varying dimension, in ascending raw order, and
    keeps the first one admitting a non-trivial collection, read from the
    GF(2) rank of the candidate's own table; the result is re-certified
    by full enumeration, and that count's report is returned with the
    spec.  The other side is a lattice, so the count must equal the
    reduction's Inc (`decide_by_reduction`), the product of the free
    sides' GF(2) counts (the candidate's alone for
    B3 and C3, times 2^|members| of the lattice side for B2); a count
    that differs raises `InvariantBreach`, never a silent skip.
    Visiting only the target index keeps dimension 5 (twist 5 for B,
    nu - t = 5 for C) within a second for every index.
    """
    sides = free_sides(family, rank)
    if not sides:
        raise SpecValidationError("the construction applies to types B and C")
    t = twist
    varying = sides[0] - 1
    name, other = ("m2", "m1") if varying else ("m1", "m2")
    target, ignored = (m2, m1) if varying else (m1, m2)
    span, dim, exp = (nullity - t, "nu-t", "(nu-t)") if varying else (t, "t", "t")
    if target is None:
        raise SpecValidationError(f"type {family} requires {name}")
    if ignored is not None:
        raise SpecValidationError(
            f"type {family} varies S{varying + 1} and takes no {other}, got {other}={ignored}"
        )
    if not 7 <= span + 4 <= target <= (1 << span) - 1:
        raise SpecValidationError(
            f"need 7 <= {dim}+4 <= {name} <= 2^{exp} - 1, got {dim}={span}, {name}={target}"
        )
    validate_slice(family, rank, nullity, t)
    for cand in enumerate_semilattices(span, up_to_permutation=True, index=target):
        if semilattice_collection_count(cand) > 1:
            semis = [Semilattice.lattice(t), Semilattice.lattice(nullity - t)]
            semis[varying] = cand
            spec = make_spec(family, rank, nullity, t, *semis)
            report = count_collections(spec)
            by_rank = decide_by_reduction(spec)
            if report.inc != by_rank:
                raise InvariantBreach(
                    f"the count gives Inc = {report.inc} for {_named(spec)}, "
                    f"the free sides' GF(2) ranks give {by_rank}"
                )
            return spec, report
    raise InvariantBreach(
        f"no index-{target} semilattice of dimension {span} with a non-trivial collection"
    )
