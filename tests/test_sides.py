"""The side rule against the per-type branches it replaced.

Which semilattices a type leaves free is stated once, by
`rootsystem.free_sides` and `RootSystemSpec.sides`.  The functions below
keep the earlier form of that rule, one `family == "B" and rank == 2 /
B / C / else` branch per call site, as the reference: the new code must
give the same essential family, generators (in order), reduction
count, closed form, screen and classification pairs on the corpus,
on random draws and on the B4/B5/C4/C5 specs neither of those reach.
"""

import itertools
import random

import pytest

from weylconj.corpus import classification_pairs, random_spec, reference_corpus
from weylconj.integral import (
    closed_form_exponent,
    count_collections,
    decide_by_reduction,
    essential_family,
    minimality_screen,
    semilattice_collection_count,
)
from weylconj.rootsystem import (
    Root,
    SpecValidationError,
    free_sides,
    generating_roots,
    make_spec,
)
from weylconj.semilattice import Semilattice, elems_of, enumerate_semilattices

TYPES = [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5),
         ("F4", 4), ("G2", 2)]


# --- the reference: one branch per type, as each call site wrote it ----------


def ref_lattice_required(family, rank):
    """The sides make_spec required to be lattices, in the order it checked them."""
    if family in ("F4", "G2"):
        return ["S1", "S2"]
    if family == "B" and rank >= 3:
        return ["S2"]
    if family == "C":
        return ["S1"]
    return []


def ref_essential_family(spec):
    t = spec.twist
    if spec.family == "B" and spec.rank == 2:
        masks = set(spec.s1.essential_supp())
        masks |= {m << t for m in spec.s2.essential_supp()}
    elif spec.family == "B":
        masks = set(spec.s1.essential_supp())
    elif spec.family == "C":
        masks = {m << t for m in spec.s2.essential_supp()}
    else:
        masks = set()
    return tuple(sorted(masks))


def ref_generating_roots(spec):
    fr = spec.roots
    t, nu = spec.twist, spec.nullity
    zero = (0,) * nu

    def tau(mask):
        return tuple(1 if mask >> q & 1 else 0 for q in range(nu))

    def sigma(r):
        return tau(1 << (r - 1))

    raw = [Root(a, zero) for a in fr.simple]
    th1, th2 = fr.theta1, fr.theta2
    if spec.family == "B" and spec.rank == 2:
        raw += [Root(th1, tau(m)) for m in sorted(spec.s1.supp)]
        raw += [Root(th2, tau(m << t)) for m in sorted(spec.s2.supp)]
    elif spec.family == "B":
        raw += [Root(th1, tau(m)) for m in sorted(spec.s1.supp)]
        raw += [Root(th2, sigma(r)) for r in range(t + 1, nu + 1)]
    elif spec.family == "C":
        raw += [Root(th1, sigma(r)) for r in range(1, t + 1)]
        raw += [Root(th2, tau(m << t)) for m in sorted(spec.s2.supp)]
    else:
        raw += [Root(th1, sigma(r)) for r in range(1, t + 1)]
        raw += [Root(th2, sigma(s)) for s in range(t + 1, nu + 1)]
    return list(dict.fromkeys(raw))


def ref_decide_by_reduction(spec):
    if spec.family in ("F4", "G2"):
        return 1
    if spec.family == "B" and spec.rank == 2:
        return semilattice_collection_count(spec.s1) * semilattice_collection_count(spec.s2)
    if spec.family == "B":
        return semilattice_collection_count(spec.s1)
    return semilattice_collection_count(spec.s2)


def ref_closed_form_exponent(spec):
    if not ref_essential_family(spec):
        return 0

    def all_pairs_supported(s):
        return all(
            (1 << (r - 1)) | (1 << (t - 1)) in s.supp
            for r in range(1, s.dim + 1)
            for t in range(r + 1, s.dim + 1)
        )

    if spec.family == "B" and spec.rank == 2:
        if all_pairs_supported(spec.s1) and all_pairs_supported(spec.s2):
            return len(spec.s1.essential_supp()) + len(spec.s2.essential_supp())
        return None
    if spec.family == "B":
        if all_pairs_supported(spec.s1):
            return len(spec.s1.essential_supp())
        return None
    if spec.family == "C":
        if all_pairs_supported(spec.s2):
            return len(spec.s2.essential_supp())
        return None
    return 0


def ref_not_minimal_reasons(s, side, span):
    reasons = []
    for j in sorted(s.essential_supp()):
        members = elems_of(j)
        if all(
            (1 << (r - 1)) | (1 << (t - 1)) in s.supp
            for r, t in itertools.combinations(members, 2)
        ):
            reasons.append(
                f"essential member {list(members)} of {side} has all pairs supported"
            )
            break
    if span >= 3 and s.is_lattice:
        reasons.append(f"{side} is a lattice of dimension >= 3")
    if span > 3 and s.index == (1 << span) - 2:
        reasons.append(f"{side} has near-full index 2^{span} - 2")
    return reasons


def ref_minimality_screen(spec):
    """The verdict and its reasons, as text."""
    t, nu = spec.twist, spec.nullity
    minimal, not_minimal = [], []
    if spec.family in ("F4", "G2"):
        minimal.append("empty essential family for this type")
    elif spec.family == "B" and spec.rank == 2:
        if spec.s1.index - t <= 3 and spec.s2.index - (nu - t) <= 3:
            minimal.append("ind(S1) - t <= 3 and ind(S2) - (nu - t) <= 3")
        if t <= 3 and nu - t <= 3 and spec.s1.index != 7 and spec.s2.index != 7:
            minimal.append("both blocks have dimension <= 3 and index != 7")
        not_minimal += ref_not_minimal_reasons(spec.s1, "S1", t)
        not_minimal += ref_not_minimal_reasons(spec.s2, "S2", nu - t)
    elif spec.family == "B":
        if spec.s1.index - t <= 3:
            minimal.append("ind(S1) - t <= 3")
        if t <= 3 and spec.s1.index != 7:
            minimal.append("twist <= 3 and ind(S1) != 7")
        not_minimal += ref_not_minimal_reasons(spec.s1, "S1", t)
    else:
        if spec.s2.index - (nu - t) <= 3:
            minimal.append("ind(S2) - (nu - t) <= 3")
        if nu - t <= 3 and spec.s2.index != 7:
            minimal.append("nu - twist <= 3 and ind(S2) != 7")
        not_minimal += ref_not_minimal_reasons(spec.s2, "S2", nu - t)
    if minimal and not_minimal:
        raise AssertionError(f"reference screen contradicts itself on {spec}")
    if minimal:
        return "minimal", tuple(minimal)
    if not_minimal:
        return "not_minimal", tuple(not_minimal)
    return "unknown", ()


def ref_classification_pairs(family, rank, nullity, twist, up_to_permutation):
    if family in ("F4", "G2"):
        s1s = [Semilattice.lattice(twist)]
        s2s = [Semilattice.lattice(nullity - twist)]
    elif family == "B" and rank >= 3:
        s1s = list(enumerate_semilattices(twist, up_to_permutation))
        s2s = [Semilattice.lattice(nullity - twist)]
    elif family == "C":
        s1s = [Semilattice.lattice(twist)]
        s2s = list(enumerate_semilattices(nullity - twist, up_to_permutation))
    else:
        s1s = list(enumerate_semilattices(twist, up_to_permutation))
        s2s = list(enumerate_semilattices(nullity - twist, up_to_permutation))
    return [(s1, s2) for s1 in s1s for s2 in s2s]


def screen_text(spec):
    """The screen's verdict and the reasons its facts stand for."""
    screen = minimality_screen(spec)
    return screen.verdict, screen.reasons


# --- inputs ----------------------------------------------------------------


def higher_rank_specs():
    """B4, B5, C4 and C5 at nullity <= 4, every admissible pair up to permutation."""
    out = []
    for family, rank in (("B", 4), ("B", 5), ("C", 4), ("C", 5)):
        for nu in range(5):
            for t in range(nu + 1):
                for s1, s2 in ref_classification_pairs(family, rank, nu, t, True):
                    label = f"{family}{rank} nu{nu} t{t} S1={s1.to_subsets()} S2={s2.to_subsets()}"
                    out.append((label, make_spec(family, rank, nu, t, s1, s2)))
    return out


def all_specs():
    rng = random.Random(20261018)
    draws = [(f"draw {i}", random_spec(rng)) for i in range(300)]
    return reference_corpus() + draws + higher_rank_specs()


SPECS = all_specs()


def test_inputs_reach_every_type():
    reached = {(spec.family, spec.rank) for _, spec in SPECS}
    assert reached == set(TYPES)


@pytest.mark.parametrize("family,rank", TYPES)
def test_free_sides_is_the_complement_of_the_lattice_sides(family, rank):
    forced = ref_lattice_required(family, rank)
    assert [n for n in (1, 2) if f"S{n}" not in forced] == list(free_sides(family, rank))


def test_same_answers_as_the_per_type_branches():
    mismatches = []
    for label, spec in SPECS:
        checks = {
            "essential_family": (essential_family, ref_essential_family),
            "generating_roots": (generating_roots, ref_generating_roots),
            "decide_by_reduction": (decide_by_reduction, ref_decide_by_reduction),
            "closed_form_exponent": (closed_form_exponent, ref_closed_form_exponent),
            "minimality_screen": (screen_text, ref_minimality_screen),
        }
        for name, (new, ref) in checks.items():
            if new(spec) != ref(spec):
                mismatches.append(f"{name} on {label}")
    assert mismatches == []


def test_sides_describe_the_spec():
    for label, spec in SPECS:
        s1, s2 = spec.sides
        assert (s1.number, s1.name, s1.semilattice, s1.shift) == (1, "S1", spec.s1, 0)
        assert (s2.number, s2.name, s2.semilattice, s2.shift) == (2, "S2", spec.s2, spec.twist)
        forced = ref_lattice_required(spec.family, spec.rank)
        assert [side.name for side in spec.sides if not side.free] == forced, label


def test_report_carries_the_screen_verdict():
    for label, spec in SPECS:
        report = count_collections(spec)
        verdict, reasons = ref_minimality_screen(spec)
        closed = ref_closed_form_exponent(spec)
        notes = [f"{verdict}: {reason}" for reason in reasons]
        notes += [] if closed is None else [f"closed-form: n0 = {closed}"]
        assert (report.screen, report.corollary_notes) == (verdict, tuple(notes)), label


@pytest.mark.parametrize("family,rank", TYPES)
def test_classification_pairs_match(family, rank):
    for nu in range(5):
        for t in range(nu + 1):
            for up_to_permutation in (True, False):
                args = (family, rank, nu, t, up_to_permutation)
                assert classification_pairs(*args) == ref_classification_pairs(*args), args


@pytest.mark.parametrize("family,rank", TYPES)
def test_lattice_required_on_exactly_the_forced_sides(family, rank):
    forced = ref_lattice_required(family, rank)
    nu, t = 4, 2
    minimal = Semilattice.minimal(2)
    lattice = Semilattice.lattice(2)
    for s1, s2, bad in (
        (minimal, lattice, ["S1"]),
        (lattice, minimal, ["S2"]),
        (minimal, minimal, ["S1", "S2"]),
    ):
        expected = [name for name in bad if name in forced]
        if expected:
            # S1 is checked first
            with pytest.raises(
                SpecValidationError, match=f"^{expected[0]} must be a lattice for type {family}$"
            ):
                make_spec(family, rank, nu, t, s1, s2)
        else:
            make_spec(family, rank, nu, t, s1, s2)
