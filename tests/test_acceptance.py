"""Acceptance criteria, one test per criterion, exact unless a runtime is bounded.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line
per criterion.
"""

import itertools
import random
import time

from weylconj.center import center_structure
from weylconj.corpus import classification_pairs, random_spec, reference_corpus
from weylconj.integral import (
    _integral_bitsets,
    closed_form_exponent,
    construct_nonminimal,
    count_collections,
    essential_family,
)
from weylconj.rootsystem import make_spec, type_label
from weylconj.semilattice import Semilattice, enumerate_semilattices
from weylconj.weylgroup import (
    Representation,
    verify_structure_identities,
    verify_translation_identities,
)

LAT = Semilattice.lattice
Z0 = Semilattice.lattice(0)


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_index_zero_types_have_pbc():
    checked = 0
    for family, rank in (("F4", 4), ("G2", 2)):
        for nullity in (1, 2, 3):
            for twist in range(nullity + 1):
                spec = make_spec(
                    family, rank, nullity, twist, LAT(twist), LAT(nullity - twist)
                )
                decision = count_collections(spec)
                assert decision.inc == 1 and decision.has_pbc, (family, nullity, twist)
                checked += 1
    report(1, checked == 18, f"F4/G2 nullity 1..3, all twists: Inc=1, pbc on {checked} specs")


def test_criterion_2_nullity_two_always_pbc():
    checked = 0
    for family, rank in (("B", 2), ("B", 3), ("C", 3), ("F4", 4), ("G2", 2)):
        for nullity in (1, 2):
            for twist in range(nullity + 1):
                s1_choices = (
                    list(enumerate_semilattices(twist))
                    if family == "B" and rank == 2
                    else [LAT(twist)]
                )
                if family == "B":
                    s2_choices = (
                        list(enumerate_semilattices(nullity - twist))
                        if rank == 2
                        else [LAT(nullity - twist)]
                    )
                elif family == "C":
                    s2_choices = list(enumerate_semilattices(nullity - twist))
                else:
                    s2_choices = [LAT(nullity - twist)]
                for s1 in s1_choices:
                    for s2 in s2_choices:
                        spec = make_spec(family, rank, nullity, twist, s1, s2)
                        assert essential_family(spec) == (), spec
                        assert count_collections(spec).has_pbc, spec
                        checked += 1
    report(2, checked > 0, f"every nullity <= 2 spec has an empty family and pbc ({checked} specs)")


def test_criterion_3_closed_forms_reproduced():
    cases = [
        (make_spec("B", 3, 2, 2, LAT(2), Z0), 0),
        (make_spec("B", 3, 3, 3, LAT(3), Z0), 1),
        (make_spec("B", 3, 4, 4, LAT(4), Z0), 5),
        (make_spec("C", 3, 3, 0, Z0, LAT(3)), 1),
        (make_spec("C", 3, 4, 1, LAT(1), LAT(3)), 1),
        (make_spec("B", 2, 4, 2, LAT(2), LAT(2)), 0),
    ]
    for spec, expected in cases:
        decision = count_collections(spec)
        closed = closed_form_exponent(spec)
        assert closed == expected == decision.n0, (spec, closed, decision.n0)
    agreements = 0
    for label, spec in reference_corpus():
        closed = closed_form_exponent(spec)
        if closed is not None:
            assert closed == count_collections(spec).n0, label
            agreements += 1
    report(3, agreements > 0,
           f"closed forms: lattice twists 2/3/4 -> 0/1/5, C-side 3 -> 1, B2 -> 0; "
           f"{agreements} corpus agreements")


def test_criterion_4_nullity3_classification_sweeps():
    started = time.monotonic()
    b_rows = []
    for s1, s2 in classification_pairs("B", 3, 3, 3, up_to_permutation=False):
        spec = make_spec("B", 3, 3, 3, s1, s2)
        b_rows.append((s1.index, count_collections(spec).has_pbc))
    assert len(b_rows) == 16
    for index, pbc in b_rows:
        assert pbc == (index != 7), (index, pbc)
    c_rows = []
    for s1, s2 in classification_pairs("C", 3, 3, 0, up_to_permutation=False):
        spec = make_spec("C", 3, 3, 0, s1, s2)
        c_rows.append((s2.index, count_collections(spec).has_pbc))
    assert len(c_rows) == 16
    for index, pbc in c_rows:
        assert pbc == (index != 7), (index, pbc)
    elapsed = time.monotonic() - started
    report(4, elapsed < 10.0,
           f"B3 and C3 sweeps: pbc fails exactly at index 7 (2x16 rows, {elapsed:.2f}s < 10s)")


def test_criterion_5_center_oracle_equivalence():
    corpus = reference_corpus()
    families = {type_label(spec.family, spec.rank) for _, spec in corpus}
    assert len(corpus) >= 50
    assert {"B2", "B3", "C3", "F4", "G2"} <= families
    assert all(spec.nullity <= 4 for _, spec in corpus)
    for label, spec in corpus:
        decision = count_collections(spec)
        center = center_structure(spec)
        assert center.torsion_order == decision.inc, label
        assert all(d == 2 for d in center.torsion), label
        nu = spec.nullity
        assert center.free_rank == nu * (nu - 1) // 2, label
    report(5, True,
           f"torsion order == Inc, all factors 2, free rank nu(nu-1)/2 on {len(corpus)} specs")


def test_criterion_6_matrix_identity_suite():
    started = time.monotonic()
    specs = [
        (label, spec)
        for label, spec in reference_corpus()
        if spec.rank <= 4 and spec.nullity <= 3
    ]
    total_items = 0
    for label, spec in specs:
        rep = Representation(spec)
        structure = verify_structure_identities(rep)
        assert structure.passed, (label, structure.failures()[:3])
        commutator_items = structure.counts()["commutator"]
        expected = spec.rank**2 * (spec.nullity * (spec.nullity + 1) // 2)
        assert commutator_items == expected, label
        lemmas = verify_translation_identities(rep)
        assert lemmas.passed, (label, lemmas.failures()[:3])
        total_items += len(structure.items) + len(lemmas.items)
    elapsed = time.monotonic() - started
    report(6, elapsed < 60.0,
           f"{total_items} exact identities over {len(specs)} specs, zero failures "
           f"({elapsed:.1f}s < 60s)")


def test_criterion_7_nonminimal_construction():
    started = time.monotonic()
    spec, decision = construct_nonminimal("B", 3, 3, m1=7)
    assert spec.s1.index == 7 and spec.s2.index == 0
    assert not decision.has_pbc and not count_collections(spec).has_pbc
    spec, decision = construct_nonminimal("C", 3, 0, m2=7)
    assert spec.s2.index == 7 and spec.s1.index == 0
    assert not decision.has_pbc and not count_collections(spec).has_pbc
    for m1 in range(8, 16):
        spec, decision = construct_nonminimal("B", 4, 4, m1=m1)
        assert spec.s1.index == m1
        assert spec.s2.index == 0
        assert not decision.has_pbc and not count_collections(spec).has_pbc, m1
    elapsed = time.monotonic() - started
    report(7, elapsed < 60.0,
           f"witnesses at t=3 (m1=7), C-side (m2=7) and every m1 in 8..15 at t=4 "
           f"({elapsed:.2f}s < 60s)")


def test_criterion_8_xor_closure_on_random_specs():
    rng = random.Random(20260810)
    for trial in range(200):
        spec = random_spec(rng)
        found = list(_integral_bitsets(spec.incidence))
        as_set = set(found)
        assert len(found) == len(as_set), (trial, spec)
        assert len(found) & (len(found) - 1) == 0, (trial, spec)
        for a, b in itertools.product(found, repeat=2):
            assert a ^ b in as_set, (trial, spec)
    report(8, True, "XOR closure and power-of-two size on 200 random specs")
