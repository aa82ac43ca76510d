"""The pair-incidence table against the per-consumer pair loops it replaced.

`RootSystemSpec.incidence` and `Semilattice.incidence` are the one source
of Delta, the parity constraints, the pair residues and the center
relation rows; `RootSystemSpec.pair_divisor` reads the spec's table.  The
functions below keep, as the reference, the case split that stated Delta
before the tables did and the loops each consumer ran before the table
existed: the tables and `pair_divisor` must give the same divisors, rows,
sums and relation matrix on the corpus, on random draws and on every
free side's own table.
"""

import functools
import json
import random

import pytest

from weylconj import rootsystem, semilattice
from weylconj.center import center_presentation, kernel_exponents
from weylconj.cli import EXIT_NO_PBC, main
from weylconj.corpus import random_spec, reference_corpus
from weylconj.integral import _integral_bitsets, essential_family
from weylconj.rootsystem import SpecValidationError, exact_div
from weylconj.semilattice import Semilattice, make_semilattice

# --- the reference: Delta case by case, and the pair loops of each consumer ----


def _pair_mask(r, s):
    return (1 << (r - 1)) | (1 << (s - 1))


def ref_side_divisor(semi, r, s):
    """Delta(r,s) of one semilattice: 1 if the pair is in its class, else 2."""
    return 1 if _pair_mask(r, s) in semi.supp else 2


def ref_pair_divisor(spec, r, s):
    """Delta(r,s) for a global pair: inside S1's block, across the blocks, inside S2's."""
    t = spec.twist
    if s <= t:
        return ref_side_divisor(spec.s1, r, s)
    if r <= t:
        return 1
    return ref_side_divisor(spec.s2, r - t, s - t)


def ref_parity_constraints(family, dim, divisor):
    """One mask per pair r < s with divisor 2: the family positions containing the pair."""
    constraints = []
    for r in range(1, dim + 1):
        for s in range(r + 1, dim + 1):
            if divisor(r, s) == 1:
                continue
            pm = _pair_mask(r, s)
            posmask = 0
            for pos, j in enumerate(family):
                if pm & j == pm:
                    posmask |= 1 << pos
            constraints.append(posmask)
    return constraints


def ref_pair_residues(spec, bits):
    """Per pair r < s: (number of chosen J containing the pair, Delta(r,s))."""
    family = ref_essential_family(spec)
    out = {}
    for r in range(1, spec.nullity + 1):
        for s in range(r + 1, spec.nullity + 1):
            pm = _pair_mask(r, s)
            total = sum(bits >> pos & 1 for pos, j in enumerate(family) if pm & j == pm)
            out[(r, s)] = (total, ref_pair_divisor(spec, r, s))
    return out


def ref_center_rows(spec):
    """The relation rows: +2 on the member's own column, -2/Delta on its pairs."""
    nu = spec.nullity
    pairs = tuple((r, s) for r in range(1, nu + 1) for s in range(r + 1, nu + 1))
    coeffs = [exact_div(-2, ref_pair_divisor(spec, r, s), "-2/Delta") for r, s in pairs]
    family = essential_family(spec)
    rows = []
    for jpos, j in enumerate(family):
        row = [0] * (len(pairs) + len(family))
        for pos, (r, s) in enumerate(pairs):
            pm = _pair_mask(r, s)
            if pm & j == pm:
                row[pos] = coeffs[pos]
        row[len(pairs) + jpos] = 2
        rows.append(tuple(row))
    return pairs, tuple(rows)


def ref_essential_family(spec):
    masks = {
        m << side.shift
        for side in spec.sides
        if side.free
        for m in side.semilattice.essential_supp()
    }
    return tuple(sorted(masks))


# --- inputs ----------------------------------------------------------------


def all_specs():
    rng = random.Random(20261019)
    draws = [(f"draw {i}", random_spec(rng)) for i in range(300)]
    return reference_corpus() + draws


SPECS = all_specs()


def choices(spec, rng):
    """The first integral collections plus random choices, as bitsets over the family."""
    out = []
    for bits in _integral_bitsets(spec.incidence):
        out.append(bits)
        if len(out) == 8:
            break
    out += [rng.getrandbits(len(essential_family(spec))) for _ in range(8)]
    return out


def test_inputs():
    assert len(reference_corpus()) == 60
    assert len(SPECS) == 360


def test_spec_table_matches_the_pair_loops():
    mismatches = []
    for label, spec in SPECS:
        table = spec.incidence
        family = ref_essential_family(spec)
        if table.family != family:
            mismatches.append(f"family on {label}")
        pairs = [(r, s) for r in range(1, spec.nullity + 1) for s in range(r + 1, spec.nullity + 1)]
        if list(table.pairs) != pairs:
            mismatches.append(f"pairs on {label}")
        divisors = [ref_pair_divisor(spec, r, s) for r, s in pairs]
        if list(table.divisors) != divisors:
            mismatches.append(f"divisors on {label}")
        if [spec.pair_divisor(r, s) for r, s in pairs] != divisors:
            mismatches.append(f"pair_divisor on {label}")
        divisor = functools.partial(ref_pair_divisor, spec)
        if list(table.parity) != ref_parity_constraints(family, spec.nullity, divisor):
            mismatches.append(f"parity on {label}")
    assert mismatches == []


def test_pair_divisor_reads_the_scanned_position():
    # the lexicographic index against a scan of the pair list, for every
    # pair at nu <= 8; a minimal block beside a lattice one makes Delta = 2
    # inside the minimal block and 1 elsewhere, so a shifted index shows
    seen = set()
    for nu in range(2, 9):
        for t in range(nu + 1):
            for s1, s2 in [(Semilattice.minimal(t), Semilattice.lattice(nu - t)),
                           (Semilattice.lattice(t), Semilattice.minimal(nu - t))]:
                spec = rootsystem.make_spec("B", 2, nu, t, s1, s2)
                table = spec.incidence
                for r, s in table.pairs:
                    scanned = table.divisors[table.pairs.index((r, s))]
                    assert spec.pair_divisor(r, s) == scanned, (nu, t, r, s)
                    seen.add(scanned)
    assert seen == {1, 2}


def test_pair_divisor_refuses_a_pair_out_of_range():
    spec = dict(reference_corpus())["B2 nu4 t2 S1=min S2=min"]
    for r, s in [(0, 1), (2, 1), (2, 2), (3, 5)]:
        with pytest.raises(SpecValidationError, match=r"^need 1 <= r < s <= 4"):
            spec.pair_divisor(r, s)


def test_each_free_side_table_matches_the_pair_loop():
    checked = 0
    for label, spec in SPECS:
        for side in spec.sides:
            if not side.free:
                continue
            s = side.semilattice
            table = s.incidence
            family = sorted(s.essential_supp())
            divisor = functools.partial(ref_side_divisor, s)
            assert list(table.family) == family, label
            assert list(table.divisors) == [divisor(r, t) for r, t in table.pairs], label
            assert list(table.parity) == ref_parity_constraints(family, s.dim, divisor), label
            checked += 1
    assert checked > 300


def test_residues_and_integrality_match_the_pair_loop():
    rng = random.Random(5)
    for label, spec in SPECS:
        table = spec.incidence
        for bits in choices(spec, rng):
            sums = [(bits & row).bit_count() for row in table.rows]
            residues = ref_pair_residues(spec, bits)
            assert list(zip(sums, table.divisors)) == [residues[p] for p in table.pairs], label
            expected = all(total % delta == 0 for total, delta in residues.values())
            assert table.is_integral(bits) == expected, label


def test_kernel_exponents_match_the_pair_loop():
    for label, spec in SPECS:
        for count, bits in enumerate(_integral_bitsets(spec.incidence)):
            if count == 8:
                break
            residues = ref_pair_residues(spec, bits)
            pairs, _ = ref_center_rows(spec)
            expected = [-(residues[p][0] // residues[p][1]) for p in pairs]
            expected += [bits >> pos & 1 for pos in range(len(essential_family(spec)))]
            assert kernel_exponents(spec, bits) == tuple(expected), label


def test_center_rows_match_the_pair_loop():
    for label, spec in SPECS:
        pres = center_presentation(spec)
        pairs, rows = ref_center_rows(spec)
        assert (pres.pairs, pres.family, pres.rows) == (pairs, essential_family(spec), rows), label


def test_semilattice_table_is_cached_and_keeps_equality():
    s = make_semilattice(3, [[], [1], [2], [3], [1, 2], [1, 2, 3]])
    assert s.incidence is s.incidence
    assert s.incidence.family == (0b111,)
    assert s.incidence.pairs == ((1, 2), (1, 3), (2, 3))
    assert s.incidence.divisors == (1, 2, 2)
    assert s.incidence.rows == (1, 1, 1)
    assert s.incidence.parity == (1, 1)
    twin = make_semilattice(3, s.to_subsets())
    assert twin == s and hash(twin) == hash(s)


def test_one_check_builds_each_table_once(tmp_path, capsys, monkeypatch):
    builds = []
    build = semilattice.pair_incidence

    def counted(dim, family, divisors):
        table = build(dim, family, divisors)
        builds.append((dim, table.family))
        return table

    monkeypatch.setattr(semilattice, "pair_incidence", counted)
    monkeypatch.setattr(rootsystem, "pair_incidence", counted)
    lattice3 = Semilattice.lattice(3).to_subsets()
    doc = {"type": "B", "rank": 2, "nullity": 6, "twist": 3, "supp1": lattice3, "supp2": lattice3}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == EXIT_NO_PBC
    assert "Inc(R) = 4" in capsys.readouterr().out
    # the spec's table over the global pairs, then S1's and S2's own
    assert sorted(builds) == [(3, (0b111,)), (3, (0b111,)), (6, (0b111, 0b111000))]
