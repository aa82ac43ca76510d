"""`check` stdout pinned byte for byte, text and `--json`.

The golden files fix the decision, the center, every note string and the
key order of the report.  The specs cover:

- `B2 nu4 t4 S1=ind14 S2=0`: Inc = 16 with 15 witnesses, a near-full-index
  reason and no closed form (exit 3);
- `C3 nu3 t0 S1=0 S2=tri`: Inc = 1 with two minimal reasons;
- `F4 nu2 t1 S1=lat S2=lat`: an empty family, so zero relation rows and
  no torsion;
- `B3 nu3 t3 S1=lat S2=0`: the lattice-of-dimension->=-3 reason and a
  closed form with n0 = 1 (exit 3);
- `C3 nu4 t0 S1=0 S2=lat`: the same reasons named on S2, closed form
  n0 = 5;
- `B2 nu3 t3 S1=tri S2=0`: two free sides, so the low-dimension reason
  reads "both blocks", and no closed form;
- `B3 nu4 t4 S1=ind12 S2=0` (not in the corpus): an `unknown` screen, so
  no notes at all, with Inc = 4 (exit 3).
"""

import json
from pathlib import Path

import pytest

from weylconj.cli import EXIT_NO_PBC, EXIT_OK, main
from weylconj.corpus import reference_corpus
from weylconj.rootsystem import make_spec, spec_to_json
from weylconj.semilattice import Semilattice, make_semilattice

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "B2 nu4 t4 S1=ind14 S2=0": EXIT_NO_PBC,
    "C3 nu3 t0 S1=0 S2=tri": EXIT_OK,
    "F4 nu2 t1 S1=lat S2=lat": EXIT_OK,
    "B3 nu3 t3 S1=lat S2=0": EXIT_NO_PBC,
    "C3 nu4 t0 S1=0 S2=lat": EXIT_NO_PBC,
    "B2 nu3 t3 S1=tri S2=0": EXIT_OK,
    "B3 nu4 t4 S1=ind12 S2=0": EXIT_NO_PBC,
}
# Every subset of 1..4 but {3, 4}, {1, 2, 3} and {1, 2, 4}: index 12, pair (3, 4)
# unsupported, and no member with every pair supported.
IND12 = make_semilattice(
    4,
    [s for s in Semilattice.lattice(4).to_subsets() if s not in ([3, 4], [1, 2, 3], [1, 2, 4])],
)
SPECS = {
    **dict(reference_corpus()),
    "B3 nu4 t4 S1=ind12 S2=0": make_spec("B", 3, 4, 4, IND12, Semilattice.lattice(0)),
}


def golden_path(label: str, suffix: str) -> Path:
    return GOLDEN / ("check-" + label.replace(" ", "-").replace("=", "-") + suffix)


def run_check(label, tmp_path, capsys, *flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(SPECS[label])))
    assert main(["check", str(path), *flags]) == CASES[label]
    return capsys.readouterr().out


@pytest.mark.parametrize("label", sorted(CASES))
def test_check_json_matches_golden(label, tmp_path, capsys):
    out = run_check(label, tmp_path, capsys, "--json")
    assert out == golden_path(label, ".json").read_text(encoding="utf-8")


@pytest.mark.parametrize("label", sorted(CASES))
def test_check_text_matches_golden(label, tmp_path, capsys):
    out = run_check(label, tmp_path, capsys)
    assert out == golden_path(label, ".txt").read_text(encoding="utf-8")


def test_cases_cover_every_note_kind():
    notes = {}
    for label in CASES:
        lines = golden_path(label, ".txt").read_text(encoding="utf-8").splitlines()
        notes[label] = [line for line in lines if line.startswith("  [")]
    text = "\n".join(n for label in CASES for n in notes[label])
    for reason in (
        "has all pairs supported",
        "is a lattice of dimension >= 3",
        "has near-full index",
        "both blocks have dimension <= 3 and index != 7",
        "nu - twist <= 3 and ind(S2) != 7",
        "empty essential family for this type",
        "closed-form: n0 = 5",
    ):
        assert reason in text, reason
    assert notes["B3 nu4 t4 S1=ind12 S2=0"] == []
