"""`classify` stdout pinned byte for byte, and checked against the json module.

`classify --json` renders its document piece by piece instead of calling
`json.dumps` on it.  The golden files fix those bytes.  Three JSON slices
and one text slice are pinned:

- `B 3 3 3 --no-perm`: 16 rows, one of them not minimal (also pinned in
  text mode);
- `B 2 4 2`: both sides are free, so each semilattice appears in several
  rows;
- `B 3 4 4`: 180 rows, with all three screen verdicts and Inc from 1 to 32.

The oracle test runs every slice at nullity <= 3 of the five sweep types,
with and without `--no-perm`, and asks that the output equal the
`json.dumps` of its own parsed document.

A classify row prints only the screen's verdict, so it must not write the
screen's reason text: with the reason formatter made to raise, the 180-row
slice still prints its pinned bytes, while `check` prints its notes
through that formatter.
"""

import json
from pathlib import Path

import pytest

from weylconj import integral
from weylconj.cli import EXIT_NO_PBC, EXIT_OK, main
from weylconj.rootsystem import make_spec, spec_to_json
from weylconj.semilattice import Semilattice

GOLDEN = Path(__file__).resolve().parent / "golden"
JSON_SLICES = ["B 3 3 3 --no-perm", "B 2 4 2", "B 3 4 4"]
TEXT_SLICES = ["B 3 3 3 --no-perm"]
ORACLE_TYPES = (("B", 2), ("B", 3), ("C", 3), ("F4", 4), ("G2", 2))
ORACLE_MAX_NULLITY = 3


def golden_path(argv: str, suffix: str) -> Path:
    return GOLDEN / ("classify-" + "-".join(argv.replace("--", "").split()) + suffix)


@pytest.mark.parametrize("argv", JSON_SLICES)
def test_classify_json_matches_golden(argv, capsys):
    assert main(["classify", *argv.split(), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden_path(argv, ".json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", TEXT_SLICES)
def test_classify_text_matches_golden(argv, capsys):
    assert main(["classify", *argv.split()]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden_path(argv, ".txt").read_text(encoding="utf-8")


def oracle_slices():
    for family, rank in ORACLE_TYPES:
        for nullity in range(1, ORACLE_MAX_NULLITY + 1):
            for twist in range(nullity + 1):
                for flags in ([], ["--no-perm"]):
                    yield [family, str(rank), str(nullity), str(twist), *flags]


def test_json_is_the_dump_of_itself(capsys):
    slices = list(oracle_slices())
    assert len(slices) == 90
    for argv in slices:
        assert main(["classify", *argv, "--json"]) == EXIT_OK, argv
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc) + "\n", argv
        assert len(doc["rows"]) == doc["summary"]["rows"] >= 1, argv


def test_classify_formats_no_reason(tmp_path, capsys, monkeypatch):
    reason_text = integral._reason_text

    def refuse(fact):
        raise AssertionError(f"reason text written for {fact!r}")

    monkeypatch.setattr(integral, "_reason_text", refuse)
    assert main(["classify", "B", "3", "4", "4", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden_path("B 3 4 4", ".json").read_text(encoding="utf-8")

    written = []

    def recorded(fact):
        written.append(reason_text(fact))
        return written[-1]

    monkeypatch.setattr(integral, "_reason_text", recorded)
    spec = make_spec("B", 3, 3, 3, Semilattice.lattice(3), Semilattice.lattice(0))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    assert main(["check", str(path)]) == EXIT_NO_PBC
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  [")]
    assert written == [
        "essential member [1, 2, 3] of S1 has all pairs supported",
        "S1 is a lattice of dimension >= 3",
    ]
    assert notes == [f"  [not_minimal: {text}]" for text in written] + ["  [closed-form: n0 = 1]"]
