"""`check --json` stdout pinned byte for byte, the `elapsed_s` line dropped.

The golden files fix the decision, the center and the key order of the
report.  The three specs cover:

- `B2 nu4 t4 S1=ind14 S2=0`: Inc = 16 with 15 witnesses, a near-full-index
  reason and no closed form (exit 3);
- `C3 nu3 t0 S1=0 S2=tri`: Inc = 1 with two minimal reasons;
- `F44 nu2 t1 S1=lat S2=lat`: an empty family, so zero relation rows and
  no torsion.
"""

import json
from pathlib import Path

import pytest

from weylconj.cli import EXIT_NO_PBC, EXIT_OK, main
from weylconj.corpus import reference_corpus
from weylconj.rootsystem import spec_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "B2 nu4 t4 S1=ind14 S2=0": EXIT_NO_PBC,
    "C3 nu3 t0 S1=0 S2=tri": EXIT_OK,
    "F44 nu2 t1 S1=lat S2=lat": EXIT_OK,
}


def golden_path(label: str) -> Path:
    return GOLDEN / ("check-" + label.replace(" ", "-").replace("=", "-") + ".json")


@pytest.mark.parametrize("label", sorted(CASES))
def test_check_json_matches_golden(label, tmp_path, capsys):
    spec = dict(reference_corpus())[label]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    assert main(["check", str(path), "--json"]) == CASES[label]
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(True) if '"elapsed_s"' not in line)
    assert kept == golden_path(label).read_text(encoding="utf-8")
