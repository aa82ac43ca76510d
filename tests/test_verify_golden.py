"""`verify --json` stdout pinned byte for byte.

The golden files fix the order and the indices of every identity item.
Together the three specs cover supported, unsupported and mixed pairs
and k = 3:

- `B2 nu3 t1 S1=lat S2=min`: mixed pairs (1,2), (1,3) and the
  unsupported S2 pair (2,3);
- `B3 nu3 t3 S1=pairs S2=0`: every pair supported;
- `G2 nu2 t1 S1=lat S2=lat`: a mixed pair at k = 3.
"""

import json
from pathlib import Path

import pytest

from weylconj.cli import EXIT_OK, main
from weylconj.corpus import reference_corpus
from weylconj.rootsystem import spec_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"
LABELS = [
    "B2 nu3 t1 S1=lat S2=min",
    "B3 nu3 t3 S1=pairs S2=0",
    "G2 nu2 t1 S1=lat S2=lat",
]


def golden_path(label: str) -> Path:
    return GOLDEN / ("verify-" + label.replace(" ", "-").replace("=", "-") + ".json")


@pytest.mark.parametrize("label", LABELS)
def test_verify_json_matches_golden(label, tmp_path, capsys):
    spec = dict(reference_corpus())[label]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    assert main(["verify", str(path), "--json"]) == EXIT_OK
    assert capsys.readouterr().out == golden_path(label).read_text(encoding="utf-8")
