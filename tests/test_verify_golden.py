"""`verify --json` stdout pinned byte for byte.

The golden files fix the order and the indices of every identity item.
Together the three specs cover supported, unsupported and mixed pairs
and k = 3:

- `B2 nu3 t1 S1=lat S2=min`: mixed pairs (1,2), (1,3) and the
  unsupported S2 pair (2,3);
- `B3 nu3 t3 S1=pairs S2=0`: every pair supported;
- `G2 nu2 t1 S1=lat S2=lat`: a mixed pair at k = 3.

One SHA-256 pins the rest: stdout and exit code of `verify --json` on
all 60 corpus specs at heights 0, 1 and 2 (about 1 s).
"""

import hashlib
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


# recorded with the two-pass word build and the set-BFS cover, the oracles
# `tests/test_weylgroup.py` keeps as `two_pass_mat` and `set_orbit_cover`
CORPUS_DIGEST = "de59b39f7641c88e51e7fb6622c5a0edff323882d21929bd73f75ec5c5b823d2"


def corpus_digest(tmp_path, capsys) -> str:
    """One SHA-256 over stdout and the exit code of `verify --json`, per corpus spec and height.

    Each call adds its stdout, then its exit code and a newline, in corpus
    order and, per spec, heights 0, 1, 2.
    """
    digest = hashlib.sha256()
    for k, (_, spec) in enumerate(reference_corpus()):
        path = tmp_path / f"spec{k}.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        for height in (0, 1, 2):
            code = main(["verify", str(path), "--json", "--height", str(height)])
            digest.update(capsys.readouterr().out.encode())
            digest.update(f"{code}\n".encode())
    return digest.hexdigest()


def test_verify_json_on_the_corpus_matches_its_digest(tmp_path, capsys):
    assert corpus_digest(tmp_path, capsys) == CORPUS_DIGEST
