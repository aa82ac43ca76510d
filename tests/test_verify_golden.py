"""`verify --json` stdout pinned byte for byte.

The golden files fix the order and the indices of every identity item.
Together the three specs cover supported, unsupported and mixed pairs
and k = 3:

- `B2 nu3 t1 S1=lat S2=min`: mixed pairs (1,2), (1,3) and the
  unsupported S2 pair (2,3);
- `B3 nu3 t3 S1=pairs S2=0`: every pair supported;
- `G2 nu2 t1 S1=lat S2=lat`: a mixed pair at k = 3.

One SHA-256 pins the rest: stdout and exit code of `verify --json` on
all 60 corpus specs at heights 0, 1 and 2 (about 1 s).  A second pins
the same on every permutation representative of the B2, B3, C3, F4 and
G2 slices at nu <= 3 (81 specs, about 0.5 s).  CI checks the nu <= 4
digest (855 specs, about 12 s) by calling `representatives_digest(4)`
from a script.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from weylconj.cli import EXIT_OK, main
from weylconj.corpus import classification_pairs, reference_corpus
from weylconj.rootsystem import make_spec, spec_to_json

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


# recorded with the frozen dataclass reports, before they became NamedTuples
REPRESENTATIVES_DIGESTS = {
    3: "4d14a2e6ab65e6695a96f0aa68ef9746d4ae39ae27de74eb12a157ded0f4a2aa",
    4: "eb775b0960d46192dbc34b5118c1d0a722f768985662ddfae6464cfe0ee93184",
}


def representatives_digest(max_nullity: int) -> str:
    """One SHA-256 over stdout and the exit code of `verify --json`, per class representative.

    The specs are every pair `classification_pairs(family, rank, nu, t,
    True)` lists, for B2, B3, C3, F4, G2 in that order, nu = 1..max_nullity
    and t = 0..nu; each call adds its stdout, then its exit code and a
    newline.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        for family, rank in (("B", 2), ("B", 3), ("C", 3), ("F4", 4), ("G2", 2)):
            for nu in range(1, max_nullity + 1):
                for t in range(nu + 1):
                    for s1, s2 in classification_pairs(family, rank, nu, t, True):
                        spec = make_spec(family, rank, nu, t, s1, s2)
                        path.write_text(json.dumps(spec_to_json(spec)))
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            code = main(["verify", str(path), "--json"])
                        digest.update(out.getvalue().encode())
                        digest.update(f"{code}\n".encode())
    return digest.hexdigest()


def test_verify_json_on_the_class_representatives_matches_its_digest():
    assert representatives_digest(3) == REPRESENTATIVES_DIGESTS[3]
