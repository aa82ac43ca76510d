"""CLI subcommands, exit codes and output determinism."""

import json

import pytest

from weylconj import cli
from weylconj.center import CenterStructure, DivisibilityChainBroken
from weylconj.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NO_PBC,
    EXIT_OK,
    cross_check,
    main,
)
from weylconj.integral import DecisionReport
from weylconj.rootsystem import CartanDataError, IntegralityViolation

F4_DOC = {
    "type": "F4", "rank": 4, "nullity": 3, "twist": 1,
    "supp1": [[], [1]], "supp2": [[], [1], [2], [1, 2]],
}
B3_LATTICE_DOC = {
    "type": "B", "rank": 3, "nullity": 3, "twist": 3,
    "supp1": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]],
    "supp2": [[]],
}
B3_BAD_DOC = {
    "type": "B", "rank": 3, "nullity": 3, "twist": 1,
    "supp1": [[], [1]], "supp2": [[], [1], [2]],  # S2 not a lattice
}


def write(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


NOT_COERCED = {
    "float rank": {**B3_LATTICE_DOC, "rank": 3.7},
    "bool rank": {**B3_LATTICE_DOC, "rank": True},
    "float nullity": {**B3_LATTICE_DOC, "nullity": 3.0},
    "string class": {**B3_LATTICE_DOC, "supp1": "ab"},
    "float coordinate": {
        **B3_LATTICE_DOC,
        "supp1": [[], [1.0], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]],
    },
}


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("doc", NOT_COERCED.values(), ids=NOT_COERCED.keys())
def test_malformed_spec_is_one_line_input_error(tmp_path, capsys, command, doc):
    assert main([command, write(tmp_path, doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "breach",
    [
        IntegralityViolation("a_(1,2)(1) = 3/2 is not an integer"),
        CartanDataError("B3: alpha_1 = (1, 0, 0) and alpha_2 = (0, 1, 0) are orthogonal"),
        DivisibilityChainBroken("d_1 = 2 does not divide d_2 = 3"),
    ],
    ids=lambda exc: type(exc).__name__,
)
@pytest.mark.parametrize(
    "command,target", [("check", "center_structure"), ("verify", "verify_center_freeness")]
)
def test_invariant_breach_is_one_line_exit_2(
    tmp_path, capsys, monkeypatch, breach, command, target
):
    def broken(*args, **kwargs):
        raise breach

    monkeypatch.setattr(cli, target, broken)
    assert main([command, write(tmp_path, B3_LATTICE_DOC)]) == EXIT_INVARIANT
    err = capsys.readouterr().err.splitlines()
    assert err == [f"invariant breach: {breach}"]


class TestCheck:
    def test_f4_pbc_holds(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, F4_DOC)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Inc(R) = 1" in out

    def test_b3_lattice_fails(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, B3_LATTICE_DOC), "--json"])
        assert code == EXIT_NO_PBC
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"]["inc"] == 2
        assert payload["decision"]["pbc"] is False
        assert payload["center"] == {"free_rank": 3, "torsion": [2]}
        assert payload["decision"]["witnesses"] == [[[1, 2, 3]]]
        assert payload["breaches"] == []

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert main(["check", str(path)]) == EXIT_INPUT

    def test_invalid_spec(self, tmp_path):
        assert main(["check", write(tmp_path, B3_BAD_DOC)]) == EXIT_INPUT

    def test_missing_file(self):
        assert main(["check", "/nonexistent/spec.json"]) == EXIT_INPUT

    def test_oversized_family_is_input_error(self, tmp_path):
        import itertools

        supp1 = [list(c) for r in range(7)
                 for c in itertools.combinations(range(1, 7), r)]
        doc = {"type": "B", "rank": 2, "nullity": 6, "twist": 6,
               "supp1": supp1, "supp2": [[]]}
        assert main(["check", write(tmp_path, doc)]) == EXIT_INPUT

    def test_max_witnesses_flag(self, tmp_path, capsys):
        import itertools

        supp1 = [list(c) for r in range(5)
                 for c in itertools.combinations(range(1, 5), r)]
        doc = {"type": "B", "rank": 3, "nullity": 4, "twist": 4,
               "supp1": supp1, "supp2": [[]]}
        code = main(["check", write(tmp_path, doc), "--json", "--max-witnesses", "2"])
        assert code == EXIT_NO_PBC
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"]["inc"] == 32
        assert len(payload["decision"]["witnesses"]) == 2


class TestCrossCheck:
    def make_report(self, inc):
        n0 = inc.bit_length() - 1
        return DecisionReport(inc=inc, n0=n0, has_pbc=inc == 1, witnesses=())

    def test_consistent(self):
        breaches = cross_check(
            self.make_report(2), CenterStructure(free_rank=3, torsion=(2,)), False
        )
        assert breaches == []

    def test_torsion_mismatch_flagged(self):
        breaches = cross_check(
            self.make_report(2), CenterStructure(free_rank=3, torsion=()), False
        )
        assert any("torsion order" in b for b in breaches)

    def test_bad_factor_flagged(self):
        breaches = cross_check(
            self.make_report(4), CenterStructure(free_rank=3, torsion=(4,)), False
        )
        assert any("non-elementary" in b for b in breaches)

    def test_reduction_mismatch_flagged(self):
        breaches = cross_check(
            self.make_report(1), CenterStructure(free_rank=3, torsion=()), False
        )
        assert any("reduction" in b for b in breaches)


class TestClassify:
    def test_b3_full_sweep(self, capsys):
        code = main(["classify", "B", "3", "3", "3", "--no-perm", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert len(rows) == 16
        for row in rows:
            assert (row["ind1"] == 7) == (not row["pbc"])
        assert payload["summary"]["screen_agrees"] is True

    def test_c3_mirror_sweep(self, capsys):
        code = main(["classify", "C", "3", "3", "0", "--no-perm", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 16
        for row in rows:
            assert (row["ind2"] == 7) == (not row["pbc"])

    def test_b2_low_dims_all_pass(self, capsys):
        code = main(["classify", "B", "2", "3", "2", "--no-perm", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        assert all(row["pbc"] for row in rows)

    def test_deterministic_output(self, capsys):
        main(["classify", "B", "3", "3", "3", "--no-perm"])
        first = capsys.readouterr().out
        main(["classify", "B", "3", "3", "3", "--no-perm"])
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_across_processes(self):
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "weylconj.cli",
                 "classify", "B", "3", "3", "3", "--no-perm", "--json"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_permutation_reduction(self, capsys):
        code = main(["classify", "B", "3", "3", "3", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 8  # orbit representatives of the 16 classes

    def test_nullity_guard(self):
        assert main(["classify", "B", "2", "5", "2", "--json"]) == EXIT_INPUT


class TestVerify:
    def test_g2_all_pass(self, tmp_path, capsys):
        doc = {"type": "G2", "rank": 2, "nullity": 2, "twist": 1,
               "supp1": [[], [1]], "supp2": [[], [1]]}
        code = main(["verify", write(tmp_path, doc), "--height", "1", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["orbit_cover"]["unreached"] == []

    def test_b2_mixed_semilattices(self, tmp_path):
        doc = {"type": "B", "rank": 2, "nullity": 3, "twist": 2,
               "supp1": [[], [1], [2]], "supp2": [[], [1]]}
        assert main(["verify", write(tmp_path, doc), "--height", "1"]) == EXIT_OK

    def test_corrupted_spec(self, tmp_path):
        assert main(["verify", write(tmp_path, B3_BAD_DOC)]) == EXIT_INPUT


class TestConstruct:
    def test_b_twist3(self, capsys):
        code = main(["construct", "B", "3", "3", "--m1", "7"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "B"
        assert len(doc["supp1"]) == 8
        assert "non-minimal" in doc["label"]

    def test_emitted_spec_checks_as_non_pbc(self, tmp_path, capsys):
        main(["construct", "C", "3", "0", "--m2", "7"])
        doc = json.loads(capsys.readouterr().out)
        path = tmp_path / "constructed.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == EXIT_NO_PBC

    def test_bad_parameters(self):
        assert main(["construct", "B", "3", "3", "--m1", "3"]) == EXIT_INPUT
        assert main(["construct", "B", "3", "3"]) == EXIT_INPUT


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "B", "x", "4", "4"],
            [],
            ["frobnicate"],
            ["check"],
            ["verify", "spec.json", "--height", "x"],
            ["check", "spec.json", "--no-such-flag"],
        ],
        ids=["non-integer rank", "no command", "unknown command", "missing spec",
             "non-integer height", "unknown flag"],
    )
    def test_usage_error_is_one_line_input_error(self, capsys, argv):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--height", "-1"], ["check", "--max-witnesses", "-1"]],
        ids=["verify height", "check max-witnesses"],
    )
    def test_negative_count_is_one_line_input_error(self, tmp_path, capsys, argv):
        command, *flags = argv
        assert main([command, write(tmp_path, B3_LATTICE_DOC), *flags]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: argument {flags[0]}: must be non-negative, got -1"
        ]

    def test_zero_counts_are_accepted(self, tmp_path, capsys):
        path = write(tmp_path, B3_LATTICE_DOC)
        assert main(["check", path, "--json", "--max-witnesses", "0"]) == EXIT_NO_PBC
        assert json.loads(capsys.readouterr().out)["decision"]["witnesses"] == []
        assert main(["verify", path, "--json", "--height", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["orbit_cover"]["target"] > 0

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_process_exit_code(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "weylconj.cli", "classify", "B", "x", "4", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.splitlines() == [
            "error: argument rank: invalid int value: 'x'"
        ]
