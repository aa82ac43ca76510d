"""CLI subcommands, exit codes and output determinism."""

import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weylconj import cli, integral, rootsystem, semilattice, weylgroup
from weylconj.center import CenterStructure
from weylconj.corpus import reference_corpus
from weylconj.exactmat import DivisibilityChainBroken
from weylconj.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NO_PBC,
    EXIT_OK,
    build_parser,
    cross_check,
    main,
)
from weylconj.integral import WITNESS_CAP, DecisionReport, ScreenResult, SearchExhausted
from weylconj.rootsystem import (
    MAX_NULLITY,
    MAX_RANK,
    CartanDataError,
    IntegralityViolation,
    RootClass,
    spec_to_json,
)
from weylconj.semilattice import elems_of
from weylconj.weylgroup import MAX_COVER_STATES

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
    # read as {1, 2}, this decided ind(S1) = 4 and exited 0
    "repeated coordinate": {
        **B3_LATTICE_DOC,
        "supp1": [[], [1], [2], [3], [1, 1, 2], [2, 1]],
    },
}


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("doc", NOT_COERCED.values(), ids=NOT_COERCED.keys())
def test_malformed_spec_is_one_line_input_error(tmp_path, capsys, command, doc):
    assert main([command, write(tmp_path, doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


UNREADABLE = {
    "not UTF-8": (b"\xff\xfe", "error: spec file is not UTF-8: 'utf-8' codec can't decode "
                  "byte 0xff in position 0: invalid start byte"),
    "nested 100000 deep": (b"[" * 100_000 + b"]" * 100_000,
                           "error: spec document nests too deeply to decode"),
    "malformed JSON": (b"{ nope", "error: Expecting property name enclosed in double "
                       "quotes: line 1 column 3 (char 2)"),
    # json.load would keep the last value and decide a C3 spec
    "repeated key": (b'{"type": "B", "type": "C", "rank": 3, "nullity": 3, "twist": 0, '
                     b'"supp1": [[]], "supp2": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], '
                     b'[1, 2, 3]]}',
                     "error: spec document repeats the key 'type'"),
}


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("content,line", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_spec_file_is_one_line_input_error(tmp_path, capsys, command, content, line):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


@pytest.mark.parametrize("command", ["check", "verify"])
def test_integer_past_the_digit_limit_is_one_line_input_error(tmp_path, capsys, command):
    # json.load raises a bare ValueError, not a JSONDecodeError, for an
    # integer literal longer than sys.get_int_max_str_digits() (4300)
    path = tmp_path / "spec.json"
    path.write_text('{"rank": ' + "1" * 5000 + "}")
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: spec document holds an integer too long to decode: ")


@pytest.mark.parametrize(
    "breach",
    [
        IntegralityViolation("a_(1,2)(1) = 3/2 is not an integer"),
        CartanDataError("B3: alpha_1 = (1, 0, 0) and alpha_2 = (0, 1, 0) are orthogonal"),
        DivisibilityChainBroken("d_1 = 2 does not divide d_2 = 3"),
        SearchExhausted("no index-7 semilattice of dimension 3 with a non-trivial collection"),
    ],
    ids=lambda exc: type(exc).__name__,
)
@pytest.mark.parametrize(
    "command,target",
    [
        ("check", "center_structure"),
        ("verify", "verify_center_freeness"),
        ("construct", "construct_nonminimal"),
    ],
)
def test_invariant_breach_is_one_line_exit_2(
    tmp_path, capsys, monkeypatch, breach, command, target
):
    def broken(*args, **kwargs):
        raise breach

    monkeypatch.setattr(cli, target, broken)
    argv = (
        ["construct", "B", "3", "3", "--m1", "7"] if command == "construct"
        else [command, write(tmp_path, B3_LATTICE_DOC)]
    )
    assert main(argv) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invariant breach: {breach}"]


def test_cover_without_a_simple_root_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # the same boundary for a breach raised by the library itself: the
    # orbit cover refuses a generator set that lacks alpha_1
    original = weylgroup.generating_roots
    monkeypatch.setattr(weylgroup, "generating_roots", lambda spec: original(spec)[1:])
    assert main(["verify", write(tmp_path, B3_LATTICE_DOC)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    alpha1 = rootsystem.Root(rootsystem.spec_from_json(B3_LATTICE_DOC).roots.simple[0], (0, 0, 0))
    assert captured.err.splitlines() == [
        f"invariant breach: generator set lacks the finite simple root {alpha1}"
    ]


B3_NU1_DOC = {
    "type": "B", "rank": 3, "nullity": 1, "twist": 1,
    "supp1": [[], [1]], "supp2": [[]],
}


def test_contradictory_screen_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # B3, nullity 1: the index gap fires "minimal"; force a non-minimal reason too
    monkeypatch.setattr(integral, "_not_minimal_facts", lambda s, side: [("lattice", side)])
    assert main(["check", write(tmp_path, B3_NU1_DOC)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("invariant breach: contradictory screen for B3 nu=1 t=1 ")
    assert main(["classify", "B", "3", "1", "1"]) == EXIT_INVARIANT
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_count_not_a_power_of_two_names_the_spec(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integral, "_integral_bitsets", lambda table: iter([0, 1, 2]))
    assert main(["check", write(tmp_path, B3_NU1_DOC)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invariant breach: 3 integral collections for B3 nu=1 t=1 S1=[[], [1]] S2=[[]]: "
        "not a power of two"
    ]


def test_breach_names_f4_bare(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integral, "_integral_bitsets", lambda table: iter([0, 1, 2]))
    assert main(["check", write(tmp_path, F4_DOC)]) == EXIT_INVARIANT
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invariant breach: 3 integral collections for F4 nu=3 t=1 ")


def syndrome_walk_mutant(cumulative, integral_when):
    """`_integral_bitsets` with one defect.

    `cumulative=False` steps by the lone column syndrome of the lowest set
    bit, not the XOR of the columns 0..p: a Gray-code walk that counts
    right but yields the wrong choices.  `integral_when=bool` yields the
    choices whose syndrome is not zero.
    """
    def walk(table):
        cols = [sum(1 << i for i, row in enumerate(table.parity) if row >> p & 1)
                for p in range(len(table.family))]
        flips, running = [], 0
        for col in cols:
            running ^= col
            flips.append(running if cumulative else col)
        yield 0
        syndrome = 0
        for bits in range(1, 1 << len(cols)):
            syndrome ^= flips[(bits & -bits).bit_length() - 1]
            if integral_when(syndrome):
                yield bits

    return walk


@pytest.mark.parametrize(
    "walk, witness",
    [
        (syndrome_walk_mutant(True, bool), "[[1, 3, 4]]"),
        (syndrome_walk_mutant(False, lambda syndrome: not syndrome), "[[2, 3, 4]]"),
    ],
    ids=["inverted-test", "gray-code-order"],
)
def test_non_integral_witness_is_one_line_exit_2(tmp_path, capsys, monkeypatch, walk, witness):
    # Inc = 16 here, so check prints 15 witnesses; each is re-tested row by row
    spec = dict(reference_corpus())["B3 nu4 t4 S1=ind14 S2=0"]
    monkeypatch.setattr(integral, "_integral_bitsets", walk)
    assert main(["check", write(tmp_path, spec_to_json(spec))]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invariant breach: witness {witness} is not integral for B3 nu=4 t=4 "
        f"S1={spec.s1.to_subsets()} S2=[[]]"
    ]


def test_misclassified_generator_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rootsystem, "root_class", lambda spec, root: RootClass.NONE)
    assert main(["verify", write(tmp_path, B3_NU1_DOC)]) == EXIT_INVARIANT
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invariant breach: generator Root(finite=(1, 0, 0), ")
    assert line.endswith(" classified none")


def test_miscount_against_torsion_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # the B3 lattice has Inc = 2 and torsion [2]; a count of 4 contradicts the center
    def miscounted(spec, max_witnesses):
        return DecisionReport(inc=4, witnesses=())

    monkeypatch.setattr(cli, "count_collections", miscounted)
    assert main(["check", write(tmp_path, B3_LATTICE_DOC)]) == EXIT_INVARIANT
    assert capsys.readouterr().err.splitlines() == [
        "invariant breach: center torsion order 2 != collection count 4"
    ]


def test_screen_against_the_count_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # the B3 lattice has Inc = 2; a decisive "minimal" screen contradicts it
    forced = ScreenResult("minimal", (("empty",),))
    monkeypatch.setattr(integral, "minimality_screen", lambda spec: forced)
    path = write(tmp_path, B3_LATTICE_DOC)
    breach = "screen verdict minimal disagrees with collection count 2"
    assert main(["check", path]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "Inc(R) = 2" in captured.out
    assert captured.err.splitlines() == [f"invariant breach: {breach}"]
    assert main(["check", path, "--json"]) == EXIT_INVARIANT
    assert json.loads(capsys.readouterr().out)["breaches"] == [breach]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "SPEC"],
        ["classify", "B", str(MAX_RANK + 1), "2", "2"],
        ["construct", "B", "3", "3", "--m1", "7", "--rank", str(MAX_RANK + 1)],
    ],
    ids=["check", "classify", "construct"],
)
def test_rank_above_bound_is_one_line_input_error(tmp_path, capsys, argv):
    doc = {**B3_NU1_DOC, "rank": MAX_RANK + 1}
    argv = [write(tmp_path, doc) if arg == "SPEC" else arg for arg in argv]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: rank {MAX_RANK + 1} exceeds the bound {MAX_RANK}"
    ]


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

    def test_family_one_past_the_guard_is_refused(self, tmp_path, capsys):
        # B3, nu = t = 7: the minimal class plus the first 25 members of size >= 3
        members = sorted(m for m in range(1 << 7) if m.bit_count() >= 3)[:25]
        supp1 = [[]] + [[r] for r in range(1, 8)] + [list(elems_of(m)) for m in members]
        doc = {"type": "B", "rank": 3, "nullity": 7, "twist": 7,
               "supp1": supp1, "supp2": [[]]}
        assert main(["check", write(tmp_path, doc)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: |family| = 25 exceeds the enumeration guard 24"
        ]

    def test_oversized_family_refused_before_the_pair_table(self, tmp_path, capsys, monkeypatch):
        # the B2 lattice at the nullity bound: 2^16 - 1 - 16 - 120 essential members
        def no_table(*args):
            raise AssertionError("pair_incidence called")

        monkeypatch.setattr(rootsystem, "pair_incidence", no_table)
        monkeypatch.setattr(semilattice, "pair_incidence", no_table)
        supp1 = [list(c) for r in range(MAX_NULLITY + 1)
                 for c in combinations(range(1, MAX_NULLITY + 1), r)]
        doc = {"type": "B", "rank": 2, "nullity": MAX_NULLITY, "twist": MAX_NULLITY,
               "supp1": supp1, "supp2": [[]]}
        assert main(["check", write(tmp_path, doc)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: |family| = 65399 exceeds the enumeration guard 24"
        ]

    @pytest.mark.parametrize("nullity", [MAX_NULLITY, MAX_NULLITY + 1])
    def test_nullity_bound(self, tmp_path, capsys, nullity):
        # one essential member: cheap at the bound, refused one past it
        doc = {"type": "B", "rank": 3, "nullity": nullity, "twist": nullity,
               "supp1": [[]] + [[r] for r in range(1, nullity + 1)] + [[1, 2, 3]],
               "supp2": [[]]}
        code = main(["check", write(tmp_path, doc)])
        captured = capsys.readouterr()
        if nullity <= MAX_NULLITY:
            assert code == EXIT_OK and captured.err == ""
        else:
            assert code == EXIT_INPUT and captured.out == ""
            assert captured.err.splitlines() == [
                f"error: nullity {nullity} exceeds the bound {MAX_NULLITY}"
            ]

    def test_max_witnesses_default_is_the_library_cap(self):
        assert build_parser().parse_args(["check", "SPEC"]).max_witnesses == WITNESS_CAP

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
        return DecisionReport(inc=inc, witnesses=())

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

    @pytest.mark.parametrize("inc, screen", [(2, "minimal"), (1, "not_minimal")])
    def test_screen_mismatch_flagged(self, inc, screen):
        report = DecisionReport(inc=inc, witnesses=(), screen_result=ScreenResult(screen, ()))
        torsion = (2,) * (inc.bit_length() - 1)
        breaches = cross_check(report, CenterStructure(free_rank=3, torsion=torsion), inc == 1)
        assert breaches == [f"screen verdict {screen} disagrees with collection count {inc}"]


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

    def test_screen_breach_names_the_first_disagreeing_row(self, capsys, monkeypatch):
        forced = ScreenResult("minimal", (("empty",),))
        monkeypatch.setattr(integral, "minimality_screen", lambda spec: forced)
        assert main(["classify", "B", "3", "4", "4", "--json"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        rows = json.loads(captured.out)["rows"]
        disagreeing = [r for r in rows if not r["pbc"]]
        assert len(disagreeing) > 1
        first = disagreeing[0]
        assert captured.err.splitlines() == [
            f"invariant breach: screen disagrees with enumeration at s1={first['s1']} "
            f"s2={first['s2']}: screen minimal, inc {first['inc']}"
        ]

    def test_each_row_is_screened_once(self, capsys, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return screen(spec)

        screen = integral.minimality_screen
        monkeypatch.setattr(integral, "minimality_screen", counted)
        assert main(["classify", "B", "2", "3", "2", "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(calls) == len(rows) > 0
        assert [row["screen"] for row in rows] == [screen(s).verdict for s in calls]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["B", "1", "2", "1"], "type B requires rank >= 2"),
            (["G2", "3", "2", "1"], "type G2 has rank 2"),
            (["B", "2", "2", "5"], "twist 5 outside 0..2"),
        ],
        ids=["B rank 1", "G2 rank 3", "twist above nullity"],
    )
    def test_invalid_slice_is_one_line_input_error(self, capsys, argv, message):
        assert main(["classify", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


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

    def test_guard_is_one_line_input_error(self, tmp_path, capsys):
        doc = {"type": "B", "rank": 2, "nullity": 5, "twist": 5,
               "supp1": [[]] + [[r] for r in range(1, 6)], "supp2": [[]]}
        assert main(["verify", write(tmp_path, doc)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: verification is guarded at rank <= 4, nullity <= 4"
        ]

    @pytest.mark.parametrize("height", [3, 4])
    def test_height_bound(self, tmp_path, capsys, monkeypatch, height):
        # B3 at nullity 4: height 3 spans 18 * 11^4 box states, height 4 18 * 13^4
        if height == 4:  # refused before any suite runs
            monkeypatch.setattr(cli, "verify_structure_identities", None)
        doc = {"type": "B", "rank": 3, "nullity": 4, "twist": 4,
               "supp1": [[]] + [[r] for r in range(1, 5)], "supp2": [[]]}
        code = main(["verify", write(tmp_path, doc), "--height", str(height), "--json"])
        captured = capsys.readouterr()
        if height == 3:
            assert code == EXIT_OK and captured.err == ""
            assert json.loads(captured.out)["orbit_cover"]["bound"] == 3
        else:
            assert code == EXIT_INPUT and captured.out == ""
            assert captured.err.splitlines() == [
                f"error: orbit cover at height 4 spans {18 * 13**4} states, "
                f"above the bound {MAX_COVER_STATES}"
            ]


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

    @pytest.mark.parametrize(
        "argv",
        [["construct", "B", "5", "5", "--m1", "31"], ["construct", "C", "5", "0", "--m2", "31"]],
        ids=["B-m1-31", "C-m2-31"],
    )
    def test_twist5_full_lattice(self, argv, capsys):
        # the index-31 class is the full lattice, the last one a scan over
        # all index-31 candidates in raw order would reach
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        inc = integral.count_collections(rootsystem.spec_from_json(doc)).inc
        assert inc > 1
        assert doc["label"].endswith(f"Inc={inc}")

    # Outputs of the raw-scan search, recorded before it scanned only the
    # target index: the twist-5 search order must not drift.
    TWIST5_PINNED = {
        9: {"type": "B", "rank": 3, "nullity": 5, "twist": 5,
            "supp1": [[], [1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3], [4], [5]],
            "supp2": [[]],
            "label": "non-minimal B3 nu=5 t=5 ind(S1)=9 ind(S2)=0 Inc=2"},
        22: {"type": "B", "rank": 3, "nullity": 5, "twist": 5,
             "supp1": [[], [1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3], [4], [1, 4],
                       [2, 4], [1, 2, 4], [3, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4], [5],
                       [1, 5], [2, 5], [1, 2, 5], [3, 5], [1, 3, 5], [2, 3, 5]],
             "supp2": [[]],
             "label": "non-minimal B3 nu=5 t=5 ind(S1)=22 ind(S2)=0 Inc=256"},
    }

    @pytest.mark.parametrize("m1", sorted(TWIST5_PINNED))
    def test_twist5_pinned(self, m1, capsys):
        assert main(["construct", "B", "5", "5", "--m1", str(m1)]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(self.TWIST5_PINNED[m1], indent=2) + "\n"


B2_LATTICE6_DOC = {  # |family| = 42, past the enumeration guard
    "type": "B", "rank": 2, "nullity": 6, "twist": 6,
    "supp1": [list(c) for r in range(7) for c in combinations(range(1, 7), r)],
    "supp2": [[]],
}
B3_MINIMAL4_DOC = {  # height 4 spans 18 * 13^4 orbit cover states
    "type": "B", "rank": 3, "nullity": 4, "twist": 4,
    "supp1": [[]] + [[r] for r in range(1, 5)], "supp2": [[]],
}


class TestUsage:
    # A refusal raised inside a subcommand takes the same path through
    # `main` as a malformed command line.  In argv, a dict is written to a
    # spec file and "DIR" stands for a directory.
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "B", "x", "4", "4"],
            [],
            ["frobnicate"],
            ["check"],
            ["verify", "spec.json", "--height", "x"],
            ["check", "spec.json", "--no-such-flag"],
            ["check", "/nonexistent/spec.json"],
            ["verify", "/nonexistent/spec.json"],
            ["check", "DIR"],
            ["verify", "DIR"],
            ["check", B2_LATTICE6_DOC],
            ["verify", B3_MINIMAL4_DOC, "--height", "4"],
            ["classify", "B", "2", "5", "2"],
            ["construct", "B", "3", "3", "--m1", "7", "--rank", "40"],
            ["construct", "B", "3", "3", "--m1", "7", "--m2", "99"],
            ["construct", "C", "3", "0", "--m2", "7", "--m1", "7"],
        ],
        ids=["non-integer rank", "no command", "unknown command", "missing spec",
             "non-integer height", "unknown flag", "check missing file",
             "verify missing file", "check directory", "verify directory",
             "oversized family", "verify height 4", "classify nullity 5",
             "construct rank 40", "construct B with m2", "construct C with m1"],
    )
    def test_usage_error_is_one_line_input_error(self, tmp_path, capsys, argv):
        argv = [
            write(tmp_path, arg) if isinstance(arg, dict)
            else str(tmp_path) if arg == "DIR" else arg
            for arg in argv
        ]
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


class TestParserReuse:
    """`main` reuses one parser; nothing of one call carries into the next."""

    B3_NU4_LATTICE_DOC = {
        "type": "B", "rank": 3, "nullity": 4, "twist": 4,
        "supp1": [list(c) for r in range(5) for c in combinations(range(1, 5), r)],
        "supp2": [[]],
    }

    @staticmethod
    def report(capsys, argv):
        """Exit code, JSON document without `elapsed_s`, and stderr of one call."""
        code = main(argv)
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        del doc["elapsed_s"]
        return code, doc, captured.err

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_parser_is_not_built_at_import(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c",
             "from weylconj import cli; print(cli.build_parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "0\n"

    def test_max_witnesses_does_not_carry_over(self, tmp_path, capsys):
        good = ["check", write(tmp_path, self.B3_NU4_LATTICE_DOC), "--json"]
        first = self.report(capsys, good)
        assert first[0] == EXIT_NO_PBC
        assert len(first[1]["decision"]["witnesses"]) == WITNESS_CAP == 16
        zero = self.report(capsys, [*good, "--max-witnesses", "0"])
        assert zero[1]["decision"]["witnesses"] == []
        assert self.report(capsys, good) == first

    def test_height_does_not_carry_over(self, tmp_path, capsys):
        good = ["verify", write(tmp_path, B3_NU1_DOC), "--json"]
        first = self.report(capsys, good)
        assert first[0] == EXIT_OK
        assert first[1]["orbit_cover"]["bound"] == 1
        zero = self.report(capsys, [*good, "--height", "0"])
        assert zero[1]["orbit_cover"]["bound"] == 0
        assert self.report(capsys, good) == first

    def test_good_call_after_a_usage_error(self, tmp_path, capsys):
        good = ["check", write(tmp_path, B3_LATTICE_DOC), "--json"]
        first = self.report(capsys, good)
        assert main(["classify", "B", "x", "4", "4"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: argument rank: ")
        assert self.report(capsys, good) == first

    def test_good_call_after_version(self, tmp_path, capsys):
        good = ["check", write(tmp_path, B3_LATTICE_DOC), "--json"]
        first = self.report(capsys, good)
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.__version__ + "\n"
        assert self.report(capsys, good) == first


class TestClosedStdout:
    """A reader that closes stdout early gets exit 1 and no traceback."""

    def test_pipe_closed_after_one_byte(self):
        import subprocess
        import sys

        # the 111 kB document is larger than a pipe buffer, so the writer sees the close
        proc = subprocess.Popen(
            [sys.executable, "-m", "weylconj.cli", "classify", "B", "3", "4", "4", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_INPUT
        assert b"Traceback" not in err
        assert err == b""

    @pytest.mark.parametrize("command", ["check", "classify", "verify", "construct"])
    def test_every_subcommand(self, tmp_path, capsys, monkeypatch, command):
        import io
        import os
        import sys

        read_end, write_end = os.pipe()

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return write_end

        argv = {
            "check": ["check", write(tmp_path, B3_LATTICE_DOC)],
            "classify": ["classify", "B", "3", "3", "3"],
            "verify": ["verify", write(tmp_path, B3_NU1_DOC)],
            "construct": ["construct", "B", "3", "3", "--m1", "7"],
        }[command]
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(argv) == EXIT_INPUT
            # the descriptor now leads to devnull: nothing reaches the old pipe
            os.write(write_end, b"late")
            os.close(write_end)
            assert os.read(read_end, 16) == b""
        finally:
            os.close(read_end)
        assert capsys.readouterr().err == ""


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
)
json_value = st.recursive(
    json_scalar,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=8,
)
supporting_class = st.lists(st.lists(st.integers(-1, 5), max_size=4), max_size=10)
spec_fields = {
    "type": st.sampled_from(["B", "C", "F4", "G2", "A"]),
    "rank": st.integers(-1, 6),
    "nullity": st.integers(-1, 5) | st.sampled_from([MAX_NULLITY, MAX_NULLITY + 1, 10**6]),
    "twist": st.integers(-1, 6),
    "supp1": supporting_class,
    "supp2": supporting_class,
}
DROP = object()
VALID_DOCS = [
    F4_DOC,
    B3_LATTICE_DOC,
    {"type": "G2", "rank": 2, "nullity": 2, "twist": 1,
     "supp1": [[], [1]], "supp2": [[], [1]]},
    {"type": "B", "rank": 2, "nullity": 3, "twist": 2,
     "supp1": [[], [1], [2]], "supp2": [[], [1]]},
]


def edited(doc: dict, edits) -> dict:
    doc = dict(doc)
    for key, value in edits:
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
    return doc


# an arbitrary JSON value, or a valid document with none, one or two
# fields replaced by an in-type value, an arbitrary JSON value or nothing
field_edit = st.sampled_from(sorted(spec_fields)).flatmap(
    lambda key: st.tuples(st.just(key), spec_fields[key] | json_value | st.just(DROP))
)
json_documents = st.one_of(
    json_value,
    st.builds(
        edited, st.sampled_from(VALID_DOCS),
        st.just(()) | st.lists(field_edit, min_size=1, max_size=2,
                               unique_by=lambda edit: edit[0]),
    ),
)


@given(json_documents)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_check_fuzz_exits_cleanly(tmp_path, capsys, doc):
    # an answer or one error line, never a traceback (which would
    # escape `main` here)
    code = main(["check", write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NO_PBC)
    assert len(captured.err.splitlines()) <= 1
