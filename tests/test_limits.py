"""Each size bound at its edge, through `main`: the largest input it admits
exits 0 or 3 with nothing on stderr, and the smallest it refuses exits 1
with nothing on stdout and one line naming the size, its value and the
bound, before the work that refused row names.  An admitted row that
names work shows that work is never started: the rank is unbounded, and
`check`, `classify` and `construct` build no roots at any rank.  The
family bound's admitted edge, a 24-member `check` (about 1.8 s), runs in
CI.
"""

import itertools
import json
import resource
import subprocess
import sys

import pytest

from weylconj import cli, rootsystem, semilattice
from weylconj.cli import EXIT_INPUT, EXIT_NO_PBC, EXIT_OK, main
from weylconj.semilattice import elems_of


def minimal(dim):
    return [[]] + [[r] for r in range(1, dim + 1)]


def lattice(dim):
    return [list(c) for r in range(dim + 1) for c in itertools.combinations(range(1, dim + 1), r)]


def b_spec(rank, nullity, supp1):
    return {"type": "B", "rank": rank, "nullity": nullity, "twist": nullity,
            "supp1": supp1, "supp2": [[]]}


def b3_family(size):
    # nu = 7: the minimal class plus the first `size` members of size >= 3
    members = sorted(m for m in range(1 << 7) if m.bit_count() >= 3)[:size]
    return b_spec(3, 7, minimal(7) + [list(elems_of(m)) for m in members])


F4_NU4 = {"type": "F4", "rank": 4, "nullity": 4, "twist": 2,
          "supp1": lattice(2), "supp2": lattice(2)}

# The work a refusal comes before, as (module, name) pairs that must not be called.
SEMILATTICES = [(rootsystem, "make_semilattice")]
ROOTS = [(rootsystem, "finite_roots")]
PAIR_TABLES = [(rootsystem, "pair_incidence"), (semilattice, "pair_incidence")]
SUITES = [(cli, f"verify_{name}") for name in ("structure_identities",
          "translation_identities", "choice_independence", "center_freeness")]
SLICES = [(cli, "classification_pairs")]
CLASSES = [(semilattice, "_free_masks")]
LATTICES = [(semilattice.Semilattice, "lattice")]


def write(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def edge(id, argv, refusal=None, work=()):
    return pytest.param(argv, refusal, work, id=id)


CONSTRUCT_B3 = ["construct", "B", "3", "3", "--m1", "7", "--rank"]
EDGES = [
    # one essential member, so only the nullity costs
    edge("nullity 16", ["check", b_spec(3, 16, minimal(16) + [[1, 2, 3]])]),
    edge("nullity 17", ["check", b_spec(3, 17, minimal(17) + [[1, 2, 3]])],
         "nullity 17 exceeds the bound 16", SEMILATTICES),
    # no rank bound: only verify builds roots, and the rank enters a decision
    # only through `free_sides`
    edge("check rank 3", ["check", b_spec(3, 1, minimal(1))], work=ROOTS),
    edge("check rank 33", ["check", b_spec(33, 1, minimal(1))], work=ROOTS),
    edge("classify rank 3", ["classify", "B", "3", "2", "2"], work=ROOTS),
    edge("classify rank 33", ["classify", "B", "33", "2", "2"], work=ROOTS),
    edge("construct rank 3", [*CONSTRUCT_B3, "3"], work=ROOTS),
    edge("construct rank 33", [*CONSTRUCT_B3, "33"], work=ROOTS),
    edge("|family| 25", ["check", b3_family(25)], "|family| 25 exceeds the bound 24", PAIR_TABLES),
    edge("B2 nu6 lattice", ["check", b_spec(2, 6, lattice(6))],
         "|family| 42 exceeds the bound 24", PAIR_TABLES),
    edge("B2 nu16 lattice", ["check", b_spec(2, 16, lattice(16))],
         "|family| 65399 exceeds the bound 24", PAIR_TABLES),
    edge("verify rank 4", ["verify", b_spec(4, 1, minimal(1))]),
    edge("verify rank 5", ["verify", b_spec(5, 1, minimal(1))],
         "verify rank 5 exceeds the bound 4", SUITES + ROOTS),
    edge("verify nullity 4", ["verify", b_spec(2, 4, minimal(4))]),
    edge("verify nullity 5", ["verify", b_spec(2, 5, minimal(5))],
         "verify nullity 5 exceeds the bound 4", SUITES),
    edge("verify B2 nu16 lattice", ["verify", b_spec(2, 16, lattice(16))],
         "verify nullity 16 exceeds the bound 4", SUITES + SEMILATTICES),
    # the cover's box: |finite roots| (2h + 5)^nu states
    edge("B3 height 3", ["verify", b_spec(3, 4, minimal(4)), "--height", "3"]),
    edge("B3 height 4", ["verify", b_spec(3, 4, minimal(4)), "--height", "4"],
         f"orbit cover states {18 * 13**4} exceeds the bound 400000", SUITES),
    edge("F4 height 2", ["verify", F4_NU4, "--height", "2"]),
    edge("F4 height 3", ["verify", F4_NU4, "--height", "3"],
         f"orbit cover states {48 * 11**4} exceeds the bound 400000", SUITES),
    edge("classify nullity 4", ["classify", "B", "3", "4", "4"]),
    edge("classify nullity 5", ["classify", "B", "2", "5", "2"],
         "classify nullity 5 exceeds the bound 4", SLICES),
    edge("dimension 5", ["construct", "B", "5", "5", "--m1", "16"]),
    edge("dimension 6", ["construct", "B", "6", "6", "--m1", "20"],
         "semilattice dimension 6 exceeds the bound 5", CLASSES),
    # construct's nullity: the lattice side takes dimension nu - 5
    edge("construct nullity 16", ["construct", "B", "16", "5", "--m1", "16"]),
    edge("construct nullity 17", ["construct", "B", "17", "5", "--m1", "16"],
         "nullity 17 exceeds the bound 16", CLASSES + LATTICES),
    # the range test's 2^span would not fit in memory
    edge("construct nullity 10**12", ["construct", "B", str(10**12), str(10**12),
                                      "--m1", str(10**12 + 10)],
         f"nullity {10**12} exceeds the bound 16", CLASSES + LATTICES),
]


@pytest.mark.parametrize("argv,refusal,work", EDGES)
def test_edge(tmp_path, capsys, monkeypatch, argv, refusal, work):
    def unreachable(*args, **kwargs):
        raise AssertionError("the bound let its work start")

    for module, name in work:
        monkeypatch.setattr(module, name, unreachable)
    argv = [write(tmp_path, arg) if isinstance(arg, dict) else arg for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    if refusal is None:
        assert code in (EXIT_OK, EXIT_NO_PBC) and captured.err == ""
    else:
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.splitlines() == [f"error: {refusal}"]


def cap_address_space():
    """Limit the child to 1 GiB of address space, which a list of every height value outgrows."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cover_at_nullity_0_is_one_state_at_every_height(tmp_path):
    # the box holds |finite roots| (2h + 5)^0 states at any height h, so
    # the output differs only in bound and slack, and the cover builds
    # nothing that grows with h; the run is capped in memory and time
    path = write(tmp_path, b_spec(2, 0, [[]]))
    outs = []
    for height in (1, 10**9):
        proc = subprocess.run(
            [sys.executable, "-m", "weylconj.cli", "verify", path, "--json", "--height", str(height)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        cover = f'"bound": {height}, "slack": {height + 2}'
        assert proc.stdout.count(cover) == 1
        outs.append(proc.stdout.replace(cover, '"bound": h, "slack": h + 2'))
    assert outs[0] == outs[1]
