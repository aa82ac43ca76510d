"""Digests of CLI output and their comparison with the references.

The worker turns each call's stdout into a small digest right after the
call returns, outside the timed region.  The harness then compares every
digest with references that do not come from the code under test: the
GF(2) count in `oracle`, the number of semilattices in each slice, and
golden files recorded from the seed commit (`record_golden.py`).  The
`elapsed_s` field of `check` and `verify` output is never compared.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from . import oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED_EXIT = {"check": (0, 3), "classify": (0,), "construct": (0,), "verify": (0,)}


def digest(command: str, stdout: str) -> dict:
    """The parts of one command's JSON output that the checks read."""
    out = json.loads(stdout)
    if command == "check":
        return {
            "spec": out["spec"],
            "inc": out["decision"]["inc"],
            "n0": out["decision"]["n0"],
            "pbc": out["decision"]["pbc"],
            "witnesses": out["decision"]["witnesses"],
            "torsion": out["center"]["torsion"],
            "free_rank": out["center"]["free_rank"],
            "reduction_pbc": out["reduction_pbc"],
            "breaches": out["breaches"],
        }
    if command == "classify":
        rows = [
            [r["s1"], r["s2"], r["ind1"], r["ind2"], r["inc"], r["n0"], r["pbc"], r["screen"]]
            for r in out["rows"]
        ]
        return {"rows": rows, "summary": out["summary"]}
    if command == "construct":
        return {"spec": out}
    if command == "verify":
        return {
            "pass": out["pass"],
            "suites": {name: len(items) for name, items in out["identities"].items()},
            "failed_items": sum(
                1 for items in out["identities"].values() for it in items if not it["pass"]
            ),
            "cover": {k: out["orbit_cover"][k] for k in ("target", "reached")},
            "unreached": len(out["orbit_cover"]["unreached"]),
            "freeness": out["center_freeness"],
        }
    raise ValueError(f"no digest for {command!r}")


def spec_key(doc: dict) -> str:
    fields = ("type", "rank", "nullity", "twist", "supp1", "supp2")
    return json.dumps({k: doc[k] for k in fields}, sort_keys=True)


def slice_key(family: str, rank: int, nu: int, t: int, no_perm: bool) -> str:
    return f"{family}{rank} nu{nu} t{t} {'noperm' if no_perm else 'perm'}"


def load_golden(name: str) -> dict:
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _row_invariants(rows) -> list:
    """Multiset of (ind1, ind2, inc, pbc, screen); independent of representatives."""
    counts = Counter((r[2], r[3], r[4], r[6], r[7]) for r in rows)
    return sorted([list(k), v] for k, v in counts.items())


def slice_golden(dig: dict) -> dict:
    return {"invariants": _row_invariants(dig["rows"]), "summary": dig["summary"]}


def check_decide(call: dict, dig: dict) -> list[str]:
    doc = call["doc"]
    ref = oracle.inc(doc)
    problems = []
    if spec_key(dig["spec"]) != spec_key(doc):
        problems.append("spec echo differs from the input")
    if dig["inc"] != ref:
        problems.append(f"inc {dig['inc']} != GF(2) reference {ref}")
    if 1 << dig["n0"] != ref or dig["pbc"] != (ref == 1):
        problems.append("n0 or pbc inconsistent with the reference")
    torsion_order = 1
    for d in dig["torsion"]:
        torsion_order *= d
    if torsion_order != ref or any(d != 2 for d in dig["torsion"]):
        problems.append(f"torsion {dig['torsion']} does not give order {ref}")
    nu = doc["nullity"]
    if dig["free_rank"] != nu * (nu - 1) // 2:
        problems.append(f"free rank {dig['free_rank']} != nu(nu-1)/2")
    if dig["reduction_pbc"] != (ref == 1):
        problems.append("reduction verdict differs from the reference")
    if dig["breaches"]:
        problems.append(f"breaches: {dig['breaches']}")
    witnesses = dig["witnesses"]
    if len(witnesses) != min(ref - 1, 16) or len({json.dumps(w) for w in witnesses}) != len(witnesses):
        problems.append("wrong number of distinct witnesses")
    if not all(w and oracle.is_integral_choice(doc, w) for w in witnesses):
        problems.append("a witness is not a non-trivial integral collection")
    return problems


def _class_dim(subsets) -> int:
    return max((c for s in subsets for c in s), default=0)


def check_classify(call: dict, dig: dict, golden: dict) -> list[str]:
    family, rank, nu, t, no_perm = call["slice"]
    rows = dig["rows"]
    problems = []
    sides = {
        ("B", 2): (t, nu - t),
        ("B", 3): (t,),
        ("C", 3): (nu - t,),
    }.get((family, rank), ())
    expected_rows = 1
    for dim in sides:
        expected_rows *= oracle.semilattice_count(dim) if no_perm else oracle.ORBIT_COUNTS[dim]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    pairs = {json.dumps([r[0], r[1]]) for r in rows}
    if len(pairs) != len(rows):
        problems.append("repeated semilattice pair")
    for s1, s2, ind1, ind2, inc, n0, pbc, _ in rows:
        doc = {"type": family, "rank": rank, "nullity": nu, "twist": t,
               "supp1": s1, "supp2": s2}
        ref = oracle.inc(doc)
        if (inc, 1 << n0, pbc, ind1, ind2) != (ref, ref, ref == 1, len(s1) - 1, len(s2) - 1):
            problems.append(f"row {s1} {s2}: inc {inc}, reference {ref}")
            break
        if _class_dim(s1) > t or _class_dim(s2) > nu - t:
            problems.append(f"row {s1} {s2} outside the slice")
            break
    want = golden.get(slice_key(family, rank, nu, t, no_perm))
    if want is None:
        problems.append("slice missing from the golden file")
    elif slice_golden(dig) != want:
        problems.append("row invariants or summary differ from the golden file")
    return problems


def check_construct(call: dict, dig: dict) -> list[str]:
    family, rank, nu, t, index = call["construct"]
    doc = dig["spec"]
    problems = []
    if (doc["type"], doc["rank"], doc["nullity"], doc["twist"]) != (family, rank, nu, t):
        problems.append("constructed spec has the wrong type or shape")
        return problems
    side = doc["supp1"] if family == "B" else doc["supp2"]
    if len(side) - 1 != index:
        problems.append(f"index {len(side) - 1} != requested {index}")
    ref = oracle.inc(doc)
    if ref <= 1:
        problems.append(f"GF(2) reference Inc = {ref}; not non-minimal")
    if not doc.get("label", "").endswith(f"Inc={ref}"):
        problems.append(f"label {doc.get('label')!r} disagrees with Inc = {ref}")
    return problems


def check_verify(call: dict, dig: dict, golden: dict) -> list[str]:
    want = golden.get(spec_key(call["doc"]))
    problems = []
    if not dig["pass"] or dig["failed_items"]:
        problems.append("verify did not pass")
    cover = dig["cover"]
    if cover["reached"] != cover["target"] or dig["unreached"]:
        problems.append("orbit cover incomplete")
    if want is None:
        problems.append("spec missing from the golden file")
        return problems
    if cover["target"] != want["cover_targets"]:
        problems.append(f"cover targets {cover['target']} != golden {want['cover_targets']}")
    for suite, count in want["suites"].items():
        if dig["suites"].get(suite, 0) < count:
            problems.append(f"suite {suite} checked {dig['suites'].get(suite, 0)} < {count}")
    return problems


class Checker:
    """Judges one call from its exit code, exception and output digest."""

    def __init__(self, workload: str):
        self.golden = load_golden(workload) if workload in ("sweep", "verify") else {}

    def problems(self, call: dict, result: dict, dig: dict | None) -> list[str]:
        command = call["argv"][0]
        if result.get("error"):
            return [f"exception: {result['error']}"]
        if result["rc"] not in EXPECTED_EXIT[command]:
            return [f"exit code {result['rc']}"]
        if dig is None:
            return ["no output digest"]
        if "digest_error" in dig:
            return [f"unreadable output: {dig['digest_error']}"]
        if command == "check":
            problems = check_decide(call, dig)
            if result["rc"] != (0 if dig["pbc"] else 3):
                problems.append(f"exit code {result['rc']} disagrees with the verdict")
            return problems
        if command == "classify":
            return check_classify(call, dig, self.golden)
        if command == "construct":
            return check_construct(call, dig)
        return check_verify(call, dig, self.golden)


def verdicts(call: dict, dig: dict | None) -> int:
    """Verdicts a call produced: one per spec, classify row or construct result."""
    if call["argv"][0] == "classify":
        return len(dig["rows"]) if dig and "rows" in dig else 0
    return 1
