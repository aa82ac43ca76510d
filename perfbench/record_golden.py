"""Record the golden files the sweep and verify checks compare against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run once on a commit whose answers are trusted.  golden/sweep.json keys
each classify slice on invariants that do not depend on which orbit
representative the enumeration picks: the multiset of (ind1, ind2, inc,
pbc, screen) over its rows, plus the summary.  golden/verify.json holds,
for every admissible spec of nullity <= 3, the orbit cover's target count
and the number of identities each suite checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench-out"
sys.path[:0] = [str(ROOT)]

from perfbench import checks, workloads  # noqa: E402


def _run(argv: list[str]) -> str:
    from weylconj import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return out.getvalue()


def sweep_golden() -> dict:
    golden = {}
    for call in workloads.sweep_calls():
        if "slice" in call:
            dig = checks.digest("classify", _run(call["argv"]))
            golden[checks.slice_key(*call["slice"])] = checks.slice_golden(dig)
    return golden


def verify_golden() -> dict:
    golden = {}
    path = SCRATCH / "golden-spec.json"
    path.parent.mkdir(exist_ok=True)
    for doc in workloads.verify_universe(workloads.VERIFY_MAX_NULLITY):
        path.write_text(json.dumps(doc), encoding="utf-8")
        dig = checks.digest("verify", _run(["verify", str(path), "--json"]))
        if not dig["pass"]:
            raise SystemExit(f"verify failed on {doc}")
        golden[checks.spec_key(doc)] = {
            "cover_targets": dig["cover"]["target"],
            "suites": dig["suites"],
        }
    path.unlink()
    return golden


def main() -> None:
    for name, build in (("sweep", sweep_golden), ("verify", verify_golden)):
        path = checks.GOLDEN / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
