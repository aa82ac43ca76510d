#!/usr/bin/env python3
"""Reproduce the non-minimal existence construction across its parameter range.

For twist 3 the only admissible target index is 7 (the full lattice);
for twist 4 every index between 8 and 15 admits a witness among the
2^11 rank-4 supporting classes.  At dimension 5 every index between 9
and 31 admits one, for type B with t = 5 (varying S1) and for type C
with nu - t = 5 (varying S2); the search there visits only the classes
of the target index.  `construct_nonminimal` re-certifies each witness
by full enumeration and returns that count, which is what is printed.
With `--json` stdout holds only the witnesses, one spec document a line.
"""

import argparse
import json

from weylconj.integral import construct_nonminimal
from weylconj.rootsystem import spec_to_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    found = []

    # each entry is (label, spec, the report of the count that certified it)
    found.append(("B t=3 m1=7", *construct_nonminimal("B", 3, 3, m1=7)))
    found.append(("C nu-t=3 m2=7", *construct_nonminimal("C", 3, 0, m2=7)))
    for m1 in range(8, 16):
        found.append((f"B t=4 m1={m1}", *construct_nonminimal("B", 4, 4, m1=m1)))
    for m1 in range(9, 32):
        found.append((f"B t=5 m1={m1}", *construct_nonminimal("B", 5, 5, m1=m1)))
    for m2 in range(9, 32):
        found.append((f"C nu-t=5 m2={m2}", *construct_nonminimal("C", 5, 0, m2=m2)))

    for label, spec, decision in found:
        if args.json:
            print(json.dumps(spec_to_json(spec, label=label)))
        else:
            print(
                f"{label}: ind(S1)={spec.s1.index} ind(S2)={spec.s2.index} "
                f"Inc={decision.inc} n0={decision.n0}"
            )
    if not args.json:
        print(f"{len(found)} witnesses")


if __name__ == "__main__":
    main()
