#!/usr/bin/env python3
"""Sweep the low-nullity slices and tabulate the conjugation-presentation verdicts.

Runs every admissible semilattice pair for B2/B3/C3 at nullity <= 3 and
prints, per slice, how the index of the varying semilattice separates
the groups with and without the presentation by conjugation.
"""

import argparse
from collections import defaultdict

from weylconj.corpus import classification_pairs
from weylconj.integral import count_collections
from weylconj.rootsystem import make_spec, type_label

SLICES = [
    ("B", 2, 2, 1),
    ("B", 2, 2, 2),
    ("B", 2, 3, 2),
    ("B", 2, 3, 3),
    ("B", 3, 3, 3),
    ("B", 3, 3, 2),
    ("C", 3, 3, 0),
    ("C", 3, 3, 1),
]


def run_slice(family, rank, nullity, twist, up_to_permutation):
    pairs = classification_pairs(family, rank, nullity, twist, up_to_permutation)
    by_index = defaultdict(lambda: [0, 0])
    disagreements = 0
    for s1, s2 in pairs:
        spec = make_spec(family, rank, nullity, twist, s1, s2)
        decision = count_collections(spec)
        if decision.screen_disagrees:
            disagreements += 1
        key = (s1.index, s2.index)
        by_index[key][0 if decision.has_pbc else 1] += 1
    print(f"{type_label(family, rank)} nullity={nullity} twist={twist}: {len(pairs)} pairs")
    for key in sorted(by_index):
        yes, no = by_index[key]
        print(f"  ind(S1)={key[0]:>2} ind(S2)={key[1]:>2}: pbc yes {yes:>3}  no {no:>3}")
    if disagreements:
        print(f"  !! screen disagreed on {disagreements} pairs")
    return disagreements


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="sweep raw classes instead of permutation representatives")
    args = parser.parse_args()
    bad = 0
    for family, rank, nullity, twist in SLICES:
        bad += run_slice(family, rank, nullity, twist, not args.full)
    if bad:
        raise SystemExit(f"{bad} screen disagreements")
    print("all screens agree with enumeration")


if __name__ == "__main__":
    main()
