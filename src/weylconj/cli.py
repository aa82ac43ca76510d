"""Command-line front end: check, classify, verify, construct.

Exit codes for `check`: 0 when the presentation by conjugation holds,
3 when it fails, 1 on input errors, 2 when an internal invariant breaks
(the three decision paths must agree and the collection count must be a
power of two; a breach is printed with its witness).  `verify` exits 2
on any failed matrix identity, `construct` exits 2 if the search comes
up empty against the existence guarantee.  A library invariant that
breaks (`InvariantBreach`: a non-integral quotient, bad Cartan data, a
broken Smith divisibility chain) exits 2 with a one-line message from
every subcommand.  A command-line usage error (unknown subcommand, a
non-integer or negative count) exits 1 with one `error:` line, so 2
always means a broken invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .center import CenterStructure, center_structure
from .corpus import classification_pairs
from .integral import (
    WITNESS_CAP,
    DecisionReport,
    FamilyTooLarge,
    SearchExhausted,
    construct_nonminimal,
    count_collections,
    decide_by_reduction,
)
from .rootsystem import (
    InvariantBreach,
    RootSystemSpec,
    SpecValidationError,
    make_spec,
    spec_from_json,
    spec_to_json,
    validate_slice,
)
from .semilattice import DimTooLarge, SemilatticeError, elems_of
from .weylgroup import (
    Representation,
    check_cover_height,
    orbit_cover,
    verify_center_freeness,
    verify_choice_independence,
    verify_structure_identities,
    verify_translation_identities,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_NO_PBC = 3


def cross_check(
    decision: DecisionReport, center: CenterStructure, reduction_pbc: bool
) -> list[str]:
    """Consistency of the three decision paths; non-empty means a bug."""
    breaches = []
    if center.torsion_order != decision.inc:
        breaches.append(
            f"center torsion order {center.torsion_order} != collection count {decision.inc}"
        )
    if any(d != 2 for d in center.torsion):
        breaches.append(f"non-elementary torsion factors {center.torsion}")
    if reduction_pbc != decision.has_pbc:
        breaches.append(
            f"reduction verdict {reduction_pbc} != enumeration verdict {decision.has_pbc}"
        )
    return breaches


def _load_spec(path: str) -> RootSystemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return spec_from_json(doc)


def _type_label(family: str, rank: int) -> str:
    return family if family in ("F4", "G2") else f"{family}{rank}"


def _spec_line(spec: RootSystemSpec) -> str:
    return (
        f"type {_type_label(spec.family, spec.rank)}, nullity {spec.nullity}, "
        f"twist {spec.twist}, ind(S1)={spec.s1.index}, ind(S2)={spec.s2.index}"
    )


def _cmd_check(args) -> int:
    started = time.monotonic()
    try:
        spec = _load_spec(args.spec)
    except (OSError, json.JSONDecodeError, SemilatticeError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        decision = count_collections(spec, max_witnesses=args.max_witnesses)
        center = center_structure(spec)
        reduction = decide_by_reduction(spec)
    except FamilyTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    breaches = cross_check(decision, center, reduction)
    elapsed = time.monotonic() - started
    if args.json:
        payload = {
            "version": __version__,
            "spec": spec_to_json(spec),
            "decision": decision.to_json(),
            "center": center.to_json(),
            "reduction_pbc": reduction,
            "breaches": breaches,
            "elapsed_s": round(elapsed, 6),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_spec_line(spec))
        print(f"Inc(R) = {decision.inc}   n0 = {decision.n0}")
        print(f"presentation by conjugation: {'yes' if decision.has_pbc else 'no'}")
        print(
            f"center: free rank {center.free_rank}, torsion {list(center.torsion) or 'none'}"
        )
        for note in decision.corollary_notes:
            print(f"  [{note}]")
        for witness in decision.witnesses:
            print(f"  witness: {[list(elems_of(j)) for j in witness]}")
        print(f"elapsed: {elapsed:.3f}s")
    if breaches:
        for b in breaches:
            print(f"invariant breach: {b}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK if decision.has_pbc else EXIT_NO_PBC


def _cmd_classify(args) -> int:
    if args.nullity > 4:
        print("error: classification sweeps are guarded at nullity <= 4", file=sys.stderr)
        return EXIT_INPUT
    try:
        validate_slice(args.family, args.rank, args.nullity, args.twist)
        pairs = classification_pairs(
            args.family, args.rank, args.nullity, args.twist, not args.no_perm
        )
    except (DimTooLarge, SemilatticeError, SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    for s1, s2 in sorted(
        pairs, key=lambda p: (sorted(p[0].supp), sorted(p[1].supp))
    ):
        spec = make_spec(args.family, args.rank, args.nullity, args.twist, s1, s2)
        decision = count_collections(spec)
        rows.append(
            {
                "s1": s1.to_subsets(),
                "s2": s2.to_subsets(),
                "ind1": s1.index,
                "ind2": s2.index,
                "inc": decision.inc,
                "n0": decision.n0,
                "pbc": decision.has_pbc,
                "screen": decision.screen,
            }
        )
    decisive = [r for r in rows if r["screen"] != "unknown"]
    disagreeing = [r for r in decisive if (r["screen"] == "minimal") != r["pbc"]]
    summary = {
        "rows": len(rows),
        "pbc_true": sum(1 for r in rows if r["pbc"]),
        "pbc_false": sum(1 for r in rows if not r["pbc"]),
        "screen_decisive": len(decisive),
        "screen_agrees": not disagreeing,
    }
    if args.json:
        print(json.dumps({"rows": rows, "summary": summary}, indent=2))
    else:
        print(
            f"classification {_type_label(args.family, args.rank)}, "
            f"nullity {args.nullity}, twist {args.twist}"
        )
        for r in rows:
            print(
                f"  ind1={r['ind1']:>2} ind2={r['ind2']:>2} inc={r['inc']:>3} "
                f"n0={r['n0']} pbc={'yes' if r['pbc'] else 'no ':<3} "
                f"screen={r['screen']:<11} s1={r['s1']} s2={r['s2']}"
            )
        print(
            f"rows {summary['rows']}, pbc yes/no {summary['pbc_true']}/{summary['pbc_false']}, "
            f"screen decisive {summary['screen_decisive']} (agrees: {summary['screen_agrees']})"
        )
    if disagreeing:
        r = disagreeing[0]
        print(f"invariant breach: screen disagrees with enumeration at s1={r['s1']} "
              f"s2={r['s2']}: screen {r['screen']}, inc {r['inc']}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.monotonic()
    try:
        spec = _load_spec(args.spec)
        rep = Representation(spec)
        check_cover_height(spec, args.height)
    except (OSError, json.JSONDecodeError, SemilatticeError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    structure = verify_structure_identities(rep)
    translationv = verify_translation_identities(rep)
    choice = verify_choice_independence(rep) if spec.nullity >= 2 else None
    cover = orbit_cover(spec, args.height)
    freeness = verify_center_freeness(rep)
    elapsed = time.monotonic() - started
    reports = {
        "structure": structure,
        "translation": translationv,
    }
    if choice is not None:
        reports["choice"] = choice
    all_ok = (
        all(rep.passed for rep in reports.values())
        and cover.passed
        and freeness.passed
    )
    if args.json:
        payload = {
            "version": __version__,
            "spec": spec_to_json(spec),
            "identities": {name: rep.to_json() for name, rep in reports.items()},
            "orbit_cover": cover.to_json(),
            "center_freeness": freeness.to_json(),
            "pass": all_ok,
            "elapsed_s": round(elapsed, 6),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_spec_line(spec))
        for name, rep in reports.items():
            status = "ok" if rep.passed else f"FAILED ({len(rep.failures())})"
            print(f"  {name}: {len(rep.items)} identities, {status}")
        print(
            f"  orbit cover (bound {cover.bound}): {cover.reached_count}/{cover.target_count}"
            f" {'ok' if cover.passed else 'INCOMPLETE'}"
        )
        print(f"  center freeness: {'ok' if freeness.passed else 'FAILED'}")
        print(f"elapsed: {elapsed:.3f}s")
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _cmd_construct(args) -> int:
    try:
        spec, decision = construct_nonminimal(
            args.family, args.nullity, args.twist, m1=args.m1, m2=args.m2, rank=args.rank
        )
    except (ValueError, SemilatticeError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    label = (
        f"non-minimal {_type_label(spec.family, spec.rank)} nu={spec.nullity} "
        f"t={spec.twist} ind(S1)={spec.s1.index} ind(S2)={spec.s2.index} "
        f"Inc={decision.inc}"
    )
    print(json.dumps(spec_to_json(spec, label=label), indent=2))
    return EXIT_OK


class _UsageError(Exception):
    """A malformed command line; `main` reports it as an input error."""


class _Parser(argparse.ArgumentParser):
    # argparse's own handler prints the usage and exits 2, which is
    # EXIT_INVARIANT here; subparsers inherit this class.
    def error(self, message: str):
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylconj",
        description="Decide the presentation by conjugation for extended affine Weyl groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one spec file")
    p_check.add_argument("spec", help="JSON spec document")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--max-witnesses", type=_non_negative_int, default=WITNESS_CAP)
    p_check.set_defaults(func=_cmd_check)

    p_cls = sub.add_parser("classify", help="sweep all semilattice pairs for a slice")
    p_cls.add_argument("family", choices=["B", "C", "F4", "G2"])
    p_cls.add_argument("rank", type=int)
    p_cls.add_argument("nullity", type=int)
    p_cls.add_argument("twist", type=int)
    p_cls.add_argument("--no-perm", action="store_true",
                       help="do not reduce modulo coordinate permutations")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify", help="run the matrix identity suite on a spec")
    p_ver.add_argument("spec")
    p_ver.add_argument("--height", type=_non_negative_int, default=1,
                       help="isotropic box bound for the orbit cover")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser("construct", help="emit a certified non-minimal spec")
    p_con.add_argument("family", choices=["B", "C"])
    p_con.add_argument("nullity", type=int)
    p_con.add_argument("twist", type=int)
    p_con.add_argument("--m1", type=int, help="target ind(S1) for type B")
    p_con.add_argument("--m2", type=int, help="target ind(S2) for type C")
    p_con.add_argument("--rank", type=int, default=3)
    p_con.set_defaults(func=_cmd_construct)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
