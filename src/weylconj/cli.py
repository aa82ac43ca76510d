"""Command-line front end: check, classify, verify, construct.

Exit codes for `check`: 0 when the presentation by conjugation holds,
3 when it fails, 1 on input errors, 2 when an internal invariant breaks
(the three decision paths and a decisive screen must agree, and the
collection count must be a power of two; a breach is printed with its
witness).  `verify` exits 2 on any failed matrix identity.

A subcommand returns only its verdict's code; every refusal is raised,
and `main` is the one place a refusal becomes an exit code.  A stdout
closed by its reader exits 1 with nothing on stderr.  An input error
(`SpecValidationError`, a size past its bound in `limits` (`TooLarge`),
or a malformed command line) exits 1 with one `error:` line.
A library invariant that breaks (`InvariantBreach`: a non-integral
quotient, bad Cartan data (only `verify` builds roots), a broken Smith
divisibility chain, a word over a non-root, `construct`'s search coming
up empty against the existence guarantee, or its count disagreeing with
the free sides' GF(2) ranks) exits 2 with one `invariant breach:` line,
so 2 always means a broken invariant.  Any other exception is a fault
of the library and propagates with its traceback.

Every `--json` document, and `construct`'s spec, is printed as one
line, the bytes of `json.dumps(doc)`; stdout holds no clock reading, so
it depends only on the command line and the spec.  `classify --json`
renders each distinct subset once per call and fills every row into a
fixed frame (`_classify_json`).  The argument parser is built on the
first `main` call and reused for every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .center import CenterStructure, center_structure
from .corpus import classification_pairs
from .integral import (
    DecisionReport,
    construct_nonminimal,
    count_collections,
    decide_by_reduction,
)
from .limits import MAX_CLASSIFY_NULLITY, TooLarge, refuse_past
from .rootsystem import (
    InvariantBreach,
    RootSystemSpec,
    SpecValidationError,
    make_spec,
    spec_from_json,
    spec_to_json,
    type_label,
    validate_slice,
)
from .semilattice import Semilattice, elems_of
from .weylgroup import (
    Representation,
    orbit_cover,
    refuse_verify_size,
    verify_center_freeness,
    verify_choice_independence,
    verify_structure_identities,
    verify_translation_identities,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_NO_PBC = 3


def cross_check(decision: DecisionReport, center: CenterStructure, reduction: int) -> list[str]:
    """Consistency of the three decision paths; non-empty means a bug."""
    breaches = []
    if center.torsion_order != decision.inc:
        breaches.append(
            f"center torsion order {center.torsion_order} != collection count {decision.inc}"
        )
    if any(d != 2 for d in center.torsion):
        breaches.append(f"non-elementary torsion factors {center.torsion}")
    if reduction != decision.inc:
        breaches.append(f"reduction Inc {reduction} != collection count {decision.inc}")
    if decision.screen_disagrees:
        breaches.append(
            f"screen verdict {decision.screen} disagrees with collection count {decision.inc}"
        )
    return breaches


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SpecValidationError(f"spec document repeats the key {key!r}")
        doc[key] = value
    return doc


def _load_spec(path: str, admit=None) -> RootSystemSpec:
    """The spec document at `path`; a file that is not UTF-8 JSON raises an input error.

    `admit` is `spec_from_json`'s: a command's own rank and nullity bounds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except SpecValidationError:  # a repeated key (`_unique_keys`)
        raise
    except UnicodeDecodeError as exc:
        raise SpecValidationError(f"spec file is not UTF-8: {exc}") from None
    except RecursionError:
        raise SpecValidationError("spec document nests too deeply to decode") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecValidationError(str(exc)) from None
    except ValueError as exc:
        # json.load raises a bare ValueError for an integer literal past
        # the interpreter's digit limit (sys.get_int_max_str_digits)
        raise SpecValidationError(
            f"spec document holds an integer too long to decode: {exc}"
        ) from None
    return spec_from_json(doc, admit)


def _spec_line(spec: RootSystemSpec) -> str:
    return (
        f"type {type_label(spec.family, spec.rank)}, nullity {spec.nullity}, "
        f"twist {spec.twist}, ind(S1)={spec.s1.index}, ind(S2)={spec.s2.index}"
    )


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    decision = count_collections(spec)
    center = center_structure(spec)
    reduction = decide_by_reduction(spec)
    breaches = cross_check(decision, center, reduction)
    if args.json:
        payload = {
            "version": __version__,
            "spec": spec_to_json(spec),
            "decision": decision.to_json(),
            "center": center.to_json(),
            "reduction_pbc": reduction == 1,
            "breaches": breaches,
        }
        print(json.dumps(payload))
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
    if breaches:
        for b in breaches:
            print(f"invariant breach: {b}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK if decision.has_pbc else EXIT_NO_PBC


def _cmd_classify(args) -> int:
    refuse_past("classify nullity", args.nullity, MAX_CLASSIFY_NULLITY)
    validate_slice(args.family, args.rank, args.nullity, args.twist)
    pairs = classification_pairs(
        args.family, args.rank, args.nullity, args.twist, not args.no_perm
    )
    rows = []
    for s1, s2 in sorted(pairs, key=lambda p: (p[0].members, p[1].members)):
        spec = make_spec(args.family, args.rank, args.nullity, args.twist, s1, s2)
        rows.append((s1, s2, count_collections(spec)))
    decisive = [r for r in rows if r[2].screen != "unknown"]
    disagreeing = [r for r in decisive if r[2].screen_disagrees]
    summary = {
        "rows": len(rows),
        "pbc_true": sum(1 for r in rows if r[2].has_pbc),
        "pbc_false": sum(1 for r in rows if not r[2].has_pbc),
        "screen_decisive": len(decisive),
        "screen_agrees": not disagreeing,
    }
    if args.json:
        print(_classify_json(rows, summary))
    else:
        print(
            f"classification {type_label(args.family, args.rank)}, "
            f"nullity {args.nullity}, twist {args.twist}"
        )
        for s1, s2, d in rows:
            print(
                f"  ind1={s1.index:>2} ind2={s2.index:>2} inc={d.inc:>3} "
                f"n0={d.n0} pbc={'yes' if d.has_pbc else 'no ':<3} "
                f"screen={d.screen:<11} s1={s1.to_subsets()} s2={s2.to_subsets()}"
            )
        print(
            f"rows {summary['rows']}, pbc yes/no {summary['pbc_true']}/{summary['pbc_false']}, "
            f"screen decisive {summary['screen_decisive']} (agrees: {summary['screen_agrees']})"
        )
    if disagreeing:
        s1, s2, d = disagreeing[0]
        print(f"invariant breach: screen disagrees with enumeration at s1={s1.to_subsets()} "
              f"s2={s2.to_subsets()}: screen {d.screen}, inc {d.inc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# One classify row of `json.dumps(...)`, keys in output order; the s1
# and s2 slots take the side's subsets.
_ROW_FRAME = (
    '{{"s1": [{}], "s2": [{}], "ind1": {}, "ind2": {}, "inc": {}, "n0": {}, '
    '"pbc": {}, "screen": {}}}'
)
# The JSON text of a row's "pbc" and "screen" values, which come from these fixed sets.
_JSON_LITERAL = {
    True: "true",
    False: "false",
    **{verdict: json.dumps(verdict) for verdict in ("minimal", "not_minimal", "unknown")},
}


def _classify_json(
    rows: list[tuple[Semilattice, Semilattice, DecisionReport]], summary: dict
) -> str:
    """The bytes of `json.dumps({"rows": ..., "summary": summary})`.

    A slice has few distinct subsets (at most 16 masks at nullity <= 4)
    but up to 2,048 rows, nearly every one with its own side.  Each mask
    is dumped once here, and every row is filled into `_ROW_FRAME` from
    those pieces, its verdicts from `_JSON_LITERAL`.
    """
    subsets: dict[int, str] = {}

    def side(s: Semilattice) -> str:
        parts = []
        for mask in s.members:
            text = subsets.get(mask)
            if text is None:
                text = subsets[mask] = json.dumps(list(elems_of(mask)))
            parts.append(text)
        return ", ".join(parts)

    body = ", ".join(
        _ROW_FRAME.format(
            side(s1), side(s2), s1.index, s2.index, d.inc, d.n0,
            _JSON_LITERAL[d.has_pbc], _JSON_LITERAL[d.screen],
        )
        for s1, s2, d in rows
    )
    return f'{{"rows": [{body}], "summary": {json.dumps(summary)}}}'


def _cmd_verify(args) -> int:
    spec = _load_spec(args.spec, refuse_verify_size)  # before S1 and S2 are built
    rep = Representation(spec)
    cover = orbit_cover(spec, args.height)  # refuses an oversized box before any suite runs
    structure = verify_structure_identities(rep)
    translationv = verify_translation_identities(rep)
    choice = verify_choice_independence(rep) if spec.nullity >= 2 else None
    freeness = verify_center_freeness(rep)
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
        }
        print(json.dumps(payload))
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
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _cmd_construct(args) -> int:
    spec, decision = construct_nonminimal(
        args.family, args.nullity, args.twist, m1=args.m1, m2=args.m2, rank=args.rank
    )
    label = (
        f"non-minimal {type_label(spec.family, spec.rank)} nu={spec.nullity} "
        f"t={spec.twist} ind(S1)={spec.s1.index} ind(S2)={spec.s2.index} "
        f"Inc={decision.inc}"
    )
    print(json.dumps(spec_to_json(spec, label=label)))
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


@functools.cache
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
    """Run one subcommand; the one place a refusal becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`weylconj classify ... | head`).  What is
        # left in the buffer goes to devnull, so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (_UsageError, SpecValidationError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
