"""Seeded inputs for the three workloads.

A workload run repeats one round: a fixed list of distinct calls, each an
argv for `weylconj.cli.main` plus the facts the reference check needs.
The same seed always gives the same round and the same spec documents.

decide  63 `check` specs at nullity 5..7: three B3, C3 or B2 specs for
        each essential-family size n = 0..19, with Inc <= 2^min(n // 2, 6),
        and three F4 specs (lattices, empty family), in seeded order.  The
        2^n cost of a round does not depend on the seed.  With 30 calls
        cheaper than the n = 9 group, the median call is the middle of
        its three specs, and the 11th slowest (call_tail_ms) the middle
        of the n = 16 group, so neither rests on a single draw.
sweep   every admissible `classify` slice at nullity 1..4 of B2, B3, C3,
        F4 and G2, with and without --no-perm, plus every admissible
        `construct` call at nullity <= 4; the seed only shuffles the
        order.
verify  every admissible spec of nullity <= 2 plus distinct seeded
        `corpus.random_spec` draws at nullity 3, twist 3: four of type
        B2 and two of type B3.  Each of those two cells holds 16 specs
        whose verify times lie within about a factor of two, so the
        cost of a round barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

from . import oracle

DECIDE_MAX_FAMILY = 19
DECIDE_PER_SIZE = 3
DECIDE_F4 = 3
DECIDE_MAX_N0 = 6
DECIDE_NULLITIES = (5, 6, 7)
SWEEP_TYPES = (("B", 2), ("B", 3), ("C", 3), ("F4", 4), ("G2", 2))
SWEEP_MAX_NULLITY = 4
VERIFY_MAX_NULLITY = 3
VERIFY_ALL_UP_TO = 2
# (family, rank, nullity, twist) of a random_spec cell: seeded draws from it
VERIFY_DRAWS = {("B", 2, 3, 3): 4, ("B", 3, 3, 3): 2}


def _subsets(dim: int, size_at_least: int, size_at_most: int | None = None):
    top = dim if size_at_most is None else size_at_most
    return [
        list(c)
        for k in range(size_at_least, top + 1)
        for c in combinations(range(1, dim + 1), k)
    ]


def _sorted_class(subsets) -> list[list[int]]:
    return sorted(subsets, key=oracle.mask)


def random_class(rng: random.Random, dim: int, essential: int) -> list[list[int]]:
    """A supporting class with exactly `essential` members of size >= 3.

    The empty set and singletons are always present, each pair with
    probability 1/2.
    """
    base = [[]] + [[c] for c in range(1, dim + 1)]
    pairs = [p for p in _subsets(dim, 2, 2) if rng.random() < 0.5]
    chosen = rng.sample(_subsets(dim, 3), essential)
    return _sorted_class(base + pairs + chosen)


def lattice(dim: int) -> list[list[int]]:
    return _sorted_class(_subsets(dim, 0))


def decide_f4_doc(rng: random.Random) -> dict:
    """An F4 `check` spec at nullity 5..7: both sides lattices, empty family."""
    nu = rng.choice(DECIDE_NULLITIES)
    t = rng.randint(0, nu)
    return {"type": "F4", "rank": 4, "nullity": nu, "twist": t,
            "supp1": lattice(t), "supp2": lattice(nu - t)}


def decide_doc(rng: random.Random, size: int) -> dict:
    """One B3, C3 or B2 `check` spec at nullity 5..7 with `size` family members."""
    kind = rng.choice(["B3", "C3", "B2"])
    cap = oracle.essential_capacity
    if kind == "B3":
        nu = rng.choice([n for n in DECIDE_NULLITIES if cap(n) >= size])
        return {"type": "B", "rank": 3, "nullity": nu, "twist": nu,
                "supp1": random_class(rng, nu, size), "supp2": [[]]}
    if kind == "C3":
        nu = rng.choice([n for n in DECIDE_NULLITIES if cap(n) >= size])
        return {"type": "C", "rank": 3, "nullity": nu, "twist": 0,
                "supp1": [[]], "supp2": random_class(rng, nu, size)}
    nu, t = rng.choice([
        (n, t)
        for n in DECIDE_NULLITIES
        for t in range(n + 1)
        if cap(t) + cap(n - t) >= size
    ])
    low = max(0, size - cap(nu - t))
    high = min(size, cap(t))
    k1 = rng.randint(low, high)
    return {"type": "B", "rank": 2, "nullity": nu, "twist": t,
            "supp1": random_class(rng, t, k1),
            "supp2": random_class(rng, nu - t, size - k1)}


def capped_decide_doc(rng: random.Random, size: int) -> dict:
    """decide_doc, drawn again until Inc <= 2^min(size // 2, DECIDE_MAX_N0).

    The brute-force count builds a dict for every integral collection, so
    an uncapped Inc (up to 2^15 at size 19) would make two specs of one
    size differ in cost by up to half; capped, the 2^size scan dominates.
    """
    cap = min(size // 2, DECIDE_MAX_N0)
    while True:
        doc = decide_doc(rng, size)
        if oracle.inc(doc) <= 1 << cap:
            return doc


def decide_round(seed: int) -> list[dict]:
    rng = random.Random(f"decide/{seed}")
    sizes: list[int | None] = [*range(DECIDE_MAX_FAMILY + 1)] * DECIDE_PER_SIZE
    sizes += [None] * DECIDE_F4
    rng.shuffle(sizes)
    return [
        {"doc": decide_f4_doc(rng) if size is None else capped_decide_doc(rng, size)}
        for size in sizes
    ]


def sweep_calls() -> list[dict]:
    calls = []
    for family, rank in SWEEP_TYPES:
        for nu in range(1, SWEEP_MAX_NULLITY + 1):
            for t in range(nu + 1):
                for no_perm in (True, False):
                    argv = ["classify", family, str(rank), str(nu), str(t), "--json"]
                    if no_perm:
                        argv.append("--no-perm")
                    calls.append({"argv": argv, "slice": [family, rank, nu, t, no_perm]})
    for family, flag in (("B", "--m1"), ("C", "--m2")):
        for nu in range(SWEEP_MAX_NULLITY + 1):
            for t in range(nu + 1):
                span = t if family == "B" else nu - t
                for index in range(span + 4, (1 << span)):
                    if index < 7:
                        continue
                    argv = ["construct", family, str(nu), str(t), flag, str(index)]
                    calls.append({"argv": argv,
                                  "construct": [family, 3, nu, t, index]})
    return calls


def sweep_round(seed: int) -> list[dict]:
    calls = sweep_calls()
    random.Random(f"sweep/{seed}").shuffle(calls)
    return calls


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def verify_universe(max_nullity: int) -> list[dict]:
    """Every admissible spec of the sweep types at nullity 1..max_nullity."""
    from weylconj.corpus import classification_pairs
    from weylconj.rootsystem import make_spec, spec_to_json

    docs = []
    for family, rank in SWEEP_TYPES:
        for nu in range(1, max_nullity + 1):
            for t in range(nu + 1):
                for s1, s2 in classification_pairs(family, rank, nu, t, False):
                    docs.append(spec_to_json(make_spec(family, rank, nu, t, s1, s2)))
    return docs


def verify_docs(seed: int) -> list[dict]:
    """All specs of nullity <= 2 plus seeded distinct draws per cell, shuffled."""
    from weylconj.corpus import random_spec
    from weylconj.rootsystem import spec_to_json

    docs = verify_universe(VERIFY_ALL_UP_TO)
    seen = {_canonical(d) for d in docs}
    rng = random.Random(f"verify/{seed}")
    wanted = dict(VERIFY_DRAWS)
    while any(wanted.values()):
        doc = spec_to_json(random_spec(rng))
        cell = (doc["type"], doc["rank"], doc["nullity"], doc["twist"])
        key = _canonical(doc)
        if wanted.get(cell, 0) == 0 or key in seen:
            continue
        seen.add(key)
        docs.append(doc)
        wanted[cell] -= 1
    random.Random(f"verify-order/{seed}").shuffle(docs)
    return docs


def write_doc_calls(calls: list[dict], directory: Path, command: str, prefix: str) -> None:
    """Write each call's spec document to a file and point its argv at it."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, call in enumerate(calls):
        path = directory / f"{prefix}{i:04d}.json"
        path.write_text(_canonical(call["doc"]), encoding="utf-8")
        call["argv"] = [command, str(path), "--json"]


def make_round(workload: str, seed: int, directory: Path) -> list[dict]:
    """The round of calls a workload run repeats; spec files go to `directory`."""
    if workload == "decide":
        calls = decide_round(seed)
        write_doc_calls(calls, directory, "check", "c")
        return calls
    if workload == "sweep":
        return sweep_round(seed)
    if workload == "verify":
        calls = [{"doc": d} for d in verify_docs(seed)]
        write_doc_calls(calls, directory, "verify", "v")
        return calls
    raise ValueError(f"unknown workload {workload!r}")
