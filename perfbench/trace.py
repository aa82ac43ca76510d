"""Span tracing of weylconj's public functions, installed from outside.

`install` replaces each traced function by a wrapper, in its home module
and in every weylconj module that imported it by name, and `uninstall`
puts the originals back.  A wrapper opens a span on entry and closes it
on exit.  Each span records its name, start, end, parent span and the
benchmark call it belongs to, and all spans stay in memory until the run
writes them out.

Self time is a span's duration minus the time its child spans cover.
Calls run on one thread, so children never overlap and the time they
cover is the sum of their durations.  Four leaf functions run up to
millions of times per verify pass: FiniteRoots.pairing, Mat.__matmul__,
root_class and the lru_cached reflection.  Their spans still count
towards their parents' child time and their own totals, but are not kept
one by one, which would take hundreds of megabytes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = (
    "cli", "rootsystem", "semilattice", "corpus", "integral",
    "center", "exactmat", "weylgroup",
)

# (home module, attribute, span name); a dotted attribute is a method.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("rootsystem", "spec_from_json", "rootsystem.spec_from_json"),
    ("rootsystem", "make_spec", "rootsystem.make_spec"),
    ("rootsystem", "generating_roots", "rootsystem.generating_roots"),
    ("rootsystem", "FiniteRoots.pairing", "rootsystem.pairing"),
    ("rootsystem", "root_class", "rootsystem.root_class"),
    ("semilattice", "enumerate_semilattices", "semilattice.enumerate_semilattices"),
    ("corpus", "classification_pairs", "corpus.classification_pairs"),
    ("integral", "count_collections", "integral.count_collections"),
    ("integral", "decide_by_reduction", "integral.decide_by_reduction"),
    ("integral", "minimality_screen", "integral.minimality_screen"),
    ("integral", "construct_nonminimal", "integral.construct_nonminimal"),
    ("center", "center_presentation", "center.center_presentation"),
    ("center", "smith_normal_form", "center.smith_normal_form"),
    ("exactmat", "Mat.__matmul__", "exactmat.matmul"),
    ("weylgroup", "verify_structure_identities", "weylgroup.structure"),
    ("weylgroup", "verify_translation_identities", "weylgroup.translation"),
    ("weylgroup", "verify_choice_independence", "weylgroup.choice"),
    ("weylgroup", "orbit_cover", "weylgroup.cover"),
    ("weylgroup", "verify_center_freeness", "weylgroup.freeness"),
    ("weylgroup", "reflection", "weylgroup.reflection"),
)

AGGREGATE_ONLY = frozenset(
    {"rootsystem.pairing", "rootsystem.root_class", "exactmat.matmul",
     "weylgroup.reflection"}
)
GENERATORS = frozenset({"semilattice.enumerate_semilattices"})


class Tracer:
    """Span stack with per-name self time, call counts and kept spans."""

    def __init__(self, clock=time.perf_counter, aggregate_only=AGGREGATE_ONLY):
        self.clock = clock
        self.aggregate_only = aggregate_only
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, call id)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.results: defaultdict[str, list] = defaultdict(list)
        self.call_id: int | None = None
        self._next_id = 0

    def enter(self, name: str) -> None:
        span_id = -1
        if name not in self.aggregate_only:
            span_id = self._next_id
            self._next_id += 1
        self.stack.append([span_id, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if span_id >= 0:
            parent_id = parent[0] if parent is not None else None
            self.spans.append((span_id, name, start, end, parent_id, self.call_id))

    def wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        keep = KEPT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if keep is not None:
                self.results[name].append(keep(args, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        def resume(it):
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return traced


# What the count metrics need from a call, taken after its span closes.
KEPT = {
    "integral.count_collections": lambda args, result: args[0],
    "integral.minimality_screen": lambda args, result: result.verdict,
    "center.smith_normal_form": lambda args, result: result.shape,
    "weylgroup.structure": lambda args, result: len(result.items),
    "weylgroup.translation": lambda args, result: len(result.items),
    "weylgroup.choice": lambda args, result: len(result.items),
    "weylgroup.cover": lambda args, result: result.target_count,
}


def _resolve(module, attr: str):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns what `uninstall` needs to undo it."""
    modules = {m: importlib.import_module(f"weylconj.{m}") for m in MODULES}
    package = importlib.import_module("weylconj")
    undo = []
    for home, attr, name in TARGETS:
        owner, leaf = _resolve(modules[home], attr)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(name, original)
        sites = [owner] if "." in attr else [package, *modules.values()]
        for site in sites:
            if site.__dict__.get(leaf) is original:
                setattr(site, leaf, wrapped)
                undo.append((site, leaf, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for site, leaf, original in reversed(undo):
        setattr(site, leaf, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""
    from weylconj.integral import essential_family

    s, n, kept = tracer.self_s, tracer.calls, tracer.results
    sizes = [len(essential_family(spec)) for spec in kept["integral.count_collections"]]
    screens = kept["integral.minimality_screen"]
    decisive = sum(1 for v in screens if v != "unknown")
    suites = ("weylgroup.structure", "weylgroup.translation", "weylgroup.choice")
    return {
        "cli.self_s": s["cli.main"],
        "rootsystem.spec_from_json_s": s["rootsystem.spec_from_json"],
        "rootsystem.make_spec_s": s["rootsystem.make_spec"],
        "rootsystem.generating_roots_s": s["rootsystem.generating_roots"],
        "rootsystem.pairing_calls": n["rootsystem.pairing"],
        "rootsystem.pairing_s": s["rootsystem.pairing"],
        "rootsystem.root_class_calls": n["rootsystem.root_class"],
        "rootsystem.root_class_s": s["rootsystem.root_class"],
        "semilattice.enumerate_semilattices_s": s["semilattice.enumerate_semilattices"],
        "semilattice.classes_yielded": tracer.counts["semilattice.enumerate_semilattices.yielded"],
        "corpus.classification_pairs_s": s["corpus.classification_pairs"],
        "integral.count_collections_calls": n["integral.count_collections"],
        "integral.count_collections_s": s["integral.count_collections"],
        "integral.decide_by_reduction_s": s["integral.decide_by_reduction"],
        "integral.family_size_sum": sum(sizes),
        "integral.family_size_max": max(sizes, default=0),
        "integral.minimality_screen_calls": n["integral.minimality_screen"],
        "integral.minimality_screen_s": s["integral.minimality_screen"],
        "integral.construct_nonminimal_s": s["integral.construct_nonminimal"],
        "integral.screen_decisive_frac": decisive / len(screens) if screens else 0.0,
        "center.center_presentation_s": s["center.center_presentation"],
        "center.smith_normal_form_s": s["center.smith_normal_form"],
        "center.snf_entries_sum": sum(
            rows * cols for rows, cols in kept["center.smith_normal_form"]
        ),
        "exactmat.matmul_calls": n["exactmat.matmul"],
        "exactmat.matmul_s": s["exactmat.matmul"],
        "weylgroup.structure_s": s["weylgroup.structure"],
        "weylgroup.translation_s": s["weylgroup.translation"],
        "weylgroup.choice_s": s["weylgroup.choice"],
        "weylgroup.cover_s": s["weylgroup.cover"],
        "weylgroup.freeness_s": s["weylgroup.freeness"],
        "weylgroup.reflection_calls": n["weylgroup.reflection"],
        "weylgroup.identities_checked": sum(sum(kept[name]) for name in suites),
        "weylgroup.cover_targets": sum(kept["weylgroup.cover"]),
    }


def module_self_s(tracer: Tracer) -> dict[str, float]:
    """Self time summed per weylconj module."""
    out = {m: 0.0 for m in MODULES}
    for name, value in tracer.self_s.items():
        out[name.split(".", 1)[0]] += value
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per kept span: id, name, start, end, parent, call."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
