"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import random
from collections import Counter

import pytest

from perfbench import checks, oracle, run, trace, workloads, worker


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["decide", "verify"])
def test_inputs_follow_the_seed(tmp_path, workload):
    workloads.make_round(workload, 7, tmp_path / "a")
    workloads.make_round(workload, 7, tmp_path / "b")
    workloads.make_round(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c


def test_sweep_seed_only_shuffles():
    one, two = workloads.sweep_round(1), workloads.sweep_round(2)
    assert one != two
    key = lambda call: call["argv"]
    assert sorted(one, key=key) == sorted(two, key=key)
    assert sum(1 for c in one if "slice" in c) == 140
    assert sum(1 for c in one if "construct" in c) == 20


@pytest.mark.parametrize("seed", range(5))
def test_verify_inputs_never_repeat_and_have_references(seed):
    docs = workloads.verify_docs(seed)
    keys = [checks.spec_key(d) for d in docs]
    fixed = workloads.verify_universe(workloads.VERIFY_ALL_UP_TO)
    assert len(keys) == len(set(keys)) == len(fixed) + sum(workloads.VERIFY_DRAWS.values())
    cells = Counter(
        (d["type"], d["rank"], d["nullity"], d["twist"])
        for d in docs if d["nullity"] > workloads.VERIFY_ALL_UP_TO
    )
    assert cells == Counter(workloads.VERIFY_DRAWS)
    assert set(keys) <= set(checks.load_golden("verify"))


def test_decide_round_covers_every_family_size_three_times():
    calls = workloads.decide_round(3)
    sizes = sorted(oracle.family_size(c["doc"]) for c in calls)
    per_size = [*range(workloads.DECIDE_MAX_FAMILY + 1)] * workloads.DECIDE_PER_SIZE
    assert sizes == sorted([0] * workloads.DECIDE_F4 + per_size)
    assert all(
        oracle.inc(c["doc"]) <= 1 << min(oracle.family_size(c["doc"]) // 2, workloads.DECIDE_MAX_N0)
        for c in calls
    )
    assert sum(1 for c in calls if c["doc"]["type"] == "F4") == workloads.DECIDE_F4
    assert {c["doc"]["nullity"] for c in calls} <= set(workloads.DECIDE_NULLITIES)


def test_gf2_oracle_agrees_with_brute_force_count():
    from weylconj.corpus import reference_corpus
    from weylconj.integral import count_collections
    from weylconj.rootsystem import spec_from_json, spec_to_json

    rng = random.Random(0)
    docs = [spec_to_json(s) for _, s in reference_corpus()]
    docs += [workloads.decide_doc(rng, size) for size in range(13) for _ in range(4)]
    incs = set()
    for doc in docs:
        inc = count_collections(spec_from_json(doc)).inc
        assert oracle.inc(doc) == inc, doc
        incs.add(inc)
    assert len(incs) > 3


def test_injected_wrong_answer_is_counted(tmp_path, monkeypatch):
    from weylconj import cli

    calls = workloads.make_round("decide", 5, tmp_path / "in")[:12]
    real_main = cli.main
    wrong = calls[2]["argv"]

    def fake_main(argv):
        if argv != wrong:
            return real_main(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real_main(argv)
        out = json.loads(buf.getvalue())
        out["decision"]["inc"] *= 2
        print(json.dumps(out))
        return rc

    monkeypatch.setattr(cli, "main", fake_main)
    job = {"calls": [c["argv"] for c in calls], "trace": False, "seconds": 0,
           "min_rounds": 2, "max_rounds": 2, "outputs": str(tmp_path / "out")}
    report = worker.run_job(job)
    monkeypatch.undo()
    judged = run.judge(calls, [report], checks.Checker("decide"), tmp_path / "out")
    assert (judged["attempted"], judged["failed"]) == (24, 2)
    assert judged["failures"][0]["argv"] == wrong
    assert "GF(2) reference" in judged["failures"][0]["problems"][0]


def test_self_time_on_a_hand_built_span_tree():
    now = [0.0]
    tracer = trace.Tracer(clock=lambda: now[0], aggregate_only={"leaf"})

    def at(t):
        now[0] = t

    tracer.call_id = 4
    at(0); tracer.enter("root")
    at(1); tracer.enter("a")
    at(2); tracer.enter("a.inner")
    at(3); tracer.exit()
    at(4); tracer.exit()
    at(5); tracer.enter("leaf")
    at(9); tracer.exit()
    at(10); tracer.exit()
    assert dict(tracer.self_s) == {"root": 3.0, "a": 2.0, "a.inner": 1.0, "leaf": 4.0}
    spans = {s[1]: s for s in tracer.spans}
    assert set(spans) == {"root", "a", "a.inner"}
    assert spans["a.inner"][4] == spans["a"][0]
    assert spans["a"][4] == spans["root"][0]
    assert spans["root"][2:] == (0, 10, None, 4)


def test_install_wraps_imported_names_and_uninstall_restores(tmp_path, capsys):
    from weylconj import cli, integral
    from weylconj.rootsystem import FiniteRoots

    originals = (cli.count_collections, integral.count_collections, FiniteRoots.pairing)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "type": "B", "rank": 3, "nullity": 3, "twist": 3,
        "supp1": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]], "supp2": [[]],
    }))
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    try:
        assert cli.main(["check", str(path), "--json"]) == 3
    finally:
        trace.uninstall(undo)
    capsys.readouterr()
    assert (cli.count_collections, integral.count_collections, FiniteRoots.pairing) == originals
    layers = trace.layer_metrics(tracer)
    assert layers["integral.count_collections_calls"] == 1
    assert layers["integral.minimality_screen_calls"] == 1
    assert layers["integral.family_size_sum"] == layers["integral.family_size_max"] == 1
    assert layers["center.snf_entries_sum"] == 1 * (3 + 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in declared}
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.spans[-1][3] - tracer.spans[-1][2])


def test_tail_has_ten_calls_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    with pytest.raises(run.BenchmarkError):
        run.tail([1.0] * 10)


def test_call_times_are_probe_adjusted_medians_over_rounds():
    ref = run.REF_PROBE_S
    rounds = [
        [{"s": 3.0, "probe_s": ref}, {"s": 1.0, "probe_s": ref}],
        [{"s": 4.0, "probe_s": 2 * ref}, {"s": 5.0, "probe_s": ref}],
        [{"s": 9.0, "probe_s": ref}, {"s": 3.0, "probe_s": 2 * ref}],
    ]
    assert run.adjusted_medians(rounds) == [3.0, 1.5]
