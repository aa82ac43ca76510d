"""weylconj benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide|sweep|verify --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The harness writes the workload's round of
calls (`workloads.py`), times cold interpreter starts, then hands the
round to a fresh worker process (`worker.py`) that runs the calls through
`weylconj.cli.main` in process, one after another, and repeats the round.
Every answer of every round is checked against references that do not
come from the code under test (`checks.py`).

--trace 0 repeats the round for about S seconds of call time, at least
three times, and reports the end-to-end metrics.  verify runs each round
in a fresh worker, because a spec verified twice in one process hits
weylgroup's caches.  --trace 1 runs one round untraced and one traced,
each in a fresh worker, and reports the per-layer metrics of the traced
round and the tracing overhead (traced minus untraced call time).  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything the run writes, including the full report and the
spans, goes under .perfbench-out/ in the repository root.

Call times are adjusted for the speed of the host.  A shared host has
slow spells, caused by other tenants, that last from seconds to minutes;
a best or median of repeats within one run cannot remove them.  The
worker therefore times a fixed probe of pure interpreter work between
calls, which such a spell slows much as it slows the program.  A call's
time is its wall time scaled by REF_PROBE_S over the probe time around
it, and then its median over the rounds.  setup_s is the median of 15
cold starts, each adjusted the same way by probes run in the harness
just before and after it.  Every time metric and the tracing overhead
use adjusted times; the raw times are kept in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, worker, workloads  # noqa: E402

WORKLOADS = ("decide", "sweep", "verify")
SETUP_PROBES = 15
TAIL_BEYOND = 10
MIN_ROUNDS = 3
# Reference time of worker.probe: its median on a 2.1 GHz Xeon vCPU under
# Python 3.11 was 0.24-0.32 ms.  Adjusted times are at this probe speed.
REF_PROBE_S = 2.5e-4
# Workloads whose rounds each need a fresh worker (spec-keyed caches).
FRESH_WORKER_PER_ROUND = frozenset({"verify"})
INPUT_SIZE = {
    "decide": "rounds of 63 check specs at nullity 5..7: three per |family| 0..19, three F4",
    "sweep": "rounds of 140 classify slices (9,246 rows) and 20 construct calls",
    "verify": "rounds of the 29 verify specs of nullity <= 2 and 6 seeded ones of "
              "nullity 3, at height 1",
}
WORKER_TIMEOUT_S = 170
PREDICTIONS = Path(__file__).resolve().parent / "predictions.json"


class BenchmarkError(RuntimeError):
    pass


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def cold_start_s() -> float:
    """Wall time from spawning an interpreter until it has imported weylconj.cli."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--ready"],
        stdout=subprocess.PIPE, env=_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError("weylconj.cli failed to import")
    return ready - start


def host_probe_s() -> float:
    return statistics.median(worker.probe() for _ in range(5))


def setup_s() -> tuple[float, list[float]]:
    """Median cold start, each adjusted by the probe times around it."""
    cold_start_s()  # the first start also compiles the bytecode cache
    samples = []
    before = host_probe_s()
    for _ in range(SETUP_PROBES):
        start = cold_start_s()
        after = host_probe_s()
        samples.append(start * REF_PROBE_S / ((before + after) / 2))
        before = after
    return statistics.median(samples), samples


def run_worker(job: dict, out_dir: Path, name: str) -> dict:
    job = dict(
        job,
        out=str(out_dir / f"{name}.json"),
        spans=str(out_dir / f"{name}-spans.jsonl"),
        outputs=str(out_dir / "outputs"),
    )
    job_path = out_dir / f"{name}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(job_path)],
            env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {name} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(Path(job["out"]).read_text(encoding="utf-8"))


def _digest(command: str, path: Path) -> dict | None:
    try:
        return checks.digest(command, path.read_text(encoding="utf-8"))
    except OSError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        return {"digest_error": f"{type(exc).__name__}: {exc}"}


def judge(calls: list[dict], reports: list[dict], checker: checks.Checker, outputs: Path) -> dict:
    """Check every call of every round; count calls, failures and verdicts."""
    digests: dict[str, dict | None] = {}
    memo: dict[tuple, list[str]] = {}
    attempted = failed = verdicts = 0
    failures = []
    rounds = [r for report in reports for r in report["rounds"]]
    for ran in rounds:
        for call, result in zip(calls, ran):
            if result["out"] not in digests:
                digests[result["out"]] = _digest(call["argv"][0], outputs / result["out"])
            dig = digests[result["out"]]
            key = (json.dumps(call["argv"]), result["out"], result["rc"], result.get("error"))
            if key not in memo:
                memo[key] = checker.problems(call, result, dig)
            attempted += 1
            verdicts += checks.verdicts(call, dig)
            if memo[key]:
                failed += 1
                if len(failures) < 20:
                    failures.append({"argv": call["argv"], "problems": memo[key]})
    round_s = [sum(r["s"] for r in ran) for ran in rounds]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "verdicts_per_round": verdicts / len(rounds),
        "call_times_s": adjusted_medians(rounds),
        "probe_s": statistics.median(r["probe_s"] for ran in rounds for r in ran),
        "round_s": round_s,
        "call_s": sum(round_s),
    }


def adjusted_medians(rounds: list[list[dict]]) -> list[float]:
    """Each call's median over the rounds of its host-speed-adjusted time.

    A call's wall time is scaled by REF_PROBE_S over the probe time
    measured around it, so a slow spell of the host, which slows the probe
    as well, leaves the adjusted time nearly unchanged.
    """
    per_call = zip(*([r["s"] * REF_PROBE_S / r["probe_s"] for r in ran] for ran in rounds))
    return [statistics.median(times) for times in per_call]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND calls beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"{n} calls are too few for a tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: float, judged: dict, reports: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values, and the facts printed beside them."""
    times = judged["call_times_s"]
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": setup,
        "verdicts_per_s": judged["verdicts_per_round"] / sum(times),
        "call_p50_ms": statistics.median(times) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }, {
        "tail_percentile": tail_pct,
        "calls": len(times),
        "verdicts": judged["verdicts_per_round"],
        "rounds": len(judged["round_s"]),
        "round_s": judged["round_s"],
        "call_s": judged["call_s"],
        "probe_s": judged["probe_s"],
        "call_times_s": times,
    }


def timed_reports(workload: str, job: dict, seconds: int, out_dir: Path) -> list[dict]:
    """Worker reports of MIN_ROUNDS or more rounds in about `seconds` of call time."""
    if workload not in FRESH_WORKER_PER_ROUND:
        job = dict(job, seconds=seconds, min_rounds=MIN_ROUNDS, max_rounds=10**9)
        return [run_worker(job, out_dir, "untraced")]
    job = dict(job, seconds=0, min_rounds=1, max_rounds=1)
    reports = []
    elapsed = 0.0
    while True:
        reports.append(run_worker(job, out_dir, f"untraced{len(reports)}"))
        elapsed += sum(r["s"] for r in reports[-1]["rounds"][0])
        if len(reports) >= MIN_ROUNDS and elapsed * (len(reports) + 1) / len(reports) > seconds:
            return reports


def declared_metrics(traced: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run, in order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if traced else "end_to_end"]


def attribution(workload: str, module_s: dict[str, float]) -> dict:
    """Compare where the traced time went with the recorded prediction."""
    want = json.loads(PREDICTIONS.read_text(encoding="utf-8"))["workloads"][workload]
    total = sum(module_s.values()) or 1.0
    shares = {m: v / total for m, v in module_s.items()}
    busy = sum(shares[m] for m in want["busy_modules"])
    idle = {m: shares[m] for m in want["idle_modules"]}
    return {
        "shares": shares,
        "busy_modules": want["busy_modules"],
        "busy_share": busy,
        "min_busy_share": want["min_busy_share"],
        "idle_share": idle,
        "holds": busy >= want["min_busy_share"] and all(v == 0 for v in idle.values()),
    }


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    if not (ROOT / "src" / "weylconj" / "cli.py").is_file():
        raise BenchmarkError(f"no weylconj sources under {ROOT / 'src'}")
    out_dir = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True)
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_start": _loadavg(),
        "commit": _git_commit(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
    }
    calls = workloads.make_round(workload, seed, inputs)
    job = {"calls": [c["argv"] for c in calls], "trace": False}
    result = {"context": context, "input": INPUT_SIZE[workload]}
    checker = checks.Checker(workload)
    outputs = out_dir / "outputs"
    if traced:
        once = dict(job, seconds=0, min_rounds=1, max_rounds=1)
        judged = judge(calls, [run_worker(once, out_dir, "untraced")], checker, outputs)
        traced_report = run_worker(dict(once, trace=True), out_dir, "traced")
        traced_judged = judge(calls, [traced_report], checker, outputs)
        values = dict(traced_report["layers"])
        result["untraced_call_s"] = sum(judged["call_times_s"])
        result["traced_call_s"] = sum(traced_judged["call_times_s"])
        values["trace.overhead_s"] = result["traced_call_s"] - result["untraced_call_s"]
        result["spans_kept"] = traced_report["spans"]
        result["module_self_s"] = traced_report["module_self_s"]
        result["attribution"] = attribution(workload, traced_report["module_self_s"])
        attempted = judged["attempted"] + traced_judged["attempted"]
        failed = judged["failed"] + traced_judged["failed"]
        result["failures"] = judged["failures"] + traced_judged["failures"]
    else:
        setup, result["setup_samples_s"] = setup_s()
        reports = timed_reports(workload, job, seconds, out_dir)
        judged = judge(calls, reports, checker, outputs)
        values, detail = end_to_end(setup, judged, reports)
        result.update(detail)
        attempted, failed = judged["attempted"], judged["failed"]
        result["failures"] = judged["failures"]
    context["loadavg_end"] = _loadavg()
    result.update(
        correct=failed == 0, attempted=attempted, failed=failed,
        failed_frac=failed / attempted,
        metrics={
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(traced)
        },
    )
    (out_dir / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    shutil.rmtree(inputs)
    shutil.rmtree(outputs)
    return result


def _print_report(result: dict) -> None:
    ctx = result["context"]
    print(f"weylconj benchmark: workload {ctx['workload']}, seed {ctx['seed']}, "
          f"trace {int(ctx['trace'])}; Python {ctx['python']}, nproc {ctx['nproc']}, "
          f"{ctx['cpu']}, load {ctx['loadavg_start']} -> {ctx['loadavg_end']}, "
          f"commit {ctx['commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {result['failed_frac']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} calls)")
    if "tail_percentile" in result:
        print(f"  call times are host-speed-adjusted medians of {result['rounds']} rounds; "
              f"call_tail_ms is p{result['tail_percentile']:.2f} of {result['calls']} calls; "
              f"{result['verdicts']:g} verdicts per round; median round {statistics.median(result['round_s']):.3f} s "
              f"of wall time; probe {result['probe_s'] * 1e3:.4f} ms (reference {REF_PROBE_S * 1e3:g} ms)")
    if "attribution" in result:
        att = result["attribution"]
        shares = ", ".join(f"{m} {s:.1%}" for m, s in sorted(att["shares"].items(), key=lambda x: -x[1]))
        print(f"  tracing overhead {result['traced_call_s'] - result['untraced_call_s']:+.3f} s "
              f"({result['untraced_call_s']:.3f} s untraced, {result['traced_call_s']:.3f} s traced)")
        print(f"  self time by module: {shares}")
        print(f"  predicted busy {att['busy_modules']} >= {att['min_busy_share']:.0%}: "
              f"{att['busy_share']:.1%}; prediction {'holds' if att['holds'] else 'FAILS'}")
    for failure in result["failures"][:5]:
        print(f"  failed: {failure['argv']}: {failure['problems']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
