"""Worker process: runs calls through `weylconj.cli.main` in process.

Usage, with src/ and the repository root on PYTHONPATH:
    python3 perfbench/worker.py JOB_JSON
    python3 perfbench/worker.py --ready    (import only, for set-up timing)

It imports weylconj.cli, then runs the job's round of calls one after
another (a closed loop with one caller) with stdout and stderr captured,
and repeats the round: at least min_rounds times, then while another
round is expected to fit in the job's time budget, up to max_rounds.
Each call is timed on its own, and `probe` is timed before the round and
after every call; the budget counts only call time.  Each distinct
output is written to the job's output directory between calls, outside
the timed region, so the worker holds no outputs in memory and its peak
RSS is the program's.  With tracing on, the weylconj functions are
wrapped by `perfbench.trace` before the first call.  The results go to
the job's output file as JSON.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_call(cli, argv: list[str]) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    result = {"rc": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception as exc:  # a failed call is counted, not fatal
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["s"] = time.perf_counter() - start
    return result, out.getvalue()


def probe() -> float:
    """Wall time of a fixed piece of interpreter work, with the collector off.

    The harness divides each call's time by the probe times around it, so
    the probe must not depend on the code under test; with the collector
    off, objects the program keeps alive do not slow it either.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {i: (i * 2654435761) & 0xFFFF for i in range(1000)}
    acc = 0
    for value in sorted(table.values()):
        acc ^= value.bit_count()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def run_job(job: dict) -> dict:
    from weylconj import cli

    tracer = None
    if job["trace"]:
        from perfbench import trace

        tracer = trace.Tracer()
        trace.install(tracer)
    outputs = Path(job["outputs"])
    outputs.mkdir(exist_ok=True)
    seen: set[str] = set()
    rounds = []
    elapsed = 0.0
    call_id = 0
    while True:
        results = []
        before = probe()
        for argv in job["calls"]:
            if tracer is not None:
                tracer.call_id = call_id
            call_id += 1
            result, stdout = _run_call(cli, argv)
            key = hashlib.sha1(stdout.encode()).hexdigest()
            result["out"] = key
            if key not in seen:
                seen.add(key)
                (outputs / key).write_text(stdout, encoding="utf-8")
            after = probe()
            result["probe_s"] = (before + after) / 2
            before = after
            results.append(result)
        rounds.append(results)
        elapsed += sum(r["s"] for r in results)
        mean = elapsed / len(rounds)
        if len(rounds) >= job["max_rounds"]:
            break
        if len(rounds) >= job["min_rounds"] and elapsed + mean > job["seconds"]:
            break
    report = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        trace.write_spans(tracer, job["spans"])
        report["layers"] = trace.layer_metrics(tracer)
        report["module_self_s"] = trace.module_self_s(tracer)
        report["spans"] = len(tracer.spans)
    return report


def main(argv: list[str]) -> int:
    if argv == ["--ready"]:
        import weylconj.cli  # noqa: F401  (the import is what is timed)

        print("ready", flush=True)
        return 0
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    report = run_job(job)
    Path(job["out"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
