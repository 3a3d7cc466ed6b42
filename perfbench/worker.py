"""One fresh interpreter of the benchmark: set-up, then one kind of pass.

Started by ``run.py`` as ``python -I -S worker.py '<json options>'``.  It
imports ``mgs`` from the checkout's ``src``, builds the workload, prints
``ready`` as soon as the first query could run (the parent times set-up
up to that line), then does what ``mode`` asks and prints one JSON line:

- ``setup``: nothing more.
- ``pass``: a first round with every check, then rounds whose outputs
  must match it, one query after another, until ``seconds`` of query
  time have passed and at least ``MIN_ROUNDS`` rounds were timed.
- ``round``: exactly one round, traced or not, for the per-layer run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 5
HARD_LIMIT_S = 120.0


def main(options):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import mgs  # noqa: F401  (set-up includes the import)

    tracer = None
    if options.get("traced"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    queries = workloads.build(options["workload"], options["seed"], options["size"])
    print("ready", flush=True)
    mode = options["mode"]
    if mode == "setup":
        return {}
    expected = None
    if options["seed"] == workloads.DEFAULT_SEED:
        recorded = json.loads((HERE / "expected.json").read_text())
        expected = recorded[options["size"]][options["workload"]]
    if mode == "round":
        result = run_round(queries, expected, tracer)
        if tracer is not None:
            result["trace"] = tracer.metrics(result["queries_per_s"], options["untraced_qps"])
        return result
    return run_pass(queries, expected, options["seconds"])


def run_query(query, tracer=None):
    """Time one query; returns (seconds, raw result or None, error or None)."""
    if tracer is not None:
        tracer.begin(query.qid)
    start = time.perf_counter()
    try:
        raw = query.call()
        error = None
    except Exception as exc:  # a failed query is counted, not fatal
        raw, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return elapsed, raw, error


def checked_round(queries, expected, tracer=None):
    """One round with every check; returns (latencies, digests, errors).

    A traced round skips the independent checks, whose own calls into mgs
    would otherwise be traced; its digests are still compared.
    """
    import workloads

    latencies, digests, errors = [], {}, []
    for q in queries:
        elapsed, raw, error = run_query(q, tracer)
        latencies.append(elapsed)
        if error is None:
            try:
                if q.check is not None and tracer is None:
                    q.check(raw)
                digests[q.qid] = workloads.digest(q.render(raw))
            except Exception as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is None and expected is not None:
            want = expected.get(str(q.qid))
            got = [q.name, digests[q.qid]]
            if want != got:
                error = f"output {got} differs from the recorded {want}"
        if error is not None:
            errors.append(f"query {q.qid} ({q.name}): {error}")
    if expected is not None and len(expected) != len(queries):
        errors.append(f"{len(queries)} queries, but {len(expected)} recorded outputs")
    return latencies, digests, errors


def run_round(queries, expected, tracer=None):
    latencies, _, errors = checked_round(queries, expected, tracer)
    return {
        "errors": errors,
        "attempted": len(queries),
        "failed": len(errors),
        "queries_per_s": len(latencies) / sum(latencies),
    }


def run_pass(queries, expected, seconds):
    """A first round with every check, then rounds compared to it.

    Every round is timed, the first too: a slot's reported latency is the
    median of at least ``MIN_ROUNDS`` runs, so one cold run does not
    move it.  Only query
    latencies count towards ``seconds``; the harness's own digests and
    checks between queries are not timed.
    """
    import workloads

    latencies, digests, errors = checked_round(queries, expected)
    attempted, failed = len(queries), len(errors)
    timed = sum(latencies)
    deadline = time.perf_counter() + HARD_LIMIT_S
    wanted = MIN_ROUNDS * len(queries)
    while (timed < seconds or len(latencies) < wanted) and time.perf_counter() < deadline:
        for q in queries:
            elapsed, raw, error = run_query(q)
            latencies.append(elapsed)
            timed += elapsed
            attempted += 1
            if error is None and q.qid in digests:
                if workloads.digest(q.render(raw)) != digests[q.qid]:
                    error = "output differs from the first round"
            elif error is None:
                error = "query failed in the first round"
            if error is not None:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"query {q.qid} ({q.name}): {error}")
    return {
        "latencies": latencies,
        "queries_per_round": len(queries),
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result), flush=True)
