"""Benchmark of mgs: exact queries, timed end to end and traced by layer.

    python3 perfbench/run.py --workload radii-words --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; ``mgs`` is imported from ``src``.  The
load is a closed loop with one client: queries run one after another in
one process.  Every process is a fresh interpreter started by this
script, one at a time:

- ``--trace 0``: ``SETUP_RUNS - 1`` children only set up, half before
  and half after one more that sets up and then runs the timed pass: whole rounds of the workload's
  query slots.  A slot's latency is the median of its timed runs; the last
  line of stdout holds ``queries_per_s`` (slots ÷ the sum of their
  latencies), ``latency_p50_ms`` and ``latency_p90_ms`` (over the slots),
  ``setup_s`` (median of the set-ups) and ``peak_rss_mb``.
- ``--trace 1``: one child runs one untraced round and another runs the
  same round with every mgs function wrapped (see ``tracing.py``); the
  last line holds the per-layer metrics of the traced round.

Outputs are checked (see ``workloads.py``); any failed or wrong query
makes the run exit 1.  ``--smoke`` shrinks every workload to a few
cheap queries, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
TOTAL_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def spawn(options, deadline):
    """Run one worker; returns (set-up seconds, its JSON result).

    Set-up is timed from the start of the process to its ``ready`` line.
    """
    cmd = [sys.executable, "-I", "-S", str(HERE / "worker.py"), json.dumps(options)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    out = b""
    setup_s = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise ChildFailed("worker ran past the time limit")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
                if setup_s is None and b"\n" in out:
                    setup_s = time.perf_counter() - start
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise ChildFailed(f"worker exited {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def end_to_end(options, deadline, runs):
    # Set-up runs before and after the pass, so that their median does
    # not hang on the machine's speed at one moment.
    setups = [spawn(dict(options, mode="setup"), deadline)[0] for _ in range(runs // 2)]
    setup_s, result = spawn(dict(options, mode="pass"), deadline)
    setups.append(setup_s)
    setups += [spawn(dict(options, mode="setup"), deadline)[0] for _ in range(runs - len(setups))]
    # Each slot of the round ran once per round; its latency is the median
    # of those runs.  On a shared machine the fastest run of a slot swings
    # with short bursts of CPU speed, while the median stays put.
    q = result["queries_per_round"]
    lat = result["latencies"]
    slot = [statistics.median(lat[i::q]) for i in range(q)]
    metrics = {
        "queries_per_s": (q / sum(slot), "1/s"),
        "latency_p50_ms": (statistics.median(slot) * 1000.0, "ms"),
        "latency_p90_ms": (statistics.quantiles(slot, n=10)[8] * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    print(
        f"{options['workload']} seed {options['seed']}: {q} query slots, each timed "
        f"{len(lat) // q} times; {len(setups)} set-ups"
    )
    return result, metrics


def per_layer(options, deadline):
    _, plain = spawn(dict(options, mode="round"), deadline)
    _, traced = spawn(
        dict(options, mode="round", traced=True, untraced_qps=plain["queries_per_s"]), deadline
    )
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["errors"] += plain["errors"]
    return traced, traced["trace"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mgs" / "__init__.py").is_file():
        print(f"error: no mgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TOTAL_LIMIT_S
    options = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
    }
    try:
        if args.trace:
            result, metrics = per_layer(options, deadline)
        else:
            result, metrics = end_to_end(options, deadline, 1 if args.smoke else SETUP_RUNS)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    failed, attempted = result["failed"], result["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
