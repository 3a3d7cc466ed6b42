"""Run the benchmark on several seeds and summarize every end-to-end metric.

    python3 perfbench/baseline.py                      # 10 seeds, every workload
    python3 perfbench/baseline.py --seeds 5 --workload sentences
    python3 perfbench/baseline.py --write              # also store baseline.json

For each workload and metric this prints the median, the quartiles and
the spread, (Q3 - Q1) / median, beside the metric's bound in
BENCHMARK.json.  ``--write`` stores the medians and quartiles with the
commit, Python version, ``nproc`` and the workload sizes in
``baseline.json``, the reference a later change is compared against.
Runs are sequential; each is one call of ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or None
    except OSError:
        return None


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            start = time.perf_counter()
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s {values}", file=sys.stderr)
        summary[workload] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summarize(values)
            summary[workload][metric] = dict(s, unit=runs[0]["metrics"][metric]["unit"])
            flag = "" if s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:14s} {metric:16s} median {s['median']:12.6g} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f} bound {bound}{flag}"
            )
    if args.write:
        sys.path.insert(0, str(HERE))
        import workloads

        sys.path.insert(0, str(ROOT / "src"))
        sizes = {w: len(workloads.build(w, workloads.DEFAULT_SEED, "full")) for w in summary}
        payload = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "seeds": list(range(1, args.seeds + 1)),
            "queries_per_round": sizes,
            "metrics": summary,
        }
        (HERE / "baseline.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
