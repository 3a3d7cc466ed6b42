"""Tests of the benchmark itself, on the tiny smoke sizes.

    python3 -m pytest perfbench        # or: python3 -m unittest discover perfbench

They run ``run.py`` from the root of the checkout, check the result
line against BENCHMARK.json, and check that a wrong output, a corrupted
recorded output and a missing program each make the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, root=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path):
    """A checkout that holds only BENCHMARK.json and the benchmark."""
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


class EndToEnd(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        names = {m["name"] for m in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            proc = run("--workload", workload)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_line(proc)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(set(result["metrics"]), names)
            for metric in BENCH["end_to_end"]:
                reported = result["metrics"][metric["name"]]
                self.assertEqual(reported["unit"], metric["unit"])
                self.assertGreater(reported["value"], 0)

    def test_trace_reports_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            proc = run("--workload", workload, "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = result_line(proc)["metrics"]
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, names)

    def test_second_seed_passes_the_independent_checks(self):
        for workload in WORKLOADS:
            proc = run("--workload", workload, "--seed", "2")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(result_line(proc)["correct"])


class Gates(unittest.TestCase):
    def test_corrupted_recorded_output_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            copy_checkout(tmp)
            (tmp / "src").symlink_to(ROOT / "src")
            path = tmp / "perfbench" / "expected.json"
            recorded = json.loads(path.read_text())
            entry = recorded["smoke"]["markings"]["0"]
            entry[1] = "0" * len(entry[1])
            path.write_text(json.dumps(recorded))
            proc = run("--workload", "markings", root=tmp)
            self.assertEqual(proc.returncode, 1)
            self.assertFalse(result_line(proc)["correct"])
            self.assertIn("differs from the recorded", proc.stderr)

    def test_missing_program_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(Path(tmp))
            proc = run("--workload", "radii-words", root=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)

    def test_wrong_outputs_fail_their_checks(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import workloads
        from worker import checked_round

        for workload in WORKLOADS:
            queries = workloads.build(workload, workloads.DEFAULT_SEED, "smoke")
            checked = [q for q in queries if q.check is not None]
            self.assertTrue(checked, workload)
            for q in checked:
                good = q.call()
                q.call = lambda good=good: _corrupt(good)
            _, _, errors = checked_round(checked, None)
            self.assertEqual(len(errors), len(checked), f"{workload}: {errors}")


def _corrupt(result):
    """A plausible but wrong version of a query result."""
    kind = type(result).__name__
    if isinstance(result, str):
        if not result.startswith("{"):
            return result + "\n"
        payload = json.loads(result)
        if "agreement_radius" in payload:
            payload["agreement_radius"] += 1
        elif "radii" in payload:
            payload["radii"][0] += 1
        else:
            payload["r_max"] += 1
        return json.dumps(payload, indent=2)
    if isinstance(result, tuple) and len(result) == 2:  # (radius, witness)
        return result[0] + 1, result[1]
    if isinstance(result, tuple):  # (table, sentence, verdict)
        table, sentence, verdict = result
        # the identity assignment falsifies none of the workload's sentences
        return table, sentence, type(verdict)(False, (0,) * sentence.variables)
    if isinstance(result, list):  # automorphisms or marking classes
        return result[:-1]
    if kind == "AccumulationWitness":
        return replace(result, report=replace(result.report, verdict="refuted"))
    if kind == "RelationBall":
        return SimpleNamespace(relations=result.relations + (type(result.relations[0])((1,), result.arity),))
    if kind == "FiniteGroupTable":
        return replace(result, rows=result.rows[1:] + result.rows[:1])
    if kind == "DihedralRecognition":
        return replace(result, kind="no")
    if result is None:  # no equivalence: claim the identity carries one to the other
        from mgs.classify import DihAutomorphism

        return DihAutomorphism.identity(2)
    return None


if __name__ == "__main__":
    unittest.main()
