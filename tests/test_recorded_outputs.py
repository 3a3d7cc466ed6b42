"""The benchmark's recorded outputs hold for the code under test.

perfbench/expected.json records the digest of every query's output at
the default seed.  Each workload is built at that seed and full size,
every query runs once and passes its own check, and its name and digest
must match the record.  The workload module is loaded by path, so this
test reads the benchmark without changing or running its harness.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
RECORDED = json.loads((PERFBENCH / "expected.json").read_text())["full"]


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_recorded_outputs_at_the_default_seed(workload):
    queries = WORKLOADS.build(workload, WORKLOADS.DEFAULT_SEED, "full")
    recorded = RECORDED[workload]
    assert len(queries) == len(recorded)
    for q in queries:
        raw = q.call()
        if q.check is not None:
            q.check(raw)
        assert [q.name, WORKLOADS.digest(q.render(raw))] == recorded[str(q.qid)], q.qid
