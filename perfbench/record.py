"""Record the outputs of the default seed into ``expected.json``.

    python3 perfbench/record.py

Run once on the commit whose outputs are the reference.  Every query
must pass its independent checks first; the digests of the canonical
outputs are then stored per size, workload and query, and every later
run with the default seed must reproduce them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from worker import checked_round

    recorded = {}
    for size in workloads.SIZES:
        recorded[size] = {}
        for name in workloads.WORKLOADS:
            queries = workloads.build(name, workloads.DEFAULT_SEED, size)
            _, digests, errors = checked_round(queries, None)
            if errors:
                for error in errors:
                    print(f"FAILED {name}: {error}", file=sys.stderr)
                return 1
            recorded[size][name] = {str(q.qid): [q.name, digests[q.qid]] for q in queries}
            print(f"{size} {name}: {len(queries)} queries recorded")
    text = json.dumps({"seed": workloads.DEFAULT_SEED, **recorded}, indent=1, sort_keys=True)
    (HERE / "expected.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
