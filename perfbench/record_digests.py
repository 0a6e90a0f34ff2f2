"""Record the input digests that ``run.py`` checks.

    python3 perfbench/record_digests.py FIRST LAST

Generates every workload's inputs for seeds FIRST..LAST and writes their
sha256 to ``perfbench/digests.json``, keeping the seeds recorded before.
Run it from the root of a checkout, and only when a change of the inputs
is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    path = HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    work_dir = ROOT / ".perfbench_work" / "record"
    try:
        for name in workloads.WORKLOADS:
            seeds = recorded.setdefault(name, {})
            for seed in range(first, last + 1):
                seeds[str(seed)] = workloads.Workload(name, seed, work_dir).digest
                print(name, seed, seeds[str(seed)], flush=True)
            recorded[name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
