"""Record SHA-256 goldens of the data files a workload's pass writes.

    python3 perfbench/record_goldens.py --workload sweep --seeds 0-49

Run from the root of a checkout whose outputs are known good. It runs one
pass per seed exactly as ``run.py`` does and stores the hashes under
``goldens.json[workload][program seed]``, replacing the entries for those
seeds. ``run.py`` compares every pass at a recorded seed against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import run_pass
from workloads import GOLDENS, WORKLOADS, data_hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "simulate-large"))
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))

    root = Path.cwd()
    work = root / ".perfbench_work" / f"goldens-{args.workload}"
    recorded = {}
    try:
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = WORKLOADS[args.workload](seed, work)
            result = run_pass(root / "src", work, workload.calls(), trace=False)
            workload.golden = None
            errors = workload.check(result["calls"])
            if errors:
                raise SystemExit(f"seed {seed}: {errors[0]}")
            recorded[str(workload.seed)] = data_hashes(workload.out_dir)
            print(f"{args.workload} seed {seed}: {len(recorded[str(workload.seed)])} files", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    goldens = json.loads(GOLDENS.read_text())
    goldens.setdefault(args.workload, {}).update(recorded)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
