"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py --workload schemes-fp --seeds 0-15

Runs every pass of a digest-checked workload for each seed, refuses to
record a pass whose outputs fail their checks, and stores the digests in
``perfbench/digests.json`` under the workload's name.  Record again only
for a change that is meant to alter the mathematical output: a kernel
rewrite must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def record(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name](seed, {})
    digests = []
    for k, inputs in enumerate(workload.passes):
        outputs = [workload.op(x) for x in inputs]
        problems = [u for u in workload.check_outputs(outputs) if u is not None]
        if problems:
            raise SystemExit(f"{name} seed {seed} pass {k}: {problems}")
        digests.append(workload.digest(k, outputs))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    run.load_package()
    table = {str(seed): record(args.workload, seed) for seed in range(first, last + 1)}
    path = run.HERE / "digests.json"
    recorded = json.loads(path.read_text())
    recorded[args.workload] = table
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
