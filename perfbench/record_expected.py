#!/usr/bin/env python3
"""Record the committed reference outputs in ``perfbench/expected.json``.

    python3 perfbench/record_expected.py

For every workload and every seed in ``SEEDS`` this runs one setup +
rep and stores the exact outputs the benchmark checks each rep against.
Design-flow's outputs do not depend on the seed, so it is stored once,
under ``"any"``.  Record only at a commit whose outputs are trusted: a later
change that moves an exact output then fails the correctness check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import EXPECTED, normalized  # noqa: E402
from perfbench.workloads import WORKLOADS, DesignFlow  # noqa: E402

#: the seed the benchmark was tuned on, and the held-out one
TUNED_SEED = 1
HELD_OUT_SEED = 2
#: the seeds whose outputs are committed
SEEDS = range(64)


def main() -> int:
    document = {"tuned_seed": TUNED_SEED, "held_out_seed": HELD_OUT_SEED,
                "workloads": {}}
    for name, cls in WORKLOADS.items():
        seeds = ["any"] if cls is DesignFlow else list(SEEDS)
        entries = document["workloads"][name] = {}
        for seed in seeds:
            workload = cls(0 if seed == "any" else seed)
            entries[str(seed)] = normalized(
                workload.rep(workload.setup()).exact)
            print(f"{name} seed {seed}", flush=True)
    with open(EXPECTED, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
