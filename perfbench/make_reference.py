#!/usr/bin/env python3
"""Write ``perfbench/reference.json``: the expected output digests per seed.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0-63

For every workload and seed this runs the set-up and one task, exactly
as ``run.py`` does, and stores the digest of its outputs together with
the fingerprint of the NumPy/OpenBLAS build and CPU features it ran on.
``run.py`` compares against a stored digest only when the fingerprint
matches, since bitwise float results may differ across BLAS kernels.
Regenerate it only in a change that means to alter the program's
outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = ap.parse_args(argv)
    run.pin_threads()
    run.import_program()
    from workloads import WORKLOADS

    digests = {name: {} for name in WORKLOADS}
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for name, workload in WORKLOADS.items():
            state = workload.setup(seed, str(run.OUT_DIR))
            digests[name][str(seed)] = workload.digest(state, workload.task(state, lambda: None))
        print(f"seed {seed}: {', '.join(str(d[str(seed)]) for d in digests.values())}",
              file=sys.stderr)
    out = run.HERE / "reference.json"
    out.write_text(json.dumps({"fingerprint": run.fingerprint(), "digests": digests},
                              indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
