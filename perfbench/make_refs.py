"""Regenerate refs.json, the stored output hashes the benchmark checks against.

    python3 perfbench/make_refs.py

Runs each workload that writes files once at its default seed and at its
held-out seed, from the checkout root, and stores the sha256 tree hash of the
output. Regenerate only for a change that is meant to alter output bytes, and
say so in that change.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    os.chdir(ROOT)
    from machine import BLAS_ENV, BLAS_THREADS

    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from workloads import WORK, WORKLOADS, clear

    refs = {}
    for name in ("sweep-lsq", "sweep-lad", "lemma-suite"):
        cls = WORKLOADS[name]
        refs[name] = {}
        for seed in (cls.default_seed, cls.held_out_seed):
            wl = cls(seed)
            wl.prepare()
            wl.setup()
            out = WORK / name / "ref"
            clear(out)
            wl.op(out)
            refs[name][str(seed)] = checks.tree_hash(out)
            print(name, seed, refs[name][str(seed)], flush=True)
        clear(WORK / name)
    checks.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
