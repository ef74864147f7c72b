"""Child process of the benchmark: write a workload's inputs or time its set-up.

    python3 perfbench/probe.py prepare WORKLOAD SEED
    python3 perfbench/probe.py setup WORKLOAD SEED

`setup` performs the workload's set-up and then prints `ready`; the parent
times the interval from starting this process to reading that line. Run from
the checkout root, with the package source on PYTHONPATH.
"""

import sys

from workloads import WORKLOADS


def main() -> None:
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    workload = WORKLOADS[name](seed)
    if mode == "prepare":
        workload.prepare()
    else:
        workload.setup()
        print("ready", flush=True)


if __name__ == "__main__":
    main()
