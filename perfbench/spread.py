"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10]

Runs the benchmark once per seed (1, 2, ...) with the
run length and command from BENCHMARK.json, then prints for each end-to-end
metric its median, the distance between the first and third quartiles as a
share of the median, and that share as a fraction of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / median
        print(
            f"{metric['name']:<14} median {median:<14.6g} spread {share:.4f} "
            f"bound {metric['bound']} ({share / metric['bound']:.2f} of it)"
        )


if __name__ == "__main__":
    main()
