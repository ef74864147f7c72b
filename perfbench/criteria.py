"""One-shot timing report of the acceptance criteria (not a benchmark workload).

    python3 perfbench/criteria.py

Runs every `test_criterion_N` node of tests/test_acceptance.py in its own
pytest process, from the checkout root with `src` on PYTHONPATH and the
environment's default BLAS threads, as the tier-1 test command does. Each
test's call time comes from pytest's junit XML and is set against the
wall-clock budget the test asserts. Over-budget criteria are reported as
they stand; nothing is gated. Writes perfbench/out/criteria.json.
"""

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BUDGET_S = {1: 1, 2: 5, 3: 60, 4: 30, 5: 60, 6: 60, 7: 60, 8: 5}


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    listing = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    nodes = [ln for ln in listing.splitlines() if "::test_criterion_" in ln]
    rows = []
    for node in nodes:
        number = int(re.search(r"test_criterion_(\d+)_", node).group(1))
        xml = OUT / f"criterion_{number}.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node, f"--junitxml={xml}"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        case = ET.parse(xml).getroot().find(".//testcase")
        seconds = float(case.get("time"))
        xml.unlink()
        rows.append(
            {
                "criterion": number,
                "node": node,
                "seconds": seconds,
                "budget_s": BUDGET_S[number],
                "over_budget": seconds >= BUDGET_S[number],
                "passed": proc.returncode == 0,
            }
        )
        print(
            f"criterion {number}: {seconds:8.2f} s of {BUDGET_S[number]:>3} s "
            f"{'OVER' if seconds >= BUDGET_S[number] else 'ok  '} "
            f"{'PASS' if proc.returncode == 0 else 'FAIL'}",
            flush=True,
        )
    (OUT / "criteria.json").write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
