"""Benchmark of the nagsa package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads are described in `workloads.py` and README.md.

With `--trace 0` the end-to-end metrics are measured with tracing off:

    setup_s        median of seven timed set-ups, each in a fresh process
                   (interpreter start, imports, config parsing, instance
                   generation or loading)
    wall_ref       median time of the main operation (one bundle, one lemma
                   suite, one algebra table)
    unit_ref       median latency of the workload's inner unit of work
    work_per_ref   solver steps inside solvers.run (sweeps), branch checks
                   per suite (lemma suite), table rows (algebra), per unit
                   of time
    peak_rss_mb    peak resident memory of this process

Times in `ref` are multiples of the reference kernel's time measured around
each unit (reference.py), which cancels most of the drift in machine speed;
the seconds as measured, the tail latency and its percentile are in the run
record under `as_measured`.

With `--trace 1`, untraced and traced repetitions alternate; the traced ones
wrap every public function of the package (see spans.py) and give the
per-layer metrics of layers.py plus `trace.overhead`.

Repetitions run until the next one would end after `--seconds`, and at
least the workload's minimum count. Every repetition's output is checked;
failed repetitions count in `failed`. The last line of standard output is
the JSON result; a fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import BLAS_ENV, BLAS_THREADS, record

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench/out")
SETUP_SAMPLES = 7
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("unit_ref", "ref"),
    ("work_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)
# the names of the as-measured unit and rate figures of each workload
UNIT_NAMES = {
    "sweep-lsq": ("solve_ms", "steps_per_s"),
    "sweep-lad": ("solve_ms", "steps_per_s"),
    "lemma-suite": ("scenario_ms", "checks_per_s"),
    "algebra-table": ("table_ms", "rows_per_s"),
}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest grid percentile with >= 10 samples beyond."""
    for p in reversed(PERCENTILES):
        if len(values) * (1 - p / 100) >= 10:
            return p, percentile(values, p)
    return 100.0, max(values)


def child(mode: str, workload: str, seed: int) -> list[str]:
    return [sys.executable, "perfbench/probe.py", mode, workload, str(seed)]


def time_setup(workload: str, seed: int, env: dict) -> float:
    started = time.perf_counter()
    with subprocess.Popen(
        child("setup", workload, seed), stdout=subprocess.PIPE, env=env, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def measure(wl, seconds: float, tracer=None) -> list[dict]:
    """Repetitions of the main operation; with a tracer every second one is traced."""
    import layers
    from reference import Speed
    from workloads import clear

    reps: list[dict] = []
    kernel = wl.reference_kernel()
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        index = len(reps)
        traced = tracer is not None and index % 2 == 1
        rep_dir = OUT / "work" / wl.name / f"rep{index}"
        clear(rep_dir)
        gc.collect()
        speed = Speed(kernel)
        if tracer is None:
            wl.begin_rep(speed)  # a sample before every unit
        else:
            wl.begin_rep()  # samples around the operation only, outside all spans
            speed.sample()
        if traced:
            tracer.reset(index)
            tracer.install()
            wl.reparse()
        failure = result = None
        op_started = time.perf_counter()
        try:
            result = wl.op(rep_dir)
        except Exception as exc:  # a raising operation is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - op_started
        if traced:
            tracer.uninstall()
        if failure is None:
            failure = wl.check(rep_dir, result)
        rep = {"index": index, "traced": traced, "seconds": elapsed, "units": wl.units, "failure": failure}
        if tracer is None:
            rep["seconds"] -= speed.spent  # reference samples taken inside the operation
            speed.sample()
            rep.update(normalise(rep, speed))
        else:
            speed.sample()
            rep["ref_wall"] = elapsed / speed.around(0)
        if failure is None:
            rep["info"] = wl.rep_info(rep_dir, result)
            if traced:
                rep["layers"] = layers.values(tracer, rep["info"], wl.instance_shape())
                rep["edges"] = tracer.edges()
        reps.append(rep)
        if rep_dir != wl.first_dir:
            shutil.rmtree(rep_dir, ignore_errors=True)

        done = len(reps) >= (2 if tracer is not None else wl.min_reps)
        same_kind = [r["seconds"] for r in reps if r["traced"] == (tracer is not None and not traced)]
        upcoming = statistics.median(same_kind) if same_kind else elapsed
        now = time.perf_counter()
        if done and now + upcoming > deadline:
            return reps
        if now - started > 150:
            return reps


def normalise(rep: dict, speed) -> dict:
    """Unit and operation times as multiples of the reference kernel's time.

    A unit is divided by the mean of the samples taken just before and just
    after it; the rest of the operation (CSV writes, instance load, dispatch)
    by the mean of all the repetition's samples.
    """
    units = [s / speed.around(ref) for s, _, ref in rep["units"]]
    rest = rep["seconds"] - sum(s for s, _, _ in rep["units"])
    mean_ref = statistics.fmean(speed.samples)
    return {
        "ref_units": units,
        "ref_wall": sum(units) + rest / mean_ref,
        "ref_s": mean_ref,
        "ref_samples": speed.samples,
    }


def end_to_end(wl, reps: list[dict], setup_samples: list[float]) -> tuple[dict, dict]:
    good = [r for r in reps if r["failure"] is None]
    if not good:
        return {}, {}
    ref_units = [u for r in good for u in r["ref_units"]]
    work = sum(w for r in good for _, w, _ in r["units"])
    if wl.name == "lemma-suite":
        base = sum(r["ref_wall"] for r in good)  # suite time, CSV writes included
    else:
        base = sum(ref_units)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_ref": statistics.median(r["ref_wall"] for r in good),
        "unit_ref": statistics.median(ref_units),
        "work_per_ref": work / base,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    latencies = [1e3 * s for r in good for s, _, _ in r["units"]]
    tail_p, tail_ms = tail(latencies)
    unit_name, rate_name = UNIT_NAMES[wl.name]
    seconds = sum(r["seconds"] for r in good) if wl.name == "lemma-suite" else sum(latencies) / 1e3
    detail = {
        "unit": wl.unit,
        "work": wl.work,
        "same_as": {
            "wall_ref": "wall_s in reference-kernel times",
            "unit_ref": f"{unit_name}.p50 in reference-kernel times",
            "work_per_ref": f"{rate_name} per reference-kernel time",
        },
        "reference_kernel_s": statistics.median(r["ref_s"] for r in good),
        "setup_samples_s": setup_samples,
        "as_measured": {
            "wall_s.p50": statistics.median(r["seconds"] for r in good),
            f"{unit_name}.p50": percentile(latencies, 50),
            f"{unit_name}.tail": tail_ms,
            "tail_percentile": tail_p,
            "unit_samples": len(latencies),
            rate_name: work / seconds,
        },
        "wall_samples_s": [r["seconds"] for r in good],
        "unit_samples_s": [[s for s, _, _ in r["units"]] for r in good],
        "reference_samples_s": [r["ref_samples"] for r in good],
    }
    return values, detail


def per_layer(reps: list[dict]) -> tuple[dict, str | None]:
    import layers

    traced = [r for r in reps if r["traced"] and r["failure"] is None]
    plain = [r["ref_wall"] for r in reps if not r["traced"] and r["failure"] is None]
    if not traced or not plain:
        return {}, "no successful traced and untraced repetition pair"
    values = {}
    failure = None
    for name, _ in layers.METRICS[:-1]:
        samples = [r["layers"][name] for r in traced]
        if name in layers.COUNTS:
            if len(set(samples)) > 1:
                failure = f"count {name} differs between repetitions: {samples}"
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead"] = (
        statistics.median(r["ref_wall"] for r in traced) / statistics.median(plain) - 1.0
    )
    return values, failure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nagsa" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'nagsa'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for name in BLAS_ENV:  # before numpy is imported here or in a child
        os.environ[name] = BLAS_THREADS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, WORK

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in declared["end_to_end"]] != [n for n, _ in END_TO_END] or [
        m["name"] for m in declared["per_layer"]
    ] != [n for n, _ in layers.METRICS]:
        print("perfbench: BENCHMARK.json metrics differ from the ones measured", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    result_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    for path in (WORK / wl.name, result_dir):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    try:
        subprocess.run(child("prepare", wl.name, args.seed), env=env, check=True, timeout=120)
        setup_samples = []
        if not args.trace:
            setup_samples = [time_setup(wl.name, args.seed, env) for _ in range(SETUP_SAMPLES)]
        wl.setup()
        wl.install_timer()
        tracer = Tracer() if args.trace else None
        reps = measure(wl, args.seconds, tracer)
        final_failure = wl.final_check()
        if final_failure is not None:
            first_good = next(r for r in reps if r["failure"] is None)
            first_good["failure"] = f"final check: {final_failure}"
        detail = {
            "args": vars(args),
            "machine": record(ROOT),
            "working_set": wl.working_set(),
            "repetitions": [
                {k: r[k] for k in ("index", "traced", "seconds", "failure")} for r in reps
            ],
        }
        if args.trace:
            metrics, count_failure = per_layer(reps)
            if count_failure:
                reps[-1]["failure"] = reps[-1]["failure"] or count_failure
            units = dict(layers.METRICS)
            last_traced = [r for r in reps if r["traced"] and r["failure"] is None]
            detail["edges"] = last_traced[-1]["edges"] if last_traced else []
            tracer.write(result_dir / "spans.jsonl")
        else:
            metrics, extra = end_to_end(wl, reps, setup_samples)
            units = dict(END_TO_END)
            detail.update(extra)
    finally:
        shutil.rmtree(WORK / wl.name, ignore_errors=True)

    failed = sum(r["failure"] is not None for r in reps)
    output = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    detail["result"] = output
    detail["fail_rate"] = failed / len(reps)
    (result_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    for r in reps:
        if r["failure"]:
            print(f"repetition {r['index']} failed: {r['failure']}", file=sys.stderr)
    width = max(len(n) for n in units)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:<{width}}  {metrics[name]:>16.6g}  {unit}", file=sys.stderr)
    print(f"fail_rate {detail['fail_rate']:g} ({failed}/{len(reps)}); record in {result_dir}", file=sys.stderr)
    if len(output["metrics"]) != len(units):
        print("perfbench: no successful repetition to measure", file=sys.stderr)
        return 1
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
