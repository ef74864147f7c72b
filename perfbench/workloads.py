"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs, performs the
user-visible set-up (imports, config parsing, instance generation or
loading), runs one main operation per repetition and checks its outputs.

    sweep-lsq      preset lsq-ssgd, generated 2000x20 instance; seed -> problem.seed
    sweep-lad      preset lad-proxrm, 10000x100 instance read from a text dump
                   written before timing; seed -> problem.seed
    lemma-suite    lemmas = all at 200 paths x 2000 steps x 200 branches;
                   seed -> seed
    algebra-table  `nagsa algebra --family harmonic --s S --n 500` through
                   cli.main, with S = 1 + seed % 8

The defaults (10 for the sweeps, 1 for the other two) reproduce the presets.
Paths are relative to the checkout root, which is the working directory.

Every workload reports its inner units of work with their latencies: solver
runs (one per momentum and run seed) on the sweeps, scenario checks on the
lemma suite, whole tables on the algebra workload.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path

import checks
import reference
from machine import last_level_cache_bytes

WORK = Path("perfbench/out/work")


class Workload:
    name = ""
    default_seed = 1
    held_out_seed = 2
    min_reps = 1
    unit = ""
    work = ""

    def __init__(self, seed: int):
        self.seed = seed
        # (seconds, work, index of the reference sample taken just before) per unit
        self.units: list[tuple[float, int, int | None]] = []
        self.speed = None
        self.state = None
        self.first_hash: str | None = None
        self.first_dir: Path | None = None

    def prepare(self) -> None:
        """Write input files; runs in its own process before any timing."""

    def begin_rep(self, speed=None) -> None:
        self.units = []
        self.speed = speed

    def _sample(self) -> int | None:
        return self.speed.sample() if self.speed is not None else None

    def setup(self) -> None:
        raise NotImplementedError

    def reparse(self) -> None:
        """Parse the config again through the package (traced repetitions)."""

    def install_timer(self) -> None:
        """Time each inner unit of work at the package boundary."""

    def op(self, out_dir: Path):
        raise NotImplementedError

    def check(self, out_dir: Path, result) -> str | None:
        raise NotImplementedError

    def final_check(self) -> str | None:
        return None

    def rep_info(self, out_dir: Path, result) -> dict:
        files, size = checks.tree_size(out_dir)
        return {"files_written": files, "bytes_written": size}

    def working_set(self) -> dict:
        raise NotImplementedError

    def instance_shape(self) -> tuple[int, int] | None:
        return None

    def reference_kernel(self):
        raise NotImplementedError

    def _check_tree(self, out_dir: Path) -> str | None:
        digest = checks.tree_hash(out_dir)
        if self.first_hash is None:
            self.first_hash, self.first_dir = digest, out_dir
        elif digest != self.first_hash:
            return f"output tree {digest[:12]} differs from the first repetition's {self.first_hash[:12]}"
        return None

    def _check_reference(self) -> str | None:
        want = checks.reference_hash(self.name, self.seed)
        if want is not None and self.first_hash is not None and want != self.first_hash:
            return f"output tree {self.first_hash[:12]} differs from the stored reference {want[:12]}"
        return None


# ---------------------------------------------------------------------------
# solver sweeps


class Sweep(Workload):
    default_seed = 10
    held_out_seed = 11
    min_reps = 3
    unit = "solvers.run call"
    work = "solver steps"
    preset = ""
    instance: Path | None = None
    kernel_steps = 150  # reference-kernel steps, about 2-4 ms

    def config_text(self) -> str:
        text = f"preset = {self.preset}\nproblem.seed = {self.seed}\n"
        if self.instance is not None:
            text += f"instance = {self.instance.as_posix()}\n"
        return text

    def setup(self) -> None:
        from nagsa import harness, problems

        config = harness.parse_config(self.config_text())
        if self.instance is not None:
            inst = problems.load_instance(config.instance_path)
        else:
            inst = problems.gen(config.kind, config.m, config.n, config.problem_seed, lam=config.lam)
        self.state = (config, inst)

    def reparse(self) -> None:
        from nagsa import harness

        self.state = (harness.parse_config(self.config_text()), self.state[1])

    def begin_rep(self, speed=None) -> None:
        super().begin_rep(speed)
        self.diverged_runs = 0
        self.attempted_steps = 0
        self.useful_steps = 0

    def install_timer(self) -> None:
        from nagsa import harness, solvers

        def timed_run(config, inst):
            ref = self._sample()
            started = time.perf_counter()
            trace = solvers.run(config, inst)  # looked up per call, so tracing sees it
            elapsed = time.perf_counter() - started
            if trace.diverged:
                # steps k = 2 .. diverged_at - 1 ran; the last left the finite range
                attempted = trace.diverged_at - 2
                completed = attempted - 1
                self.diverged_runs += 1
            else:
                attempted = completed = config.iterations - 2
                self.useful_steps += attempted
            self.attempted_steps += attempted
            self.units.append((elapsed, completed, ref))
            return trace

        harness.run = timed_run

    def op(self, out_dir: Path):
        from nagsa import harness

        return harness.run_experiment(self.state[0], out_dir=str(out_dir))

    def check(self, out_dir: Path, bundle) -> str | None:
        groups = [g.label for g in bundle.groups]
        if groups != ["theta_0", "theta_0.5", "theta_0.9"]:
            return f"unexpected groups {groups}"
        for label in groups:
            for seed in range(1, 6):
                if not (out_dir / label / f"trace_seed{seed}.csv").is_file():
                    return f"missing {label}/trace_seed{seed}.csv"
            if not (out_dir / label / "summary.csv").is_file():
                return f"missing {label}/summary.csv"
        return self._check_tree(out_dir)

    def final_check(self) -> str | None:
        """Stored bundle hash, then one (theta, seed) trace recomputed independently."""
        failure = self._check_reference()
        if failure or self.first_dir is None:
            return failure
        config, inst = self.state
        run_seed = 1 + self.seed % 5
        expected = checks.recompute_trace(
            config.method,
            inst.rows,
            inst.targets,
            inst.reference_optimum,
            config.step.c,
            config.step.s,
            config.step.p,
            0.5,
            config.iterations,
            run_seed,
            config.stride,
        )
        return checks.compare_trace_csv(self.first_dir / "theta_0.5" / f"trace_seed{run_seed}.csv", expected)

    def rep_info(self, out_dir: Path, bundle) -> dict:
        info = super().rep_info(out_dir, bundle)
        info.update(
            diverged_runs=self.diverged_runs,
            attempted_steps=self.attempted_steps,
            useful_steps=self.useful_steps,
        )
        return info

    def instance_shape(self) -> tuple[int, int]:
        return self.state[1].rows.shape

    def reference_kernel(self):
        inst = self.state[1]
        return reference.solver_steps(self.state[0].method, inst.rows, inst.targets, self.kernel_steps)

    def working_set(self) -> dict:
        config, inst = self.state
        llc = last_level_cache_bytes()
        if llc is None:
            where = "last-level cache size unknown"
        elif inst.rows.nbytes <= llc:
            where = "fits in the last-level cache: the objective pass is not a DRAM-bandwidth measurement"
        else:
            where = "exceeds the last-level cache"
        return {
            "rows": f"{inst.m}x{inst.n} float64",
            "row_matrix_bytes": inst.rows.nbytes,
            "row_matrix": where,
            "targets_bytes": inst.targets.nbytes,
            "runs_per_bundle": len(config.momenta) * len(config.seeds),
            "steps_per_run": config.iterations - 2,
        }


class SweepLsq(Sweep):
    name = "sweep-lsq"
    preset = "lsq-ssgd"


class SweepLad(Sweep):
    name = "sweep-lad"
    preset = "lad-proxrm"
    instance = WORK / "sweep-lad" / "instance.txt"
    kernel_steps = 120

    def prepare(self) -> None:
        from nagsa import harness, problems

        config = harness.parse_config(self.config_text())
        inst = problems.gen(config.kind, config.m, config.n, config.problem_seed)
        self.instance.parent.mkdir(parents=True, exist_ok=True)
        problems.dump_instance(inst, self.instance)

    def working_set(self) -> dict:
        info = super().working_set()
        info["instance_file_bytes"] = self.instance.stat().st_size
        return info


# ---------------------------------------------------------------------------
# lemma suite


class LemmaSuite(Workload):
    name = "lemma-suite"
    min_reps = 6
    unit = "run_lemma_check scenario"
    work = "conditional-branch checks"
    paths, length, branches = 200, 2000, 200

    def config_text(self) -> str:
        return (
            f"lemmas = all\npaths = {self.paths}\nlength = {self.length}\n"
            f"branches = {self.branches}\nseed = {self.seed}\n"
        )

    def setup(self) -> None:
        from nagsa import harness

        self.state = harness.parse_lemma_config(self.config_text())

    def reparse(self) -> None:
        from nagsa import harness

        self.state = harness.parse_lemma_config(self.config_text())

    def install_timer(self) -> None:
        from nagsa import diagnostics, harness

        def timed_check(*args, **kwargs):
            ref = self._sample()
            started = time.perf_counter()
            report = diagnostics.run_lemma_check(*args, **kwargs)
            self.units.append((time.perf_counter() - started, report.checks, ref))
            return report

        harness.run_lemma_check = timed_check

    def op(self, out_dir: Path):
        from nagsa import harness

        return harness.run_lemma_suite(self.state, out_dir=str(out_dir))

    def check(self, out_dir: Path, result) -> str | None:
        reports, all_good = result
        passed = tuple(r.lemma_id for r in reports if r.passed)
        if not all_good or passed != checks.LEMMA_IDS:
            return f"PASS set {passed}, expected all of {checks.LEMMA_IDS}"
        return self._check_tree(out_dir)

    def final_check(self) -> str | None:
        return self._check_reference()

    def rep_info(self, out_dir: Path, result) -> dict:
        info = super().rep_info(out_dir, result)
        info["checks"] = sum(r.checks for r in result[0])
        return info

    def reference_kernel(self):
        return reference.branch_draws(60, self.branches)

    def working_set(self) -> dict:
        path_bytes = self.paths * self.length * 8
        return {
            "ensemble": f"{self.paths} paths x {self.length} steps float64",
            "path_array_bytes": path_bytes,
            "branches_per_probe": self.branches,
        }


# ---------------------------------------------------------------------------
# algebra table


class AlgebraTable(Workload):
    name = "algebra-table"
    min_reps = 40
    unit = "algebra table"
    work = "table rows"
    size = 500

    @property
    def s(self) -> int:
        return 1 + self.seed % 8

    def argv(self) -> list[str]:
        return ["algebra", "--family", "harmonic", "--s", str(self.s), "--n", str(self.size)]

    def setup(self) -> None:
        from nagsa import cli

        self.state = cli

    def op(self, out_dir: Path):
        buffer = io.StringIO()
        ref = self._sample()
        started = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = self.state.main(self.argv())
        self.units.append((time.perf_counter() - started, self.size, ref))
        return code, buffer.getvalue()

    def check(self, out_dir: Path, result) -> str | None:
        code, text = result
        if code != 0:
            return f"cli.main returned {code}"
        return checks.check_algebra_table(text, float(self.s), self.size)

    def rep_info(self, out_dir: Path, result) -> dict:
        return {"files_written": 0, "bytes_written": 0, "stdout_bytes": len(result[1])}

    def reference_kernel(self):
        return reference.matrix_products(800)

    def working_set(self) -> dict:
        return {"rows": self.size, "matrix_bytes_per_product": 32}


WORKLOADS = {cls.name: cls for cls in (SweepLsq, SweepLad, LemmaSuite, AlgebraTable)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)
