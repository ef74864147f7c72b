"""Per-layer metrics of one traced repetition.

Names follow `<layer>.<function>.<quantity>`. `.s` is inclusive time (the
span with its children), `.self_s` is self time (children excluded),
`.calls` and `.checks` are counts. Times and counts of a layer that a
workload does not call read 0. `problems.objective.computed_mb` is computed
from array sizes (rows, targets and x read once, the residual written once
per call), not measured.
"""

from __future__ import annotations

ORACLES = (
    "problems.sample_index",
    "problems.subgrad",
    "problems.prox_sample",
    "problems.prox_l1",
    "problems.project",
)
STEPS = ("solvers.ssgd_step", "solvers.prox_rm_step", "solvers.composite_step")

# (name, unit); counts must repeat exactly between runs of the same seed
METRICS = (
    ("rng.make_generator.calls", "count"),
    ("rng.make_generator.self_s", "s"),
    ("schedules.at.calls", "count"),
    ("schedules.at.self_s", "s"),
    ("schedules.values.self_s", "s"),
    ("problems.gen.s", "s"),
    ("problems.load_instance.s", "s"),
    ("problems.oracle.calls", "count"),
    ("problems.oracle.self_s", "s"),
    ("problems.oracle.us_per_call", "us"),
    ("problems.objective.calls", "count"),
    ("problems.objective.self_s", "s"),
    ("problems.objective.us_per_call", "us"),
    ("problems.objective.computed_mb", "MB"),
    ("solvers.step.calls", "count"),
    ("solvers.step.self_s", "s"),
    ("solvers.run.self_s", "s"),
    ("solvers.us_per_step", "us"),
    ("solvers.diverged_runs", "count"),
    ("solvers.useful_step_ratio", "ratio"),
    ("harness.parse_config.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.run_lemma_suite.self_s", "s"),
    ("harness.bytes_written", "bytes"),
    ("harness.files_written", "count"),
    ("diagnostics.synth_paths.s", "s"),
    ("diagnostics.supermartingale_check.self_s", "s"),
    ("diagnostics.supermartingale_check.checks", "count"),
    ("diagnostics.us_per_check", "us"),
    ("diagnostics.convergence_check.s", "s"),
    ("momentum_algebra.head_product.calls", "count"),
    ("momentum_algebra.head_product.self_s", "s"),
    ("momentum_algebra.companion_matrix.calls", "count"),
    ("momentum_algebra.tail_coefficients.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
)
COUNTS = tuple(name for name, unit in METRICS if unit == "count") + ("harness.bytes_written",)


def _per(total_s: float, count: int) -> float:
    """Microseconds per call."""
    return 1e6 * total_s / count if count else 0.0


def values(tracer, info: dict, instance_shape: tuple[int, int] | None) -> dict[str, float]:
    """Every metric except trace.overhead, from one repetition's aggregate."""
    t = tracer
    oracle_calls = t.calls(*ORACLES, parent_prefix="solvers.")
    oracle_self = t.self_s(*ORACLES, parent_prefix="solvers.")
    objective_calls = t.calls("problems.objective")
    objective_self = t.self_s("problems.objective")
    step_calls = t.calls(*STEPS)
    checks = info.get("checks", 0)
    attempted = info.get("attempted_steps", 0)
    if instance_shape is None:
        objective_mb = 0.0
    else:
        m, n = instance_shape
        objective_mb = objective_calls * 8 * (m * n + 2 * m + n) / 1e6
    return {
        "rng.make_generator.calls": t.calls("rng.make_generator"),
        "rng.make_generator.self_s": t.self_s("rng.make_generator"),
        "schedules.at.calls": t.calls("schedules.at"),
        "schedules.at.self_s": t.self_s("schedules.at"),
        "schedules.values.self_s": t.self_s("schedules.values"),
        "problems.gen.s": t.total_s("problems.gen"),
        "problems.load_instance.s": t.total_s("problems.load_instance"),
        "problems.oracle.calls": oracle_calls,
        "problems.oracle.self_s": oracle_self,
        "problems.oracle.us_per_call": _per(oracle_self, oracle_calls),
        "problems.objective.calls": objective_calls,
        "problems.objective.self_s": objective_self,
        "problems.objective.us_per_call": _per(objective_self, objective_calls),
        "problems.objective.computed_mb": objective_mb,
        "solvers.step.calls": step_calls,
        "solvers.step.self_s": t.self_s(*STEPS) + t.self_s("solvers.extrapolate", parent_prefix="solvers."),
        "solvers.run.self_s": t.self_s("solvers.run"),
        "solvers.us_per_step": _per(t.total_s(*STEPS), step_calls),
        "solvers.diverged_runs": info.get("diverged_runs", 0),
        "solvers.useful_step_ratio": info.get("useful_steps", 0) / attempted if attempted else 0.0,
        "harness.parse_config.s": t.total_s("harness.parse_config", "harness.parse_lemma_config"),
        "harness.run_experiment.self_s": t.self_s("harness.run_experiment"),
        "harness.run_lemma_suite.self_s": t.self_s("harness.run_lemma_suite"),
        "harness.bytes_written": info["bytes_written"],
        "harness.files_written": info["files_written"],
        "diagnostics.synth_paths.s": t.total_s("diagnostics.synth_paths"),
        "diagnostics.supermartingale_check.self_s": t.self_s("diagnostics.supermartingale_check"),
        "diagnostics.supermartingale_check.checks": checks,
        "diagnostics.us_per_check": _per(t.total_s("diagnostics.supermartingale_check"), checks),
        "diagnostics.convergence_check.s": t.total_s(
            "diagnostics.convergence_check", "diagnostics.summability_check"
        ),
        "momentum_algebra.head_product.calls": t.calls("momentum_algebra.head_product"),
        "momentum_algebra.head_product.self_s": t.self_s("momentum_algebra.head_product"),
        "momentum_algebra.companion_matrix.calls": t.calls("momentum_algebra.companion_matrix"),
        "momentum_algebra.tail_coefficients.s": t.total_s("momentum_algebra.tail_coefficients"),
        "cli.main.self_s": t.self_s("cli.main"),
    }
