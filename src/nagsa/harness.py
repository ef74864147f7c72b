"""Experiment harness: config parsing, presets, deterministic CSV bundles.

Configs are flat `key = value` text with `#` comments. A `preset` key expands
to a full explicit key set before execution; explicitly written keys override
the preset. Numeric values accept exact rational literals like `1/16`.

A run produces one directory per momentum setting, each holding per-seed
trace CSVs and a summary CSV. Every CSV starts with a `# key = value`
metadata block. Bundles are byte-identical across repeated invocations of
the same config: floats are written with 17 significant digits, lines end
with LF, and wall time goes to stderr rather than into any file.
"""

from __future__ import annotations

import math
import os
import re
import sys
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ._format import _fmt, _fmt_rows
from ._rng import RNG_ID
from .diagnostics import LEMMA_IDS, CheckReport, Scratch, _suite_fault, run_lemma_check
from .errors import _QUOTE_CHARS, ConfigurationError, _quote
from .problems import (
    ConstraintSet,
    ProblemInstance,
    _instance_fault,
    ball,
    box,
    dump_instance,
    gen,
    lasso_reference,
    load_instance,
    whole_space,
    with_reference,
)
from .schedules import MomentumSchedule, StepSchedule
from .solvers import (
    SolverConfig,
    SolverTrace,
    _checkpoint_fault,
    _pairing_fault,
    _settings_fault,
    run,
)

__all__ = [
    "PRESETS",
    "ExperimentConfig",
    "LemmaSuiteConfig",
    "RunResult",
    "ThetaGroup",
    "ResultBundle",
    "parse_config",
    "parse_lemma_config",
    "run_experiment",
    "run_lemma_suite",
    "plotdata",
]


_COMMON_PRESET = {
    "N": "20000",
    "seeds": "1,2,3,4,5",
    "problem.seed": "10",
    "step.family": "power",
    "step.s": "3",
    "step.p": "8/9",
    "mom.family": "constant",
    "mom.sweep": "0,0.5,0.9",
    "constraint": "none",
    "stride": "1.1",
    "init": "gaussian",
}

PRESETS: dict[str, dict[str, str]] = {
    "lsq-ssgd": {
        **_COMMON_PRESET,
        "method": "ssgd",
        "kind": "least_squares",
        "m": "2000",
        "n": "20",
        "step.c": "1/16",
    },
    "lsq-proxrm": {
        **_COMMON_PRESET,
        "method": "prox_rm",
        "kind": "least_squares",
        "m": "2000",
        "n": "20",
        "step.c": "1/16",
    },
    "lad-ssgd": {
        **_COMMON_PRESET,
        "method": "ssgd",
        "kind": "least_absolute",
        "m": "10000",
        "n": "100",
        "step.c": "1/2",
    },
    "lad-proxrm": {
        **_COMMON_PRESET,
        "method": "prox_rm",
        "kind": "least_absolute",
        "m": "10000",
        "n": "100",
        "step.c": "1/4",
    },
    "lasso": {
        **_COMMON_PRESET,
        "method": "composite",
        "kind": "lasso",
        "m": "10000",
        "n": "100",
        "step.c": "1/20",
        "lambda": "1",
        "composite.order": "explicit_first",
    },
}

_RUN_KEYS = frozenset(
    {
        "preset",
        "method",
        "kind",
        "m",
        "n",
        "lambda",
        "problem.seed",
        "N",
        "seeds",
        "step.family",
        "step.c",
        "step.s",
        "step.p",
        "mom.family",
        "mom.theta",
        "mom.c",
        "mom.s",
        "mom.p",
        "mom.sweep",
        "constraint",
        "stride",
        "init",
        "composite.order",
        "instance",
        "out",
    }
)

_REQUIRED_RUN_KEYS = ("method", "kind", "m", "n", "N", "seeds", "step.family", "mom.family")

_LEMMA_KEYS = frozenset(
    {"lemmas", "paths", "length", "branches", "seed", "control", "out"}
)


def _read_key_values(text: str, known: frozenset[str]) -> tuple[dict[str, str], dict[str, str]]:
    """Flat key = value lines; returns values and where each key came from
    ("line N")."""
    values: dict[str, str] = {}
    origins: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "\ufffd" in stripped:
            # a byte that is not UTF-8, read as U+FFFD: refused here, so a
            # path value is never silently rewritten
            raise ConfigurationError(
                f"line {lineno}: bytes that are not UTF-8 in {_quote(stripped)}"
            )
        if "=" not in stripped:
            raise ConfigurationError(
                f"line {lineno}: expected `key = value`, got {_quote(stripped)}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigurationError(f"line {lineno}: unknown key {_quote(key)}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigurationError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
        origins[key] = f"line {lineno}"
    return values, origins


# a plain decimal integer literal, read exactly by int()
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class _KeyedValues:
    """Effective config values with per-key provenance for error messages."""

    def __init__(self, values: dict[str, str], origins: dict[str, str], preset: str | None):
        self.values = values
        self.origins = origins
        self.preset = preset

    def where(self, key: str) -> str:
        return self.origins.get(key) or f"preset {self.preset!r}"

    def error(self, key: str, why: str, *others: str) -> ConfigurationError:
        """An error naming the lines (or overrides) of key and of others that
        gave a value, or key's origin when none of them did."""
        keys = (key, *others)
        where = ", ".join(self.where(k) for k in keys if k in self.origins) or self.where(key)
        return ConfigurationError(f"{where}: {why}")

    def refuse(self, fault: tuple[tuple[str, ...], str] | None) -> None:
        """Raise a fault (keys at fault, reason) of solvers, problems or
        diagnostics naming its lines."""
        if fault is not None:
            keys, why = fault
            raise self.error(keys[0], why, *keys[1:])

    def number(self, key: str, default: float | None = None) -> float:
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigurationError(f"missing required key {key!r}")
            return default
        try:
            return _parse_number(raw)
        except ValueError as exc:
            raise self.error(key, f"malformed number {_quote(raw)} ({exc})") from None

    def integer(self, key: str, default: int | None = None) -> int:
        """A plain decimal literal exactly; any other number only when it is
        integral and at most 2^53 in magnitude, where a float is exact."""
        raw = self.values.get(key)
        if raw is not None and _DECIMAL.fullmatch(raw):
            try:
                return int(raw)
            except ValueError:  # past int()'s digit limit
                limit = sys.get_int_max_str_digits()
                why = f"malformed integer {_quote(raw)} (more than {limit} digits)"
                raise self.error(key, why) from None
        value = self.number(key, default if default is None else float(default))
        if abs(value) > 2**53 or value != int(value):
            why = f"expected an integer (at most 2^53 unless written in digits), got {_quote(raw)}"
            raise self.error(key, why)
        return int(value)


def _float(text: str) -> float:
    """float(text); the error quotes a text longer than _QUOTE_CHARS not at
    all, as the message it ends up in quotes the literal already."""
    try:
        return float(text)
    except ValueError as exc:
        if len(text) <= _QUOTE_CHARS:
            raise
        raise ValueError("could not convert string to float") from exc


def _parse_number(token: str) -> float:
    """Finite decimal or exact rational literal like 8/9."""
    num_s, slash, den_s = token.partition("/")
    num = _float(num_s)
    den = _float(den_s) if slash else 1.0
    if den == 0:
        raise ValueError("zero denominator")
    value = num / den
    # a finite num / den with den = inf would hide the inf as 0
    if not (math.isfinite(den) and math.isfinite(value)):
        raise ValueError("not a finite number")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    kind: str
    m: int
    n: int
    lam: float
    problem_seed: int
    iterations: int
    seeds: tuple[int, ...]
    step: StepSchedule
    momenta: tuple[tuple[str, MomentumSchedule], ...]  # (group label, schedule)
    constraint: ConstraintSet
    stride: float
    init: str
    composite_order: str
    instance_path: str | None
    out: str | None
    echo: tuple[tuple[str, str], ...]  # expanded key set, sorted


@dataclass(frozen=True)
class LemmaSuiteConfig:
    lemmas: tuple[str, ...]
    paths: int
    length: int
    branches: int
    seed: int
    control: str | None
    out: str | None
    echo: tuple[tuple[str, str], ...]


def _fmt_theta(value: float) -> str:
    return format(value, "g")


def _parse_constraint(spec: str, kv: _KeyedValues) -> ConstraintSet:
    """The constraint set of spec; ball and box refuse their own bounds, and
    their refusal names the constraint line as a malformed spec does."""
    if spec == "none":
        return whole_space()
    if spec.startswith("ball:"):
        try:
            radius = _parse_number(spec[len("ball:"):])
        except ValueError:
            raise kv.error("constraint", f"malformed ball radius in {_quote(spec)}") from None
        make, bounds = ball, (radius,)
    elif spec.startswith("box:"):
        parts = spec[len("box:"):].split(":")
        if len(parts) != 2:
            raise kv.error("constraint", f"box needs lo:hi, got {_quote(spec)}")
        try:
            make, bounds = box, (_parse_number(parts[0]), _parse_number(parts[1]))
        except ValueError:
            raise kv.error("constraint", f"malformed box bounds in {_quote(spec)}") from None
    else:
        raise kv.error("constraint", f"unknown constraint {_quote(spec)} (none, ball:R, box:LO:HI)")
    try:
        return make(*bounds)
    except ConfigurationError as exc:
        raise kv.error("constraint", str(exc)) from None


def _override(
    values: dict[str, str],
    origins: dict[str, str],
    overrides: Mapping[str, str] | None,
    known: frozenset[str],
) -> None:
    """Give each key of overrides its value in place of the file's line for
    it (the CLI's --seed); an error about it names "override KEY". A key the
    file could not hold is refused, as its line would be."""
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigurationError(f"override {key}: unknown key {_quote(key)}")
        values[key] = value
        origins[key] = f"override {key}"


def parse_config(text: str, overrides: Mapping[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config, expanding any preset; a key
    of overrides takes the place of the file's line for it, echo included."""
    explicit, origins = _read_key_values(text, _RUN_KEYS)
    _override(explicit, origins, overrides, _RUN_KEYS)

    preset_name = explicit.pop("preset", None)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigurationError(
                f"{origins['preset']}: unknown preset {_quote(preset_name)} "
                f"(known: {', '.join(sorted(PRESETS))})"
            )
        effective = {**PRESETS[preset_name], **explicit}
    else:
        effective = dict(explicit)

    missing = [k for k in _REQUIRED_RUN_KEYS if k not in effective]
    if missing and "mom.sweep" in effective and "mom.family" in missing:
        missing.remove("mom.family")
    if missing:
        raise ConfigurationError(f"missing required keys: {', '.join(missing)}")

    kv = _KeyedValues(effective, origins, preset_name)

    method = effective["method"]
    iterations = kv.integer("N")
    stride = kv.number("stride", 1.1)
    init = effective.get("init", "gaussian")
    composite_order = effective.get("composite.order", "explicit_first")
    kv.refuse(_settings_fault(method, iterations, stride, composite_order, init))
    kv.refuse(_checkpoint_fault(iterations, stride))
    kind = effective["kind"]
    m = kv.integer("m")
    n = kv.integer("n")
    lam = kv.number("lambda", 0.0)
    kv.refuse(_instance_fault(kind, m, n, lam))
    problem_seed = kv.integer("problem.seed", 10)
    if problem_seed < 0:
        raise kv.error("problem.seed", f"problem.seed must be non-negative, got {problem_seed}")

    seeds_raw = effective["seeds"]
    try:
        seeds = tuple(int(tok.strip()) for tok in seeds_raw.split(","))
    except ValueError:
        raise kv.error("seeds", f"malformed seed list {_quote(seeds_raw)}") from None
    if not seeds or any(s < 0 for s in seeds):
        raise kv.error("seeds", "seeds must be non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise kv.error("seeds", "duplicate seeds")

    # the numbers are read before the schedule is built, so a malformed one
    # names its own line
    step_c = kv.number("step.c")
    step_s = kv.number("step.s", 0.0)
    step_p = kv.number("step.p", 0.0)
    try:
        step = StepSchedule(family=effective["step.family"], c=step_c, s=step_s, p=step_p)
    except ValueError as exc:
        raise kv.error("step.family", f"invalid step schedule: {exc}") from None

    sweep_raw = effective.get("mom.sweep")
    momenta: list[tuple[str, MomentumSchedule]] = []
    if sweep_raw is not None:
        if effective.get("mom.family", "constant") != "constant":
            raise kv.error("mom.sweep", "momentum sweeps require mom.family = constant")
        if "mom.theta" in effective:
            raise kv.error("mom.theta", "give either mom.theta or mom.sweep, not both")
        try:
            sweep_values = [_parse_number(tok) for tok in sweep_raw.split(",")]
        except ValueError:
            raise kv.error("mom.sweep", f"malformed sweep list {_quote(sweep_raw)}") from None
        if len(set(sweep_values)) != len(sweep_values):
            raise kv.error("mom.sweep", "duplicate sweep values")
        for value in sweep_values:
            try:
                schedule = MomentumSchedule(family="constant", theta=value)
            except ValueError as exc:
                raise kv.error("mom.sweep", f"invalid momentum value {value!r}: {exc}") from None
            momenta.append((f"theta_{_fmt_theta(value)}", schedule))
    else:
        family = effective["mom.family"]
        try:
            schedule = MomentumSchedule(
                family=family,
                theta=kv.number("mom.theta", 0.0),
                c=kv.number("mom.c", 0.0),
                s=kv.number("mom.s", 0.0),
                p=kv.number("mom.p", 0.0),
            )
        except ValueError as exc:
            why = f"invalid momentum schedule: {exc}"
            raise kv.error("mom.family", why, "mom.theta", "mom.c", "mom.s", "mom.p") from None
        if family == "constant":
            label = f"theta_{_fmt_theta(schedule.theta)}"
        else:
            label = f"theta_{family}"
        momenta.append((label, schedule))

    constraint = _parse_constraint(effective.get("constraint", "none"), kv)
    kv.refuse(_pairing_fault(method, kind, constraint.kind))

    echo = dict(effective)
    if preset_name is not None:
        echo["preset"] = preset_name

    return ExperimentConfig(
        method=method,
        kind=kind,
        m=m,
        n=n,
        lam=lam,
        problem_seed=problem_seed,
        iterations=iterations,
        seeds=seeds,
        step=step,
        momenta=tuple(momenta),
        constraint=constraint,
        stride=stride,
        init=init,
        composite_order=composite_order,
        instance_path=effective.get("instance"),
        out=effective.get("out"),
        echo=tuple(sorted(echo.items())),
    )


def parse_lemma_config(text: str, overrides: Mapping[str, str] | None = None) -> LemmaSuiteConfig:
    """Parse a lemma-suite config: which scenarios, ensemble sizes, control;
    overrides as in parse_config."""
    values, origins = _read_key_values(text, _LEMMA_KEYS)
    _override(values, origins, overrides, _LEMMA_KEYS)
    if "lemmas" not in values:
        raise ConfigurationError("missing required key 'lemmas' (use `lemmas = all`)")
    kv = _KeyedValues(values, origins, None)

    raw = values["lemmas"]
    lemmas = LEMMA_IDS if raw == "all" else tuple(tok.strip() for tok in raw.split(","))
    paths = kv.integer("paths", 200)
    length = kv.integer("length", 2000)
    branches = kv.integer("branches", 200)
    seed = kv.integer("seed", 1)
    control_raw = values.get("control", "none")
    control = None if control_raw == "none" else control_raw
    kv.refuse(_suite_fault(lemmas, paths, length, branches, control))
    if seed < 0:
        raise kv.error("seed", f"seed must be non-negative, got {seed}")

    return LemmaSuiteConfig(
        lemmas=lemmas,
        paths=paths,
        length=length,
        branches=branches,
        seed=seed,
        control=control,
        out=values.get("out"),
        echo=tuple(sorted(values.items())),
    )


# ---------------------------------------------------------------------------
# experiment execution

@dataclass(frozen=True)
class RunResult:
    seed: int
    trace: SolverTrace

    @property
    def final_dist(self) -> float:
        return self.trace.final.dist

    @property
    def min_dist(self) -> float:
        return min(cp.dist for cp in self.trace.checkpoints)

    @property
    def diverged(self) -> bool:
        return self.trace.diverged


@dataclass(frozen=True)
class ThetaGroup:
    label: str
    runs: tuple[RunResult, ...]


@dataclass(frozen=True)
class ResultBundle:
    root: str
    groups: tuple[ThetaGroup, ...]
    instance: ProblemInstance

    @property
    def single_run(self) -> RunResult | None:
        if len(self.groups) == 1 and len(self.groups[0].runs) == 1:
            return self.groups[0].runs[0]
        return None


def _referenced(inst: ProblemInstance) -> ProblemInstance:
    """The instance with its reference optimum: its own, or for a lasso
    without one the ISTA reference (lasso_reference)."""
    if inst.reference_optimum is None and inst.kind == "lasso":
        return with_reference(inst, lasso_reference(inst))
    return inst


def _resolve_instance(config: ExperimentConfig) -> ProblemInstance:
    path = config.instance_path
    if path is not None and os.path.exists(path):
        inst = load_instance(path)
        if (inst.kind, inst.m, inst.n) != (config.kind, config.m, config.n):
            raise ConfigurationError(
                f"instance file {path!r} is {inst.kind} {inst.m}x{inst.n}, "
                f"config wants {config.kind} {config.m}x{config.n}"
            )
        if inst.kind == "lasso" and inst.lam != config.lam:
            raise ConfigurationError(
                f"instance file {path!r} has lambda {inst.lam}, config wants {config.lam}"
            )
        if inst.reference_optimum is None and inst.kind != "lasso":
            raise ConfigurationError(f"instance file {path!r} has no reference optimum")
        return _referenced(inst)
    inst = _referenced(gen(config.kind, config.m, config.n, config.problem_seed, lam=config.lam))
    if path is not None:
        dump_instance(inst, path)
    return inst


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Each line, then LF, written one line (or detail block) at a time, so
    the file is never held as one string; an empty list is one LF."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines or [""])


_TRACE_HEADER = "k,dist,obj_gap,increment,alpha,theta"


def _trace_csv_lines(trace: SolverTrace) -> list[str]:
    lines = [f"# {key} = {value}" for key, value in sorted(trace.metadata.items())]
    if trace.diverged:
        lines.append(f"# diverged_at = {trace.diverged_at}")
    lines.append(_TRACE_HEADER)
    for cp in trace.checkpoints:
        lines.append(
            f"{cp.k},{_fmt(cp.dist)},{_fmt(cp.obj_gap)},"
            f"{_fmt(cp.increment)},{_fmt(cp.alpha)},{_fmt(cp.theta)}"
        )
    return lines


def _summary_csv_lines(config: ExperimentConfig, group: ThetaGroup) -> list[str]:
    lines = [f"# {key} = {value}" for key, value in config.echo]
    lines.append(f"# group = {group.label}")
    lines.append(f"# rng = {RNG_ID}")
    lines.append("seed,final_dist,min_dist,diverged")
    for result in group.runs:
        lines.append(
            f"{result.seed},{_fmt(result.final_dist)},{_fmt(result.min_dist)},"
            f"{int(result.diverged)}"
        )
    return lines


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ResultBundle:
    """Run every (momentum, seed) pair and write the bundle under out_dir.

    Divergence is recorded as a flagged summary row and a truncated trace,
    never as an abort, so sweeps with exploding baselines stay comparable.
    Wall time is reported on stderr only; bundle bytes depend only on the
    config.
    """
    out = out_dir or config.out
    if out is None:
        raise ConfigurationError("no output directory (give out = PATH or --out)")
    started = time.monotonic()
    inst = _resolve_instance(config)
    # an unwritable out is refused before any run, not after all of them
    os.makedirs(out, exist_ok=True)

    groups: list[ThetaGroup] = []
    for label, momentum in config.momenta:
        runs = []
        for seed in config.seeds:
            solver_config = SolverConfig(
                method=config.method,
                step=config.step,
                momentum=momentum,
                iterations=config.iterations,
                seed=seed,
                constraint=config.constraint,
                stride=config.stride,
                composite_order=config.composite_order,
                init=config.init,
            )
            runs.append(RunResult(seed=seed, trace=run(solver_config, inst)))
        groups.append(ThetaGroup(label=label, runs=tuple(runs)))

    # single writer after all runs, ordered by group then seed
    for group in groups:
        group_dir = os.path.join(out, group.label)
        os.makedirs(group_dir, exist_ok=True)
        for result in group.runs:
            _write_lines(
                os.path.join(group_dir, f"trace_seed{result.seed}.csv"),
                _trace_csv_lines(result.trace),
            )
        _write_lines(os.path.join(group_dir, "summary.csv"), _summary_csv_lines(config, group))

    elapsed = time.monotonic() - started
    print(f"wall time: {elapsed:.3f} s", file=sys.stderr)
    return ResultBundle(root=out, groups=tuple(groups), instance=inst)


# ---------------------------------------------------------------------------
# lemma suite

def _lemma_summary_lines(config: LemmaSuiteConfig, reports: list[CheckReport]) -> list[str]:
    lines = [f"# {key} = {value}" for key, value in config.echo]
    lines.append(f"# rng = {RNG_ID}")
    lines.append(
        "lemma_id,paths,checks,violations,violation_rate,worst_z,"
        "converged_fraction,eta_plateaued,passed"
    )
    for rep in reports:
        eta = "na" if rep.eta_plateaued is None else str(int(rep.eta_plateaued))
        conv = "na" if rep.converged_fraction is None else _fmt(rep.converged_fraction)
        lines.append(
            f"{rep.lemma_id},{rep.paths_tested},{rep.checks},{rep.violations},"
            f"{_fmt(rep.violation_rate)},{_fmt(rep.worst_z)},{conv},{eta},{int(rep.passed)}"
        )
    return lines


# detail rows per % format
_DETAIL_BLOCK = 256
_DETAIL_ROW = "%s,%d,%d,%.17g,%.17g,%.17g"


def _lemma_detail_lines(reports: list[CheckReport]) -> Iterator[str]:
    """The detail CSV's header, then its rows in blocks of _DETAIL_BLOCK
    lines, each block formed from the reports' arrays by _fmt_rows as it is
    written."""
    yield "lemma_id,path,step,V_n,estimate,z_score"
    for rep in reports:
        columns = (rep.path, rep.step, rep.v_n, rep.estimate, rep.z)
        for first in range(0, rep.checks, _DETAIL_BLOCK):
            count = min(_DETAIL_BLOCK, rep.checks - first)
            yield _fmt_rows(
                _DETAIL_ROW,
                [[rep.lemma_id] * count, *(c[first : first + count].tolist() for c in columns)],
            )


def run_lemma_suite(
    config: LemmaSuiteConfig, out_dir: str | None = None
) -> tuple[list[CheckReport], bool]:
    """Run the requested scenario checks; returns (reports, all_passed).

    With a control configured, "passed" means every report FAILED as the
    broken hypothesis demands, so the suite result stays truthful.
    """
    out = out_dir or config.out
    if out is not None:
        os.makedirs(out, exist_ok=True)  # refused before the first scenario
    reports = []
    # every scenario is built and checked in the same arrays
    scratch = Scratch(config.paths, config.length)
    for lemma_id in config.lemmas:
        params = {"control": config.control} if config.control else None
        reports.append(
            run_lemma_check(
                lemma_id,
                paths=config.paths,
                length=config.length,
                branches=config.branches,
                seed=config.seed,
                params=params,
                scratch=scratch,
            )
        )
    if config.control is None:
        all_good = all(rep.passed for rep in reports)
    else:
        all_good = all(not rep.passed for rep in reports)
    if out is not None:
        _write_lines(os.path.join(out, "lemma_summary.csv"), _lemma_summary_lines(config, reports))
        _write_lines(os.path.join(out, "lemma_detail.csv"), _lemma_detail_lines(reports))
    return reports, all_good


# ---------------------------------------------------------------------------
# plot data

def _read_trace_csv(path: str) -> dict[int, float]:
    """{k: dist} of a trace CSV; a malformed file raises ConfigurationError
    naming its line. Bytes that are not UTF-8 read as U+FFFD, which fails the
    header or a number where it stands and is ignored inside a comment."""

    def fail(lineno: int, message: str) -> ConfigurationError:
        return ConfigurationError(f"{path} line {lineno}: {message}")

    ks: dict[int, float] = {}
    header_seen = False
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != _TRACE_HEADER:
                    raise fail(
                        lineno, f"expected the column header {_TRACE_HEADER!r}, found {line!r}"
                    )
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 6:
                raise fail(lineno, f"row has {len(fields)} fields, expected 6")
            try:
                k, dist = int(fields[0]), float(fields[1])
            except ValueError as exc:
                raise fail(lineno, str(exc)) from None
            if k < 1:
                raise fail(lineno, f"checkpoint index must be positive, got {k}")
            if not 0.0 <= dist < math.inf:
                raise fail(lineno, f"dist must be finite and non-negative, got {fields[1]!r}")
            ks[k] = dist
    return ks


def plotdata(bundle_root: str) -> str:
    """Median-over-seeds log-log decay columns for every momentum group.

    One row per checkpoint index: log10 k, then one column per group with
    log10 of the median distance (exact zeros become the sentinel -16).
    """
    if not os.path.isdir(bundle_root):
        raise ConfigurationError(f"no bundle at {bundle_root!r}")
    group_names = sorted(
        (name for name in os.listdir(bundle_root) if name.startswith("theta_")),
        key=lambda name: _group_sort_key(name),
    )
    groups: list[tuple[str, list[dict[int, float]]]] = []
    for name in group_names:
        group_dir = os.path.join(bundle_root, name)
        trace_files = sorted(
            fn for fn in os.listdir(group_dir)
            if fn.startswith("trace_seed") and fn.endswith(".csv")
        )
        traces = [_read_trace_csv(os.path.join(group_dir, fn)) for fn in trace_files]
        if traces:
            groups.append((name, traces))
    if not groups:
        raise ConfigurationError(f"bundle at {bundle_root!r} has no traces")

    all_ks = sorted({k for _, traces in groups for trace in traces for k in trace})
    lines = [f"# bundle = {os.path.basename(os.path.normpath(bundle_root))}"]
    lines.append("log10_k," + ",".join(name for name, _ in groups))
    for k in all_ks:
        row = [_fmt(math.log10(k))]
        for _, traces in groups:
            dists = [trace[k] for trace in traces if k in trace]
            if not dists:
                row.append("nan")
                continue
            med = float(np.median(dists))
            row.append(_fmt(math.log10(med)) if med > 0.0 else _fmt(-16.0))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _group_sort_key(name: str):
    suffix = name[len("theta_"):]
    try:
        return (0, float(suffix))
    except ValueError:
        return (1, suffix)
