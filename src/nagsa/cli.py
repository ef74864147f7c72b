"""Command-line interface.

Subcommands:
    gen       generate a problem instance and write its text dump, with the
              binary cache that later loads read instead (`PATH.cache`)
    run       run a configured experiment, writing a result bundle
    lemma     run scenario checks, writing summary/detail CSVs
    algebra   print head products, coefficients, and tail values
    plotdata  print log-log plot columns for an existing bundle

gen, run and lemma read a required `--config PATH` and take `--out DIR` and
`--seed N`, a seed override (`problem.seed`, `seeds` or `seed`) that the CSV
headers echo. plotdata takes the bundle as `--out DIR` or as the `out` of a
`--config`, and has no `--seed`. algebra takes its momentum schedule and the
row count `--n` as flags.

Exit codes:
    0  success
    1  check failure (a lemma suite whose reports do not come out as required)
    2  configuration error: an invalid config, flag or instance file, or a
       config or output path that cannot be read or written (the message
       names the line or the path)
    3  divergence in a non-sweep run (single momentum value, single seed)
    4  internal error: any other exception, reported on one stderr line
       without a traceback

The parser is built on the first `main` call and kept for the rest of the
process (`build_parser` is cached), so a script or test that calls `main`
many times only parses; `import nagsa.cli` builds nothing.

`import nagsa.cli` loads only what algebra runs: errors, momentum_algebra,
schedules and the number format (with numpy). gen, run, lemma and plotdata
import harness (and with it problems, solvers, diagnostics and _rng) when
they start, so the algebra table and `--help` never load them; README's CLI
section gives the start-up times.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from ._format import _fmt_rows
from .errors import ConfigurationError, DivergenceError
from .momentum_algebra import _MAX_HORIZON, head_blocks, tail_coefficients
from .schedules import MomentumSchedule


# the format of one row of the algebra table
_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g"


def _read_config(path: str) -> str:
    # bytes that are not UTF-8 read as U+FFFD, which the parser refuses,
    # naming the line that holds them
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None


def _seed_key(args, key: str) -> dict[str, str]:
    """--seed N as the config line `key = N`, so the echo in the CSV headers
    names the seed that ran."""
    return {} if args.seed is None else {key: str(args.seed)}


def _cmd_gen(args) -> int:
    from .harness import _referenced, parse_config
    from .problems import dump_instance, gen

    config = parse_config(_read_config(args.config), _seed_key(args, "problem.seed"))
    out_dir = args.out or config.out
    path = config.instance_path or (
        os.path.join(out_dir, "instance.txt") if out_dir else None
    )
    if path is None:
        raise ConfigurationError("no output location (give --out or instance = PATH)")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    inst = _referenced(gen(config.kind, config.m, config.n, config.problem_seed, lam=config.lam))
    dump_instance(inst, path)
    print(path)
    return 0


def _cmd_run(args) -> int:
    from .harness import parse_config, run_experiment

    config = parse_config(_read_config(args.config), _seed_key(args, "seeds"))
    bundle = run_experiment(config, out_dir=args.out)
    print(bundle.root)
    single = bundle.single_run
    if single is not None and single.diverged:
        print(
            f"run diverged at step {single.trace.diverged_at}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_lemma(args) -> int:
    from .harness import parse_lemma_config, run_lemma_suite

    config = parse_lemma_config(_read_config(args.config), _seed_key(args, "seed"))
    if args.out is None and config.out is None:
        raise ConfigurationError("no output directory (give out = PATH or --out)")
    reports, all_good = run_lemma_suite(config, out_dir=args.out)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        conv = "na" if rep.converged_fraction is None else f"{rep.converged_fraction:.3f}"
        eta = "na" if rep.eta_plateaued is None else str(bool(rep.eta_plateaued)).lower()
        extra = f" reason={rep.failure_reason}" if rep.failure_reason else ""
        print(
            f"{status} {rep.lemma_id}: violations {rep.violations}/{rep.checks}, "
            f"converged {conv}, eta_plateaued {eta}{extra}"
        )
    if config.control is not None:
        print(f"control={config.control}: expecting failures", file=sys.stderr)
    return 0 if all_good else 1


def _cmd_algebra(args) -> int:
    schedule = MomentumSchedule(
        family=args.family, theta=args.theta, c=args.c, s=args.s, p=args.p
    )
    thetas = schedule.values(args.n)
    tails = tail_coefficients(schedule, args.n + 1).values
    sys.stdout.write("k,theta,d,c,residual,t\n")
    lo = 0
    # one write per head_blocks block, so the text and the Python floats of
    # at most 2^10 rows are held at once; a bad theta raises after the rows
    # before it are written
    for p, d, c in head_blocks(thetas):
        hi = lo + len(p)
        # x * x is correctly rounded; libm pow, behind Python's x ** 2, broke
        # some exact ties away from even
        d_c = d - c
        columns = [
            range(lo + 1, hi + 1),
            thetas[lo:hi].tolist(),
            d.tolist(),
            c.tolist(),
            (d_c * d_c).tolist(),
            tails[lo:hi].tolist(),
        ]
        sys.stdout.write(_fmt_rows(_ROW, columns) + "\n")
        lo = hi
    return 0


def _cmd_plotdata(args) -> int:
    from .harness import parse_config, plotdata

    root = args.out
    if root is None and args.config is not None:
        root = parse_config(_read_config(args.config)).out
    if root is None:
        raise ConfigurationError("no bundle location (give --out DIR)")
    sys.stdout.write(plotdata(root))
    return 0


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _rows(text: str) -> int:
    # a table above the tail recursion's horizon limit would hold gigabytes
    # of momentum and tail values before printing its first row
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= _MAX_HORIZON:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 0 to {_MAX_HORIZON}, got {text!r}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=_seed, default=None, help="seed override (>= 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call.

    Every call returns the same object, so callers must not mutate it (add
    arguments, change defaults). Reuse is safe: each `parse_args` builds a
    fresh namespace and copies the subcommand's defaults into it, the type
    callables `_seed` and `_rows` are pure, and neither parsing nor a refused
    argument changes the parser.
    """
    parser = argparse.ArgumentParser(
        prog="nagsa",
        description="Momentum stochastic-approximation solvers and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a problem instance dump")
    _add_common(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run an experiment bundle")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_lemma = sub.add_parser("lemma", help="run scenario checks")
    _add_common(p_lemma)
    p_lemma.set_defaults(func=_cmd_lemma)

    p_alg = sub.add_parser("algebra", help="inspect products and tail coefficients")
    p_alg.add_argument("--family", default="constant", help="momentum family")
    p_alg.add_argument("--theta", type=float, default=0.0, help="constant momentum value")
    p_alg.add_argument("--c", type=float, default=0.0, help="power-family scale")
    p_alg.add_argument("--s", type=float, default=0.0, help="offset for harmonic/power")
    p_alg.add_argument("--p", type=float, default=0.0, help="power-family exponent")
    p_alg.add_argument("--n", type=_rows, default=10, help="number of indices to print")
    p_alg.set_defaults(func=_cmd_algebra)

    p_plot = sub.add_parser("plotdata", help="emit log-log columns for a bundle")
    p_plot.add_argument("--config", help="config whose out = PATH names the bundle")
    p_plot.add_argument("--out", default=None, help="bundle directory")
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f": {exc.filename!r}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
