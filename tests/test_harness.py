"""Config grammar, preset expansion, bundle layout and byte determinism,
plot-data shaping, and the CLI exit-code contract."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nagsa
from nagsa import diagnostics, harness, problems, solvers
from nagsa.cli import main
from nagsa.errors import ConfigurationError
from nagsa.harness import (
    _LEMMA_KEYS,
    _RUN_KEYS,
    PRESETS,
    parse_config,
    parse_lemma_config,
    plotdata,
    run_experiment,
    run_lemma_suite,
)
from nagsa.problems import ProblemInstance, dump_instance, gen, load_instance

TINY_RUN = """\
method = ssgd
kind = least_squares
m = 60
n = 6
N = 300
seeds = 1,2
step.family = power
step.c = 1/16
step.s = 3
step.p = 8/9
mom.sweep = 0,0.5
"""


# ---------------------------------------------------------------------------
# experiment config parsing


def test_preset_expands_to_full_key_set():
    config = parse_config("preset = lsq-ssgd\nout = /tmp/x\n")
    assert config.method == "ssgd"
    assert config.kind == "least_squares"
    assert (config.m, config.n) == (2000, 20)
    assert config.iterations == 20000
    assert config.seeds == (1, 2, 3, 4, 5)
    assert config.problem_seed == 10
    assert config.step.family == "power"
    assert config.step.c == 0.0625  # 1/16 parsed exactly
    assert config.step.p == 8.0 / 9.0
    assert [label for label, _ in config.momenta] == ["theta_0", "theta_0.5", "theta_0.9"]
    assert config.constraint.kind == "whole_space"
    assert config.stride == 1.1
    assert config.init == "gaussian"
    assert ("preset", "lsq-ssgd") in config.echo


def test_all_presets_parse():
    for name in PRESETS:
        config = parse_config(f"preset = {name}\n")
        assert config.iterations == 20000
        assert len(config.momenta) == 3


def test_explicit_keys_override_preset():
    config = parse_config("preset = lsq-ssgd\nN = 500\nseeds = 7\n")
    assert config.iterations == 500
    assert config.seeds == (7,)
    assert config.m == 2000  # untouched preset key survives


def test_unknown_preset():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        parse_config("preset = lsq-sgd\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigurationError, match="line 2: unknown key"):
        parse_config("preset = lsq-ssgd\nvolatility = 3\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigurationError, match="line 3: duplicate key"):
        parse_config("preset = lsq-ssgd\nN = 10\nN = 20\n")


def test_empty_value_rejected():
    with pytest.raises(ConfigurationError, match="empty value"):
        parse_config("preset = lsq-ssgd\nN =\n")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config("preset lsq-ssgd\n")


def test_comments_and_blanks_ignored():
    config = parse_config("# experiment\n\npreset = lsq-ssgd\nN = 100 # short\n")
    assert config.iterations == 100


def test_empty_config_lists_required_keys():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("")
    for key in ("method", "kind", "m", "n", "N", "seeds", "step.family", "mom.family"):
        assert key in str(exc.value)


def test_sweep_satisfies_momentum_family_requirement():
    config = parse_config(TINY_RUN)
    assert [label for label, _ in config.momenta] == ["theta_0", "theta_0.5"]
    thetas = [schedule.theta for _, schedule in config.momenta]
    assert thetas == [0.0, 0.5]


def test_rational_literals_are_exact():
    config = parse_config(TINY_RUN)
    assert config.step.c == 0.0625
    assert config.step.p == 8.0 / 9.0
    swept = parse_config(TINY_RUN.replace("0,0.5", "0,1/2"))
    assert swept.momenta[1][1].theta == 0.5
    assert swept.momenta[1][0] == "theta_0.5"


def test_momentum_value_error_reports_location():
    text = TINY_RUN.replace("mom.sweep = 0,0.5", "mom.family = constant") + "mom.theta = 1.5\n"
    with pytest.raises(ConfigurationError, match="line 12"):
        parse_config(text)


def test_sweep_conflicts_with_single_theta():
    with pytest.raises(ConfigurationError, match="not both"):
        parse_config(TINY_RUN + "mom.theta = 0.5\n")


def test_sweep_requires_constant_family():
    with pytest.raises(ConfigurationError, match="constant"):
        parse_config(TINY_RUN + "mom.family = harmonic\n")


def test_duplicate_sweep_values():
    with pytest.raises(ConfigurationError, match="duplicate sweep"):
        parse_config(TINY_RUN.replace("0,0.5", "0.5,1/2"))


def test_malformed_sweep_value():
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config(TINY_RUN.replace("0,0.5", "0,fast"))


def test_nonconstant_momentum_family_label():
    text = TINY_RUN.replace("mom.sweep = 0,0.5", "mom.family = harmonic\nmom.s = 3")
    config = parse_config(text)
    assert config.momenta[0][0] == "theta_harmonic"


def test_harmonic_offset_that_rounds_theta_1_to_one_names_its_line():
    text = TINY_RUN.replace("mom.sweep = 0,0.5", "mom.family = harmonic\nmom.s = 1e-17")
    with pytest.raises(ConfigurationError, match="^line 11, line 12: .*theta_1 = 1/"):
        parse_config(text)


def test_power_momentum_error_names_every_momentum_line():
    text = TINY_RUN.replace("mom.sweep = 0,0.5", "mom.family = power\nmom.c = 2")
    with pytest.raises(ConfigurationError, match="^line 11, line 12: .*must start below 1$"):
        parse_config(text)


def test_seeds_validation():
    with pytest.raises(ConfigurationError, match="malformed seed"):
        parse_config(TINY_RUN.replace("1,2", "1,x"))
    with pytest.raises(ConfigurationError, match="non-negative"):
        parse_config(TINY_RUN.replace("1,2", "-1"))
    with pytest.raises(ConfigurationError, match="duplicate seeds"):
        parse_config(TINY_RUN.replace("1,2", "1,1"))


def test_run_config_errors_name_the_override():
    with pytest.raises(ConfigurationError, match="^override seeds: malformed seed list 'x'$"):
        parse_config(TINY_RUN, {"seeds": "x"})
    with pytest.raises(ConfigurationError, match="^override seeds: duplicate seeds$"):
        parse_config("preset = lsq-ssgd\n", {"seeds": "1,1"})


def test_lemma_config_errors_name_the_override():
    with pytest.raises(ConfigurationError, match="^override seed: seed must be non-negative"):
        parse_lemma_config("lemmas = all\n", {"seed": "-1"})


def test_run_config_refuses_an_unknown_override():
    """An override key no config line may hold is refused, naming the
    override, instead of landing in the echoed CSV headers."""
    with pytest.raises(ConfigurationError, match="^override sedes: unknown key 'sedes'$"):
        parse_config("preset = lsq-ssgd\n", {"sedes": "3"})


def test_lemma_config_refuses_an_unknown_override():
    with pytest.raises(ConfigurationError, match="^override sede: unknown key 'sede'$"):
        parse_lemma_config("lemmas = all\n", {"sede": "3"})
    # a run key is not a lemma key
    with pytest.raises(ConfigurationError, match="^override seeds: unknown key 'seeds'$"):
        parse_lemma_config("lemmas = all\n", {"seeds": "3"})


def test_non_integer_count_rejected():
    with pytest.raises(ConfigurationError, match="integer"):
        parse_config(TINY_RUN.replace("N = 300", "N = 300.5"))


def test_integer_seeds_are_read_exactly():
    """A seed past 2^53, where a float would round it, comes through as
    written, as the seeds list does."""
    big = 9007199254740993  # 2^53 + 1
    assert parse_config(TINY_RUN + f"problem.seed = {big}\n").problem_seed == big
    assert parse_config(TINY_RUN.replace("1,2", str(big))).seeds == (big,)
    assert parse_lemma_config(f"lemmas = relay\nseed = {big}\n").seed == big


def test_integer_keys_take_integral_number_literals():
    assert parse_config(TINY_RUN.replace("N = 300", "N = 2e4")).iterations == 20000
    assert parse_config(TINY_RUN.replace("N = 300", "N = 300.0")).iterations == 300
    assert parse_lemma_config("lemmas = relay\npaths = 1e1\n").paths == 10
    assert parse_config(TINY_RUN + "problem.seed = 9007199254740992.0\n").problem_seed == 2**53


def test_unknown_method_and_kind():
    with pytest.raises(ConfigurationError, match="unknown method"):
        parse_config(TINY_RUN.replace("ssgd", "sgd"))
    with pytest.raises(ConfigurationError, match="unknown problem kind"):
        parse_config(TINY_RUN.replace("least_squares", "ridge"))


def test_invalid_step_schedule_located():
    with pytest.raises(ConfigurationError, match="invalid step schedule"):
        parse_config(TINY_RUN.replace("step.c = 1/16", "step.c = 0"))


def test_constraint_parsing():
    assert parse_config(TINY_RUN + "constraint = none\n").constraint.kind == "whole_space"
    ball_config = parse_config(TINY_RUN + "constraint = ball:5\n")
    assert ball_config.constraint.kind == "ball"
    assert ball_config.constraint.radius == 5.0
    box_config = parse_config(TINY_RUN + "constraint = box:-1:3/2\n")
    assert box_config.constraint.kind == "box"
    assert (box_config.constraint.lo, box_config.constraint.hi) == (-1.0, 1.5)


def test_constraint_errors():
    with pytest.raises(ConfigurationError, match="malformed ball radius"):
        parse_config(TINY_RUN + "constraint = ball:big\n")
    with pytest.raises(ConfigurationError, match="lo:hi"):
        parse_config(TINY_RUN + "constraint = box:1\n")
    with pytest.raises(ConfigurationError, match="unknown constraint"):
        parse_config(TINY_RUN + "constraint = simplex:1\n")


@pytest.mark.parametrize(
    "text, where, match",
    [
        (TINY_RUN.replace("ssgd", "prox_rm") + "constraint = ball:5\n", "line 12", "ssgd only"),
        ("preset = lsq-proxrm\nconstraint = ball:0.001\n", "line 2", "ssgd only, not prox_rm"),
        ("preset = lasso\nconstraint = box:-1:1\n", "line 2", "ssgd only, not composite"),
        (TINY_RUN.replace("ssgd", "composite"), "line 1, line 2", "composite does not solve"),
        ("preset = lasso\nmethod = ssgd\n", "line 2", "ssgd does not solve kind lasso"),
        ("preset = lsq-proxrm\nkind = lasso\n", "line 2", "prox_rm does not solve kind lasso"),
        ("preset = lad-ssgd\nmethod = composite\n", "line 2", "composite does not solve"),
    ],
)
def test_pairings_the_solver_would_ignore_are_refused(text, where, match):
    """A constraint outside ssgd, composite off lasso, ssgd or prox_rm on
    lasso: each is refused naming the lines that set it."""
    with pytest.raises(ConfigurationError, match=f"^{where}: .*{match}"):
        parse_config(text)


def test_unknown_composite_order():
    with pytest.raises(ConfigurationError, match="unknown composite order"):
        parse_config(TINY_RUN + "composite.order = simultaneous\n")


# ---------------------------------------------------------------------------
# lemma config parsing


def test_lemma_config_all():
    config = parse_lemma_config("lemmas = all\n")
    assert len(config.lemmas) == 7
    assert (config.paths, config.length, config.branches, config.seed) == (200, 2000, 200, 1)
    assert config.control is None


def test_lemma_config_subset_and_overrides():
    config = parse_lemma_config(
        "lemmas = relay, drift\npaths = 50\nlength = 600\nbranches = 40\nseed = 9\n"
    )
    assert config.lemmas == ("relay", "drift")
    assert (config.paths, config.length, config.branches, config.seed) == (50, 600, 40, 9)


def test_lemma_config_unknown_id():
    with pytest.raises(ConfigurationError, match="unknown lemma ids"):
        parse_lemma_config("lemmas = relay, lemma1\n")


def test_lemma_config_requires_lemmas_key():
    with pytest.raises(ConfigurationError, match="lemmas = all"):
        parse_lemma_config("paths = 10\n")


def test_lemma_config_minimums():
    with pytest.raises(ConfigurationError, match="path"):
        parse_lemma_config("lemmas = all\npaths = 0\n")
    with pytest.raises(ConfigurationError, match="length"):
        parse_lemma_config("lemmas = all\nlength = 3\n")
    with pytest.raises(ConfigurationError, match="branches"):
        parse_lemma_config("lemmas = all\nbranches = 29\n")


# tokens that reach the value checks: numbers at and past the edges, list and
# constraint forms, and every name a key accepts
_TOKENS = st.sampled_from(
    [
        "0", "-0", "1", "-1", "2", "0.5", "0.999", "1.5", "8/9", "1/0", "0/0", "1/1e-320",
        "1e-320", "1e308", "1e400", "-1e400", "inf", "nan", "9" * 40, "1,2", "1,,2", "2,2",
        "0,0.5", "-1,2", "ball:1", "ball:-1", "ball:", "box:-1:1", "box:1:-1", "box:1",
        "none", "all", "relay, drift", "drift", "theta", "constant", "harmonic", "power",
        "zeros", "gaussian", "ssgd", "prox_rm", "composite", "least_squares",
        "least_absolute", "lasso", "explicit_first", "implicit_first", *PRESETS,
    ]
)
_VALUES = st.one_of(
    _TOKENS,
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


def _fuzz_text(base: str, overrides: dict[str, str], extra: str) -> str:
    keyed = dict(line.split(" = ", 1) for line in base.splitlines())
    keyed.update(overrides)
    return "".join(f"{key} = {value}\n" for key, value in keyed.items()) + extra


@settings(max_examples=500)
@given(
    overrides=st.dictionaries(st.sampled_from(sorted(_RUN_KEYS)), _VALUES, max_size=5),
    extra=st.one_of(st.just(""), st.text(max_size=40)),
)
def test_parse_config_fuzz(overrides, extra):
    """Any text either parses or is refused with a ConfigurationError."""
    try:
        parse_config(_fuzz_text(TINY_RUN, overrides, extra))
    except ConfigurationError:
        pass


def test_parse_config_stride_near_float_max():
    """The fuzz example stride = 1e308, whose marks overflow k stride,
    parses with the marks 1, 2 and N."""
    config = parse_config(TINY_RUN + "stride = 1e308\n")
    assert config.stride == 1e308


@settings(max_examples=500)
@given(
    overrides=st.dictionaries(st.sampled_from(sorted(_LEMMA_KEYS)), _VALUES, max_size=4),
    extra=st.one_of(st.just(""), st.text(max_size=40)),
)
def test_parse_lemma_config_fuzz(overrides, extra):
    try:
        parse_lemma_config(_fuzz_text("lemmas = all\npaths = 10", overrides, extra))
    except ConfigurationError:
        pass


def test_config_sizes_bounded_before_allocation():
    # only the parsers run: no refused size is ever allocated
    big_instance = TINY_RUN.replace("m = 60", "m = 100000").replace("n = 6", "n = 100000")
    with pytest.raises(ConfigurationError, match=r"^line 3, line 4: m x n = 10000000000 "):
        parse_config(big_instance)
    with pytest.raises(ConfigurationError, match=r"^line 2: m x n .* exceeds"):
        parse_config("preset = lad-ssgd\nm = 1000000\n")
    with pytest.raises(ConfigurationError, match=r"^line 2: n must be positive"):
        parse_config("preset = lad-ssgd\nn = 0\n")
    with pytest.raises(ConfigurationError, match=r"^line 2, line 3: paths x length .* exceeds"):
        parse_lemma_config("lemmas = all\npaths = 100000\nlength = 100000\n")
    with pytest.raises(ConfigurationError, match=r"^line 2: paths x length .* exceeds"):
        parse_lemma_config("lemmas = all\nlength = 1000000000\n")
    with pytest.raises(ConfigurationError, match=r"^line 2: branches .* exceeds"):
        parse_lemma_config("lemmas = all\nbranches = 1e12\n")
    # the largest allowed product still parses
    limit = 1 << 25
    config = parse_lemma_config(f"lemmas = all\npaths = {limit // 4096}\nlength = 4096\n")
    assert config.paths * config.length == limit


def test_config_rows_bounded_before_allocation(tmp_path, capsys):
    """m x n = 2^20 + 1 entries would fit the entry limit, but a run table
    holds about 192 B per row, so m stops at 2^20; only the parser runs."""
    one_column = TINY_RUN.replace("n = 6", "n = 1")
    with pytest.raises(
        ConfigurationError, match=r"^line 3: m = 1048577 rows exceeds the limit of 1048576$"
    ):
        parse_config(one_column.replace("m = 60", "m = 1048577"))
    assert parse_config(one_column.replace("m = 60", "m = 1048576")).m == 1 << 20
    config = _write(tmp_path / "c.txt", one_column.replace("m = 60", "m = 1048577"))
    assert main(["gen", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "configuration error: line 3: m = 1048577 rows exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("gen", TINY_RUN.replace("n = 6", "n = 10000000")),
        ("run", TINY_RUN.replace("m = 60", "m = 1e12")),
        ("lemma", "lemmas = relay\npaths = 1000000\nlength = 1000000\n"),
    ],
)
def test_cli_oversized_config_exits_two(tmp_path, capsys, command, text):
    config = _write(tmp_path / "c.txt", text)
    rc = main([command, "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: line " in err and "exceeds the limit" in err
    assert not (tmp_path / "out").exists()


def test_cli_branches_bounded_by_one_probe_block(tmp_path, capsys):
    """One path's probe block draws 24 x branches samples at once, so
    branches stops at floor(2^25 / 24) = 1398101; only the parser runs."""
    config = _write(tmp_path / "c.txt", "lemmas = drift\nbranches = 1398102\n")
    rc = main(["lemma", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: line 2: branches x 24 probes = 33554448 entries exceeds" in err
    assert not (tmp_path / "out").exists()
    assert parse_lemma_config("lemmas = drift\nbranches = 1398101\n").branches == 1398101


def test_lemma_detail_rows_bounded_before_allocation():
    """A suite holds up to 24 detail rows per path and scenario until its
    CSVs are written; above 2^21 rows the paths line is refused."""
    too_many = "lemmas = all\npaths = 335544\nlength = 100\n"
    with pytest.raises(ConfigurationError, match=r"^line 2, line 1: paths x 24 probes x 7 "
                       r"scenarios = 56371392 detail rows exceeds the limit of 2097152"):
        parse_lemma_config(too_many)
    # one scenario stops at floor(2^21 / 24) = 87381 paths
    assert parse_lemma_config("lemmas = relay\npaths = 87381\nlength = 100\n").paths == 87381
    with pytest.raises(ConfigurationError, match=r"^line 2, line 1: .* = 2097168 detail rows"):
        parse_lemma_config("lemmas = relay\npaths = 87382\nlength = 100\n")


def test_cli_oversized_lemma_detail_exits_two(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", "lemmas = all\npaths = 335544\nlength = 100\n")
    rc = main(["lemma", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: line 2, line 1: paths x 24 probes" in err
    assert "detail rows exceeds the limit" in err
    assert not (tmp_path / "out").exists()


def test_lemma_config_control_validation():
    config = parse_lemma_config("lemmas = all\ncontrol = drift\n")
    assert config.control == "drift"
    with pytest.raises(ConfigurationError, match="not defined"):
        parse_lemma_config("lemmas = relay\ncontrol = theta\n")


# ---------------------------------------------------------------------------
# experiment bundles


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = parse_config(TINY_RUN)
    bundle = run_experiment(config, out_dir=str(out))
    return bundle, out


def test_bundle_layout(tiny_bundle):
    _, out = tiny_bundle
    for group in ("theta_0", "theta_0.5"):
        assert sorted(os.listdir(out / group)) == [
            "summary.csv",
            "trace_seed1.csv",
            "trace_seed2.csv",
        ]


def test_trace_csv_structure(tiny_bundle):
    _, out = tiny_bundle
    lines = (out / "theta_0.5" / "trace_seed1.csv").read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    keys = [ln[2:].split(" = ")[0] for ln in meta]
    assert keys == sorted(keys)
    assert "# method = ssgd" in meta
    assert "# rng = pcg64/box-muller" in meta
    assert "# mom.theta = 0.5" in meta
    header = lines[len(meta)]
    assert header == "k,dist,obj_gap,increment,alpha,theta"
    first = lines[len(meta) + 1].split(",")
    assert first[0] == "1"
    assert lines[-1].split(",")[0] == "300"


def test_summary_csv_structure(tiny_bundle):
    _, out = tiny_bundle
    lines = (out / "theta_0" / "summary.csv").read_text().splitlines()
    assert "# group = theta_0" in lines
    assert "# rng = pcg64/box-muller" in lines
    assert "# N = 300" in lines
    header_at = lines.index("seed,final_dist,min_dist,diverged")
    rows = lines[header_at + 1 :]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert all(row.split(",")[3] in ("0", "1") for row in rows)


def test_summary_matches_trace(tiny_bundle):
    _, out = tiny_bundle
    trace_lines = (out / "theta_0" / "trace_seed1.csv").read_text().splitlines()
    final_dist = trace_lines[-1].split(",")[1]
    summary = (out / "theta_0" / "summary.csv").read_text().splitlines()
    row = next(ln for ln in summary if ln.startswith("1,"))
    assert row.split(",")[1] == final_dist
    min_dist = min(
        float(ln.split(",")[1])
        for ln in trace_lines
        if ln[0].isdigit()
    )
    assert float(row.split(",")[2]) == min_dist


def test_bundle_lf_only(tiny_bundle):
    _, out = tiny_bundle
    for group in ("theta_0", "theta_0.5"):
        for name in os.listdir(out / group):
            raw = (out / group / name).read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")


def _tree_bytes(root):
    tree = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            tree[os.path.relpath(path, root)] = open(path, "rb").read()
    return tree


def test_bundle_bytes_are_reproducible(tiny_bundle, tmp_path):
    _, out = tiny_bundle
    config = parse_config(TINY_RUN)
    run_experiment(config, out_dir=str(tmp_path / "again"))
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "again")


def test_run_requires_output_directory():
    with pytest.raises(ConfigurationError, match="no output directory"):
        run_experiment(parse_config(TINY_RUN))


def test_instance_file_roundtrip(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.txt"
    cache_path = tmp_path / "inst.txt.cache"
    text = TINY_RUN + f"instance = {inst_path}\n"
    config = parse_config(text)
    run_experiment(config, out_dir=str(tmp_path / "a"))
    assert inst_path.exists() and cache_path.exists()
    inst = load_instance(str(inst_path))
    assert (inst.kind, inst.m, inst.n) == ("least_squares", 60, 6)
    # the second run loads the dump through its cache instead of regenerating
    # or parsing the text, bytes unchanged
    with monkeypatch.context() as patch:
        patch.setattr(problems, "_load_text", lambda path: pytest.fail("the text was parsed"))
        run_experiment(parse_config(text), out_dir=str(tmp_path / "b"))
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    # the third parses the text alone, bytes unchanged
    cache_path.unlink()
    run_experiment(parse_config(text), out_dir=str(tmp_path / "c"))
    assert not cache_path.exists()
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "c")


def test_instance_file_shape_mismatch(tmp_path):
    inst_path = tmp_path / "inst.txt"
    dump_instance(gen("least_squares", 30, 4, 3), str(inst_path))
    text = TINY_RUN + f"instance = {inst_path}\n"
    with pytest.raises(ConfigurationError, match="config wants"):
        run_experiment(parse_config(text), out_dir=str(tmp_path / "out"))


def test_instance_file_without_reference_rejected(tmp_path):
    bare = ProblemInstance(
        kind="least_squares",
        rows=np.array([[1.0, 0.0], [0.0, 1.0]]),
        targets=np.array([1.0, 2.0]),
        lam=0.0,
        seed=0,
    )
    inst_path = tmp_path / "bare.txt"
    dump_instance(bare, str(inst_path))
    text = TINY_RUN.replace("m = 60", "m = 2").replace("n = 6", "n = 2")
    text += f"instance = {inst_path}\n"
    with pytest.raises(ConfigurationError, match="no reference optimum"):
        run_experiment(parse_config(text), out_dir=str(tmp_path / "out"))


def test_lasso_instance_gets_reference_attached(tmp_path):
    inst_path = tmp_path / "lasso.txt"
    dump_instance(gen("lasso", 30, 4, 3, lam=0.5), str(inst_path))
    text = (
        "method = composite\nkind = lasso\nm = 30\nn = 4\nlambda = 0.5\n"
        "N = 100\nseeds = 1\nstep.family = power\nstep.c = 1/16\n"
        "step.s = 3\nstep.p = 8/9\nmom.family = constant\nmom.theta = 0.5\n"
        f"instance = {inst_path}\n"
    )
    bundle = run_experiment(parse_config(text), out_dir=str(tmp_path / "out"))
    assert bundle.instance.reference_optimum is not None
    mismatched = text.replace("lambda = 0.5", "lambda = 0.25")
    with pytest.raises(ConfigurationError, match="lambda"):
        run_experiment(parse_config(mismatched), out_dir=str(tmp_path / "out2"))


def test_a_run_never_writes_its_dump(tmp_path):
    """A run on a lasso dump without a reference solves it for the run only:
    a read-only dump reached through a symbolic link keeps its link, its
    mode and its text and cache bytes."""
    shared = tmp_path / "shared" / "lasso.txt"
    shared.parent.mkdir()
    dump_instance(gen("lasso", 30, 4, 3, lam=0.5), str(shared))
    shared.chmod(0o444)
    before = {p.name: p.read_bytes() for p in shared.parent.iterdir()}
    link = tmp_path / "lasso.txt"
    link.symlink_to(shared)
    text = (
        "method = composite\nkind = lasso\nm = 30\nn = 4\nlambda = 0.5\n"
        "N = 100\nseeds = 1\nstep.family = power\nstep.c = 1/16\n"
        "step.s = 3\nstep.p = 8/9\nmom.family = constant\nmom.theta = 0.5\n"
        f"instance = {link}\n"
    )
    bundle = run_experiment(parse_config(text), out_dir=str(tmp_path / "out"))
    assert bundle.instance.reference_optimum is not None
    assert link.is_symlink() and shared.stat().st_mode & 0o7777 == 0o444
    assert {p.name: p.read_bytes() for p in shared.parent.iterdir()} == before


def test_run_results_read_their_trace(tmp_path):
    """final_dist, min_dist and diverged of a finished and of a diverging
    run agree with the trace's checkpoints and diverged_at."""
    diverging = (
        "method = ssgd\nkind = least_squares\nm = 40\nn = 5\nN = 200\nseeds = 1\n"
        "step.family = constant\nstep.c = 10\nmom.family = constant\nmom.theta = 0.9\n"
    )
    for text, diverges in ((TINY_RUN, False), (diverging, True)):
        bundle = run_experiment(parse_config(text), out_dir=str(tmp_path / str(diverges)))
        result = bundle.groups[0].runs[0]
        dists = [cp.dist for cp in result.trace.checkpoints]
        assert result.diverged == result.trace.diverged == diverges
        assert (result.trace.diverged_at is not None) == diverges
        assert result.final_dist == dists[-1]
        assert result.min_dist == min(dists)


# ---------------------------------------------------------------------------
# plot data


def test_plotdata_real_bundle(tiny_bundle):
    _, out = tiny_bundle
    text = plotdata(str(out))
    lines = text.splitlines()
    assert lines[0] == f"# bundle = {os.path.basename(str(out))}"
    assert lines[1] == "log10_k,theta_0,theta_0.5"
    assert lines[2].startswith("0,")  # k = 1
    assert len(lines) >= 10


def _write_fake_trace(path, rows):
    lines = ["k,dist,obj_gap,increment,alpha,theta"]
    lines += [f"{k},{dist},0,0,0.1,0" for k, dist in rows]
    path.write_text("\n".join(lines) + "\n")


def test_plotdata_sentinel_and_missing(tmp_path):
    root = tmp_path / "fake"
    (root / "theta_0.5").mkdir(parents=True)
    (root / "theta_1").mkdir()
    _write_fake_trace(root / "theta_0.5" / "trace_seed1.csv", [(1, 10.0)])
    _write_fake_trace(root / "theta_1" / "trace_seed1.csv", [(1, 0.0), (2, 100.0)])
    lines = plotdata(str(root)).splitlines()
    assert lines[1] == "log10_k,theta_0.5,theta_1"  # numeric group order
    row_k1 = lines[2].split(",")
    assert row_k1[1] == "1"    # log10(10)
    assert row_k1[2] == "-16"  # exact zero sentinel
    row_k2 = lines[3].split(",")
    assert row_k2[1] == "nan"  # group has no k = 2 checkpoint
    assert row_k2[2] == "2"


def test_plotdata_puts_named_groups_after_numeric_ones(tmp_path):
    root = tmp_path / "named"
    for name in ("theta_harmonic", "theta_1", "theta_0.5"):
        (root / name).mkdir(parents=True)
        _write_fake_trace(root / name / "trace_seed1.csv", [(1, 10.0)])
    lines = plotdata(str(root)).splitlines()
    assert lines[1] == "log10_k,theta_0.5,theta_1,theta_harmonic"


def test_plotdata_median_over_seeds(tmp_path):
    root = tmp_path / "med"
    (root / "theta_0").mkdir(parents=True)
    for seed, dist in ((1, 1.0), (2, 100.0), (3, 10.0)):
        _write_fake_trace(root / "theta_0" / f"trace_seed{seed}.csv", [(1, dist)])
    lines = plotdata(str(root)).splitlines()
    assert lines[2].split(",")[1] == "1"  # median 10 -> log10 = 1


def test_plotdata_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="no bundle"):
        plotdata(str(tmp_path / "missing"))
    with pytest.raises(ConfigurationError, match="no traces"):
        plotdata(str(tmp_path))


_HEADER = b"k,dist,obj_gap,increment,alpha,theta\n"


@pytest.mark.parametrize(
    "content, lineno, message",
    [
        (b"# method = ssgd\n1,10,0,0,0.1,0\n" + _HEADER, 2, "expected the column header"),
        (b"# method = ssgd\n" + _HEADER + b"1,1\xff0,0,0,0.1,0\n", 3, "could not convert"),
        (b"\xff" + _HEADER, 1, "expected the column header"),
        (_HEADER + b"1,10,0,0,0.1,0\n2\n", 3, "row has 1 fields, expected 6"),
        (_HEADER + b"one,10,0,0,0.1,0\n", 2, "invalid literal"),
        (_HEADER + b"0,10,0,0,0.1,0\n", 2, "checkpoint index must be positive"),
        (_HEADER + b"1,nan,0,0,0.1,0\n", 2, "dist must be finite"),
        (_HEADER + b"\n1,-1,0,0,0.1,0\n", 3, "dist must be finite"),
    ],
    ids=["row-before-header", "byte-in-row", "byte-in-header", "short-row", "word-k",
         "zero-k", "nan-dist", "negative-dist"],
)
def test_plotdata_malformed_trace_names_file_and_line(tmp_path, capsys, content, lineno, message):
    root = tmp_path / "bad"
    (root / "theta_0.5").mkdir(parents=True)
    _write_fake_trace(root / "theta_0.5" / "trace_seed1.csv", [(1, 10.0)])
    bad = root / "theta_0.5" / "trace_seed2.csv"
    bad.write_bytes(content)
    with pytest.raises(ConfigurationError, match=message) as info:
        plotdata(str(root))
    assert str(info.value).startswith(f"{bad} line {lineno}: ")
    assert main(["plotdata", "--out", str(root)]) == 2
    assert f"{bad} line {lineno}: " in capsys.readouterr().err


def test_plotdata_ignores_bad_bytes_in_comments(tmp_path):
    root = tmp_path / "ok"
    (root / "theta_0").mkdir(parents=True)
    path = root / "theta_0" / "trace_seed1.csv"
    path.write_bytes(b"# method = s\xffgd\n" + _HEADER + b"1,10,0,0,0.1,0\n")
    assert plotdata(str(root)).splitlines()[2] == "0,1"


# ---------------------------------------------------------------------------
# lemma suite bundles


def test_lemma_suite_writes_csvs(tmp_path):
    config = parse_lemma_config("lemmas = relay\npaths = 10\nlength = 300\nbranches = 40\nseed = 3\n")
    reports, all_good = run_lemma_suite(config, out_dir=str(tmp_path))
    assert all_good
    assert len(reports) == 1 and reports[0].passed
    summary = (tmp_path / "lemma_summary.csv").read_text().splitlines()
    header = (
        "lemma_id,paths,checks,violations,violation_rate,worst_z,"
        "converged_fraction,eta_plateaued,passed"
    )
    assert header in summary
    row = summary[summary.index(header) + 1].split(",")
    assert row[0] == "relay"
    assert row[-1] == "1"
    assert row[7] == "na"  # relay asserts no slack sequence
    detail = (tmp_path / "lemma_detail.csv").read_text().splitlines()
    assert detail[0] == "lemma_id,path,step,V_n,estimate,z_score"
    assert len(detail) == 1 + reports[0].checks


def test_cli_lemma_control_notes_expected_failures(tmp_path, capsys):
    config = _write(
        tmp_path / "c.txt",
        "lemmas = relay\ncontrol = drift\npaths = 10\nlength = 300\nbranches = 40\n",
    )
    assert main(["lemma", "--config", config, "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("FAIL relay: ")
    assert err == "control=drift: expecting failures\n"


def test_cli_lemma_without_output_directory_exits_two(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", "lemmas = relay\npaths = 10\nlength = 300\nbranches = 40\n")
    assert main(["lemma", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "configuration error: no output directory (give out = PATH or --out)\n"


def test_lemma_suite_control_inverts_success(tmp_path):
    config = parse_lemma_config(
        "lemmas = relay\ncontrol = drift\npaths = 10\nlength = 300\nbranches = 40\n"
    )
    reports, all_good = run_lemma_suite(config, out_dir=str(tmp_path))
    assert all_good  # success now means the broken hypothesis failed
    assert not reports[0].passed
    summary = (tmp_path / "lemma_summary.csv").read_text().splitlines()
    assert summary[-1].split(",")[-1] == "0"


def test_lemma_suite_reports_hold_their_rows_in_arrays(tmp_path):
    """At the defaults (7 scenarios x 200 paths x 24 probes, 200 branches)
    a suite that writes its CSVs traces under 10 MiB, of which the two
    path-sized Scratch buffers take 6.1 MiB, and the reports it returns hold
    under 2 MiB: 40 B a probe, no Python object per row."""
    run_lemma_suite(parse_lemma_config("lemmas = all\npaths = 3\nlength = 100\nbranches = 30\n"))
    config = parse_lemma_config("lemmas = all\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports, all_good = run_lemma_suite(config, out_dir=str(tmp_path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all_good and sum(rep.checks for rep in reports) > 30_000
    assert peak - before < 10 * 2**20, (peak - before) / 2**20
    assert held - before < 2 * 2**20, (held - before) / 2**20


def test_lemma_suite_checks_each_scenario_through_run_lemma_check(monkeypatch):
    """run_lemma_suite looks up the module-global harness.run_lemma_check
    once per scenario and reports what it returns; the benchmark replaces
    that name to count and time the checks."""
    calls = []

    def counted(lemma_id, **kwargs):
        report = diagnostics.run_lemma_check(lemma_id, **kwargs)
        calls.append((lemma_id, report))
        return report

    monkeypatch.setattr(harness, "run_lemma_check", counted)
    config = parse_lemma_config(
        "lemmas = relay, first_order, drift\npaths = 4\nlength = 100\nbranches = 30\n"
    )
    reports, _ = run_lemma_suite(config)
    assert [lemma_id for lemma_id, _ in calls] == ["relay", "first_order", "drift"]
    assert [id(rep) for rep in reports] == [id(rep) for _, rep in calls]


def test_run_experiment_runs_each_pair_through_run(tmp_path, monkeypatch):
    """run_experiment looks up the module-global harness.run once per
    (momentum, seed) pair and bundles the traces it returns; the benchmark
    replaces that name to count and time the solver runs, so a sweep that
    bypassed it would leave the benchmark no timed unit."""
    calls = []

    def counted(config, inst):
        trace = solvers.run(config, inst)
        calls.append((config.momentum.theta, config.seed, trace))
        return trace

    monkeypatch.setattr(harness, "run", counted)
    bundle = run_experiment(parse_config(TINY_RUN), out_dir=str(tmp_path))
    assert [call[:2] for call in calls] == [(0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)]
    bundled = [result.trace for group in bundle.groups for result in group.runs]
    assert [id(trace) for trace in bundled] == [id(call[2]) for call in calls]


_LEMMA_SIZES = "paths = 20\nlength = 300\nbranches = 40\nseed = 3\n"


@pytest.mark.parametrize(
    "text, summary_sha, detail_sha",
    [
        (
            "lemmas = all\n",
            "62cc9104c86226a7903589b2fd11faf5ac8474d5387ed4dcf1e428c0ccc487e2",
            "ba6f9389f7c98a5fd7acfe82cffa9d2efeac3b9212584000d190e83bb0e3c96f",
        ),
        (
            "lemmas = all\ncontrol = drift\n",
            "cf95e8efe4f5beee5d6595046ce0c6c39aef691fcf48e34ef2728212ecb65d61",
            "19b06626b8d1cb87cf065b4a2eb878b117ba594552b8accd4c3c2996972a31b5",
        ),
        (
            "lemmas = drift,drift_const,slack,coupled,coupled_weighted\ncontrol = theta\n",
            "d23e41f52def174b6172b0dc48b3172ad60c991278cc85b443a86ba106e19857",
            "d7af2eb58e89d7c5f2c5660bf93aa15d6483b11962ea187906108bc9721d4c49",
        ),
    ],
    ids=["all", "control-drift", "control-theta"],
)
def test_lemma_csv_bytes_are_pinned(tmp_path, text, summary_sha, detail_sha):
    """Golden hashes of both lemma CSVs (every scenario, both controls) on
    numpy 2.4 / x86-64: a rewrite of the ensembles must not move a byte."""
    run_lemma_suite(parse_lemma_config(text + _LEMMA_SIZES), out_dir=str(tmp_path))
    for name, expected in (("lemma_summary.csv", summary_sha), ("lemma_detail.csv", detail_sha)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


@pytest.mark.parametrize(
    "lines",
    [[], [""], ["a"], ["# k = v", "h1,h2", "1,2\n3,4"], ["", "", "x"], ["caf\u00e9,\u03b8"]],
)
def test_write_lines_keeps_the_joined_bytes(tmp_path, lines):
    """Written a line at a time, a file has the bytes of its lines joined
    by LF plus a final LF: one LF for no lines, UTF-8, no CR."""
    path = tmp_path / "f.csv"
    harness._write_lines(str(path), lines)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _tree_sha256(root) -> str:
    """One sha256 over a bundle tree: each file's relative path, size and
    bytes, in path order."""
    digest = hashlib.sha256()
    for rel, data in sorted(_tree_bytes(root).items()):
        digest.update(rel.replace(os.sep, "/").encode() + b"\0")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


_PIN_RUN = (
    "m = 40\nn = 5\nN = 400\nseeds = 1,2\nproblem.seed = 7\nmom.sweep = 0,0.5,0.9\n"
    "step.family = power\nstep.c = 1/16\nstep.s = 3\nstep.p = 8/9\n"
)


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "method = ssgd\nkind = least_squares\n",
            "3c16a1c346b1875ad95695d1fe7e852efe2bce682953ff98f7facc5ef2dbeeb2",
        ),
        (
            "method = ssgd\nkind = least_squares\nconstraint = ball:0.5\n",
            "f471558875105375509dba97798b8f5f309d0d3e835d38f06a0d8a69189a854d",
        ),
        (
            "method = ssgd\nkind = least_absolute\nconstraint = box:-0.25:0.25\n",
            "af9a51a6de85ca4dd0b6a881f332f4688a9e2e205cc163a54c62aea31f1203a2",
        ),
        (
            "method = prox_rm\nkind = least_squares\n",
            "e7b57e83fd0c550343f76d44f8e11d2531c01498a79f5c8deae7a1cadca70861",
        ),
        (
            "method = prox_rm\nkind = least_absolute\n",
            "136b2f5f333dec22422f1b6061df19304b88faa5ba12648222e4eaff757c37b4",
        ),
        (
            "method = composite\nkind = lasso\nlambda = 0.3\n",
            "1fa242711497ba8b601b33b4509262daf7feeef774b1443cfc96523c15624b42",
        ),
        (
            "method = composite\nkind = lasso\nlambda = 0.3\ncomposite.order = implicit_first\n",
            "3daf7a61eeddbac8a110c5e9077ac332231b34562cb1497c6d1db1edd5e02a30",
        ),
        (
            # theta 0 converges; both theta 0.9 runs diverge near step 360
            "method = ssgd\nkind = least_squares\nmom.sweep = 0,0.9\n"
            "step.family = constant\nstep.c = 0.5\n",
            "0cf6a4e1319a68723c2ed30d057e9a0a70b355f9791ee88bf78674eb74ff75e6",
        ),
    ],
    ids=[
        "ssgd-none", "ssgd-ball", "ssgd-box", "proxrm-lsq", "proxrm-lad",
        "composite-explicit", "composite-implicit", "ssgd-diverging-sweep",
    ],
)
def test_run_bundle_bytes_are_pinned(tmp_path, text, expected):
    """Golden hashes of whole run bundles for every update rule on numpy
    2.4 / x86-64: a rewrite of the solver loop must not move a byte."""
    lines = dict(line.split(" = ", 1) for line in (_PIN_RUN + text).splitlines())
    config = parse_config("".join(f"{key} = {value}\n" for key, value in lines.items()))
    run_experiment(config, out_dir=str(tmp_path))
    assert _tree_sha256(tmp_path) == expected


def test_run_bundle_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A short lad-proxrm bundle (10000 x 100) is the same tree at one and at
    two BLAS threads. OpenBLAS fixes its thread count when it loads, so each
    run is a fresh interpreter."""
    src = str(Path(nagsa.__file__).resolve().parents[1])
    config = _write(tmp_path / "c.txt", "preset = lad-proxrm\nN = 2000\nseeds = 1,2\n")
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = tmp_path / f"threads_{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "nagsa.cli", "run", "--config", config, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(_tree_sha256(out))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# command line


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_cli_run_success(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", TINY_RUN)
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "out")
    assert (tmp_path / "out" / "theta_0" / "summary.csv").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        # (k + 3)^100 passes the float range at k = 1207, in the first draw block
        ("step.p = 8/9\nmom.sweep = 0,0.5\n", "step.p = 100\nmom.sweep = 0,0.5\n"),
        # 0.5 / 2^2000: the power momentum overflows when the config is parsed
        ("mom.sweep = 0,0.5\n", "mom.family = power\nmom.c = 0.5\nmom.s = 1\nmom.p = 2000\n"),
    ],
)
def test_cli_run_with_power_schedules_past_the_float_range(tmp_path, capsys, old, new):
    config = _write(tmp_path / "c.txt", TINY_RUN.replace("N = 300", "N = 3000").replace(old, new))
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    capsys.readouterr()


def test_cli_run_divergence_exit_code(tmp_path, capsys):
    text = (
        "method = ssgd\nkind = least_squares\nm = 40\nn = 5\nN = 200\nseeds = 1\n"
        "step.family = constant\nstep.c = 10\nmom.family = constant\nmom.theta = 0.9\n"
    )
    config = _write(tmp_path / "c.txt", text)
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "diverged at step" in capsys.readouterr().err


def test_cli_config_errors_exit_two(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    bad = _write(tmp_path / "bad.txt", TINY_RUN + "mom.theta = 1.5\n")
    assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "command, key, template",
    [
        ("run", "m", "{}"),
        ("run", "n", "{}"),
        ("run", "N", "{}"),
        ("run", "problem.seed", "{}"),
        ("run", "lambda", "{}"),
        ("run", "stride", "{}"),
        ("run", "step.c", "{}"),
        ("run", "step.p", "{}"),
        ("run", "step.c", "1/{}"),
        ("run", "mom.sweep", "0,{}"),
        ("run", "constraint", "ball:{}"),
        ("run", "constraint", "box:-1:{}"),
        ("lemma", "paths", "{}"),
        ("lemma", "length", "{}"),
    ],
)
def test_cli_nonfinite_numbers_exit_two(tmp_path, capsys, command, key, template, value):
    base = TINY_RUN if command == "run" else "lemmas = relay\n"
    lines = [ln for ln in base.splitlines() if ln.split("=")[0].strip() != key]
    lines.append(f"{key} = {template.format(value)}")
    config = _write(tmp_path / "c.txt", "\n".join(lines) + "\n")
    rc = main([command, "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"line {len(lines)}" in err


_LONG_LITERALS = {
    "integer-digits": ("N", "9" * 5000),
    "integer-fraction": ("N", "1.5" + "0" * 5000),
    "number": ("step.c", "x" * 5000),
    "number-denominator": ("step.c", "1/" + "y" * 5000),
    "ball": ("constraint", "ball:" + "z" * 5000),
    "box": ("constraint", "box:" + "1:" * 2500),
    "constraint": ("constraint", "cone" * 1250),
    "seeds": ("seeds", "1," * 2500 + "w"),
    "sweep": ("mom.sweep", "0," * 2500 + "v"),
    "kind": ("kind", "k" * 5000),
    "method": ("method", "m" * 5000),
    "composite.order": ("composite.order", "o" * 5000),
    "init": ("init", "i" * 5000),
    "step.family": ("step.family", "f" * 5000),
    "key": ("u" * 5000, "1"),
}


@pytest.mark.parametrize(
    "key, value", list(_LONG_LITERALS.values()), ids=list(_LONG_LITERALS)
)
def test_cli_oversized_literal_is_quoted_short(tmp_path, capsys, key, value):
    """A refused literal of 5000 characters exits 2 naming its line, and no
    stderr line quotes more than its head."""
    lines = [ln for ln in TINY_RUN.splitlines() if ln.split("=")[0].strip() != key]
    lines.append(f"{key} = {value}")
    config = _write(tmp_path / "c.txt", "\n".join(lines) + "\n")
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"line {len(lines)}: " in err
    assert "chars)" in err
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("N", "1.5", "expected an integer (at most 2^53 unless written in digits), got '1.5'"),
        ("step.c", "abc", "malformed number 'abc' (could not convert string to float: 'abc')"),
        ("step.c", "1/", "malformed number '1/' (could not convert string to float: '')"),
        ("seeds", "1,x", "malformed seed list '1,x'"),
        ("constraint", "ball:r", "malformed ball radius in 'ball:r'"),
        ("seeds", "1," * 19 + "xy", f"malformed seed list {'1,' * 19 + 'xy'!r}"),
        ("seeds", "1," * 19 + "xyz", f"malformed seed list {'1,' * 19 + 'xy'!r}… (41 chars)"),
    ],
)
def test_config_errors_quote_short_literals_whole(key, value, message):
    """Literals of at most 40 characters keep their whole quote; from 41 on
    the quote is the first 40 and the length."""
    lines = [ln for ln in TINY_RUN.splitlines() if ln.split("=")[0].strip() != key]
    lines.append(f"{key} = {value}")
    with pytest.raises(ConfigurationError) as info:
        parse_config("\n".join(lines) + "\n")
    assert f"line {len(lines)}: {message}" in str(info.value)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "lambda", "-0.5"),
        ("run", "problem.seed", "-1"),
        ("run", "N", "1"),
        ("run", "stride", "1"),
        ("run", "init", "ones"),
        ("run", "method", "sgd"),
        ("run", "composite.order", "sideways"),
        ("lemma", "seed", "-1"),
        ("lemma", "length", "50"),
        ("lemma", "length", "99"),
        ("run", "N", "1" + "0" * 39),
        ("run", "N", "9" * 4000),
        ("run", "N", "9007199254740993"),
        ("run", "problem.seed", "1e300"),
        ("run", "problem.seed", "9007199254740994.0"),
        ("lemma", "seed", "1e300"),
    ],
)
def test_cli_values_that_fail_at_run_time_exit_two(tmp_path, capsys, command, key, value):
    """Values that would fail later, and number literals past 2^53 that an
    integer key cannot take exactly, are refused naming their line."""
    base = TINY_RUN if command == "run" else "lemmas = relay\npaths = 5\nbranches = 30\n"
    lines = [ln for ln in base.splitlines() if ln.split("=")[0].strip() != key]
    lines.append(f"{key} = {value}")
    config = _write(tmp_path / "c.txt", "\n".join(lines) + "\n")
    rc = main([command, "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: line {len(lines)}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value, got",
    [
        ("9007199254740993", "got 9007199254740993"),
        ("1" + "0" * 39, "got an integer of 130 bits"),
        ("9" * 4000, "got an integer of 13288 bits"),
        ("-" + "9" * 4000, "got an integer of 13288 bits"),
    ],
)
def test_iteration_budget_past_two_to_the_53_is_refused(value, got):
    """The schedules evaluate k + s in float64, exact up to 2^53: a larger N
    is refused naming its line, in a message that does not grow with N."""
    lines = [ln for ln in TINY_RUN.splitlines() if ln.split("=")[0].strip() != "N"]
    lines.append(f"N = {value}")
    with pytest.raises(ConfigurationError) as info:
        parse_config("\n".join(lines) + "\n")
    message = str(info.value)
    assert message == f"line {len(lines)}: iteration budget N must lie in [2, 2^53], {got}"
    assert parse_config(TINY_RUN.replace("N = 300", "N = 9007199254740992")).iterations == 2**53


@pytest.mark.parametrize("key", ["step.c", "step.s", "step.p"])
def test_malformed_step_number_names_its_own_line(key):
    """A step number that does not parse is refused on its own line, not on
    the step.family line."""
    lines = [ln for ln in TINY_RUN.splitlines() if ln.split("=")[0].strip() != key]
    lines.append(f"{key} = 1/x")
    with pytest.raises(ConfigurationError) as info:
        parse_config("\n".join(lines) + "\n")
    assert str(info.value).startswith(f"line {len(lines)}: malformed number '1/x'")


@pytest.mark.parametrize(
    "text, where",
    [
        ("preset = lsq-ssgd\nN = 2000000\nstride = 1.000000001\n", "line 2, line 3"),
        ("preset = lsq-ssgd\nstride = 1.0000000000000002\nN = 1048577\n", "line 3, line 2"),
        ("preset = lsq-ssgd\nN = 4000000\nstride = 1.0000001\n", "line 2, line 3"),
    ],
)
def test_cli_refuses_too_many_checkpoints(tmp_path, capsys, text, where):
    """More than 2^20 checkpoints exit 2 naming the N and stride lines,
    before any run or output."""
    config = _write(tmp_path / "c.txt", text)
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: {where}: " in err
    assert "1048576 checkpoints" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("constraint", "ball:0.001"), ("method", "composite"), ("kind", "lasso")],
)
def test_cli_refused_pairing_exits_two(tmp_path, capsys, key, value):
    """A pairing that the solver would ignore exits 2 naming the line that
    set it, before any run or output."""
    text = f"preset = lsq-proxrm\nN = 50\n{key} = {value}\n"
    config = _write(tmp_path / "c.txt", text)
    rc = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error: line 3: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, data, line",
    [
        ("lemma", b"lemmas = relay\npaths = 5\nlength = 1\xff00\n", 3),
        ("run", TINY_RUN.encode().replace(b"m = 60", b"m = 6\xff0"), 3),
        ("run", TINY_RUN.encode() + b"out = results\xff\n", 12),
        ("gen", TINY_RUN.encode() + b"instance = dump\xfe.txt\n", 12),
    ],
    ids=["lemma-number", "run-number", "run-out-path", "gen-instance-path"],
)
def test_cli_config_bytes_not_utf8_exit_two(tmp_path, capsys, command, data, line):
    """A byte that is not UTF-8 is refused naming its line, before any output."""
    config = tmp_path / "c.txt"
    config.write_bytes(data)
    rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: line {line}: bytes that are not UTF-8")
    assert os.listdir(tmp_path) == ["c.txt"]


@pytest.mark.parametrize("command", ["gen", "run", "lemma"])
def test_cli_negative_seed_flag_exits_two(tmp_path, capsys, command):
    text = TINY_RUN if command != "lemma" else "lemmas = relay\n"
    config = _write(tmp_path / "c.txt", text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, "--out", str(tmp_path / "out"), "--seed", "-3"])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["algebra", "--n", "abc"], "argument --n: expected an integer from 0 to "),
        (["run", "--config", "c.txt", "--seed", "abc"], "argument --seed: expected a non-negative"),
    ],
    ids=["rows", "seed"],
)
def test_cli_non_integer_flag_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "run", "lemma"])
def test_cli_unwritable_output_exits_two(tmp_path, capsys, monkeypatch, command):
    """The output directory is created before the first scenario or solver
    run, so an unwritable one costs no compute."""
    computed = []

    def must_not_compute(*args, **kwargs):
        computed.append(args)
        raise AssertionError("computed before the output directory was made")

    monkeypatch.setattr(harness, "run_lemma_check", must_not_compute)
    monkeypatch.setattr(harness, "run", must_not_compute)
    text = TINY_RUN if command != "lemma" else "lemmas = relay\npaths = 5\nlength = 100\n"
    config = _write(tmp_path / "c.txt", text)
    blocker = _write(tmp_path / "file", "a regular file\n")
    out = os.path.join(blocker, "out")
    rc = main([command, "--config", config, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "file" in err and "Traceback" not in err
    assert computed == []


def test_cli_unexpected_exception_exits_four(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_lemma_suite", broken)
    config = _write(tmp_path / "c.txt", "lemmas = relay\n")
    rc = main(["lemma", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_cli_lemma_pass(tmp_path, capsys):
    config = _write(
        tmp_path / "l.txt", "lemmas = relay\npaths = 10\nlength = 300\nbranches = 40\n"
    )
    rc = main(["lemma", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "PASS relay" in capsys.readouterr().out
    assert (tmp_path / "out" / "lemma_summary.csv").exists()


def test_cli_lemma_failure_exit_code(tmp_path, capsys):
    # at length 100 the slack partial sums are still visibly growing, so the
    # plateau assertion honestly fails
    config = _write(
        tmp_path / "l.txt", "lemmas = slack\npaths = 5\nlength = 100\nbranches = 40\n"
    )
    rc = main(["lemma", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "FAIL slack" in capsys.readouterr().out


def test_cli_gen_prints_instance_path(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", TINY_RUN)
    rc = main(["gen", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0
    path = capsys.readouterr().out.strip()
    assert path == str(tmp_path / "out" / "instance.txt")
    inst = load_instance(path)
    assert (inst.m, inst.n) == (60, 6)


def test_cli_gen_needs_location(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", TINY_RUN)
    assert main(["gen", "--config", config]) == 2


def test_cli_algebra_table(capsys):
    rc = main(["algebra", "--family", "constant", "--theta", "0.5", "--n", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,theta,d,c,residual,t"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 0.5
    assert float(first[5]) == 1.0  # constant tail sum theta / (1 - theta)


def test_cli_plotdata(tiny_bundle, capsys):
    _, out = tiny_bundle
    rc = main(["plotdata", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("# bundle =")


def test_cli_plotdata_prints_the_columns_and_takes_no_seed(tiny_bundle, tmp_path, capsys):
    """plotdata --out B prints plotdata(B); so does a --config whose out is
    B. --seed, which plotdata would ignore, exits 2 from the parser."""
    _, out = tiny_bundle
    want = plotdata(str(out))
    assert main(["plotdata", "--out", str(out)]) == 0
    assert capsys.readouterr().out == want
    config = _write(tmp_path / "c.txt", TINY_RUN + f"out = {out}\n")
    assert main(["plotdata", "--config", config]) == 0
    assert capsys.readouterr().out == want
    with pytest.raises(SystemExit) as exc:
        main(["plotdata", "--out", str(out), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert main(["plotdata"]) == 2


@pytest.mark.parametrize("command", ["gen", "run", "lemma"])
def test_cli_seed_flag_overrides_the_config(tmp_path, capsys, command):
    """--seed 7 writes every file byte for byte as a config whose seed line
    (problem.seed, seeds or seed) says 7, so the echoed headers name the seed
    that ran."""
    lemma = "lemmas = relay\npaths = 3\nlength = 300\nbranches = 30\n"
    text, with_key = {
        "gen": (TINY_RUN, TINY_RUN + "problem.seed = 7\n"),
        "run": (TINY_RUN, TINY_RUN.replace("seeds = 1,2\n", "seeds = 7\n")),
        "lemma": (lemma, lemma + "seed = 7\n"),
    }[command]
    config = _write(tmp_path / "c.txt", text)
    out = tmp_path / "out"
    rc = main([command, "--config", config, "--out", str(out), "--seed", "7"])
    assert rc == 0
    keyed = tmp_path / "keyed"
    assert main([command, "--config", _write(tmp_path / "k.txt", with_key), "--out", str(keyed)]) == 0
    assert _tree_bytes(out) == _tree_bytes(keyed)
    if command == "gen":
        assert load_instance(str(out / "instance.txt")).seed == 7
    elif command == "run":
        assert sorted(os.listdir(out / "theta_0")) == ["summary.csv", "trace_seed7.csv"]
        assert "# seeds = 7\n" in (out / "theta_0" / "summary.csv").read_text()
    else:
        assert "# seed = 7\n" in (out / "lemma_summary.csv").read_text()


def test_cli_seed_flag_does_not_leak_into_the_next_call(tmp_path, capsys):
    """main reuses one parser: after `run --seed 7`, a run without --seed
    runs and echoes the config's own seed list."""
    config = _write(tmp_path / "c.txt", TINY_RUN)
    assert main(["run", "--config", config, "--out", str(tmp_path / "seeded"), "--seed", "7"]) == 0
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert sorted(os.listdir(tmp_path / "out" / "theta_0")) == [
        "summary.csv",
        "trace_seed1.csv",
        "trace_seed2.csv",
    ]
    assert "# seeds = 1,2\n" in (tmp_path / "out" / "theta_0" / "summary.csv").read_text()


def test_cli_plotdata_finds_the_bundle_through_the_config(tiny_bundle, tmp_path, capsys):
    _, out = tiny_bundle
    config = _write(tmp_path / "c.txt", TINY_RUN + f"out = {out}\n")
    assert main(["plotdata", "--config", config]) == 0
    assert capsys.readouterr().out == plotdata(str(out))


def test_cli_run_without_step_c_exits_two(tmp_path, capsys):
    config = _write(tmp_path / "c.txt", TINY_RUN.replace("step.c = 1/16\n", ""))
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "missing required key 'step.c'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
