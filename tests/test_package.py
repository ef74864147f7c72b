"""Package-wide invariants that no single module's tests own."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nagsa

_MODULES = sorted(f"nagsa.{info.name}" for info in pkgutil.iter_modules(nagsa.__path__))


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_all_name_resolves(module_name):
    """Each name a module exports in __all__ exists: `from module import *`
    and tools that getattr every exported name (the span tracer of
    perfbench) would otherwise fail on a stale entry."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_cli_lemma_suite_and_run_import_no_scipy(tmp_path):
    """In a fresh interpreter, importing nagsa.cli, printing an algebra
    table, running a 3-path lemma suite and a short lsq-ssgd run import no
    scipy module, and nothing before the run imports concurrent or logging,
    which only the run's objective pass worker needs."""
    src = str(Path(nagsa.__file__).resolve().parents[1])
    (tmp_path / "lemma.cfg").write_text("lemmas = all\npaths = 3\nbranches = 30\n")
    (tmp_path / "run.cfg").write_text("preset = lsq-ssgd\nN = 500\nseeds = 1\nmom.sweep = 0.5\n")
    code = (
        "import sys\n"
        "from nagsa.cli import main\n"
        "assert main(['algebra', '--n', '50']) == 0\n"
        # 69 checks a scenario are too few to pass reliably; exit 1 is a
        # finished suite whose checks failed
        f"assert main(['lemma', '--config', {str(tmp_path / 'lemma.cfg')!r},"
        f" '--out', {str(tmp_path / 'lemma')!r}]) in (0, 1)\n"
        "early = sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging'))\n"
        "assert not early, early\n"
        f"assert main(['run', '--config', {str(tmp_path / 'run.cfg')!r},"
        f" '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "leaked = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not leaked, leaked\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lemma" / "lemma_summary.csv").exists()


def test_cli_import_builds_no_parser():
    """In a fresh interpreter, importing nagsa.cli leaves the parser cache
    empty: the parser is built on the first main call, not at import."""
    src = str(Path(nagsa.__file__).resolve().parents[1])
    code = (
        "import nagsa.cli\n"
        "assert nagsa.cli.build_parser.cache_info().currsize == 0\n"
        "assert nagsa.cli.main(['algebra', '--n', '1']) == 0\n"
        "assert nagsa.cli.build_parser.cache_info().currsize == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_cli_algebra_and_help_load_no_experiment_module(tmp_path):
    """In a fresh interpreter, importing nagsa.cli, printing an algebra table
    and asking for help load none of the modules behind gen, run, lemma and
    plotdata; those load inside their commands, and a run afterwards works."""
    src = str(Path(nagsa.__file__).resolve().parents[1])
    (tmp_path / "run.cfg").write_text("preset = lsq-ssgd\nN = 300\nseeds = 1\nmom.sweep = 0\n")
    code = (
        "import contextlib, io, sys\n"
        "from nagsa.cli import main\n"
        "assert main(['algebra', '--n', '50']) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['run', '--help'])\n"
        "heavy = ('harness', 'diagnostics', 'solvers', 'problems', '_rng')\n"
        "loaded = sorted(m for m in heavy if 'nagsa.' + m in sys.modules)\n"
        "assert not loaded, loaded\n"
        f"assert main(['run', '--config', {str(tmp_path / 'run.cfg')!r},"
        f" '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "assert 'nagsa.harness' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "theta_0" / "summary.csv").exists()


def test_cli_imports_only_public_algebra_names():
    """Every name cli.py imports from momentum_algebra is in its __all__, but
    for _MAX_HORIZON, the tail recursion's bound that `--n` shares: the table
    reads only public functions."""
    from nagsa import momentum_algebra

    tree = ast.parse(Path(nagsa.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "momentum_algebra"
        for alias in node.names
    ]
    assert imported
    assert set(imported) - {"_MAX_HORIZON"} <= set(momentum_algebra.__all__), sorted(
        set(imported) - set(momentum_algebra.__all__)
    )


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, each in a fresh namespace, so
    a public name the docs use cannot be deleted or renamed unnoticed."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("\n```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_declared_dependencies_are_the_third_party_imports():
    """[project] dependencies name exactly the top-level modules outside the
    standard library that src/nagsa imports: nothing unused is installed, and
    nothing imported is left out."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(nagsa.__file__).resolve().parent
    with open(root.parents[1] / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_") for spec in declared}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"nagsa"}
    assert names == third_party
