"""Package-wide invariants that no single module's tests own."""

import ast
import importlib
import os
import pkgutil
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
    scipy module."""
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


def test_cli_imports_only_public_algebra_names():
    """Every name cli.py imports from momentum_algebra is in its __all__."""
    from nagsa import momentum_algebra

    tree = ast.parse(Path(nagsa.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "momentum_algebra"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(momentum_algebra.__all__), sorted(
        set(imported) - set(momentum_algebra.__all__)
    )
