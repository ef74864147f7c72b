import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_acceptance: dict[int, tuple[str, str]] = {}
_call_seconds: dict[int, float] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    num, name = int(m.group(1)), m.group(2).replace("_", " ")
    if report.when == "call":
        _call_seconds[num] = report.duration
    if report.failed:
        _acceptance[num] = (name, "FAIL")
    elif report.skipped:
        _acceptance[num] = (name, "SKIP")
    elif report.when == "call" and num not in _acceptance:
        _acceptance[num] = (name, "PASS")


def pytest_terminal_summary(terminalreporter):
    """One line per criterion with its verdict and, when its test body ran,
    the body's wall time, to read against the budget the test asserts."""
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance):
        name, verdict = _acceptance[num]
        took = f" ({_call_seconds[num]:.2f} s)" if num in _call_seconds else ""
        terminalreporter.write_line(f"[criterion {num}] {name}: {verdict}{took}")


@pytest.fixture
def tiny_ls():
    """Small least-squares instance shared by solver and oracle tests."""
    from nagsa.problems import gen

    return gen("least_squares", m=40, n=5, seed=3)


@pytest.fixture
def tiny_lad():
    from nagsa.problems import gen

    return gen("least_absolute", m=40, n=5, seed=3)


@pytest.fixture
def tiny_lasso():
    from nagsa.problems import gen, lasso_reference, with_reference

    inst = gen("lasso", m=40, n=5, seed=3, lam=0.1)
    return with_reference(inst, lasso_reference(inst))


def rel_err(a, b):
    scale = max(abs(float(a)), abs(float(b)), 1e-30)
    return abs(float(a) - float(b)) / scale


@pytest.fixture
def relative_error():
    return rel_err
