"""Output checks: tree hashes, stored references, independent recomputes.

The recomputes below are written from the documented definitions, not by
calling the package, so a change that alters what the program computes
fails them even if it is self-consistent.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

LEMMA_IDS = (
    "relay",
    "drift",
    "drift_const",
    "slack",
    "coupled",
    "first_order",
    "coupled_weighted",
)

# run stream tag of the package's documented seed layout (SeedSequence key)
_STREAM_RUN = 1


def tree_hash(root: Path) -> str:
    """sha256 over the sorted relative paths and contents of every file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def reference_hash(workload: str, seed: int) -> str | None:
    refs = json.loads(REFS_PATH.read_text())
    return refs.get(workload, {}).get(str(seed))


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# algebra table


def check_algebra_table(text: str, s: float, n: int) -> str | None:
    """Check `nagsa algebra --family harmonic` output against a recompute.

    theta_k = 1/(k+s); with P_k the running product of theta_1..theta_k,
    d_k = P_1 + ... + P_{k-1}, c_k = d_k + P_k and
    t_k = sum_{i>=k} prod_{j=k..i} theta_j. d, c and t must agree to 1e-12
    relative; the residual (d_k - c_k)^2 must stay within what that
    tolerance allows around P_k^2. Returns a failure reason or None.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0] != "k,theta,d,c,residual,t":
        return "missing table header"
    if len(lines) != n + 1:
        return f"expected {n} rows, got {len(lines) - 1}"
    prod = 1.0
    d_ref = 0.0
    for k, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if len(fields) != 6 or int(fields[0]) != k:
            return f"malformed row {k}"
        theta, d, c, residual, t = (float(x) for x in fields[1:])
        theta_ref = 1.0 / (k + s)
        if k > 1:
            d_ref += prod
        prod *= theta_ref
        c_ref = d_ref + prod
        t_ref, term, i = 0.0, theta_ref, k
        while term > 1e-18 * t_ref:
            t_ref += term
            i += 1
            term *= 1.0 / (i + s)
        for label, got, want in (
            ("theta", theta, theta_ref),
            ("d", d, d_ref),
            ("c", c, c_ref),
            ("t", t, t_ref),
        ):
            if not _close(got, want, 1e-12):
                return f"row {k}: {label} = {got!r}, recomputed {want!r}"
        slack = prod + 2e-12 * max(abs(c_ref), abs(d_ref))
        if not 0.0 <= residual <= slack * slack:
            return f"row {k}: residual {residual!r} outside [0, {slack * slack!r}]"
    return None


# ---------------------------------------------------------------------------
# one solver run, recomputed from the documented update rules


def _box_muller(gen: np.random.Generator, size: int) -> np.ndarray:
    half = (size + 1) // 2
    u = gen.random((2, half))
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    angle = 2.0 * np.pi * u[1]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]


def _marks(n_final: int, stride: float) -> set[int]:
    ks = {1, 2, n_final}
    k = 2
    while k < n_final:
        k = max(k + 1, int(k * stride))
        if k < n_final:
            ks.add(k)
    return ks


def recompute_trace(
    method: str,
    rows: np.ndarray,
    targets: np.ndarray,
    ref: np.ndarray,
    step_c: float,
    step_s: float,
    step_p: float,
    theta: float,
    iterations: int,
    seed: int,
    stride: float = 1.1,
) -> list[tuple[float, ...]]:
    """Checkpoint rows (k, dist, obj_gap, increment, alpha, theta) of one run.

    Covers `ssgd` on least squares (no constraint) and `prox_rm` on least
    absolute deviations, started from Box-Muller normals of the run stream,
    with power steps c/(k+s)^p, constant momentum and one uniform row draw
    per step.
    """
    m, n = rows.shape
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([_STREAM_RUN, seed])))
    v_prev = _box_muller(gen, n)
    v = v_prev.copy()

    def f(x):
        r = rows @ x - targets
        return float(r @ r) if method == "ssgd" else float(np.sum(np.abs(r)))

    f_ref = f(ref)
    marks = _marks(iterations, stride)
    out = []

    def record(k, first=False):
        inc = 0.0 if first else float(np.linalg.norm(v - v_prev))
        alpha = step_c / (k + step_s) ** step_p
        out.append((k, float(np.linalg.norm(v - ref)), f(v) - f_ref, inc, alpha, theta))

    record(1, first=True)
    record(2)
    for k in range(2, iterations):
        alpha = step_c / (k + step_s) ** step_p
        x = v + theta * (v - v_prev)
        i = int(gen.integers(1, m + 1))
        a = rows[i - 1]
        r = float(a @ x - targets[i - 1])
        if method == "ssgd":
            v_next = x - alpha * ((2.0 * r) * a)
        else:
            q = float(a @ a)
            gamma = np.sign(r) * min(alpha, abs(r) / q)
            v_next = x - gamma * a
        v_prev, v = v, v_next
        if k + 1 in marks:
            record(k + 1)
    return out


def compare_trace_csv(path: Path, expected: list[tuple[float, ...]]) -> str | None:
    text = path.read_text()
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    if rows[0] != ["k", "dist", "obj_gap", "increment", "alpha", "theta"]:
        return f"{path.name}: unexpected header {rows[0]}"
    rows = rows[1:]
    if len(rows) != len(expected):
        return f"{path.name}: {len(rows)} checkpoints, recomputed {len(expected)}"
    for got, want in zip(rows, expected):
        if int(got[0]) != want[0]:
            return f"{path.name}: checkpoint k={got[0]}, recomputed k={want[0]}"
        for col, g, w in zip(("dist", "obj_gap", "increment", "alpha", "theta"), got[1:], want[1:]):
            if not _close(float(g), w, 1e-9):
                return f"{path.name} k={got[0]}: {col} = {g}, recomputed {w!r}"
    return None

