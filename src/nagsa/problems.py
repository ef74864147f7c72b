"""Synthetic regression instances and their sampled oracles.

An instance is a row matrix A (m x n), a target vector b, and one of three
objectives:

    least_squares    f(x) = sum_i (a_i.x - b_i)^2
    least_absolute   f(x) = sum_i |a_i.x - b_i|
    lasso            f(x) = (1/m) sum_i (a_i.x - b_i)^2 + lambda ||x||_1

Generation draws v uniform on [0,1]^n and G with independent standard normal
entries (Box-Muller over the documented generator). For least_squares /
least_absolute the rows are A = G (I + vv^T), which plants correlation, and
the targets interpolate a planted point x0 (b = A x0), so x0 is a known
optimum with zero objective. For lasso the rows stay plain standard normal
(correlated rows blow the sampled quadratic's curvature past what the
documented step sizes tolerate), b is an independent standard normal vector,
and the reference optimum is left unset until a long deterministic full-batch
proximal-gradient run supplies it.

Rows are numbered 1..m at every oracle surface; per-sample oracles work on a
single row and are one-dimensional reductions along it.

An instance's arrays never change: ``ProblemInstance`` keeps each one
read-only and copies a writable one first. On its first solver run it
builds a run table (the rows as a list of views, the targets and squared
row norms as Python floats, the objective at the reference), which every
later run reads and which lives as long as the instance. It holds about
192 B per row, so m is at most _MAX_ROWS = 2^20: ``gen`` and both dump
loaders refuse a larger m before anything is allocated, as does the
harness's config parser.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import math
import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import _fmt
from ._rng import STREAM_INSTANCE, make_generator, normals
from .errors import ConfigurationError

__all__ = [
    "KINDS",
    "ProblemInstance",
    "SampleOracleResult",
    "ConstraintSet",
    "whole_space",
    "ball",
    "box",
    "project",
    "gen",
    "with_reference",
    "sample_index",
    "subgrad",
    "prox_sample",
    "prox_l1",
    "objective",
    "lasso_reference",
    "dump_instance",
    "load_instance",
]

KINDS = ("least_squares", "least_absolute", "lasso")

# largest float64 array a config or an instance cache may ask for (256 MB):
# the m x n instance matrix, a paths x length lemma ensemble, a branch sample
_MAX_ENTRIES = 1 << 25
# rows an instance may have: its run table holds a row view and two Python
# floats per row, about 192 B, so at most 192 MiB
_MAX_ROWS = 1 << 20
# float64 entries of one row block of A in an objective pass, and of the
# residual and point buffers of a batch of points (1 MB each)
_PASS_ENTRIES = 1 << 17


class _RunTable(NamedTuple):
    """What every solver run on an instance reads: the rows as a list of
    views, the targets and the squared row norms as lists of Python floats,
    and the objective at the reference optimum (None without one)."""

    rows: list[np.ndarray]
    targets: list[float]
    norms: list[float]
    f_ref: float | None


@dataclass(frozen=True)
class ProblemInstance:
    """Each array given is kept read-only, a writable one as a copy, so no
    one who holds the original can change the instance or make its run
    table (built on first use, kept as long as the instance) go stale."""

    kind: str
    rows: np.ndarray
    targets: np.ndarray
    lam: float
    seed: int
    reference_optimum: np.ndarray | None = None

    def __post_init__(self):
        for name in ("rows", "targets", "reference_optimum"):
            a = getattr(self, name)
            if a is not None and a.flags.writeable:
                object.__setattr__(self, name, _freeze(a.copy()))

    @functools.cached_property
    def _run_table(self) -> _RunTable:
        ref = self.reference_optimum
        return _RunTable(
            rows=list(self.rows),
            targets=self.targets.tolist(),
            norms=np.vecdot(self.rows, self.rows).tolist(),
            f_ref=None if ref is None else objective(self, ref),
        )

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SampleOracleResult:
    """Per-sample objective contribution, its subgradient, and the row index."""

    value: float
    subgradient: np.ndarray
    index: int


@dataclass(frozen=True)
class ConstraintSet:
    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None


def whole_space() -> ConstraintSet:
    return ConstraintSet(kind="whole_space")


def ball(radius: float, center: np.ndarray | None = None) -> ConstraintSet:
    """Euclidean ball; center None means the origin (broadcast over any n)."""
    if not radius > 0:
        raise ConfigurationError(f"ball radius must be positive, got {radius}")
    c = np.zeros(()) if center is None else np.asarray(center, dtype=float)
    return ConstraintSet(kind="ball", center=c, radius=float(radius))


def box(lo: np.ndarray, hi: np.ndarray) -> ConstraintSet:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ConfigurationError("box lower bounds must not exceed upper bounds")
    return ConstraintSet(kind="box", lo=lo, hi=hi)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v; when squaring overflows although v is finite,
    s ||v / s|| with s = max_j |v_j| instead of inf. Never warns."""
    # np.linalg.norm takes the same dot but flags its overflow
    out = math.sqrt(np.vdot(v, v))
    if out == np.inf and np.isfinite(v).all():
        s = float(np.abs(v).max())
        out = s * float(np.linalg.norm(v / s))
    return out


def project(x: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Euclidean projection onto the constraint set."""
    if cset.kind == "whole_space":
        return x
    if cset.kind == "ball":
        gap = x - cset.center
        dist = _norm(gap)
        # the relative slack keeps re-projection of a boundary point exact:
        # radial scaling rounds, so a freshly projected point can sit an ulp
        # outside the sphere
        if dist <= cset.radius * (1.0 + 1e-12):
            return x
        return cset.center + (cset.radius / dist) * gap
    if cset.kind == "box":
        return np.clip(x, cset.lo, cset.hi)
    raise ConfigurationError(f"unknown constraint kind {cset.kind!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _rows_fault(m: int) -> str:
    return f"m = {m} rows exceeds the limit of {_MAX_ROWS}"


def gen(kind: str, m: int, n: int, seed: int, lam: float = 0.0) -> ProblemInstance:
    """Generate an instance. Draw order: v, then G, then x0 (or b for lasso).
    G v and A x0 go through ``_row_products``, so the instance has the same
    bits at any BLAS thread count."""
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m} n={n}")
    if m > _MAX_ROWS:
        raise ValueError(_rows_fault(m))
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    g = make_generator(STREAM_INSTANCE, seed)
    v = g.random(n)
    gauss = normals(g, m * n).reshape(m, n)
    if kind == "lasso":
        rows = gauss
        targets = normals(g, m)
        reference = None
    else:
        rows = gauss + np.outer(_row_products(gauss, v[None], np.empty((1, m)))[0], v)
        x0 = normals(g, n)
        targets = _row_products(rows, x0[None], np.empty((1, m)))[0]
        reference = _freeze(x0)
    return ProblemInstance(
        kind=kind,
        rows=_freeze(rows),
        targets=_freeze(targets),
        lam=float(lam),
        seed=seed,
        reference_optimum=reference,
    )


def with_reference(inst: ProblemInstance, x: np.ndarray) -> ProblemInstance:
    """Copy of the instance with a stored reference optimum."""
    ref = _freeze(np.array(x, dtype=float))
    if ref.shape != (inst.n,):
        raise ValueError(f"reference must have shape ({inst.n},)")
    return dataclasses.replace(inst, reference_optimum=ref)


def sample_index(
    inst: ProblemInstance, rng: np.random.Generator, size: int | None = None
) -> int | np.ndarray:
    """Uniform row index in {1..m}; with ``size``, an int64 array of that many.

    A block of ``size`` draws equals as many scalar draws from the same
    generator state, so a caller may draw in blocks without changing the
    index sequence.
    """
    if size is None:
        return int(rng.integers(1, inst.m + 1))
    return rng.integers(1, inst.m + 1, size=size)


def _row(inst: ProblemInstance, i: int) -> np.ndarray:
    if not 1 <= i <= inst.m:
        raise ValueError(f"row index {i} outside 1..{inst.m}")
    return inst.rows[i - 1]


def _sign(r: float) -> float:
    """np.sign on a Python float without the ufunc call: sign(+-0) = +0 and
    sign(nan) = nan."""
    return 1.0 if r > 0.0 else -1.0 if r < 0.0 else r + 0.0


def _subgrad_scale(r: float, absolute: bool) -> float:
    """The factor c of the subgradient c a of the sample term of row a at a
    point whose residual a.x - b is the Python float r: 2 r for the squared
    residual, sign(r) for its absolute value."""
    return _sign(r) if absolute else 2.0 * r


def _prox_gamma(r: float, q: float, alpha: float, absolute: bool) -> float | None:
    """gamma of the closed-form prox x - gamma a of the sample term of row a
    (q = ||a||^2) at a point whose residual a.x - b is the Python float r;
    None for a zero row, whose prox is x itself. The absolute term's
    sign(r) min(alpha, |r| / q) is written out without calls; it gives the
    same bits, the sign of a zero included."""
    if q == 0.0:
        return None
    if absolute:
        m = abs(r) / q
        m = m if m < alpha else alpha
        return m if r > 0.0 else -m if r < 0.0 else (r + 0.0) * m
    return 2.0 * alpha * r / (1.0 + 2.0 * alpha * q)


def _residual(inst: ProblemInstance, x: np.ndarray, i: int) -> tuple[np.ndarray, float]:
    """(row i, its residual a_i.x - b_i as a Python float). ``a.dot(x)`` runs
    the same BLAS dot as ``a @ x`` with less dispatch."""
    a = _row(inst, i)
    return a, float(a.dot(x)) - float(inst.targets[i - 1])


def subgrad(inst: ProblemInstance, x: np.ndarray, i: int) -> SampleOracleResult:
    """Per-sample value and subgradient at row i.

    least_squares and the lasso smooth part use 2 a_i (a_i.x - b_i); the
    absolute deviation uses a_i sign(a_i.x - b_i) with sign(0) = 0, a valid
    subgradient at the kink. Lasso's value/subgradient cover the sampled
    quadratic term only (unnormalized); the l1 part is handled by prox_l1.
    """
    a, r = _residual(inst, x, i)
    absolute = inst.kind == "least_absolute"
    return SampleOracleResult(
        value=abs(r) if absolute else r * r,
        subgradient=_subgrad_scale(r, absolute) * a,
        index=i,
    )


def prox_sample(inst: ProblemInstance, x: np.ndarray, i: int, alpha: float) -> np.ndarray:
    """argmin_v per-sample-term(v) + ||v - x||^2 / (2 alpha), in closed form.

    The minimizer lies on the line v = x - gamma a_i. With r = a_i.x - b_i
    and q = ||a_i||^2:
        quadratic term:  gamma = 2 alpha r / (1 + 2 alpha q)
        absolute term:   gamma = sign(r) min(alpha, |r| / q)
    A zero row leaves x unchanged.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    a, r = _residual(inst, x, i)
    gamma = _prox_gamma(r, float(a @ a), alpha, inst.kind == "least_absolute")
    return x.copy() if gamma is None else x - gamma * a


def prox_l1(x: np.ndarray, tau: float) -> np.ndarray:
    """Soft threshold sign(x) max(|x| - tau, 0), the prox of tau ||.||_1."""
    if tau < 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def objective(inst: ProblemInstance, x: np.ndarray) -> float:
    """Deterministic full objective at x: the one-point case of the blocked
    pass of ``_objective_values``, so it equals a checkpoint's value at the
    same point bit for bit, at any BLAS thread count."""
    return _objective_values(inst, np.asarray(x, dtype=float)[None])[0]


def _pass_shape(m: int, n: int) -> tuple[int, int]:
    """(points per batch, rows per block) of the objective pass over an m x n
    row matrix, whose row blocks every ``_row_products`` call uses: as many
    points, 1 to 64, as keep both a (points, m) residual and the (points, n)
    points themselves within _PASS_ENTRIES, and the largest multiple of 64
    rows, at least 64, that keeps a row block within it."""
    batch = min(64, _PASS_ENTRIES // m, _PASS_ENTRIES // n)
    return max(1, batch), max(64, _PASS_ENTRIES // n // 64 * 64)


def _row_products(rows: np.ndarray, points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j, i] = rows[i] . points[j] for a (count, n) stack of points, into
    the (count, m) array ``out``, which is returned. The objective pass and
    ``gen`` take their matrix-vector products here.

    The rows are taken in blocks of about 1 MB (``_pass_shape``), which
    numpy runs as one GEMV per point and block. The block bounds are
    multiples of 64 rows, and a one-row tail joins the last block, as numpy
    takes a lone row through a dot product instead of GEMV. GEMV forms rows
    in groups of four, and a bound at a multiple of 64 keeps every row in
    the group it has in the whole-matrix product, so every entry equals the
    single-thread whole-matrix product bit for bit. A block stays below
    OpenBLAS's GEMV threading threshold (for n up to about 7000), so the
    entries are also the same at any BLAS thread count, which a threaded
    whole-matrix product is not: at two threads, a 33333 x 20 product
    differs in the last bits of some entries.

    All blocks but the last go in one matmul call over a (blocks, rows, n)
    view of A, and the last block in a second one. Each call releases the
    GIL once, so a pass on a helper thread waits to take it back twice,
    not once per block (8 blocks at 10000 x 100).
    """
    m, n = rows.shape
    block = _pass_shape(m, n)[1]
    stack = points[:, :, None]
    full = max(0, (m - 2) // block) * block
    if full:
        np.matmul(
            rows[:full].reshape(-1, block, n),
            stack[:, None],
            out=out[:, :full].reshape(len(points), -1, block, 1),
        )
    np.matmul(rows[full:], stack, out=out[:, full:, None])
    return out


def _objective_values(inst: ProblemInstance, points: np.ndarray) -> list[float]:
    """The full objective at each row of ``points`` (a (count, n) array);
    the three per-kind formulas are written here once. A pass allocates its
    own (count, m) residual and ignores overflow and invalid operations, so
    an iterate too large for the objective gets inf (or nan, where inf
    products of both signs meet) under any numpy error state, on whichever
    thread it runs (numpy keeps the error state per thread).

    ``_row_products`` takes the whole batch in at most two matmul calls,
    which numpy runs point by point: A is read once per point, and a batch
    saves calls and hand-offs, not reads of A. The targets are then
    subtracted once, and each kind reduces the whole batch in one call that
    treats every residual row as the formula does a fresh residual vector:
    np.vecdot takes the BLAS dot of ``r @ r`` per row, and a sum along the
    rows the pairwise sum of ``np.sum`` per row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _row_products(inst.rows, points, np.empty((len(points), inst.m)))
        np.subtract(residual, inst.targets, out=residual)
        if inst.kind == "least_squares":
            return np.vecdot(residual, residual).tolist()
        if inst.kind == "least_absolute":
            return np.abs(residual, out=residual).sum(axis=1).tolist()
        penalty = inst.lam * np.abs(points).sum(axis=1)
        return (np.vecdot(residual, residual) / inst.m + penalty).tolist()


# ISTA steps of the lasso reference at most
_ISTA_STEPS = 100_000


def lasso_reference(inst: ProblemInstance) -> np.ndarray:
    """Deterministic full-batch proximal-gradient reference for a lasso instance.

    Runs ISTA from the origin on the sampling-consistent objective
    (1/m) ||Ax - b||^2 + lambda ||x||_1, whose stationarity condition matches
    the fixed point of the stochastic two-stage step as the step size decays.
    Step size 1/L with L = 2 lambda_max(A^T A) / m, at most _ISTA_STEPS =
    100 000 steps. Stops early only when an iterate repeats exactly, which
    makes the remaining steps no-ops.
    """
    if inst.kind != "lasso":
        raise ValueError("reference run is defined for lasso instances")
    ata = inst.rows.T @ inst.rows
    atb = inst.rows.T @ inst.targets
    lipschitz = 2.0 * float(np.linalg.eigvalsh(ata)[-1]) / inst.m
    step = 1.0 / lipschitz
    scale = 2.0 / inst.m
    x = np.zeros(inst.n)
    for _ in range(_ISTA_STEPS):
        nxt = prox_l1(x - step * scale * (ata @ x - atb), step * inst.lam)
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


# the first two fields of an instance cache's header line: the format and its
# version, then the payload's byte order
_CACHE_MAGIC = "nagsa-instance-cache-1 <f8"
_CACHE_HEADER_LIMIT = 4096  # bytes of that line, its newline included
_HASH_CHUNK = 1 << 18  # bytes of text hashed per read


def _cache_path(path) -> str:
    return os.fspath(path) + ".cache"


@contextlib.contextmanager
def _replacing(path):
    """A binary handle on a temporary file, moved onto path when the block
    ends and removed if it raises, so a reader never sees a partial file and
    a failed write leaves the old one as it was. Otherwise it acts as writing
    path in place would: a symbolic link stays a link and the file it names
    is replaced, a file this process may not write is refused, and the new
    file keeps the old one's permission bits."""
    path = os.fspath(path)
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else None
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    try:
        with open(tmp, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # errors name the file asked for
        raise


def dump_instance(inst: ProblemInstance, path) -> None:
    """Text dump: header `kind m n seed lambda`, m rows of n+1 floats
    (row entries then target), then the reference line (n floats or `unset`).
    17 significant digits give exact float64 round-trips. Lines are written
    one at a time, so the dump holds one line of text in memory.

    Beside the text goes its binary cache `<path>.cache`, which
    `load_instance` reads instead of the text while the text is unchanged.
    Its header line holds the format, the byte order, whether a reference
    exists, the text's byte size and sha256, the payload's sha256 and the
    text's own header fields; the payload after it is the rows, the targets
    and the reference as raw little-endian float64. The text is hashed as it
    is written and the payload straight from the arrays, so no copy of
    either is held. Text and cache are each written to a temporary file and
    moved into place, so a reader never sees a partial one, and a write that
    fails leaves the file it would have replaced unchanged.
    """
    import hashlib

    head = f"{inst.kind} {inst.m} {inst.n} {inst.seed} {_fmt(inst.lam)}"
    ref = inst.reference_optimum
    text_hash = hashlib.sha256()
    with _replacing(path) as fh:

        def put(line: str) -> None:
            data = (line + "\n").encode("utf-8")
            fh.write(data)
            text_hash.update(data)

        put(head)
        for a, b in zip(inst.rows, inst.targets):
            put(" ".join(map(_fmt, [*a.tolist(), b])))
        put("unset" if ref is None else " ".join(map(_fmt, ref.tolist())))
        text_size = fh.tell()

    payload = [
        np.ascontiguousarray(a, dtype="<f8") for a in (inst.rows, inst.targets, ref) if a is not None
    ]
    payload_hash = hashlib.sha256()
    for a in payload:
        payload_hash.update(a)
    with _replacing(_cache_path(path)) as fh:
        fh.write(
            f"{_CACHE_MAGIC} {int(ref is not None)} {text_size} {text_hash.hexdigest()} "
            f"{payload_hash.hexdigest()} {head}\n".encode("utf-8")
        )
        for a in payload:
            a.tofile(fh)


def _parse_header(head: list[str]) -> tuple[str, int, int, int, float]:
    """(kind, m, n, seed, lambda) from the five header fields of a dump;
    ValueError with the message load_instance reports otherwise."""
    kind = head[0]
    try:
        m, n, seed, lam = int(head[1]), int(head[2]), int(head[3]), float(head[4])
    except ValueError as exc:
        raise ValueError(f"bad instance header: {exc}") from None
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m} n={n}")
    if m > _MAX_ROWS:
        raise ValueError(_rows_fault(m))
    if not np.isfinite(lam):
        raise ValueError("non-finite lambda")
    return kind, m, n, seed, lam


def load_instance(path) -> ProblemInstance:
    """Read a `dump_instance` file; every number in it must be finite.

    When the cache `<path>.cache` written beside it describes this very text,
    the arrays are read from the cache, bit for bit what parsing the text
    gives, without parsing a number. The cache is trusted only when it opens,
    the text's byte size and sha256 (hashed in chunks of 256 KiB) match its
    header, its m x n is within _MAX_ENTRIES and its file has exactly the
    size the header implies (both checked before anything is allocated), its
    payload matches its sha256, and every value in it is finite. In every
    other case the text is parsed, as `_load_text` describes.
    """
    inst = _load_cache(path)
    return _load_text(path) if inst is None else inst


def _load_cache(path) -> ProblemInstance | None:
    """The instance held by the cache beside `path`, or None when any of the
    checks of load_instance fails."""
    import hashlib

    try:
        with open(path, "rb", buffering=0) as text, open(_cache_path(path), "rb") as fh:
            line = fh.readline(_CACHE_HEADER_LIMIT)
            fields = line.decode("utf-8").split()
            if (
                not line.endswith(b"\n")
                or len(fields) != 11
                or " ".join(fields[:2]) != _CACHE_MAGIC
                or fields[2] not in ("0", "1")
            ):
                return None
            has_ref, text_size = fields[2] == "1", int(fields[3])
            kind, m, n, seed, lam = _parse_header(fields[6:])
            if m * n > _MAX_ENTRIES:
                return None
            entries = m * n + m + (n if has_ref else 0)
            if (
                os.fstat(text.fileno()).st_size != text_size
                or os.fstat(fh.fileno()).st_size != len(line) + 8 * entries
            ):
                return None
            digest = hashlib.sha256()
            buf = bytearray(_HASH_CHUNK)
            while size := text.readinto(buf):
                digest.update(memoryview(buf)[:size])
            if digest.hexdigest() != fields[4]:
                return None
            arrays = [np.empty((m, n), "<f8"), np.empty(m, "<f8")]
            if has_ref:
                arrays.append(np.empty(n, "<f8"))
            digest = hashlib.sha256()
            for a in arrays:
                view = memoryview(a).cast("B")
                if fh.readinto(view) != a.nbytes:
                    return None
                digest.update(view)
            if digest.hexdigest() != fields[5]:
                return None
    except (OSError, ValueError):
        return None
    # min and max carry any nan and reach any inf, with no array of flags
    if not all(math.isfinite(a.min()) and math.isfinite(a.max()) for a in arrays):
        return None
    return ProblemInstance(
        kind=kind,
        rows=_freeze(arrays[0]),
        targets=_freeze(arrays[1]),
        lam=lam,
        seed=seed,
        reference_optimum=_freeze(arrays[2]) if has_ref else None,
    )


def _open_dump(path):
    # bytes that are not UTF-8 read as U+FFFD, which no number parses, so they
    # fail where they stand and the error names their line
    return open(path, encoding="utf-8", errors="replace")


def _content_lines(fh):
    """(file line number, text) of each non-blank line."""
    for lineno, line in enumerate(fh, 1):
        if not line.isspace():
            yield lineno, line


def _load_text(path) -> ProblemInstance:
    """Parse a `dump_instance` text file.

    A malformed file raises ConfigurationError naming the offending line.
    The file is read twice, a line at a time, so loading holds the matrix and
    one line of text. The first pass checks the header, counts the lines and
    parses the first row, which bounds n, before the matrix is allocated;
    the second fills the matrix row by row.
    """

    def fail(lineno: int, message: str) -> ConfigurationError:
        return ConfigurationError(f"{path} line {lineno}: {message}")

    def row_values(lineno: int, line: str, i: int) -> list[float]:
        try:
            values = list(map(float, line.split()))
        except ValueError as exc:
            raise fail(lineno, f"row {i + 1}: {exc}") from None
        if len(values) != n + 1:
            raise fail(lineno, f"row {i + 1} has {len(values)} values, expected {n + 1}")
        return values

    with _open_dump(path) as fh:
        lines = _content_lines(fh)
        head_no, head_line = next(lines, (1, None))
        if head_line is None:
            raise fail(1, "empty instance file, expected the header")
        head_line = head_line.rstrip("\n")
        head = head_line.split()
        if len(head) != 5:
            raise fail(head_no, f"bad instance header {head_line!r}")
        try:
            kind, m, n, seed, lam = _parse_header(head)
        except ValueError as exc:
            raise fail(head_no, str(exc)) from None
        first = next(lines, None)
        count = 1 + (first is not None) + sum(1 for _ in lines)
    if count != m + 2:
        raise fail(head_no, f"{m} rows need {m + 2} non-blank lines, found {count}")
    row_values(*first, 0)  # a real row bounds n before the matrix is allocated

    rows = np.empty((m, n))
    targets = np.empty(m)
    nonfinite = None  # (file line, row index) of the first row with a non-finite entry
    with _open_dump(path) as fh:
        lines = _content_lines(fh)
        next(lines)  # the header
        for i in range(m):
            lineno, line = next(lines)
            values = row_values(lineno, line, i)
            rows[i] = values[:n]
            targets[i] = values[n]
            # a non-finite entry makes the sum inf or nan; a finite row's sum
            # can overflow too, so that case looks at the entries
            if (
                nonfinite is None
                and not math.isfinite(sum(values))
                and not all(map(math.isfinite, values))
            ):
                nonfinite = lineno, i
        ref_no, ref_line = next(lines)
    # every row parses before any is refused for a non-finite entry
    if nonfinite is not None:
        lineno, i = nonfinite
        raise fail(lineno, f"non-finite entry in row {i + 1}")
    if ref_line.strip() == "unset":
        reference = None
    else:
        try:
            ref = np.array([float(tok) for tok in ref_line.split()])
        except ValueError as exc:
            raise fail(ref_no, f"reference: {exc}") from None
        if ref.shape != (n,):
            raise fail(ref_no, f"reference line has {ref.size} values, expected {n}")
        if not np.isfinite(ref).all():
            raise fail(ref_no, "non-finite reference entry")
        reference = _freeze(ref)
    return ProblemInstance(
        kind=kind,
        rows=_freeze(rows),
        targets=_freeze(targets),
        lam=lam,
        seed=seed,
        reference_optimum=reference,
    )
