"""Span recorder that wraps the public functions of the nagsa modules.

The benchmark never edits the package. ``Tracer.install`` replaces each public
function (and the schedule methods) with a timing wrapper in every nagsa
module namespace that refers to it, and ``uninstall`` puts the originals back.

Every call is aggregated by (span name, parent span name): call count,
inclusive nanoseconds and self nanoseconds, where self time is the span's
duration minus the time its child spans cover. A child's interval is taken
from entering to leaving its wrapper, so the tracer's bookkeeping stays out of
the parent's self time; it still inflates inclusive times, which is why
`trace.overhead` is reported. Calls to the functions in
``HOT`` (several per solver step or per algebra row) are only aggregated;
every other call is also kept as an individual span record
(id, name, start, end, parent id, repetition id) so that the span tree of a
repetition can be inspected after the run. Records stay in memory until
``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "_rng",
    "schedules",
    "momentum_algebra",
    "problems",
    "solvers",
    "diagnostics",
    "harness",
    "cli",
)

# span name prefix for each layer module
PREFIX = {"_rng": "rng"}

# (module, class, method) pairs wrapped besides the module-level functions;
# both schedule classes report under one span name
METHODS = (
    ("schedules", "StepSchedule", "at", "schedules.at"),
    ("schedules", "MomentumSchedule", "at", "schedules.at"),
    ("schedules", "MomentumSchedule", "values", "schedules.values"),
)

# called per solver step, per algebra row or per branch probe: aggregated only
HOT = frozenset(
    {
        "schedules.at",
        "problems.sample_index",
        "problems.subgrad",
        "problems.prox_sample",
        "problems.prox_l1",
        "problems.project",
        "solvers.extrapolate",
        "solvers.ssgd_step",
        "solvers.prox_rm_step",
        "solvers.composite_step",
        "momentum_algebra.companion_matrix",
        "momentum_algebra.head_product",
        "momentum_algebra.head_coefficients",
        "rng.make_generator",
        "rng.normals",
        "diagnostics.convergence_check",
    }
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"nagsa.{layer}") for layer in LAYERS]
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.rep = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        hot = name in HOT
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[3] if parent else 0
            else:
                span_id = self._next_id
                self._next_id += 1
            # frame: name, start, child ns, id of the nearest recorded span
            frame = [name, 0, 0, span_id]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (name, parent[0] if parent else "")
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if not hot:
                    spans.append((span_id, name, start, end, parent[3] if parent else 0, self.rep))
                if parent is not None:
                    # the whole wrapper counts as child time, so the tracer's
                    # own bookkeeping stays out of the parent's self time
                    parent[2] += clock() - entered

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer, module in zip(LAYERS, self.modules):
            prefix = PREFIX.get(layer, layer)
            for name, fn in _public_functions(module):
                replacements[id(fn)] = (fn, self._wrap(f"{prefix}.{name}", fn))
        # patch every namespace holding a reference, so calls made through
        # `from .problems import subgrad` style imports are traced as well
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(f"nagsa.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self, rep: int) -> None:
        """Start a new repetition: clear the aggregate, keep the span records."""
        self.stats.clear()
        self.rep = rep

    # ---- aggregate queries -------------------------------------------------

    def calls(self, *names: str, parent_prefix: str = "") -> int:
        return sum(
            v[0]
            for (n, p), v in self.stats.items()
            if n in names and p.startswith(parent_prefix)
        )

    def total_s(self, *names: str) -> float:
        return sum(v[1] for (n, _), v in self.stats.items() if n in names) / 1e9

    def self_s(self, *names: str, parent_prefix: str = "") -> float:
        return (
            sum(
                v[2]
                for (n, p), v in self.stats.items()
                if n in names and p.startswith(parent_prefix)
            )
            / 1e9
        )

    def edges(self) -> list[dict]:
        return [
            {
                "name": n,
                "parent": p,
                "calls": v[0],
                "total_s": v[1] / 1e9,
                "self_s": v[2] / 1e9,
            }
            for (n, p), v in sorted(self.stats.items())
        ]

    def write(self, path) -> None:
        """Span records as JSON lines, times in ns since the first span."""
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, rep in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start - origin,
                            "end_ns": end - origin,
                            "parent": parent,
                            "rep": rep,
                        }
                    )
                    + "\n"
                )
