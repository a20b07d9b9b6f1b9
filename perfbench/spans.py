"""Spans recorded from outside greenbox, by rebinding module attributes.

Each target is a public function of one greenbox module.  ``instrument``
replaces it with a wrapper that opens a span (name, parent, start, end),
calls the original and closes the span; callers that look the function up
through its module (``sparse.matvec(...)``, ``mesh.assemble(...)``) then run
the wrapper.  A target that no longer exists is reported as absent and
skipped, so the traced run keeps working after a refactor removes it.

A span's self time is its duration minus the durations of its direct
children.  Layer metrics are sums of self times, so every second of the
traced pass is counted at most once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name); "*" takes every public function defined in
# the module, each under "<span name>.<function>"
TARGETS = (
    ("fields", "evaluate", "fields.evaluate"),
    ("mesh", "assemble", "mesh.assemble"),
    ("mesh", "gradient_field", "mesh.gradient_field"),
    ("sparse", "solve", "sparse.solve"),
    ("sparse", "matvec", "sparse.matvec"),
    ("sparse", "SparseSystem.diagonal", "sparse.diagonal"),
    ("green", "green_column", "green.green_column"),
    ("green", "mixed_derivative", "green.mixed_derivative"),
    ("analysis", "*", "analysis"),
    ("lift", "assemble_lifted", "lift.assemble_lifted"),
    ("lift", "lifted_column", "lift.lifted_column"),
    ("lift", "integrate_t", "lift.integrate_t"),
)

FLOAT_BYTES = 8
INDEX_BYTES = 8


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    failed: bool = False


@dataclass
class Recorder:
    """In-memory spans plus counters taken at the same boundaries."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    systems: list = field(default_factory=list)  # (unknowns, nnz) per system
    _open: list = field(default_factory=list)

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1,
                        perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                self._open.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def self_times(self):
        """name -> (self seconds, calls, failures)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child):
            t, calls, failed = out.get(s.name, (0.0, 0, 0))
            out[s.name] = (t + (s.end - s.start) - c, calls + 1,
                           failed + s.failed)
        return out


# -- counters taken after a call returns ------------------------------------

def _nnz(system):
    return int(getattr(system, "nnz", 0))


def _after_matvec(rec, args, _result):
    system = args[0]
    nnz, rows = _nnz(system), int(getattr(system, "n_rows", 0))
    rec.count("matvec_flops", 2 * nnz)
    # compulsory CSR traffic: value, column index and gathered x per entry,
    # row pointer and y per row
    rec.count("matvec_bytes", nnz * (2 * FLOAT_BYTES + INDEX_BYTES)
              + rows * (FLOAT_BYTES + INDEX_BYTES))


def _after_solve(rec, _args, result):
    rec.count("iterations", int(getattr(result[1], "iterations", 0)))


def _after_assemble(rec, _args, system):
    rec.systems.append((int(getattr(system, "n_rows", 0)), _nnz(system)))


AFTER = {"sparse.matvec": _after_matvec, "sparse.solve": _after_solve,
         "mesh.assemble": _after_assemble,
         "lift.assemble_lifted": _after_assemble}


def _resolve(module, attr):
    """[(owner, attribute name, span suffix)] for one target; [] if absent."""
    if attr == "*":
        return [(module, name, name) for name, obj in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__]
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    return [(owner, name, None)] if callable(getattr(owner, name, None)) \
        else []


@contextmanager
def patched(replacements):
    """Rebind (owner, name) -> function for the duration of the block."""
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in replacements]
    try:
        for owner, name, fn in replacements:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def instrument(recorder):
    """Replacements for every present target, plus the absent target names."""
    replacements, absent = [], []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(f"greenbox.{module_name}")
        found = _resolve(module, attr)
        if not found:
            absent.append(f"{module_name}.{attr}")
        for owner, name, suffix in found:
            full = f"{span}.{suffix}" if suffix else span
            fn = getattr(owner, name)
            replacements.append(
                (owner, name, recorder.wrap(full, fn, AFTER.get(full))))
    return replacements, absent


def layer_metrics(recorder, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass, by name."""
    selfs = recorder.self_times()

    def total(prefix, index):
        return sum(v[index] for k, v in selfs.items()
                   if k == prefix or k.startswith(prefix + "."))

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    matvec_s = total("sparse.matvec", 0)
    core = sum(total(m, 0) for m in ("sparse", "mesh", "fields"))
    return {
        "sparse.matvec_s": (matvec_s, "s"),
        "sparse.matvec_calls": (total("sparse.matvec", 1), "count"),
        "sparse.matvec_flops": (recorder.counters.get("matvec_flops", 0),
                                "flop"),
        "sparse.matvec_gbps_computed": (
            recorder.counters.get("matvec_bytes", 0) / 1e9 / matvec_s
            if matvec_s > 0 else 0.0, "GB/s"),
        "sparse.iterations": (recorder.counters.get("iterations", 0),
                              "count"),
        "sparse.solve_s": (total("sparse.solve", 0), "s"),
        "sparse.solve_calls": (total("sparse.solve", 1), "count"),
        "sparse.solve_failures": (total("sparse.solve", 2), "count"),
        "sparse.diagonal_s": (total("sparse.diagonal", 0), "s"),
        "sparse.diagonal_calls": (total("sparse.diagonal", 1), "count"),
        "mesh.assemble_s": (total("mesh.assemble", 0), "s"),
        "mesh.assemble_calls": (len(recorder.systems), "count"),
        "mesh.unknowns": (sum(n for n, _ in recorder.systems), "count"),
        "mesh.nnz": (sum(z for _, z in recorder.systems), "count"),
        "fields.evaluate_s": (total("fields.evaluate", 0), "s"),
        "mesh.gradient_field_pct": (pct(total("mesh.gradient_field", 0)),
                                    "%"),
        "lift.assemble_lifted_pct": (pct(total("lift.assemble_lifted", 0)),
                                     "%"),
        "lift.lifted_column_pct": (pct(total("lift.lifted_column", 0)), "%"),
        "lift.integrate_t_pct": (pct(total("lift.integrate_t", 0)), "%"),
        "analysis.self_pct": (pct(total("analysis", 0)), "%"),
        "green.self_pct": (pct(total("green", 0)), "%"),
        "green.columns": (total("green.green_column", 1), "count"),
        "trace.sparse_mesh_fields_pct": (pct(core), "%"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
