"""Benchmark-side tracing of fermi_modewise layers.

The tracer replaces selected public functions with wrappers in every
``fermi_modewise`` module that holds them, i.e. where the calling modules
look them up (``fermi_modewise.decompose.williamson_form`` is replaced, not
only ``fermi_modewise.canonical.williamson_form``).  ``CovarianceMatrix`` is
traced through its ``__post_init__``, which holds the physicality SVD.
No file of the package changes; ``uninstall`` restores every original.

Each wrapped call records a span (name, start, end, parent, op) in memory.
A span's self time is its duration minus the durations of its children;
calls run on one thread and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs traced; names follow <module>.<function>.
TRACED = (
    ("canonical", "williamson_form"),
    ("gaussian", "restrict"),
    ("gaussian", "isotropy_parameter"),
    ("gaussian", "is_pure"),
    ("gaussian", "quadrature_indices"),
    ("gaussian", "ground_state_fcm"),
    ("decompose", "modewise_decompose"),
    ("decompose", "reconstruction_residual"),
    ("entanglement", "pure_mode_entanglement"),
    ("entanglement", "isotropic_separability"),
    ("models", "generate_model"),
    ("serialize", "write_fcm"),
    ("serialize", "read_fcm"),
    ("serialize", "decomposition_to_dict"),
    ("cli", "cli_main"),
    ("fock", "dense_hamiltonian"),
    ("fock", "dense_ground_state"),
    ("fock", "fcm_from_state"),
    ("fock", "reconstruct_state"),
    ("fock", "schmidt_entropy"),
    ("verify", "run_all"),
)
CONSTRUCTOR = "gaussian.CovarianceMatrix"
# Peak traced allocation (tracemalloc) is recorded around this call.
PEAK_MEMORY = "fock.dense_ground_state"
OP_SPAN = "bench.op"


class Tracer:
    """In-memory spans and failure counts of the traced calls."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op index)
        self.failed: Counter = Counter()
        self.peak_bytes: dict = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        measure = name == PEAK_MEMORY and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            end = perf_counter()
            if measure:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Replace every traced function where the package's modules look it up."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fermi_modewise" or key.startswith("fermi_modewise."))]
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"fermi_modewise.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))
        cls = importlib.import_module("fermi_modewise.gaussian").CovarianceMatrix
        original_post_init = cls.__post_init__
        cls.__post_init__ = self._wrap(CONSTRUCTOR, original_post_init)
        self._restore.append((cls, "__post_init__", original_post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name call counts and self time (s) over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - children
        return {"calls": calls, "self_s": self_s}

    def calls_per_op(self, labels) -> dict:
        """Call counts of each traced name, grouped by the op they ran under."""
        grouped: dict = defaultdict(Counter)
        for name, _, _, _, op in self.spans:
            if name != OP_SPAN and op >= 0:
                grouped[labels[op]][name] += 1
        return {label: dict(counts) for label, counts in grouped.items()}

    def dump(self) -> dict:
        """Spans in a compact form: names table plus [name, start, end, parent, op] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], start - t0, end - t0, parent, op] for n, start, end, parent, op in self.spans]
        return {"names": names, "columns": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}
