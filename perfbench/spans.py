"""Spans around the benchmark's calls into scarkit, kept in memory.

A span records the called function, its layer (the scarkit module that
defines it), wall start and end, process CPU time, the enclosing job span and
whether the call raised.  Job spans belong to the pseudo-layer ``bench``: a
job's self time is its duration minus its child layer spans, which is the
benchmark's own glue (input drawing and correctness gates).

With tracing off, ``call`` and ``span`` add only a branch to each call, so the
untraced pass measures the library and not the recorder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

LAYERS = ("fock_basis", "hamiltonian", "resonance", "spectral", "graph",
          "observables", "dynamics", "cli")
JOB_LAYER = "bench"

# function-level durations reported as <layer>.<function>.s; "observables.scar"
# groups the scar-report calls, whose spans are named "scar.<function>"
FUNCTIONS = (
    "spectral.diagonalize_chiral", "spectral.diagonalize_dense",
    "observables.entropy_profile", "observables.shannon_entropy",
    "observables.scar", "observables.overlap_table",
    "dynamics.ee_series", "dynamics.fidelity_series",
    "dynamics.tower_probability_series", "dynamics.analytic_fidelity",
    "dynamics.fta", "dynamics.full_fidelity_series",
    "hamiltonian.build_effective_resonant", "hamiltonian.build_effective_general",
    "fock_basis.SectorBasis", "fock_basis.parities",
    "graph.build_graph", "graph.components",
    "resonance.scan_ratio_grid", "cli.main",
)

# work counts recorded at the layer boundary, as <layer>.<count>
COUNTS = (
    "spectral.diag_dim", "spectral.zero_modes", "observables.schmidt_states",
    "dynamics.state_cycles", "hamiltonian.nnz", "fock_basis.states",
    "graph.edges", "resonance.grid_points", "cli.rows_written",
)


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int             # index of the enclosing span, -1 at top level
    job: int                # index of the enclosing job span, -1 outside jobs
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0        # process CPU seconds, every thread
    failed: bool = False


class Tracer:
    """Span recorder; ``Tracer(False)`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []     # stack of open span indices
        self._job = -1

    @contextmanager
    def _record(self, layer: str, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, layer, parent, self._job)
        self.spans.append(span)
        self._open.append(index)
        cpu0 = time.process_time()
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu = time.process_time() - cpu0
            self._open.pop()

    def span(self, layer: str, name: str):
        """Context manager timing one call into `layer`."""
        return self._record(layer, name) if self.enabled else nullcontext()

    @contextmanager
    def job(self, name: str):
        """A job: one checked group of calls; its id tags the spans inside."""
        if not self.enabled:
            yield
            return
        self._job = len(self.spans)
        try:
            with self._record(JOB_LAYER, name):
                yield
        finally:
            self._job = -1

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named after fn and its module."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self.named(fn.__name__, fn, *args, **kwargs)

    def named(self, name: str, fn, *args, **kwargs):
        """Like `call`, under an explicit span name (for example the route)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._record(fn.__module__.rsplit(".", 1)[-1], name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += int(n)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy, CPU, call and failure totals plus the named figures."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out.update({f"{layer}.busy_s": 0.0, f"{layer}.cpu_s": 0.0,
                    f"{layer}.calls": 0, f"{layer}.failed": 0})
    out.update({f"{fn}.s": 0.0 for fn in FUNCTIONS})
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        if span.layer == JOB_LAYER:
            continue
        d = span.end - span.start
        out[f"{span.layer}.busy_s"] += d
        out[f"{span.layer}.cpu_s"] += span.cpu
        out[f"{span.layer}.calls"] += 1
        out[f"{span.layer}.failed"] += int(span.failed)
        # a dotted span name such as "scar.scar_state" counts to its group
        key = f"{span.layer}.{span.name.split('.', 1)[0]}.s"
        if key in out:
            out[key] += d
        if span.parent >= 0:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + d
    self_s = 0.0
    jobs = 0
    for i, span in enumerate(tracer.spans):
        if span.layer == JOB_LAYER:
            jobs += 1
            self_s += (span.end - span.start) - child_time.get(i, 0.0)
    out["bench.self_s"] = self_s
    out["bench.jobs"] = jobs
    out.update(tracer.counts)
    return out
