"""Jobs, correctness gates and seed-driven inputs shared by the workloads."""

from __future__ import annotations

import math

import numpy as np


class Gates:
    """Collects the correctness checks of one job; any failure fails the job."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, what: str, ok) -> None:
        if not bool(ok):
            self.failures.append(what)

    def close(self, what: str, value: float, ref: float, tol: float) -> None:
        value = float(value)
        if not abs(value - ref) <= tol:      # NaN fails too
            self.failures.append(f"{what}: {value!r} vs reference {ref!r} "
                                 f"(tol {tol:g})")

    def equal(self, what: str, value, ref) -> None:
        if value != ref:
            self.failures.append(f"{what}: {value!r} vs reference {ref!r}")

    def finite(self, what: str, values) -> None:
        self.check(f"{what}: non-finite values", np.all(np.isfinite(values)))


def run_jobs(tracer, jobs) -> list[dict]:
    """Run (name, fn) jobs in order; fn takes a Gates. A raise fails the job."""
    results = []
    for name, fn in jobs:
        gates = Gates()
        with tracer.job(name):
            try:
                fn(gates)
            except Exception as exc:    # a job that raises is a failed job
                gates.failures.append(f"raised {type(exc).__name__}: {exc}")
        results.append({"job": name, "failed": bool(gates.failures),
                        "failures": gates.failures})
    return results


def draw_fock_states(rng: np.random.Generator, basis, count: int,
                     exclude=()) -> list:
    """`count` distinct Fock states of `basis`, uniform outside `exclude`."""
    pool = np.setdiff1d(np.arange(basis.size), np.asarray(exclude, dtype=np.intp))
    picks = rng.choice(pool, size=count, replace=False)
    return [basis.state(int(i)) for i in picks]


def entropy_bound(L: int) -> float:
    """Largest half-chain entropy any state of L sites can carry, in nats."""
    return (L // 2) * math.log(2.0) + 1e-9
