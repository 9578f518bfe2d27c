"""The dynamics half of scar-pipeline: stroboscopic F, S_EE, P_t at L = 12.

The (0,0,+) quench from the pinnacle, from the te_p:2 excursion and from a
seed-drawn ensemble of non-tower Fock states is the L = 12 part of the
``quench-series`` bundle.  The exact square-wave drive against the effective
model is the ``model-comparison`` bundle.  One seed-drawn off-resonant point
sends the same spectral and dynamics calls down the dense-eigh route, and the
exact drive sends them down the stepping route, so a gain on one route that
costs another shows here.  512 cycles and four ensemble states keep this
half near 5 s on two cores, so that one run holds several passes.
"""

from __future__ import annotations

import numpy as np

from scarkit import (ModelParams, SectorBasis, analytic_fidelity,
                     build_effective_general, build_effective_resonant,
                     diagonalize, dominant_peaks, ee_series, fidelity_series,
                     fta, full_fidelity_series, is_resonant, pinnacle_state,
                     resonant_family, tower_probability_series, tower_states)

from .common import draw_fock_states, entropy_bound

FAMILY, G, U_DRIVE = (0, 0, "+"), 50.0, 0.5
OFF_RESONANT_OMEGA = 50.0
OFF_RESONANT_U = (60.0, 140.0)      # ranges the off-resonant (U, g) is drawn from
OFF_RESONANT_G = (30.0, 70.0)

SIZES = {"full": {"L": 12, "cycles": 512, "ensemble": 4, "compare_g": (15.0, 30.0)},
         "small": {"L": 8, "cycles": 256, "ensemble": 3, "compare_g": (15.0, 30.0)}}

# Frozen at the seed commit: the worst |F_full - F_eff| over 50 g cycles.
REFERENCE = {"full": {"compare": {15.0: 0.2758, 30.0: 0.1644}, "kernel": 20},
             "small": {"compare": {15.0: 0.3373, 30.0: 0.2732}, "kernel": 6}}
COMPARE_TOL = 1e-3
CLOSED_FORM_TOL = 1e-10
UNIT_TOL = 1e-12


def _check_series(gates, label, L, f, ee, pt=None):
    """Physical range of each series; a Fock start has F(0) = 1, S_EE(0) = 0."""
    for name, s in (("F", f), ("S_EE", ee), ("P_t", pt)):
        if s is not None:
            gates.finite(f"{label} {name}", s.values)
    gates.close(f"{label} F(0)", f.values[0], 1.0, UNIT_TOL)
    gates.check(f"{label} F outside [0, 1]",
                np.all((f.values > -UNIT_TOL) & (f.values < 1 + UNIT_TOL)))
    gates.close(f"{label} S_EE(0)", ee.values[0], 0.0, UNIT_TOL)
    gates.check(f"{label} S_EE outside [0, L/2 ln 2]",
                np.all((ee.values > -UNIT_TOL) & (ee.values <= entropy_bound(L))))
    if pt is not None:
        gates.check(f"{label} P_t outside [0, 1]",
                    np.all((pt.values > -UNIT_TOL) & (pt.values < 1 + UNIT_TOL)))


def _series(t, spec, state, cycles, tower=None):
    """F, S_EE and (with a tower) P_t from one initial state."""
    f = t.call(fidelity_series, spec, state, cycles)
    ee = t.call(ee_series, spec, state, cycles)
    pt = None
    if tower is not None:
        pt = t.call(tower_probability_series, spec, state, tower, cycles=cycles)
    t.count("dynamics.state_cycles", (2 if pt is None else 3) * (cycles + 1))
    return f, ee, pt


class _Quench:
    """State shared by the jobs of one pass: the sector and its spectrum."""

    def __init__(self, t, seed, scale, ref):
        self.t, self.ref = t, ref
        self.size = SIZES[scale]
        self.rng = np.random.default_rng(seed)

    def spectrum(self, gates):
        t, L = self.t, self.size["L"]
        self.basis = t.call(SectorBasis, L, L // 2)
        t.count("fock_basis.states", self.basis.size)
        params = t.call(resonant_family, *FAMILY).params(G, U_DRIVE)
        ham = t.call(build_effective_resonant, self.basis, params, *FAMILY)
        t.count("hamiltonian.nnz", ham.matrix.nnz)
        self.spec = t.named("diagonalize_chiral", diagonalize, ham)
        t.count("spectral.diag_dim", self.spec.size)
        t.count("spectral.zero_modes", len(self.spec.zero_indices))
        gates.equal("kernel count", len(self.spec.zero_indices), self.ref["kernel"])
        self.tower = t.call(tower_states, L)
        self.tower_idx = t.call(self.tower.indices, self.basis)

    def pinnacle(self, gates):
        t, L, cycles = self.t, self.size["L"], self.size["cycles"]
        tp = t.call(pinnacle_state, L)
        f, ee, pt = _series(t, self.spec, tp, cycles, self.tower)
        _check_series(gates, "tp", L, f, ee, pt)
        gates.close("tp P_t(0)", pt.values[0], 1.0, UNIT_TOL)
        closed = t.call(analytic_fidelity, self.spec, tp, cycles)
        t.count("dynamics.state_cycles", cycles + 1)
        gap = float(np.max(np.abs(closed.values - f.values)))
        gates.check(f"closed-form F differs by {gap:.2e}", gap <= CLOSED_FORM_TOL)
        freqs, amps = t.call(fta, f)
        peaks, _ = t.call(dominant_peaks, freqs, amps)
        gates.check("no dominant revival peak", len(peaks) >= 1)
        gates.finite("revival peaks", peaks)

    def state(self, gates, state, label):
        f, ee, pt = _series(self.t, self.spec, state, self.size["cycles"], self.tower)
        _check_series(gates, label, self.size["L"], f, ee, pt)

    def ensemble(self, gates):
        """Seed-drawn Fock states off the tower, drawn here, not by scarkit."""
        for f in draw_fock_states(self.rng, self.basis, self.size["ensemble"],
                                  exclude=self.tower_idx):
            self.state(gates, f, f.to_string())

    def exact_drive(self, gates):
        """Exact square-wave drive against the effective model, two g values."""
        t, basis = self.t, self.basis
        tp = t.call(pinnacle_state, basis.L)
        worst = {}
        for g in self.size["compare_g"]:
            params = t.call(ModelParams, g=g, U=2 * g, u=U_DRIVE, omega=g)
            cycles = int(round(50 * g))
            ham = t.call(build_effective_resonant, basis, params, *FAMILY)
            spec = t.named("diagonalize_chiral", diagonalize, ham)
            t.count("spectral.diag_dim", spec.size)
            f_eff = t.call(fidelity_series, spec, tp, cycles)
            f_full = t.call(full_fidelity_series, basis, params, tp, cycles)
            t.count("dynamics.state_cycles", 2 * (cycles + 1))
            gates.finite(f"g={g:g} full F", f_full.values)
            worst[g] = float(np.max(np.abs(f_full.values - f_eff.values)))
            gates.close(f"g={g:g} max |F_full - F_eff|", worst[g],
                        self.ref["compare"][g], COMPARE_TOL)
        lo, hi = self.size["compare_g"]
        gates.check("full-vs-effective gap does not shrink with g",
                    worst[hi] < worst[lo])

    def off_resonant(self, gates):
        """Seed-drawn (U, g) that `is_resonant` rejects, on the dense route."""
        t, basis = self.t, self.basis
        while True:
            U = float(self.rng.uniform(*OFF_RESONANT_U))
            g = float(self.rng.uniform(*OFF_RESONANT_G))
            barriers = (g - U, g, g + U)
            if not any(t.call(is_resonant, b, OFF_RESONANT_OMEGA) for b in barriers):
                break
        params = t.call(ModelParams, g=g, U=U, u=U_DRIVE, omega=OFF_RESONANT_OMEGA)
        ham = t.call(build_effective_general, basis, params)
        t.count("hamiltonian.nnz", ham.matrix.nnz)
        spec = t.named("diagonalize_dense", diagonalize, ham)
        t.count("spectral.diag_dim", spec.size)
        tp = t.call(pinnacle_state, basis.L)
        f, ee, _ = _series(t, spec, tp, self.size["cycles"])
        _check_series(gates, f"off-resonant U={U:.4f} g={g:.4f}", basis.L, f, ee)


def jobs(t, seed: int, scale: str, ref: dict, workdir: str):
    """The pass as (name, fn(gates)) jobs; inputs drawn from `seed`."""
    del workdir
    q = _Quench(t, seed, scale, ref)
    N = q.size["L"] // 2
    te_p2 = "1" * (N - 1) + "00" + "1" + "0" * (N - 2)
    return [("quench-spectrum", q.spectrum), ("quench-tp", q.pinnacle),
            ("quench-te_p2", lambda gates: q.state(gates, te_p2, "te_p:2")),
            ("quench-ensemble", q.ensemble),
            ("exact-drive", q.exact_drive), ("off-resonant", q.off_resonant)]
