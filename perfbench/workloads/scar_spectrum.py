"""The spectrum half of scar-pipeline: chiral SVD, kernel and scar observables.

At L = 14 this is the work of ``scarkit scar --per-state``: build, chiral
SVD, mirror and gap-ratio checks, entanglement entropy of every eigenstate
and the Shannon entropy of every eigenstate column.  At L = 12 it adds the
scar report of two families, whose C block is rectangular and rank-deficient
(the code path L = 16 takes), and kernel projections of seed-drawn Fock
states.  L = 16 itself needs 102 s per SVD, too long to repeat per check.
"""

from __future__ import annotations

import numpy as np

from scarkit import (SectorBasis, StateVector, build_effective_resonant,
                     diagonalize, entanglement_entropy, entropy_profile,
                     gap_ratio_stats, mirror_asymmetry, overlap_table,
                     pinnacle_state, resonant_family, scar_state,
                     shannon_entropy, zero_projection)

from .common import draw_fock_states, entropy_bound

G, U_DRIVE = 50.0, 0.5
SAMPLED_STATES = 64
BATCH = 256                   # eigenstate columns materialized per call

SIZES = {"full": {"profile_L": 14, "report_L": 12},
         "small": {"profile_L": 8, "report_L": 8}}

# Frozen at the seed commit.  Per family: kernel count, mean gap ratio and,
# where a kernel exists, P0(tp), S_EE(s0) and S_IE(s0).
REFERENCE = {
    "full": {
        (14, (0, 0, "+")): {"kernel": 0, "mean_r": 0.532159799101},
        (12, (0, 0, "+")): {"kernel": 20, "mean_r": 0.529714186041,
                            "P0": 0.802017471900, "S_EE": 0.798676021039,
                            "S_IE": 1.096395518082},
        (12, (0, 1, "-")): {"kernel": 20, "mean_r": 0.533561397545,
                            "P0": 0.646384988801, "S_EE": 1.064465322293,
                            "S_IE": 1.542474693637},
    },
    "small": {
        (8, (0, 0, "+")): {"kernel": 6, "mean_r": 0.511764582890,
                           "P0": 0.864697902102, "S_EE": 0.587867634028,
                           "S_IE": 0.703880253218},
        (8, (0, 1, "-")): {"kernel": 6, "mean_r": 0.384827976212,
                           "P0": 0.776285742437, "S_EE": 0.731253907228,
                           "S_IE": 0.849970045814},
    },
}
SCALAR_TOL = 1e-9
MIRROR_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def _spectrum_job(t, gates, L, family, ref):
    """Build, SVD, mirror/gap checks, every eigenstate's S_EE and S_IE."""
    basis = t.call(SectorBasis, L, L // 2)
    t.count("fock_basis.states", basis.size)
    params = t.call(resonant_family, *family).params(G, U_DRIVE)
    ham = t.call(build_effective_resonant, basis, params, *family)
    t.count("hamiltonian.nnz", ham.matrix.nnz)
    spec = t.named("diagonalize_chiral", diagonalize, ham)
    t.count("spectral.diag_dim", spec.size)
    t.count("spectral.zero_modes", len(spec.zero_indices))
    gates.equal(f"L={L} {family} kernel count", len(spec.zero_indices),
                ref["kernel"])
    gates.check(f"L={L} {family} mirror asymmetry above {MIRROR_TOL}",
                t.call(mirror_asymmetry, spec) <= MIRROR_TOL)
    gates.close(f"L={L} {family} mean gap ratio",
                t.call(gap_ratio_stats, spec).mean_r, ref["mean_r"], SCALAR_TOL)

    ee = t.call(entropy_profile, spec)
    t.count("observables.schmidt_states", spec.size)
    gates.finite("entropy profile", ee)
    gates.check("entropy profile outside [0, L/2 ln 2]",
                np.all((ee > -1e-12) & (ee <= entropy_bound(L))))
    ie = np.empty(spec.size)
    for lo in range(0, spec.size, BATCH):
        cols = t.call(spec.vectors.columns, np.arange(lo, min(lo + BATCH, spec.size)))
        for i in range(cols.shape[1]):
            ie[lo + i] = t.call(shannon_entropy, t.call(StateVector, cols[:, i], basis))
    gates.finite("Shannon entropies", ie)
    gates.check("Shannon entropy outside [0, ln dim]",
                np.all((ie > -1e-12) & (ie <= np.log(spec.size) + 1e-9)))
    return basis, ham, spec


def _scar_report_job(t, gates, rng, L, family, ref):
    basis, ham, spec = _spectrum_job(t, gates, L, family, ref)
    tp = t.call(pinnacle_state, L)
    p0 = t.named("scar.zero_projection", zero_projection, tp, spec)
    s0 = t.named("scar.scar_state", scar_state, spec, tp)
    see = t.named("scar.entanglement_entropy", entanglement_entropy, s0)
    t.count("observables.schmidt_states", 1)
    sie = t.named("scar.shannon_entropy", shannon_entropy, s0)
    table = t.call(overlap_table, spec, tp)
    gates.close(f"{family} P0(tp)", p0, ref["P0"], SCALAR_TOL)
    gates.close(f"{family} S_EE(s0)", see, ref["S_EE"], SCALAR_TOL)
    gates.close(f"{family} S_IE(s0)", sie, ref["S_IE"], SCALAR_TOL)
    residual = float(np.linalg.norm(ham.matrix @ s0.amplitudes))
    gates.check(f"{family} |H s0| = {residual:.2e} above {RESIDUAL_TOL}",
                residual <= RESIDUAL_TOL)
    gates.close("overlap table total weight", table[:, 1].sum(), 1.0, 1e-10)
    kernel_rows = table[np.abs(table[:, 0]) < 1e-9]
    gates.check("overlap table has one kernel row", len(kernel_rows) == 1)
    gates.close("overlap table kernel weight", kernel_rows[:, 1].sum(), p0, 1e-10)

    for f in draw_fock_states(rng, basis, min(SAMPLED_STATES, basis.size)):
        p = t.call(zero_projection, f, spec)
        gates.check(f"P0({f.to_string()}) = {p} outside [0, 1]",
                    -1e-12 <= p <= 1.0 + 1e-12)


def jobs(t, seed: int, scale: str, ref: dict, workdir: str):
    """The pass as (name, fn(gates)) jobs; inputs drawn from `seed`."""
    del workdir
    size = SIZES[scale]
    rng = np.random.default_rng(seed)
    L14, L12 = size["profile_L"], size["report_L"]
    out = [(f"spectrum-L{L14}",
            lambda g: _spectrum_job(t, g, L14, (0, 0, "+"), ref[(L14, (0, 0, "+"))]))]
    for family in ((0, 0, "+"), (0, 1, "-")):
        out.append((f"scar-report-L{L12}-{family[0]}{family[1]}{family[2]}",
                    lambda g, family=family: _scar_report_job(
                        t, g, rng, L12, family, ref[(L12, family)])))
    return out
