"""Dense cycle-matrix stepping of the exact square-wave drive, kept as the
oracle for the Floquet-spectrum route in `scarkit.dynamics`.

Each half-period exponential comes from the eigendecomposition of its real
symmetric Hamiltonian, the two are composed into one dense cycle matrix
u2 u1, and a cycle is one product with it, exactly as the stepping route did.
"""

import numpy as np

from scarkit.graph import tower_states
from scarkit.hamiltonian import build_half_period
from scarkit.observables import schmidt_entropies


def expi_real_symmetric(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for real symmetric h via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.T


def cycle_matrix(basis, params) -> np.ndarray:
    """u2 u1: the dense one-cycle map of the drive."""
    half = params.T / 2.0
    u1 = expi_real_symmetric(build_half_period(basis, params, 1).toarray(), half)
    u2 = expi_real_symmetric(build_half_period(basis, params, 2).toarray(), half)
    return u2 @ u1


def stepped_states(basis, params, psi0: np.ndarray, last: int) -> np.ndarray:
    """States after k = 0..last cycles, stepped one product at a time.

    `psi0` is one start (dim,) or a block of starts (dim, n); the result is
    (dim, last + 1) or (dim, n, last + 1).
    """
    cycle = cycle_matrix(basis, params)
    psi = np.asarray(psi0, dtype=np.complex128)
    out = np.empty(psi.shape + (last + 1,), dtype=np.complex128)
    out[..., 0] = psi
    for k in range(1, last + 1):
        psi = cycle @ psi
        out[..., k] = psi
    return out


def stepped_series(basis, params, starts: np.ndarray, last: int) -> dict:
    """F, half-chain S_EE and P_t of each start column, each (n, last + 1)."""
    states = stepped_states(basis, params, starts, last)     # (dim, n, k)
    t_idx = tower_states(basis.L).indices(basis)
    f = np.abs(np.einsum("in,ink->nk", starts.conj(), states)) ** 2
    pt = (np.abs(states[t_idx]) ** 2).sum(axis=0)
    ee = np.stack([schmidt_entropies(states[:, n, :], basis)
                   for n in range(states.shape[1])])
    return {"F": f, "EE": ee, "Pt": pt}
