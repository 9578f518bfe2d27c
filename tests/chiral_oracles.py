"""Oracles for the chiral route in `scarkit.spectral`.

The per-column and per-row loops materialize one eigenvector column (or one
Fock row) at a time from the factors, exactly as the original loop did, for
the vectorized ChiralPairVectors accessors.  `svd_factors` is the full SVD
the Gram route replaced, for `chiral_svd`.
"""

import math

import numpy as np


def decode(vec, a: int) -> tuple[str, int]:
    """Map a spectrum column to ('-'|'0+'|'0-'|'+', factor index)."""
    j = int(vec._perm[a])
    r = vec.rank
    if j < r:
        return "-", j
    j -= r
    if j < vec.n_plus - r:
        return "0+", r + j
    j -= vec.n_plus - r
    if j < vec.n_minus - r:
        return "0-", r + j
    j -= vec.n_minus - r
    return "+", r - 1 - j


def column(vec, a: int) -> np.ndarray:
    kind, i = decode(vec, a)
    psi = np.zeros(vec.n_states, dtype=np.complex128)
    if kind == "0+":
        psi[vec.plus_idx] = vec.Uf[:, i]
    elif kind == "0-":
        psi[vec.minus_idx] = vec.Vt[i, :]
    else:
        bu, bv = ("mu", "mv") if kind == "-" else ("pu", "pv")
        w = 1.0 / math.sqrt(2.0)
        psi[vec.plus_idx] = vec._ph[bu][i] * w * vec.Uf[:, i]
        psi[vec.minus_idx] = vec._ph[bv][i] * w * vec.Vt[i, :]
    return psi


def columns(vec, indices) -> np.ndarray:
    out = np.empty((vec.n_states, len(indices)), dtype=np.complex128)
    for k, a in enumerate(indices):
        out[:, k] = column(vec, int(a))
    return out


def rows(vec, indices) -> np.ndarray:
    r = vec.rank
    w = 1.0 / math.sqrt(2.0)
    out = np.empty((len(indices), vec.n_states), dtype=np.complex128)
    for k, n in enumerate(indices):
        n = int(n)
        p = vec._block_pos[n]
        internal = np.zeros(vec.n_states, dtype=np.complex128)
        if vec._is_plus[n]:
            fac = vec.Uf[p, :]
            internal[:r] = vec._ph["mu"] * w * fac[:r]
            internal[r:vec.n_plus] = fac[r:]
            internal[vec.n_states - r:] = (vec._ph["pu"] * w * fac[:r])[::-1]
        else:
            fac = vec.Vt[:, p]
            internal[:r] = vec._ph["mv"] * w * fac[:r]
            internal[vec.n_plus:vec.n_plus + vec.n_minus - r] = fac[r:]
            internal[vec.n_states - r:] = (vec._ph["pv"] * w * fac[:r])[::-1]
        out[k] = internal[vec._perm]
    return out


def svd_factors(C: np.ndarray):
    """(U, s, V^T) from the full numpy SVD of C, the chiral route before the
    Gram one, with each kernel block put through `canonical_kernel` and the
    kernel sign rule (largest-magnitude entry positive), as
    `diagonalize` leaves them."""
    from scarkit.spectral import ZERO_MODE_RTOL, canonical_kernel
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    r = int(np.count_nonzero(s > ZERO_MODE_RTOL * s[0]))
    U[:, r:] = signed_kernel(canonical_kernel(U[:, r:]))
    Vt[r:] = signed_kernel(canonical_kernel(Vt[r:].T)).T
    return U, s, Vt


def signed_kernel(K: np.ndarray) -> np.ndarray:
    """K with each column's largest-magnitude entry (lowest index on ties)
    made positive."""
    pivot = K[np.abs(K).argmax(axis=0), np.arange(K.shape[1])]
    return K * np.where(pivot < 0, -1.0, 1.0)
