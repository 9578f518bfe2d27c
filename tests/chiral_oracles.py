"""Oracles for the chiral route in `scarkit.spectral`.

The per-column loop materializes one eigenvector column at a time from the
factors, with the pair phases worked out from the documented convention,
and the per-row loop reads Fock rows off those columns; both are oracles for
the vectorized ChiralPairVectors accessors.  `svd_factors` is the full SVD
the Gram route replaced, for `chiral_svd`, and `gram_factors` the Gram
route with its Newton-Schulz product as one GEMM.
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


def pair_coefficients(vec, kind: str, i: int) -> tuple[complex, complex]:
    """The u and v coefficients of the '-' or '+' column of pair i, worked
    out from the documented convention.  The bare column is
    (u, -i*sigma*v)/sqrt(2), sigma = -1 on the '-' branch and +1 on '+';
    its largest-magnitude component is made real positive, and a tie
    between the two factors goes to u."""
    w = 1.0 / math.sqrt(2.0)
    sigma = -1.0 if kind == "-" else 1.0
    u, v = vec.Uf[:, i], vec.Vt[i, :]
    pu, pv = u[np.argmax(np.abs(u))], v[np.argmax(np.abs(v))]
    if abs(pu) >= abs(pv):                  # u carries the largest component
        su = w if pu > 0 else -w
        return complex(su, 0.0), complex(0.0, -sigma * su)
    sv = w if pv > 0 else -w                # -i*sigma*c_u = sv makes it real
    return complex(0.0, sigma * sv), complex(sv, 0.0)


def column(vec, a: int) -> np.ndarray:
    kind, i = decode(vec, a)
    psi = np.zeros(vec.n_states, dtype=np.complex128)
    if kind == "0+":
        psi[vec.plus_idx] = vec.Uf[:, i]
    elif kind == "0-":
        psi[vec.minus_idx] = vec.Vt[i, :]
    else:
        cu, cv = pair_coefficients(vec, kind, i)
        psi[vec.plus_idx] = vec.Uf[:, i] * np.complex128(cu)
        psi[vec.minus_idx] = vec.Vt[i, :] * np.complex128(cv)
    return psi


def columns(vec, indices) -> np.ndarray:
    out = np.empty((vec.n_states, len(indices)), dtype=np.complex128)
    for k, a in enumerate(indices):
        out[:, k] = column(vec, int(a))
    return out


def rows(vec, indices) -> np.ndarray:
    """Fock rows `indices` of the matrix of every column."""
    every = columns(vec, range(vec.n_states))
    return every[np.asarray(indices, dtype=np.intp)]


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


def gram_factors(C: np.ndarray):
    """(U, s, V^T) of a C of full rank on its smaller side, as `chiral_svd`
    takes them, with `np.linalg.eigh` for the Gram matrix and the
    Newton-Schulz step X <- X E as one X-sized product."""
    tall = C.shape[0] >= C.shape[1]
    A = C if tall else C.T
    k = A.shape[1]
    _, W = np.linalg.eigh(-(A @ A.T))
    X = A.T @ W[:, :k]
    s = np.linalg.norm(X, axis=0)
    X /= s
    E = X.T @ X
    E *= -0.5
    E += 0.0
    E.flat[::k + 1] += 1.5
    X = X @ E
    return (W, s, X.T) if tall else (X, s, W.T)
