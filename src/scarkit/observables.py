"""Entropies, kernel projections, and the low-entanglement zero-mode state.

Entanglement entropy, always across the half-chain cut after site L // 2,
exploits particle-number conservation: the coefficient matrix across the
cut is block diagonal in the left particle count.  Sorted by (left particle
count, left word), the sector's states list each block's entries in
row-major order, so every block is a reshaped slice of that one cut
ordering.  Real amplitude columns get real blocks and a real SVD.

Per-eigenstate observables are read in one batched pass
(`eigenstate_measures`).  On a chiral spectrum it reads one real column per
+-s pair, in the real frame that the `spectral` module docstring sets out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError
from .fock_basis import FockState, SectorBasis
from .spectral import ChiralPairVectors, Spectrum

NORM_TOL = 1e-10
SCHMIDT_FLOOR = 1e-14      # reduced-density eigenvalues below this are dropped
PAGE_OFFSET = 0.5
COE_SPREAD_FRACTION = 0.48  # effective fraction of the basis a chaotic state covers
PROJECTION_FLOOR = 1e-12
CLUSTER_WIDTH = 1e-9        # quasienergy width treated as one degenerate level
PROFILE_BATCH = 256         # eigenstate columns per `eigenstate_measures` block


@dataclass
class StateVector:
    """Normalized amplitudes over one filling sector."""

    amplitudes: np.ndarray
    basis: SectorBasis
    norm: float = field(init=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.size,):
            raise DomainError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"sector dimension is {self.basis.size}")
        self.norm = float(np.linalg.norm(self.amplitudes))


def fock_vector(basis: SectorBasis, state: FockState | int | str) -> StateVector:
    """One-hot vector for a single occupation configuration."""
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[basis.index_of(state)] = 1.0
    return StateVector(amps, basis)


def _require_normalized(state: StateVector) -> np.ndarray:
    if abs(state.norm - 1.0) > NORM_TOL:
        raise DomainError(f"state norm {state.norm} not within {NORM_TOL} of 1")
    return state.amplitudes


@lru_cache(maxsize=None)
def _cut_layout(L: int, N: int):
    """The sector's states in cut order (cut = L // 2), and the Schmidt
    block shapes.

    Returns (order, shapes): `order` lists the state indices stable-sorted by
    (left particle count m, left word).  Every pair of an m-particle left
    word and an (N-m)-particle right word is a sector state, and right words
    ascend within a left word, so block m, of shape (C(cut, m),
    C(L-cut, N-m)), is the next a*b entries of `order` in row-major
    (left rank, right rank) order.
    """
    if L < 2:
        raise DomainError(f"L = {L} has no half-chain cut")
    basis = SectorBasis(L, N)
    cut = L // 2
    right_bits = L - cut
    left_words = basis.states >> right_bits
    order = np.lexsort((left_words, np.bitwise_count(left_words)))
    shapes = tuple((math.comb(cut, m), math.comb(right_bits, N - m))
                   for m in range(max(0, N - right_bits), min(cut, N) + 1))
    return order, shapes


def schmidt_spectrum(columns: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Squared Schmidt coefficients at the half chain, one row per column.

    A (dim, n) block of amplitude columns gives an (n, k) array.  Each left
    particle count's coefficient blocks are a slice of the cut order
    reshaped, and take one stacked SVD in the amplitudes' own dtype: real
    amplitudes get a real SVD.
    """
    order, shapes = _cut_layout(basis.L, basis.N)
    cols = np.asarray(columns)
    lams, lo = [], 0
    for a, b in shapes:
        blocks = cols[order[lo:lo + a * b]].T.reshape(-1, a, b)
        s = np.linalg.svd(blocks, compute_uv=False)
        lams.append(s * s)
        lo += a * b
    return np.concatenate(lams, axis=1)


def plogp(p: np.ndarray) -> np.ndarray:
    """p * ln p elementwise for p >= 0, exactly 0 where p = 0; same shape."""
    out = np.log(p + (p == 0))     # log 1 = 0 where p = 0
    out *= p
    return out


def schmidt_entropies(columns: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Half-chain von Neumann entropy in nats of each amplitude column.

    Reduced-density eigenvalues below SCHMIDT_FLOOR are dropped.
    """
    out = np.empty(columns.shape[1])
    for i, lam in enumerate(schmidt_spectrum(columns, basis)):
        lam = lam[lam >= SCHMIDT_FLOOR]
        out[i] = -plogp(lam).sum()
    return out


def entanglement_entropy(state: StateVector) -> float:
    """Half-chain von Neumann entropy in nats."""
    amps = _require_normalized(state)
    return float(schmidt_entropies(amps[:, None], state.basis)[0])


def eigenstate_measures(spec: Spectrum, measures,
                        indices=None) -> list[np.ndarray]:
    """Each measure of the eigenstate columns `indices`, in one batched pass.

    A measure maps a (dim, n) block of amplitude columns to n values.  On a
    chiral spectrum a batch holds `real_columns`, one per +-s pair or kernel
    state, and a pair's value goes to both its columns.  That is exact for a
    measure that reads only Schmidt spectra and |amplitudes|: the real
    column is a local unitary image of both, equal in |amplitude| bit for bit.
    """
    if indices is None:
        indices = np.arange(spec.size)
    indices = np.asarray(indices, dtype=np.intp)
    vec = spec.vectors
    if isinstance(vec, ChiralPairVectors):
        keys, where = np.unique(vec.pair_keys(indices), return_inverse=True)
        columns = vec.real_columns
    else:
        keys, where, columns = indices, slice(None), vec.columns
    out = [np.empty(len(keys)) for _ in measures]
    for lo in range(0, len(keys), PROFILE_BATCH):
        block = columns(keys[lo:lo + PROFILE_BATCH])
        for values, measure in zip(out, measures):
            values[lo:lo + PROFILE_BATCH] = measure(block)
    return [values[where] for values in out]


def entropy_profile(spec: Spectrum, indices=None) -> np.ndarray:
    """Half-chain entanglement entropy of eigenstate columns:
    `eigenstate_measures` with the one measure `schmidt_entropies`."""
    (ee,) = eigenstate_measures(
        spec, [lambda cols: schmidt_entropies(cols, spec.basis)], indices)
    return ee


def shannon_entropies(columns: np.ndarray) -> np.ndarray:
    """Spread of each amplitude column over the Fock basis, -sum p ln p in nats.

    A (dim, n) block gives n entropies, a single amplitude vector a scalar.
    Every column must be normalized to within NORM_TOL.  Each column is summed
    as one contiguous row, so its value does not depend on the block it came
    in.
    """
    p = np.abs(columns)
    p = np.ascontiguousarray(np.square(p, out=p).T)
    for norm_sq in np.add.reduce(p, axis=-1).reshape(-1).tolist():
        norm = math.sqrt(norm_sq)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm {norm} not within {NORM_TOL} of 1")
    return -np.add.reduce(plogp(p), axis=-1)


def shannon_entropy(state: StateVector) -> float:
    """Spread of the state over the Fock basis, -sum p ln p in nats."""
    return float(shannon_entropies(state.amplitudes))


def page_entropy(L: int) -> float:
    """Random-state half-chain entanglement reference (L/2) ln 2 - 1/2."""
    return 0.5 * L * math.log(2.0) - PAGE_OFFSET


def coe_ie_reference(dim: int) -> float:
    """Information-entropy reference for chaotic states, ln(0.48 * dim)."""
    if dim < 1:
        raise DomainError(f"need a positive dimension, got {dim}")
    return math.log(COE_SPREAD_FRACTION * dim)


def zero_projection(f: FockState | int | str, spec: Spectrum) -> float:
    """Probability weight of a Fock state inside the zero-quasienergy subspace.

    Basis independent: this is the squared norm of the kernel projection, so
    any orthonormal kernel basis returned by the eigensolver gives the same
    number.
    """
    idx = spec.basis.index_of(f)
    return float(spec.weight_row(idx)[spec.is_zero].sum())


def scar_state(spec: Spectrum, f: FockState | int | str) -> StateVector:
    """Normalized kernel projection of a Fock state.

    The overlap of the result with |f> is the square root of the projection
    weight, real and positive by construction.
    """
    idx = spec.basis.index_of(f)
    kernel = spec.kernel_matrix()
    coeffs = kernel[idx, :].conj()
    weight = float((np.abs(coeffs) ** 2).sum())
    if weight <= PROJECTION_FLOOR:
        raise DomainError(
            f"kernel projection weight {weight:.3e} too small to normalize")
    amps = kernel @ (coeffs / math.sqrt(weight))
    return StateVector(amps, spec.basis)


def cluster_levels(eps: np.ndarray,
                   w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge ascending quasienergies closer than CLUSTER_WIDTH into one level.

    Returns each level's mean quasienergy and summed weight.
    """
    means, sums = [], []
    start = 0
    for i in range(1, len(eps) + 1):
        if i == len(eps) or eps[i] - eps[i - 1] > CLUSTER_WIDTH:
            means.append(eps[start:i].mean())
            sums.append(w[start:i].sum())
            start = i
    return np.asarray(means), np.asarray(sums)


def overlap_table(spec: Spectrum, f: FockState | int | str) -> np.ndarray:
    """Rows (quasienergy, overlap weight) of a Fock state against eigenstates.

    Quasienergies closer than CLUSTER_WIDTH are merged into one row carrying
    the summed weight, so the degenerate kernel shows up as a single entry.
    """
    w = spec.weight_row(spec.basis.index_of(f))
    return np.column_stack(cluster_levels(spec.quasienergies, w))
