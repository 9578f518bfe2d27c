"""Entropies, kernel projections, and the low-entanglement zero-mode state.

Entanglement entropy exploits particle-number conservation: the coefficient
matrix across a cut is block diagonal in the left particle count, so each
block is Schmidt-decomposed separately instead of reshaping the full vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np
from scipy.special import xlogy

from .errors import DomainError
from .fock_basis import FockState, SectorBasis
from .spectral import Spectrum

NORM_TOL = 1e-10
SCHMIDT_FLOOR = 1e-14      # reduced-density eigenvalues below this are dropped
PAGE_OFFSET = 0.5
COE_SPREAD_FRACTION = 0.48  # effective fraction of the basis a chaotic state covers
PROJECTION_FLOOR = 1e-12
CLUSTER_WIDTH = 1e-9        # quasienergy width treated as one degenerate level


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
def _cut_layout(L: int, N: int, cut: int):
    """Scatter pattern of sector amplitudes into per-left-count blocks.

    Returns (block_id, row_in_block, col_in_block, shapes): state i goes to
    entry (row[i], col[i]) of block block_id[i], block m having shape
    (C(cut, m), C(L-cut, N-m)).
    """
    basis = SectorBasis(L, N)
    right_bits = L - cut
    left_words = basis.states >> right_bits
    right_words = basis.states & ((1 << right_bits) - 1)
    m_lo = max(0, N - right_bits)
    m_hi = min(cut, N)
    block_id = np.empty(basis.size, dtype=np.intp)
    row = np.empty(basis.size, dtype=np.intp)
    col = np.empty(basis.size, dtype=np.intp)
    shapes = []
    for b, m in enumerate(range(m_lo, m_hi + 1)):
        left_basis = SectorBasis(cut, m)
        right_basis = SectorBasis(right_bits, N - m)
        sel = np.array([int(w).bit_count() == m for w in left_words])
        block_id[sel] = b
        row[sel] = [left_basis.rank(int(w)) for w in left_words[sel]]
        col[sel] = [right_basis.rank(int(w)) for w in right_words[sel]]
        shapes.append((left_basis.size, right_basis.size))
    return block_id, row, col, tuple(shapes)


def schmidt_spectrum(amplitudes: np.ndarray, basis: SectorBasis,
                     cut: int) -> np.ndarray:
    """Squared Schmidt coefficients across sites (1..cut | cut+1..L).

    A (dim, n) block of amplitude columns gives an (n, k) array, one row of
    coefficients per column; each block shape takes one stacked SVD.
    """
    if not 1 <= cut < basis.L:
        raise DomainError(f"cut {cut} outside 1..{basis.L - 1}")
    block_id, row, col, shapes = _cut_layout(basis.L, basis.N, cut)
    amps = np.asarray(amplitudes)
    cols = amps[:, None] if amps.ndim == 1 else amps
    lams = []
    for b, shape in enumerate(shapes):
        sel = block_id == b
        blocks = np.zeros((cols.shape[1], *shape), dtype=np.complex128)
        blocks[:, row[sel], col[sel]] = cols[sel].T
        s = np.linalg.svd(blocks, compute_uv=False)
        lams.append(s * s)
    lam = np.concatenate(lams, axis=1)
    return lam[0] if amps.ndim == 1 else lam


def schmidt_entropies(columns: np.ndarray, basis: SectorBasis,
                      cut: int) -> np.ndarray:
    """Von Neumann entropy in nats of each amplitude column across the cut.

    Reduced-density eigenvalues below SCHMIDT_FLOOR are dropped.
    """
    out = np.empty(columns.shape[1])
    for i, lam in enumerate(schmidt_spectrum(columns, basis, cut)):
        lam = lam[lam >= SCHMIDT_FLOOR]
        out[i] = -xlogy(lam, lam).sum()
    return out


def entanglement_entropy(state: StateVector, cut: int | None = None) -> float:
    """Half-chain von Neumann entropy in nats (default cut at L/2)."""
    amps = _require_normalized(state)
    if cut is None:
        cut = state.basis.L // 2
    return float(schmidt_entropies(amps[:, None], state.basis, cut)[0])


def entropy_profile(spec: Spectrum, indices=None, cut: int | None = None,
                    batch: int = 256) -> np.ndarray:
    """Entanglement entropy of eigenstate columns, materialized in batches."""
    if indices is None:
        indices = np.arange(spec.size)
    indices = np.asarray(indices, dtype=np.intp)
    if cut is None:
        cut = spec.basis.L // 2
    out = np.empty(len(indices))
    for lo in range(0, len(indices), batch):
        cols = spec.vectors.columns(indices[lo:lo + batch])
        out[lo:lo + cols.shape[1]] = schmidt_entropies(cols, spec.basis, cut)
    return out


def shannon_entropy(state: StateVector) -> float:
    """Spread of the state over the Fock basis, -sum p ln p in nats."""
    amps = _require_normalized(state)
    p = np.abs(amps) ** 2
    return float(-xlogy(p, p).sum())


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
    if len(spec.zero_indices) == 0:
        return 0.0
    idx = spec.basis.index_of(f) if not isinstance(f, (int, np.integer)) else int(f)
    return float(spec.weight_row(idx)[spec.zero_indices].sum())


def scar_state(spec: Spectrum, f: FockState | int | str) -> StateVector:
    """Normalized kernel projection of a Fock state.

    The overlap of the result with |f> is the square root of the projection
    weight, real and positive by construction.
    """
    idx = spec.basis.index_of(f) if not isinstance(f, (int, np.integer)) else int(f)
    kernel = spec.kernel_matrix()
    coeffs = kernel[idx, :].conj()
    weight = float((np.abs(coeffs) ** 2).sum())
    if weight <= PROJECTION_FLOOR:
        raise DomainError(
            f"kernel projection weight {weight:.3e} too small to normalize")
    amps = kernel @ (coeffs / math.sqrt(weight))
    return StateVector(amps, spec.basis)


def cluster_levels(eps: np.ndarray, w: np.ndarray,
                   width: float = CLUSTER_WIDTH) -> tuple[np.ndarray, np.ndarray]:
    """Merge ascending quasienergies closer than `width` into one level.

    Returns each level's mean quasienergy and summed weight.
    """
    means, sums = [], []
    start = 0
    for i in range(1, len(eps) + 1):
        if i == len(eps) or eps[i] - eps[i - 1] > width:
            means.append(eps[start:i].mean())
            sums.append(w[start:i].sum())
            start = i
    return np.asarray(means), np.asarray(sums)


def overlap_table(spec: Spectrum, f: FockState | int | str,
                  aggregate: bool = True,
                  width: float = CLUSTER_WIDTH) -> np.ndarray:
    """Rows (quasienergy, overlap weight) of a Fock state against eigenstates.

    With aggregation, quasienergies closer than `width` are merged into one
    row carrying the summed weight, so the degenerate kernel shows up as a
    single entry.
    """
    idx = spec.basis.index_of(f) if not isinstance(f, (int, np.integer)) else int(f)
    w = spec.weight_row(idx)
    eps = spec.quasienergies
    if not aggregate:
        return np.column_stack([eps, w])
    return np.column_stack(cluster_levels(eps, w, width))


def ee_outlier_flags(entropies: np.ndarray, n_mad: float = 3.0) -> np.ndarray:
    """Flag entropies sitting below the band by more than n_mad median
    absolute deviations; mechanical, no interpretation attached."""
    s = np.asarray(entropies, dtype=np.float64)
    med = np.median(s)
    mad = np.median(np.abs(s - med))
    if mad == 0.0:
        return np.zeros(len(s), dtype=bool)
    return s < med - n_mad * mad
