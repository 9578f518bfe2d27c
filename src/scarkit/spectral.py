"""Diagonalization, folding, zero modes, and level statistics.

Two eigensolver routes live here. Generic Hermitian matrices go through dense
`eigh`. The resonant stroboscopic Hamiltonian is purely imaginary with zero
diagonal and anticommutes with the diagonal dipole-parity operator, so it is
unitarily equivalent (multiply odd-parity basis states by -i) to a real
symmetric matrix of the block form [[0, C], [C^T, 0]]. Its eigensystem is
recovered from one real SVD of C at half the dimension, which keeps the
largest half-filled sectors this package targets inside a few hundred MB,
and the +s/-s pairing and the kernel come out exact instead of only to
solver precision.

Real frame.  With A = -iH real antisymmetric, e^{-iHt} = e^{tA} is a real
orthogonal matrix, so a real start (every Fock state) stays real and
`ChiralPairVectors.propagate` evolves it in real arithmetic.  The pair columns
psi_-+ = (u, +-i v)/sqrt(2) map into each other under the dipole parity
(-1)^D, and i^D psi_- = (-1)^ceil(D/2) (u, v)/sqrt(2) is real (D the dipole
moment, sum_j j n_j).  (-1)^D and i^D are products of the on-site phases
(-1)^(j n_j) and i^(j n_j), local unitaries that leave the Schmidt spectrum
across every cut unchanged; so a +-s pair has one entanglement entropy, which
`ChiralPairVectors.real_columns` lets callers compute from one real column.

Eigenvector phase convention: whenever a column is materialized, its
largest-magnitude component is made real positive (ties: lowest basis index;
equal maxima in both parity blocks: the even-parity block wins).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapabilityError, DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .hamiltonian import HamiltonianMatrix

DENSE_EIG_DEFAULT = 20000       # refuse eigh / SVD above this sector dimension
DENSE_VECTORS_MAX = 6000        # refuse materializing a full D x D eigenvector matrix
ZERO_MODE_RTOL = 1e-9           # kernel tolerance relative to the spectral radius

COE_MEAN_R = 0.53
POISSON_MEAN_R = 0.386


def fold_quasienergy(energy, omega: float):
    """Fold an energy (or an array of them) into [-omega/2, omega/2).

    The upper endpoint maps to -omega/2, keeping the window half open.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    floor = math.floor if isinstance(energy, float) else np.floor  # same value
    return energy - omega * floor(energy / omega + 0.5)


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    idx = np.abs(V).argmax(axis=0)
    pivot = V[idx, np.arange(V.shape[1])]
    return V * (np.abs(pivot) / pivot)


class DenseVectors:
    """Eigenvector columns stored as one dense matrix."""

    def __init__(self, V: np.ndarray):
        self._V = V

    @property
    def n_states(self) -> int:
        return self._V.shape[0]

    def column(self, a: int) -> np.ndarray:
        return self._V[:, a]

    def columns(self, indices) -> np.ndarray:
        return self._V[:, np.asarray(indices, dtype=np.intp)]

    def row(self, n: int) -> np.ndarray:
        return self._V[n, :]

    def rows(self, indices) -> np.ndarray:
        return self._V[np.asarray(indices, dtype=np.intp), :]

    def dense(self) -> np.ndarray:
        return self._V

    def sector_weight(self, mask: np.ndarray) -> np.ndarray:
        return (np.abs(self._V[mask, :]) ** 2).sum(axis=0)

    def coefficients(self, psi0: np.ndarray) -> np.ndarray:
        """<a|psi0> for every eigenvector column a."""
        return self._V.conj().T @ psi0

    def propagate(self, psi0: np.ndarray, kt_values: np.ndarray,
                  eigvals: np.ndarray) -> np.ndarray:
        c = self.coefficients(psi0)
        phases = np.exp(-1j * np.outer(eigvals, kt_values))
        return self._V @ (c[:, None] * phases)


def _scaled(F: np.ndarray, coef: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """F * coef along the last axis where `keep`, exact +0 elsewhere."""
    out = np.zeros(F.shape, dtype=np.complex128)
    return np.multiply(F, coef, where=keep, out=out)


def _real_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for real A and possibly complex B without upcasting A."""
    if not np.iscomplexobj(B):
        return A @ B
    return (A @ B.real) + 1j * (A @ B.imag)


class ChiralPairVectors:
    """Eigenvectors of a purely imaginary chiral Hamiltonian, stored factored.

    From the SVD C = U diag(s) V^T of the real off-diagonal block (rows: even
    dipole parity, columns: odd), the paired eigenvectors of the original
    matrix are (u_i on even rows, -+ i v_i on odd rows) / sqrt(2) with
    eigenvalue +- s_i, and the kernel consists of the singular directions
    beyond the rank: (u_i, 0) and (0, v_i). Only the two factor matrices are
    stored; columns are materialized on demand. `dipoles` (D per basis state)
    fixes the real frame of `real_columns`.
    """

    def __init__(self, plus_idx: np.ndarray, minus_idx: np.ndarray,
                 Uf: np.ndarray, Vt: np.ndarray, s: np.ndarray, rank: int,
                 perm: np.ndarray, dipoles: np.ndarray):
        self.plus_idx = plus_idx
        self.minus_idx = minus_idx
        self.Uf = Uf
        self.Vt = Vt
        self.s = s
        self.rank = rank
        self.n_plus = Uf.shape[0]
        self.n_minus = Vt.shape[0]
        self.n_states = self.n_plus + self.n_minus
        self._perm = np.asarray(perm, dtype=np.intp)
        # position of each basis state inside its parity block
        self._block_pos = np.empty(self.n_states, dtype=np.intp)
        self._block_pos[plus_idx] = np.arange(self.n_plus)
        self._block_pos[minus_idx] = np.arange(self.n_minus)
        self._is_plus = np.zeros(self.n_states, dtype=bool)
        self._is_plus[plus_idx] = True
        # i^D psi_- = (-1)^ceil(D/2) (u, v)/sqrt(2) is real (module docstring)
        sign = np.where(((dipoles + 1) // 2) & 1, -1.0, 1.0) / math.sqrt(2.0)
        self._real_u, self._real_v = sign[plus_idx], sign[minus_idx]
        self._fix_kernel_signs()
        self._precompute_pair_phases()
        self._precompute_factor_map()

    def _fix_kernel_signs(self):
        # paired factors must not be flipped independently (that would break
        # C v = s u), but kernel directions are unpaired and safe to fix
        r = self.rank
        if self.n_plus > r:
            blk = self.Uf[:, r:]
            idx = np.abs(blk).argmax(axis=0)
            piv = blk[idx, np.arange(blk.shape[1])]
            blk *= np.where(piv < 0, -1.0, 1.0)
        if self.n_minus > r:
            blk = self.Vt[r:, :]
            idx = np.abs(blk).argmax(axis=1)
            piv = blk[np.arange(blk.shape[0]), idx]
            blk *= np.where(piv < 0, -1.0, 1.0)[:, None]

    def _precompute_pair_phases(self):
        """Unit phases on the u and v factors of each +-s pair column.

        The bare pair column is (u, -i*sigma*v)/sqrt(2) with sigma = +-1 the
        branch sign; the stored phases rotate whichever factor carries the
        overall largest-magnitude component to real positive.
        """
        r = self.rank
        if r == 0:
            empty = np.zeros(0, dtype=np.complex128)
            self._ph = {k: empty for k in ("mu", "mv", "pu", "pv")}
            return
        Ub, Vb = self.Uf[:, :r], self.Vt[:r, :]
        iu = np.abs(Ub).argmax(axis=0)
        upiv = Ub[iu, np.arange(r)]
        iv = np.abs(Vb).argmax(axis=1)
        vpiv = Vb[np.arange(r), iv]
        su = np.where(upiv < 0, -1.0, 1.0).astype(np.complex128)
        sv = np.where(vpiv < 0, -1.0, 1.0).astype(np.complex128)
        u_wins = np.abs(upiv) >= np.abs(vpiv)
        self._ph = {
            "mu": np.where(u_wins, su, -1j * sv),   # '-' branch, u factor
            "mv": np.where(u_wins, 1j * su, sv),    # '-' branch, v factor
            "pu": np.where(u_wins, su, 1j * sv),    # '+' branch, u factor
            "pv": np.where(u_wins, -1j * su, sv),   # '+' branch, v factor
        }

    def _precompute_factor_map(self):
        """Per spectrum column: whether it is paired, the factor index and
        coefficient of its u part (even rows) and v part (odd rows), and
        whether it has each part."""
        j = self._perm
        r, n_plus, n = self.rank, self.n_plus, self.n_states
        minus, plus = j < r, j >= n - r
        paired = self._paired = minus | plus
        pair = np.where(minus, j, n - 1 - j)
        self._column_of = np.argsort(j)          # spectrum column of each j
        self._has_u = paired | (j < n_plus)
        self._has_v = paired | (j >= n_plus)
        self._iu = np.where(paired, pair, np.where(self._has_u, j, 0))
        self._iv = np.where(paired, pair, np.where(self._has_v, j - n_plus + r, 0))
        self._cu = np.ones(n, dtype=np.complex128)
        self._cv = np.ones(n, dtype=np.complex128)
        w = 1.0 / math.sqrt(2.0)
        for m, bu, bv in ((minus, "mu", "mv"), (plus, "pu", "pv")):
            self._cu[m] = self._ph[bu][pair[m]] * w
            self._cv[m] = self._ph[bv][pair[m]] * w

    def column(self, a: int) -> np.ndarray:
        return self.columns([a])[:, 0]

    def columns(self, indices) -> np.ndarray:
        a = np.asarray(indices, dtype=np.intp)
        out = np.empty((self.n_states, len(a)), dtype=np.complex128)
        out[self.plus_idx] = _scaled(self.Uf[:, self._iu[a]], self._cu[a],
                                     self._has_u[a])
        out[self.minus_idx] = _scaled(self.Vt[self._iv[a], :].T, self._cv[a],
                                      self._has_v[a])
        return out

    def row(self, n: int) -> np.ndarray:
        return self.rows([n])[0]

    def rows(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        pos, on_plus = self._block_pos[idx], self._is_plus[idx]
        out = np.empty((len(idx), self.n_states), dtype=np.complex128)
        u_rows = np.take(self.Uf[pos[on_plus], :], self._iu, axis=1)
        v_rows = np.take(self.Vt[:, pos[~on_plus]].T, self._iv, axis=1)
        out[on_plus] = _scaled(u_rows, self._cu, self._has_u)
        out[~on_plus] = _scaled(v_rows, self._cv, self._has_v)
        return out

    def pair_keys(self, indices) -> np.ndarray:
        """Each column index, a '+' column replaced by its '-' partner."""
        a = np.asarray(indices, dtype=np.intp)
        j, n = self._perm[a], self.n_states
        return np.where(j >= n - self.rank, self._column_of[n - 1 - j], a)

    def real_columns(self, indices) -> np.ndarray:
        """Real states with the Schmidt spectra of the columns `indices`.

        Either column of a pair gives i^D psi_- = (-1)^ceil(D/2) (u, v)/sqrt(2),
        a local unitary image of both; a kernel column comes as it is.
        """
        a = np.asarray(indices, dtype=np.intp)
        paired = self._paired[a]
        out = np.empty((self.n_states, len(a)))
        out[self.plus_idx] = self.Uf[:, self._iu[a]] * np.where(
            paired, self._real_u[:, None], self._has_u[a])
        out[self.minus_idx] = self.Vt[self._iv[a], :].T * np.where(
            paired, self._real_v[:, None], self._has_v[a])
        return out

    def dense(self) -> np.ndarray:
        if self.n_states > DENSE_VECTORS_MAX:
            raise CapabilityError(
                f"refusing to materialize {self.n_states}^2 eigenvector matrix; "
                f"bound is {DENSE_VECTORS_MAX}")
        return self.columns(range(self.n_states))

    def sector_weight(self, mask: np.ndarray) -> np.ndarray:
        r = self.rank
        wu = (self.Uf[mask[self.plus_idx], :] ** 2).sum(axis=0)
        wv = (self.Vt[:, mask[self.minus_idx]] ** 2).sum(axis=1)
        internal = np.empty(self.n_states)
        internal[:r] = 0.5 * (wu[:r] + wv[:r])
        internal[r:self.n_plus] = wu[r:]
        internal[self.n_plus:self.n_plus + self.n_minus - r] = wv[r:]
        internal[self.n_states - r:] = internal[:r][::-1]
        return internal[self._perm]

    def coefficients(self, psi0: np.ndarray) -> np.ndarray:
        """<a|psi0> for every column a, from one product with each factor."""
        alpha = _real_matmul(self.Uf.T, psi0[self.plus_idx])
        beta = _real_matmul(self.Vt, psi0[self.minus_idx])
        return (np.conj(self._cu) * np.where(self._has_u, alpha[self._iu], 0)
                + np.conj(self._cv) * np.where(self._has_v, beta[self._iv], 0))

    def propagate(self, psi0: np.ndarray, kt_values: np.ndarray,
                  eigvals: np.ndarray) -> np.ndarray:
        """State columns at times kt_values; real columns for a real psi0.

        e^{-iHt} is real orthogonal, so a real start is evolved in real
        arithmetic, and a complex start as its real and imaginary parts.
        """
        if np.iscomplexobj(psi0):
            return (self.propagate(psi0.real, kt_values, eigvals)
                    + 1j * self.propagate(psi0.imag, kt_values, eigvals))
        del eigvals  # the factored form uses the singular values directly
        r = self.rank
        skt = np.outer(self.s[:r], kt_values)
        cos_m, sin_m = np.cos(skt), np.sin(skt)
        alpha = self.Uf.T @ psi0[self.plus_idx]
        beta = self.Vt @ psi0[self.minus_idx]
        out = np.empty((self.n_states, len(kt_values)))
        out[self.plus_idx] = (
            self.Uf[:, :r] @ (cos_m * alpha[:r, None] + sin_m * beta[:r, None])
            + (self.Uf[:, r:] @ alpha[r:])[:, None])
        out[self.minus_idx] = (
            self.Vt[:r, :].T @ (cos_m * beta[:r, None] - sin_m * alpha[:r, None])
            + (self.Vt[r:, :].T @ beta[r:])[:, None])
        return out


@dataclass
class Spectrum:
    """Folded eigensystem of one sector Hamiltonian."""

    quasienergies: np.ndarray      # folded into [-omega/2, omega/2), ascending
    vectors: DenseVectors | ChiralPairVectors
    zero_indices: np.ndarray       # columns with |quasienergy| below tolerance
    basis: object
    omega: float
    kind: str

    @property
    def size(self) -> int:
        return len(self.quasienergies)

    def kernel_matrix(self) -> np.ndarray:
        return self.vectors.columns(self.zero_indices)

    def weight_row(self, n: int) -> np.ndarray:
        """|<n|psi_a>|^2 against every eigenstate, for one Fock basis index n."""
        return np.abs(self.vectors.row(n)) ** 2

    def propagate(self, psi0: np.ndarray, cycles, period: float) -> np.ndarray:
        """State columns after whole numbers of driving cycles, complex128.

        A start with no imaginary part goes in real, so the chiral route
        evolves it in real arithmetic only.
        """
        kt = np.asarray(cycles, dtype=np.float64) * period
        psi0 = np.asarray(psi0)
        if np.iscomplexobj(psi0) and not psi0.imag.any():
            psi0 = psi0.real
        out = self.vectors.propagate(psi0, kt, self.quasienergies)
        return out.astype(np.complex128, copy=False)


def _zero_tol(values: np.ndarray) -> float:
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    return ZERO_MODE_RTOL * radius


def check_dense(dimension: int, threshold: int, what: str = "sector") -> None:
    """Refuse a dense eigensolve of a `dimension` above `threshold`."""
    if dimension > threshold:
        raise CapabilityError(f"{what} dimension {dimension} exceeds dense "
                              f"threshold {threshold}")


def diagonalize(ham: "HamiltonianMatrix",
                dense_threshold: int = DENSE_EIG_DEFAULT) -> Spectrum:
    """Full eigensystem of a sector Hamiltonian, quasienergies folded.

    Resonant stroboscopic Hamiltonians take the chiral SVD route; everything
    else is dense-diagonalized. Sectors above `dense_threshold` are refused.
    """
    check_dense(ham.dimension, dense_threshold)
    if ham.kind == "effective_resonant":
        return _diagonalize_chiral(ham)
    A = ham.toarray()
    vals, V = np.linalg.eigh(A)
    folded = fold_quasienergy(vals, ham.params.omega)
    perm = np.argsort(folded, kind="stable")
    folded, V = folded[perm], V[:, perm]
    V = _phase_fix(V)
    tol = _zero_tol(folded)
    zero_idx = np.flatnonzero(np.abs(folded) < tol)
    return Spectrum(folded, DenseVectors(V), zero_idx,
                    ham.basis, ham.params.omega, ham.kind)


def _diagonalize_chiral(ham: "HamiltonianMatrix") -> Spectrum:
    m = ham.matrix
    if m.nnz and np.max(np.abs(m.data.real)) != 0.0:
        raise DomainError("chiral route requires a purely imaginary matrix")
    parities = ham.basis.parities
    plus_idx = np.flatnonzero(parities == 1)
    minus_idx = np.flatnonzero(parities == -1)
    # the real rotated frame keeps only the even-odd block; taking .imag of
    # the sparse block densifies it once, with no complex dense temporary
    C = m.tocsr()[plus_idx, :][:, minus_idx].imag.toarray()
    if 2 * np.count_nonzero(C) != m.nnz:
        raise DomainError("matrix couples equal-parity states; not chiral")
    # numpy's LAPACK, not scipy.linalg.svd(overwrite_a=True): scipy links a
    # second OpenBLAS whose thread pool contends with numpy's, which slowed
    # the pipeline more than the saved copy of C was worth
    Uf, s, Vt = np.linalg.svd(C, full_matrices=True)
    tol = ZERO_MODE_RTOL * (float(s[0]) if len(s) else 0.0)
    r = int(np.count_nonzero(s > tol))
    n_zero = (len(plus_idx) - r) + (len(minus_idx) - r)
    internal = np.concatenate([-s[:r], np.zeros(n_zero), s[:r][::-1]])
    folded = fold_quasienergy(internal, ham.params.omega)
    perm = np.argsort(folded, kind="stable")
    vec = ChiralPairVectors(plus_idx, minus_idx, Uf, Vt, s, r, perm,
                            ham.basis.dipoles)
    folded = folded[perm]
    zero_idx = np.flatnonzero(folded == 0.0)
    return Spectrum(folded, vec, zero_idx,
                    ham.basis, ham.params.omega, ham.kind)


def zero_modes(spec: Spectrum, tol: float | None = None) -> np.ndarray:
    """Indices of kernel eigenstates; default tolerance is relative to the radius."""
    if tol is None:
        tol = _zero_tol(spec.quasienergies)
    idx = np.flatnonzero(np.abs(spec.quasienergies) < tol)
    outside = np.abs(spec.quasienergies[np.abs(spec.quasienergies) >= tol])
    if len(outside) and outside.min() < 10 * tol:
        warnings.warn(
            f"zero-mode count is tolerance-sensitive: nearest level at "
            f"{outside.min():.3e} vs tol {tol:.3e}", stacklevel=2)
    return idx


def mirror_asymmetry(spec: Spectrum) -> float:
    """Max |eps_sorted + reversed(eps_sorted)|; zero for a chiral spectrum."""
    e = np.sort(spec.quasienergies)
    return float(np.max(np.abs(e + e[::-1])))


@dataclass(frozen=True)
class GapRatioStats:
    """Consecutive-gap ratio statistics over the strictly positive levels."""

    mean_r: float
    n_levels: int
    n_ratios: int
    coe_reference: float = COE_MEAN_R
    poisson_reference: float = POISSON_MEAN_R


def gap_ratio_stats(spec: Spectrum, degenerate_cut: float = 1e-12) -> GapRatioStats:
    """Mean r = min(d1, d2)/max(d1, d2) over consecutive positive-level gaps.

    Kernel and negative levels are excluded; gaps below `degenerate_cut` are
    dropped as exact degeneracies.
    """
    tol = _zero_tol(spec.quasienergies)
    pos = np.sort(spec.quasienergies[spec.quasienergies > tol])
    if len(pos) < 3:
        raise DomainError("need at least three positive levels for gap ratios")
    gaps = np.diff(pos)
    gaps = gaps[gaps > degenerate_cut]
    if len(gaps) < 2:
        raise DomainError("not enough non-degenerate gaps for ratios")
    r = np.minimum(gaps[:-1], gaps[1:]) / np.maximum(gaps[:-1], gaps[1:])
    return GapRatioStats(float(r.mean()), len(pos), len(r))
