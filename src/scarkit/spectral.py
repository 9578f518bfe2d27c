"""Diagonalization, folded levels, zero modes, level statistics, drift bound.

Two eigensolver routes live here. Generic Hermitian matrices go through
`eigh_inplace`, numpy's dense `eigh` on the caller's own buffer. The
resonant stroboscopic Hamiltonian is purely imaginary with zero diagonal
and anticommutes with the diagonal dipole-parity operator, so it is
unitarily equivalent (multiply odd-parity basis states by -i) to a real
symmetric matrix of the block form [[0, C], [C^T, 0]]. The builder stores
the matrix as its real imaginary parts (`CSRMatrix.phase` 1j), and C is cut
straight from those stored parts, with no complex copy.  Its eigensystem is
recovered from the SVD factors of C at half the dimension, which keeps the
largest half-filled sectors this package targets inside a few hundred MB,
and the +s/-s pairing and the kernel come out exact instead of only to
solver precision.

Chiral factors.  `chiral_svd` takes them from one real `eigh` of the Gram
matrix A A^T of C's larger side A (C, or C^T for a C with more columns):
its eigenvectors are the larger side's full factor, the kernel included,
and the smaller side is A^T w / s, made orthonormal again by one
Newton-Schulz step.  That needs the smaller side at full rank, so where
lambda_k <= GRAM_RANK_FLOOR lambda_0 (lambda_k the k-th largest eigenvalue,
k the smaller side's size) the factors come from the full SVD instead.  The
smallest ratio seen on a resonant sector is 1.6e-9, at L = 14 (0,1,-) for
every g and u, against eigh's rounding floor of about 1e-16.  The pair
residuals |C v_i - s_i u_i| grow as eps s_0^2 / s_i, where the SVD's stay
near eps s_0 (2.6e-12 s_0 for the smallest s at L = 14 (0,1,-)).  Either
way the kernel columns go through `canonical_kernel`, which makes them a
function of the kernel alone, not of the factorization's choice of basis
in it.  No dense C is alive across the `eigh`: `chiral_block` hands
`chiral_svd` a `cut` that makes C afresh, once for G = A A^T and once for
A^T W[:, :k] (or the fallback SVD), each copy dropped right after its
product.  The `eigh` is `eigh_inplace`, numpy's own LAPACKE syevd run on
G's memory, so it holds three n^2 arrays (n the larger side): G, which
becomes W, and syevd's 2 n^2 workspace; `np.linalg.eigh` added its own
copy of G and a fresh W.  After it each phase holds at most three arrays
of C's size, besides strips: X (k x k, k the smaller side) is made before
C is cut, and A^T W[:, :k] is written into it (W, C, X); the norms square
X once (W, X, X^2); the Newton-Schulz step holds W, X, E and one strip of
X E.  The views that follow take |M| and fill columns in strips too.  VmHWM 114 MiB at L = 14 and 1,027 MiB at L = 16 (0,0,+), build
included, against 130 and 1,323 MiB with the one-GEMM step, and 151 and
1,653 MiB with `np.linalg.eigh`.  Re-cutting C costs under 2 ms at L = 14.

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
equal maxima in both parity blocks: the even-parity block wins).  On the
chiral route every view reads one per-column factor map: the factor index
and the coefficient, pair phase folded in, of each column's even-row (u) and
odd-row (v) part, the coefficient 0 where the column has no such part.

Kernel tolerance.  The kernel is every level within one tolerance of 0,
|level| <= `zero_tol`, and `Spectrum` derives it from its levels on every
route: the mask `is_zero` and the columns `zero_indices`.  A route sets
only `zero_tol`, ZERO_MODE_RTOL times the spectral radius: the largest
|folded level| on the dense and Floquet routes, the largest singular value
on the chiral route, where it is also the rank cut that pairs the factor
columns.  An all-zero spectrum has `zero_tol` 0, and all of it is kernel.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapabilityError, DomainError, NumericalError
from .hamiltonian import HamiltonianMatrix, fold_quasienergy

DENSE_EIG_DEFAULT = 20000       # refuse eigh / SVD above this sector dimension
ZERO_MODE_RTOL = 1e-9           # kernel tolerance relative to the spectral radius
DEGENERATE_GAP = 1e-12          # level gaps below this are exact degeneracies
GRAM_RANK_FLOOR = 1e-12         # chiral Gram route needs lambda_k > this * lambda_0
UNITARITY_TOL = 1e-8            # the exact drive's error bound per cycle
STATE_BLOCK_BYTES = 2_000_000_000   # the most one block of states or series may hold


# numpy's own OpenBLAS LAPACKE divide-and-conquer eigensolvers (ILP64)
_EVD_SYMBOLS = {np.dtype(np.float64): "scipy_LAPACKE_dsyevd64_",
                np.dtype(np.complex128): "scipy_LAPACKE_zheevd64_"}
_COL_MAJOR = 102                # LAPACK_COL_MAJOR
_WORK_MEMORY_ERROR = -1010      # LAPACKE could not allocate the workspace
_TRANSPOSE_BLOCK = 32           # rows per strip of the in-place transpose
_PRODUCT_STRIP = 512            # rows per strip of the in-place X <- X E
_VIEW_STRIP = 64                # pivots per |M| strip; columns per view chunk


@functools.cache
def _evd(dtype: np.dtype):
    """numpy's LAPACKE_dsyevd / LAPACKE_zheevd for `dtype`, or None where
    numpy's LAPACK does not export it; resolved at the first call."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        solve = getattr(lib, _EVD_SYMBOLS[dtype])
    except (OSError, AttributeError, KeyError):
        return None
    solve.restype = ctypes.c_int64
    solve.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char,
                      ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_void_p)
    return solve


def _transpose_inplace(a: np.ndarray) -> None:
    """a <- a^T for a square C-ordered a, one row strip and its column
    strip at a time, so no temporary is larger than a strip."""
    b = _TRANSPOSE_BLOCK
    for i in range(0, len(a), b):
        row = a[i:i + b, i:].copy()
        a[i:i + b, i:] = a[i:, i:i + b].T
        a[i:, i:i + b] = row.T


def eigh_inplace(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) as `np.linalg.eigh(a)` gives them, bit for bit, solved in the
    memory of `a`, a C-ordered float64 or complex128 matrix: v is a.

    numpy's own LAPACKE_dsyevd / LAPACKE_zheevd runs column-major with 'L'
    on a transposed in place, so it reads the lower triangle numpy's call
    reads.  The call holds a and syevd's workspace (2 n^2 reals; heevd's
    n^2 complex and 2 n^2 reals), where numpy's `eigh` adds its own copy
    of a and a fresh v.  The vectors are transposed back in place after
    LAPACK has freed its workspace.  Anything else (numpy's LAPACK without
    the symbols, another dtype, or not one writeable C-ordered square
    matrix) is `np.linalg.eigh(a)`: a is left as it was, v is new.
    """
    solve = _evd(a.dtype)
    if (solve is None or not a.flags.carray or a.ndim != 2
            or a.shape[0] != a.shape[1]):
        return np.linalg.eigh(a)
    n = len(a)
    w = np.empty(n)
    _transpose_inplace(a)
    info = solve(_COL_MAJOR, b"V", b"L", n, a.ctypes.data, max(n, 1),
                 w.ctypes.data)
    if info == _WORK_MEMORY_ERROR:
        raise MemoryError(f"no workspace for a {n} x {n} eigh")
    if info:        # not converged, or a NaN that LAPACKE's check refused
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    _transpose_inplace(a)
    return w, a


def _pivots(M: np.ndarray, axis: int) -> np.ndarray:
    """The largest-magnitude entry of each column (axis 0) or row (axis 1)
    of M; ties go to the lowest index.  |M| is taken one strip of those
    columns or rows at a time, so no full-size copy of M is made."""
    lines = M.T if axis == 0 else M         # one line per pivot
    out = np.empty(len(lines), dtype=M.dtype)
    for lo in range(0, len(lines), _VIEW_STRIP):
        part = lines[lo:lo + _VIEW_STRIP]
        out[lo:lo + len(part)] = part[np.arange(len(part)),
                                      np.abs(part).argmax(axis=1)]
    return out


class DenseVectors:
    """Eigenvector columns stored as one dense matrix."""

    def __init__(self, V: np.ndarray):
        self._V = V

    def columns(self, indices) -> np.ndarray:
        return self._V[:, np.asarray(indices, dtype=np.intp)]

    def rows(self, indices) -> np.ndarray:
        return self._V[np.asarray(indices, dtype=np.intp), :]

    def sector_weight(self, mask: np.ndarray) -> np.ndarray:
        return (np.abs(self._V[mask, :]) ** 2).sum(axis=0)

    def coefficients(self, psi0: np.ndarray) -> np.ndarray:
        """<a|psi0> for every eigenvector column a.

        Taken as conj(psi0^H V), which copies no conjugated V and equals
        V^H psi0 bit for bit.
        """
        return np.conj(psi0.conj() @ self._V)

    def expand(self, psi0: np.ndarray) -> np.ndarray:
        """What `propagate` evolves: the coefficients of psi0."""
        return self.coefficients(psi0)

    def propagate(self, start: np.ndarray, kt_values: np.ndarray,
                  eigvals: np.ndarray) -> np.ndarray:
        """State columns at times kt_values from `start = expand(psi0)`."""
        phases = np.exp(-1j * np.outer(eigvals, kt_values))
        return self._V @ (start[:, None] * phases)


def _gather(F: np.ndarray, idx: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """F[:, idx], with exact +0 columns where not `keep`.  A column not kept
    has no such factor part and a placeholder index, whose gathered values
    are overwritten; where no column is kept (always so on an empty parity
    block, which has no factor to index) F is not indexed at all."""
    if not keep.any():
        return np.zeros((len(F), len(idx)), dtype=F.dtype)
    out = F[:, idx]
    out[:, ~keep] = 0.0
    return out


class ChiralPairVectors:
    """Eigenvectors of a purely imaginary chiral Hamiltonian, stored factored.

    From the full SVD factors C = U diag(s) V^T of the real off-diagonal
    block (rows: even dipole parity, columns: odd; `chiral_svd`), the paired
    eigenvectors of the original matrix are (u_i on even rows, -+ i v_i on
    odd rows) / sqrt(2) with eigenvalue +- s_i, and the kernel consists of
    the singular directions beyond the rank, (u_i, 0) and (0, v_i), in the
    basis `canonical_kernel` fixes. Only the two factor matrices are
    stored; every view reads them through one per-column factor map
    (`_precompute_factor_map`). `dipoles` (D per basis state) fixes the
    real frame of `real_columns`.
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
        # each factor as columns, with the basis rows it fills
        self._blocks = ((Uf, plus_idx), (Vt.T, minus_idx))
        # position of each basis state inside its parity block
        self._block_pos = np.empty(self.n_states, dtype=np.intp)
        self._block_pos[plus_idx] = np.arange(self.n_plus)
        self._block_pos[minus_idx] = np.arange(self.n_minus)
        self._is_plus = np.zeros(self.n_states, dtype=bool)
        self._is_plus[plus_idx] = True
        # i^D psi_- = (-1)^ceil(D/2) (u, v)/sqrt(2) is real (module docstring)
        sign = np.where(((dipoles + 1) // 2) & 1, -1.0, 1.0) / math.sqrt(2.0)
        self._real_pair = (sign[plus_idx], sign[minus_idx])
        self._precompute_factor_map()

    def _precompute_factor_map(self):
        """Per spectrum column a: the factor index `_index[:, a]` and the
        coefficient `_coef[:, a]` of its u part (row 0: a column of Uf, on
        the even rows) and of its v part (row 1: a row of Vt, on the odd
        rows).  The coefficient is 0 where the column has no such part, and
        the index there a placeholder.

        A kernel column is its factor with coefficient 1.  The bare +-s pair
        column is (u, -i*sigma*v)/sqrt(2) with sigma = +-1 the branch sign;
        its coefficients carry the phase that rotates whichever factor holds
        the overall largest-magnitude component (u on ties) to real positive.
        """
        j = self._perm
        r, n_plus, n = self.rank, self.n_plus, self.n_states
        minus, plus = j < r, j >= n - r
        paired = minus | plus
        pair = np.where(minus, j, n - 1 - j)
        self._column_of = np.argsort(j)          # spectrum column of each j
        has = np.array([paired | (j < n_plus), paired | (j >= n_plus)])
        self._index = np.where(
            has, np.where(paired, pair, [j, j - n_plus + r]), 0)
        self._coef = has.astype(np.complex128)
        if r == 0:
            return
        upiv, vpiv = _pivots(self.Uf[:, :r], 0), _pivots(self.Vt[:r, :], 1)
        su = np.where(upiv < 0, -1.0, 1.0).astype(np.complex128)
        sv = np.where(vpiv < 0, -1.0, 1.0).astype(np.complex128)
        u_wins = np.abs(upiv) >= np.abs(vpiv)
        w = 1.0 / math.sqrt(2.0)
        for m, rot in ((minus, 1j), (plus, -1j)):    # rot = -i*sigma
            self._coef[0, m] = np.where(u_wins, su, -rot * sv)[pair[m]] * w
            self._coef[1, m] = np.where(u_wins, rot * su, sv)[pair[m]] * w

    def columns(self, indices) -> np.ndarray:
        """The spectrum columns `indices`, filled _VIEW_STRIP at a time, so
        each gathered factor part and its complex product are chunk-sized."""
        a = np.asarray(indices, dtype=np.intp)
        out = np.empty((self.n_states, len(a)), dtype=np.complex128)
        for lo in range(0, len(a), _VIEW_STRIP):
            part = a[lo:lo + _VIEW_STRIP]
            for (F, at), i, c in zip(self._blocks, self._index[:, part],
                                     self._coef[:, part]):
                out[at, lo:lo + len(part)] = _gather(F, i, c != 0) * c
        return out

    def rows(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        pos, on_plus = self._block_pos[idx], self._is_plus[idx]
        out = np.empty((len(idx), self.n_states), dtype=np.complex128)
        for (F, _), at, i, c in zip(self._blocks, (on_plus, ~on_plus),
                                    self._index, self._coef):
            out[at] = _gather(F[pos[at]], i, c != 0) * c
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
        coef = self._coef[:, a]
        paired = coef.all(axis=0)
        out = np.empty((self.n_states, len(a)))
        for (F, at), sign, i, c in zip(self._blocks, self._real_pair,
                                       self._index[:, a], coef):
            frame = np.where(paired, sign[:, None], 1.0)
            out[at] = _gather(F, i, c != 0) * frame
        return out

    def _picks(self, alpha: np.ndarray, beta: np.ndarray) -> list:
        """alpha (one value per u factor) and beta (per v factor) at each
        spectrum column's factor indices, 0 where it has no such part."""
        return [_gather(x[None, :], i, c != 0)[0]
                for x, i, c in zip((alpha, beta), self._index, self._coef)]

    def sector_weight(self, mask: np.ndarray) -> np.ndarray:
        wu = (self.Uf[mask[self.plus_idx], :] ** 2).sum(axis=0)
        wv = (self.Vt[:, mask[self.minus_idx]] ** 2).sum(axis=1)
        # each part of a pair holds half its weight (|coef|^2 = 1/2)
        share = np.where(self._coef.all(axis=0), 0.5, 1.0)
        return share * np.add(*self._picks(wu, wv))

    def coefficients(self, psi0: np.ndarray) -> np.ndarray:
        """<a|psi0> for every column a, from the factor products of `expand`."""
        (alpha, beta), *imag = self.expand(psi0)
        for alpha_im, beta_im in imag:
            alpha, beta = alpha + 1j * alpha_im, beta + 1j * beta_im
        (cu, cv), (pu, pv) = np.conj(self._coef), self._picks(alpha, beta)
        return cu * pu + cv * pv

    def expand(self, psi0: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """What `propagate` evolves: the factor products (alpha, beta) =
        (Uf^T psi0_+, Vt psi0_-) of psi0, or of its real and imaginary
        parts in turn for a complex psi0."""
        parts = (psi0.real, psi0.imag) if np.iscomplexobj(psi0) else (psi0,)
        return [(self.Uf.T @ part[self.plus_idx], self.Vt @ part[self.minus_idx])
                for part in parts]

    def propagate(self, start: list[tuple[np.ndarray, np.ndarray]],
                  kt_values: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
        """State columns at times kt_values from `start = expand(psi0)`;
        real columns for a real psi0.

        e^{-iHt} is real orthogonal, so a real start is evolved in real
        arithmetic, and a complex start as its real and imaginary parts.
        """
        del eigvals  # the factored form uses the singular values directly
        states = [self._rotate(alpha, beta, kt_values) for alpha, beta in start]
        return states[0] if len(states) == 1 else states[0] + 1j * states[1]

    def _rotate(self, alpha: np.ndarray, beta: np.ndarray,
                kt_values: np.ndarray) -> np.ndarray:
        """The real state columns of a real start with factor products
        alpha and beta."""
        r = self.rank
        skt = np.outer(self.s[:r], kt_values)
        cos_m, sin_m = np.cos(skt), np.sin(skt)
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
    """Folded eigensystem of one sector Hamiltonian, and that Hamiltonian.

    A Floquet spectrum of the exact drive carries its first half-period
    Hamiltonian, which holds the same basis and period.
    """

    quasienergies: np.ndarray      # folded into [-omega/2, omega/2), ascending
    vectors: DenseVectors | ChiralPairVectors
    zero_tol: float                # the kernel tolerance the route set
    ham: HamiltonianMatrix
    residual: float = 0.0          # a Floquet solve's max|M Q - Q lambda|
    is_zero: np.ndarray = field(init=False)       # |level| <= zero_tol
    zero_indices: np.ndarray = field(init=False)  # the kernel columns

    def __post_init__(self):
        self.is_zero = np.abs(self.quasienergies) <= self.zero_tol
        self.zero_indices = np.flatnonzero(self.is_zero)

    @property
    def basis(self):
        return self.ham.basis

    @property
    def period(self) -> float:
        """Driving period T = 2 pi / omega."""
        return self.ham.params.T

    @property
    def size(self) -> int:
        return len(self.quasienergies)

    def kernel_matrix(self) -> np.ndarray:
        return self.vectors.columns(self.zero_indices)

    def weight_row(self, n: int) -> np.ndarray:
        """|<n|psi_a>|^2 against every eigenstate, for one Fock basis index n."""
        return np.abs(self.vectors.rows([n])[0]) ** 2

    def times(self, ks) -> np.ndarray:
        """k T for the ascending cycles `ks`, refused (`check_drift`) when
        residual * K, the error of K = ks[-1] cycles read off the spectrum,
        exceeds UNITARITY_TOL per cycle, the stepped drive's drift bound."""
        cycles = int(ks[-1])
        check_drift(self.residual * cycles, cycles, "unitarity drift bound")
        return np.asarray(ks, dtype=np.float64) * self.period

    def blocks(self, psi0: np.ndarray, ks, width: int):
        """Yield the states at the cycles `ks` in (dim, <= width) column blocks.

        The start is expanded in the eigenvectors once.  A start with no
        imaginary part goes in real, so the chiral route evolves it in real
        arithmetic and yields real blocks.
        """
        kt = self.times(ks)
        psi0 = np.asarray(psi0)
        if np.iscomplexobj(psi0) and not psi0.imag.any():
            psi0 = psi0.real
        start = self.vectors.expand(psi0)
        for lo in range(0, len(kt), width):
            yield self.vectors.propagate(start, kt[lo:lo + width],
                                         self.quasienergies)

    def propagate(self, psi0: np.ndarray, cycles) -> np.ndarray:
        """State columns after whole numbers of driving cycles, complex128,
        as one block, refused (`CapabilityError`) over STATE_BLOCK_BYTES."""
        if self.size * len(cycles) * 16 > STATE_BLOCK_BYTES:
            raise CapabilityError(
                f"materializing {len(cycles)} states of dimension {self.size} "
                "exceeds the state-block budget; use the chunked series "
                "functions")
        (out,) = self.blocks(psi0, cycles, len(cycles))
        return out.astype(np.complex128, copy=False)


def check_drift(error: float, cycles: int, what: str) -> None:
    """Refuse (`NumericalError`) an exact-drive `error` over `cycles` cycles
    above UNITARITY_TOL per cycle, `what` naming it; both routes call this."""
    if error > UNITARITY_TOL * max(cycles, 1):
        raise NumericalError(f"{what} {error:.2e} over {cycles} cycles")


def check_dense(dimension: int, threshold: int, what: str = "sector") -> None:
    """Refuse a dense eigensolve of a `dimension` above `threshold`."""
    if dimension > threshold:
        raise CapabilityError(f"{what} dimension {dimension} exceeds dense "
                              f"threshold {threshold}")


def diagonalize(ham: HamiltonianMatrix,
                dense_threshold: int = DENSE_EIG_DEFAULT) -> Spectrum:
    """Full eigensystem of a sector Hamiltonian, quasienergies folded.

    A purely imaginary stored matrix (`CSRMatrix.phase` 1j, as the resonant
    builder writes) takes the chiral route, whose factors come from one
    Gram `eigh` of the off-diagonal block (`chiral_svd`); everything else is
    dense-diagonalized. Sectors above `dense_threshold` are refused.
    """
    check_dense(ham.dimension, dense_threshold)
    if ham.matrix.phase == 1j:
        return _diagonalize_chiral(ham)
    vals, V = eigh_inplace(ham.toarray())
    return dense_spectrum(vals, V, ham)


def _fold_levels(energies: np.ndarray, ham: HamiltonianMatrix) -> np.ndarray:
    """`fold_quasienergy` of a spectrum's levels, refused (`NumericalError`)
    where energy / omega overflows and the folded level is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        folded = fold_quasienergy(energies, ham.params.omega)
    if not np.isfinite(folded).all():
        raise NumericalError("levels / omega overflow when folded; the drive "
                             "parameters are out of range")
    return folded


def dense_spectrum(energies: np.ndarray, V: np.ndarray,
                   ham: HamiltonianMatrix) -> Spectrum:
    """Spectrum of dense eigenpairs: folded, sorted and phase-fixed.

    `V` holds one eigenvector column per energy; `ham` supplies the basis
    and the drive frequency the energies fold with.
    """
    folded = _fold_levels(energies, ham)
    perm = np.argsort(folded, kind="stable")
    folded, V = folded[perm], V[:, perm]
    pivot = _pivots(V, 0)      # made real positive, in place on the copy
    V *= np.abs(pivot) / pivot
    tol = ZERO_MODE_RTOL * float(np.max(np.abs(folded), initial=0.0))
    return Spectrum(folded, DenseVectors(V), tol, ham)


def chiral_block(ham: HamiltonianMatrix):
    """(plus_idx, minus_idx, cut) of a purely imaginary stored matrix: the
    even- and odd-parity basis positions, and a zero-argument `cut` that
    returns a fresh dense copy of the real off-diagonal block C (rows even,
    columns odd), cut straight from the stored imaginary parts.  Refused
    (`DomainError`) if an entry is stored between equal-parity states.  The
    check reads the stored positions, not their values, so an all-zero
    matrix (u = 0) is chiral too."""
    m = ham.matrix
    parities = ham.basis.parities
    plus_idx = np.flatnonzero(parities == 1)
    minus_idx = np.flatnonzero(parities == -1)
    if np.any(parities[m.row_indices()] == parities[m.indices]):
        raise DomainError("matrix couples equal-parity states; not chiral")
    stored = replace(m, phase=1)
    return plus_idx, minus_idx, lambda: stored.block(plus_idx, minus_idx)


def chiral_svd(cut):
    """The full SVD factors (U, s, V^T) of the C that `cut()` returns, from
    one `eigh` of the Gram matrix A A^T of the larger side A (C, or C^T
    when C has more columns than rows).

    The eigenvectors W, ordered by descending eigenvalue lambda, are the
    larger side's full factor, its kernel included.  The top k = A.shape[1]
    of them give the smaller side X = A^T W[:, :k] / s, with s the column
    norms of A^T W[:, :k], made orthonormal again by one Newton-Schulz step
    X <- X (3/2 I - X^T X / 2).  Those norms are sqrt(lambda) up to
    rounding, and for the smallest s at L = 14 ten times closer to the
    SVD's.  Where lambda_k <= GRAM_RANK_FLOOR lambda_0, C may lack full
    rank on its smaller side too, and the factors come from the full SVD
    of C instead.

    C is cut afresh for each product that reads it (G = A A^T, then
    A^T W[:, :k], or the fallback SVD) and dropped right after, so none is
    alive across the `eigh` or the Newton-Schulz step.  That step runs in
    place, _PRODUCT_STRIP rows of X E at a time, so it makes no second
    X-sized array.  A k <= _PRODUCT_STRIP is one strip, the one-GEMM
    product bit for bit; more strips agree with it to rounding.
    """
    A = cut()
    tall = A.shape[0] >= A.shape[1]
    A = A if tall else A.T
    k = A.shape[1]
    G = A @ A.T
    del A
    G *= -1.0               # eigh ascends: -G gives the largest lambda first
    lam, W = eigh_inplace(G)
    del G
    lam *= -1.0
    if not (k and lam[k - 1] > GRAM_RANK_FLOOR * lam[0]):
        del W
        return np.linalg.svd(cut(), full_matrices=True)
    X = np.empty((k, k))    # before C, so freeing C leaves no hole under X
    np.matmul(cut().T if tall else cut(), W[:, :k], out=X)   # A^T W[:, :k]
    s = np.linalg.norm(X, axis=0)
    X /= s
    E = X.T @ X             # 3/2 I - X^T X / 2, built in place
    E *= -0.5
    E += 0.0                # -0.0 to +0.0, as 0.0 - 0.5 * (+-0.0) gives
    E.flat[::k + 1] += 1.5
    for lo in range(0, k, _PRODUCT_STRIP):
        X[lo:lo + _PRODUCT_STRIP] = X[lo:lo + _PRODUCT_STRIP] @ E
    return (W, s, X.T) if tall else (X, s, W.T)


def canonical_kernel(K: np.ndarray) -> np.ndarray:
    """K Q for an orthonormal kernel block K (rows: the block's basis
    positions), Q the eigenvectors of K^T diag(index / n) K, ascending,
    each column signed so its largest-magnitude entry (lowest index on
    ties) is positive.

    The columns depend on the kernel alone, not on which orthonormal
    basis of it K held, so every route to C's factors gives the same
    kernel states.  Kernel directions are unpaired, so their signs are
    free; a paired factor's are not (flipping one breaks C v = s u).
    """
    if not K.size:
        return K
    position = np.arange(len(K)) / len(K)
    _, Q = eigh_inplace(K.T @ (position[:, None] * K))
    KQ = K @ Q
    return KQ * np.where(_pivots(KQ, 0) < 0, -1.0, 1.0)


def _diagonalize_chiral(ham: HamiltonianMatrix) -> Spectrum:
    plus_idx, minus_idx, cut = chiral_block(ham)
    # numpy's LAPACK, not scipy.linalg: scipy links a second OpenBLAS whose
    # thread pool contends with numpy's (README)
    Uf, s, Vt = chiral_svd(cut)
    tol = ZERO_MODE_RTOL * (float(s[0]) if len(s) else 0.0)
    r = int(np.count_nonzero(s > tol))
    Uf[:, r:] = canonical_kernel(Uf[:, r:])
    Vt[r:] = canonical_kernel(Vt[r:].T).T
    n_zero = (len(plus_idx) - r) + (len(minus_idx) - r)
    internal = np.concatenate([-s[:r], np.zeros(n_zero), s[:r][::-1]])
    folded = _fold_levels(internal, ham)
    perm = np.argsort(folded, kind="stable")
    vec = ChiralPairVectors(plus_idx, minus_idx, Uf, Vt, s, r, perm,
                            ham.basis.dipoles)
    return Spectrum(folded[perm], vec, tol, ham)


def zero_modes(spec: Spectrum) -> np.ndarray:
    """The kernel columns; warns if a kept level sits within 10x zero_tol."""
    kept = np.abs(spec.quasienergies[~spec.is_zero])
    if len(kept) and kept.min() < 10 * spec.zero_tol:
        warnings.warn(
            f"zero-mode count is tolerance-sensitive: nearest level at "
            f"{kept.min():.3e} vs tol {spec.zero_tol:.3e}", stacklevel=2)
    return spec.zero_indices


def mirror_asymmetry(spec: Spectrum) -> float:
    """Max |eps_sorted + reversed(eps_sorted)|; zero for a chiral spectrum."""
    e = np.sort(spec.quasienergies)
    return float(np.max(np.abs(e + e[::-1])))


@dataclass(frozen=True)
class GapRatioStats:
    """Consecutive-gap ratio statistics over the strictly positive levels."""

    mean_r: float
    n_ratios: int


def gap_ratio_stats(spec: Spectrum) -> GapRatioStats:
    """Mean r = min(d1, d2)/max(d1, d2) over consecutive positive-level gaps.

    Kernel and negative levels are excluded; gaps below DEGENERATE_GAP are
    dropped as exact degeneracies.
    """
    eps = spec.quasienergies[~spec.is_zero]
    pos = eps[eps > 0]                     # quasienergies ascend
    if len(pos) < 3:
        raise DomainError("need at least three positive levels for gap ratios")
    gaps = np.diff(pos)
    gaps = gaps[gaps > DEGENERATE_GAP]
    if len(gaps) < 2:
        raise DomainError("not enough non-degenerate gaps for ratios")
    r = np.minimum(gaps[:-1], gaps[1:]) / np.maximum(gaps[:-1], gaps[1:])
    return GapRatioStats(float(r.mean()), len(r))
