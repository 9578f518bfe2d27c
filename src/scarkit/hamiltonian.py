"""Hamiltonians for the square-wave-driven tilted chain of spinless fermions.

The static part is U * sum_j n_j n_{j+1} - g * sum_j j n_j (open chain, 1-based
sites). Nearest-neighbour tunneling J = 1 (the unit) is modulated by a square
wave, -u over the first half period and +u over the second, T = 2*pi/omega.

Stroboscopic physics is organised by the change in static energy a hop causes.
With the two sites beside a hopping bond (j-1 and j+2, empty beyond the open
ends) in configuration (0,1) / equal / (1,0), the energy barrier of the hop is
|g-U| / g / g+U respectively. Averaging the drive over one period at first
order gives each hop class a complex amplitude; at a drive resonance these
collapse to the purely imaginary values built by `build_effective_resonant`.
All three barriers resonate at once only on `resonant_family` members (U/g
exact), which the resonant builder checks; `fold_quasienergy` is the one
fold into [-omega/2, omega/2), for builders, spectra and ratio scans.

Adjacent hops in a site-ordered fermion basis carry no Jordan-Wigner string
sign (no occupied site can sit between the two bond sites), so the builders
insert bare amplitudes; the sign-free property is asserted against a
string-carrying oracle in the tests rather than handled here.

Every builder returns its matrix as a `CSRMatrix`, a numpy compressed-row
store whose arrays equal, bit for bit, those scipy.sparse builds for the
same matrix (the purely imaginary resonant matrix stores its imaginary
parts, `CSRMatrix.phase`); `CSRMatrix.to_scipy` hands one to scipy, which
this module never imports at load time.  No builder sorts: a row's
neighbours already ascend in bond order (right moves over j = 1 ... L-1,
the diagonal, left moves over j = L-1 ... 1), so `_hop_csr` writes every
entry straight into its canonical slot, and the hop graph takes its edges
from the same layout.  Each upper entry comes from the same hop as its
lower mirror, so the Hermitian builders check their tables, never the
matrix (`_hermitian_csr`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericalError
from .fock_basis import SectorBasis

HOP_CLASSES = ("g-U", "g", "g+U")
DROP_CHUNK = 1 << 16      # entries `_hop_csr` scans at a time when dropping zeros


@dataclass(frozen=True)
class ModelParams:
    """Chain and drive parameters, in units of the tunneling J = 1."""

    g: float
    U: float
    u: float
    omega: float

    def __post_init__(self):
        for name in ("g", "U", "u", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)!r}")
        for name in ("g", "U", "omega"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive, got "
                                  f"{getattr(self, name)!r}")
        if self.u < 0:
            raise DomainError(f"drive amplitude u must be >= 0, got {self.u}")

    @property
    def T(self) -> float:
        return 2.0 * math.pi / self.omega


def fold_quasienergy(energy, omega: float):
    """Fold an energy (or an array of them) into [-omega/2, omega/2).

    The upper endpoint maps to -omega/2, keeping the window half open.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    floor = math.floor if isinstance(energy, float) else np.floor  # same value
    return energy - omega * floor(energy / omega + 0.5)


@dataclass(frozen=True)
class ResonantFamily:
    """One member of the two-branch family on which all three barriers resonate.

    U_over_g is exact: 1 +/- (2*k1+1)/(2*k2+1), the minus branch requiring
    k2 > k1 to keep the interaction repulsive.  g_over_omega = 2*k2 + 1, and
    k3 indexes the resonance order of the g+U process.
    """

    k1: int
    k2: int
    branch: str
    U_over_g: Fraction
    g_over_omega: int
    k3: int

    def params(self, g: float, u: float) -> ModelParams:
        """Concrete model parameters at tilt g and drive amplitude u."""
        return ModelParams(g=g, U=g * float(self.U_over_g), u=u,
                           omega=g / self.g_over_omega)


def resonant_family(k1: int, k2: int, branch: str) -> ResonantFamily:
    """The family member at integer indices (k1, k2) on the given branch."""
    if k1 < 0 or k2 < 0:
        raise DomainError(f"family indices must be non-negative, got ({k1}, {k2})")
    if branch == "+":
        ratio = 1 + Fraction(2 * k1 + 1, 2 * k2 + 1)
        k3 = 2 * k2 + k1 + 1
    elif branch == "-":
        if k2 <= k1:
            raise DomainError(
                f"branch '-' needs k2 > k1 to keep U > 0, got k1={k1}, k2={k2}")
        ratio = 1 - Fraction(2 * k1 + 1, 2 * k2 + 1)
        k3 = 2 * k2 - k1
    else:
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    return ResonantFamily(k1, k2, branch, ratio, 2 * k2 + 1, k3)


def hop_class_code(n_left, n_right):
    """0 / 1 / 2 for barrier class g-U / g / g+U from the flanking sites.

    `n_left` and `n_right` are the occupations of sites j-1 and j+2 beside
    bond (j, j+1): equal flanks give g, an occupied right flank g-U, an
    occupied left flank g+U. Works elementwise on integer arrays.
    """
    return 1 + n_left - n_right


def _drive_averaged_amplitude(delta: float, T: float, u: float) -> complex:
    """First-order one-period average of (1+u(t))*e^{i*delta*t}.

    This is the amplitude acquired by the hop that RAISES the static energy
    by `delta` (the reverse hop gets the conjugate). The drive contributes
    u*(e^{i delta T/2}-1)^2 / (i delta) and the undriven part
    (e^{i delta T}-1) / (i delta); together they factor as below. At delta=0
    the average is exactly 1.
    """
    if delta == 0.0:
        return complex(1.0)
    phase = delta * T
    if not math.isfinite(phase):
        raise DomainError(f"hop phase {delta!r} * T = {phase} per period "
                          "is not finite")
    if phase == 0.0:
        raise DomainError(f"hop phase {delta!r} * T underflows to 0 per period")
    y = cmath.exp(0.5j * phase)
    amp = -1j / phase * (y - 1.0) * ((1.0 + u) * y + (1.0 - u))
    if not cmath.isfinite(amp):     # a huge u, or a phase near underflow
        raise DomainError(f"drive amplitude u = {u!r} at hop phase {phase!r} "
                          f"per period gives the amplitude {amp}")
    return amp


def amplitudes_general(params: ModelParams) -> tuple[complex, complex, complex]:
    """Drive-averaged amplitudes (J1, J2, J3) for the three hop classes.

    Each is attached to the hop direction that raises the static energy:
    J1 for barrier g-U (signed), J2 for g, J3 for g+U.
    """
    T, u = params.T, params.u
    return (
        _drive_averaged_amplitude(params.g - params.U, T, u),
        _drive_averaged_amplitude(params.g, T, u),
        _drive_averaged_amplitude(params.g + params.U, T, u),
    )


def resonant_amplitudes(params: ModelParams, k1: int, k2: int,
                        branch: str) -> tuple[float, float, float]:
    """Real prefactors (A1, A2, A3) of the resonant stroboscopic Hamiltonian.

    At the (k1, k2, branch) drive resonance every barrier is an odd multiple
    of omega and the class-c hop j -> j+1 carries amplitude +i*Ac with
    Ac = 2*u / ((1 -+ U/g) * (2*k2+1) * pi); the general drive average
    reduces to exactly these values.  Parameters off that family member
    are refused, and so is a drive amplitude u so large that an Ac
    overflows.
    """
    family = resonant_family(k1, k2, branch)
    ratio, q = float(family.U_over_g), family.g_over_omega
    a = params.U / params.g
    if not math.isclose(a, ratio, rel_tol=1e-12):
        raise DomainError(f"U/g = {a!r} is not the ({k1},{k2},{branch}) "
                          f"resonance ratio {ratio!r}")
    if not math.isclose(params.g / params.omega, q, rel_tol=1e-12):
        raise DomainError(
            f"g/omega = {params.g / params.omega!r} must equal {q} for k2 = {k2}")
    base = 2.0 * params.u / (q * math.pi)
    amps = base / (1.0 - a), base, base / (1.0 + a)
    if not all(map(math.isfinite, amps)):
        raise DomainError(f"drive amplitude u = {params.u!r} makes the "
                          f"resonant amplitudes {amps} overflow")
    return amps


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix in canonical compressed-row form, held in numpy arrays.

    Row i stores its entries at `indptr[i]:indptr[i+1]` of `indices` (the
    columns, ascending, each once) and `data`.  The builders assemble it in
    that canonical order by construction (`_hop_csr`), with no sort and
    int32 index arrays.  The matrix is `phase` times
    the stored entries, with `phase` 1 or 1j: a purely imaginary matrix
    stores its imaginary parts as float64, 8 bytes an entry, and every view
    reads the complex values with +0.0 real parts.  The dense views write
    each stored value as 0 + x, as scipy's do, so a stored -0.0 reads +0.0
    there.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    phase: complex = 1

    def __post_init__(self):
        if self.phase not in (1, 1j):
            raise ValueError(f"phase must be 1 or 1j, got {self.phase!r}")

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.data, self.phase)

    def values(self) -> np.ndarray:
        """phase * data: `data` itself at phase 1, else a complex copy
        with +0.0 real parts."""
        if self.phase == 1:
            return self.data
        out = np.zeros(self.nnz, dtype=self.dtype)
        out.imag = self.data
        return out

    def _dense(self, shape, at, keep) -> np.ndarray:
        """Zeros of `shape` holding 0 + the `keep` entries' values at `at`."""
        out = np.zeros(shape, dtype=self.dtype)
        (out if self.phase == 1 else out.imag)[at] = self.data[keep] + 0.0
        return out

    def row_indices(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        return self.block(np.arange(self.shape[0]), np.arange(self.shape[1]))

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dense submatrix M[rows][:, cols]; `rows` and `cols` hold
        distinct indices, in the order the block's rows and columns take."""
        row_pos = np.full(self.shape[0], -1, dtype=np.intp)
        col_pos = np.full(self.shape[1], -1, dtype=np.intp)
        row_pos[rows] = np.arange(len(rows))
        col_pos[cols] = np.arange(len(cols))
        r, c = row_pos[self.row_indices()], col_pos[self.indices]
        keep = (r >= 0) & (c >= 0)
        return self._dense((len(rows), len(cols)), (r[keep], c[keep]), keep)

    def __matmul__(self, x) -> np.ndarray:
        """M @ x for a vector or a (shape[1], k) block, summed row by row in
        storage order.

        At phase 1j the terms i d x are formed from real products of the
        stored d, with no complex copy of the matrix: -d Im(x) + i d Re(x).
        They are the complex values' terms, and are summed in the same
        complex order, so the product is theirs bit for bit (but for the
        sign of a zero real part).
        """
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by an "
                             f"array of shape {x.shape}")
        data = self.data if x.ndim == 1 else self.data[:, None]
        gathered = x[self.indices]
        if self.phase == 1:
            terms = data * gathered
        else:
            terms = np.zeros(gathered.shape,
                             dtype=np.result_type(self.data, gathered, 1j))
            np.multiply(data, gathered.real, out=terms.imag)
            if np.iscomplexobj(gathered):
                np.multiply(data, gathered.imag, out=terms.real)
                np.negative(terms.real, out=terms.real)
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=terms.dtype)
        starts = self.indptr[:-1]
        filled = starts < self.indptr[1:]
        if self.nnz:
            out[filled] = np.add.reduceat(terms, starts[filled], axis=0)
        return out

    def to_scipy(self):
        """The same arrays as a `scipy.sparse.csr_matrix` (imports scipy)."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.values(), self.indices, self.indptr),
                             shape=self.shape)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """A sector Hamiltonian: sparse matrix plus the context that built it."""

    basis: SectorBasis
    kind: str
    params: ModelParams
    matrix: CSRMatrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _bond_moves(basis: SectorBasis):
    """For each bond j = 1 ... L-1 in turn, its hops as (src, dst, cls) arrays.

    `src` holds the states with site j occupied and site j+1 empty, ascending,
    `dst` the state with that particle moved j -> j+1, and `cls` the int8
    barrier class of the hop.  `dst` is src's rank less C(lo, c), where the
    particle moves from bit lo+1 to bit lo and c particles sit below bit lo:
    of the binomials that make up a rank (module `fock_basis`), only the
    moved particle's changes, from C(lo+1, c+1) to C(lo, c+1).
    """
    L, states = basis.L, basis.states
    for j in range(1, L):
        lo = L - j - 1                     # bit of site j+1; site j sits at lo+1
        src = np.flatnonzero(((states >> lo) & 3) == 2)
        words = states[src]
        empty = np.zeros_like(words)       # virtual sites 0 and L+1
        n_left = (words >> (lo + 2)) & 1 if j >= 2 else empty
        n_right = (words >> (lo - 1)) & 1 if j + 2 <= L else empty
        below = np.bitwise_count(words & ((1 << lo) - 1))
        yield (src, src - basis._binom[lo].take(below),
               hop_class_code(n_left, n_right).astype(np.int8))


def hop_moves(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every hop pair of the sector once: the (src, dst, cls) arrays of
    `_bond_moves`, bond after bond.  Moving a particle right lowers the
    word, so dst < src."""
    moves = list(_bond_moves(basis))
    if not moves:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0, dtype=np.int8)
    return tuple(np.concatenate(parts) for parts in zip(*moves))


def _hop_csr(basis: SectorBasis, lower, upper, diag=None) -> CSRMatrix:
    """The sector matrix of the hops, assembled in canonical order.

    A class-c hop src -> dst (dst < src) stores lower[c] at (src, dst) and
    upper[c] at (dst, src); a table left None leaves its triangle empty, and
    `diag` fills the diagonal (with a diagonal, an all-zero table counts as
    None).  A row's columns ascend with no sort: its right moves over bonds
    j = 1 ... L-1 (each lowers the word by 2^(L-j-1)), its diagonal entry,
    then its left moves over j = L-1 ... 1.
    So `indptr` comes from the per-row move counts, and each bond writes its
    right moves at a front cursor of their rows, its left moves at a back
    cursor.  The arrays are those scipy.sparse stores: without a diagonal,
    zeros kept, as its COO -> CSR conversion keeps them; with one, the sum
    its `diags` and `+` build, zeros dropped and each value stored as x + 0
    (a -0.0 part reads +0.0).
    """
    n, states = basis.size, basis.states
    dtype = np.result_type(*(t for t in (lower, upper, diag) if t is not None))
    drop_zeros = diag is not None
    if drop_zeros:      # an all-zero table would only write slots to drop
        lower, upper = (None if t is None or not np.any(t) else t
                        for t in (lower, upper))
    hops = lower is not None or upper is not None
    counts = np.zeros(n, dtype=np.int32)     # at most L per row
    if hops:
        flips = (states >> 1) ^ states        # bits b whose b+1 differs
        flips &= (1 << (basis.L - 1)) - 1
        if lower is not None:                 # one right move per "10" pair
            counts += np.bitwise_count(flips & (states >> 1))
        if upper is not None:                 # one left move per "01" pair
            counts += np.bitwise_count(flips & states)
        del flips
    if diag is not None:
        counts += 1
    nnz = int(counts.sum(dtype=np.int64))
    # int32 indices: a row holds at most L <= 63 entries and a sector at most
    # SECTOR_MAX = 2^24 rows, so nnz < 2^31
    index = np.int32
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    del counts
    # each hop slot first gets a code, its class plus 3 on the upper
    # triangle, and one lookup turns the codes into values (indexing casts
    # the int8 codes a buffer at a time, where `take` makes an intp copy)
    codes = np.zeros(nnz, dtype=np.int8)
    indices = np.empty(nnz, dtype=index)
    # the write cursors; a triangle left empty never moves its cursor
    front = indptr[:-1].copy() if lower is not None else indptr[:-1]
    back = indptr[1:].copy() if upper is not None else None
    for src, dst, cls in (_bond_moves(basis) if hops else ()):
        if lower is not None:                 # ascending from the row's front
            at = front[src]
            front[src] = at + 1
            indices[at] = dst
            codes[at] = cls
        if upper is not None:                 # descending from the row's back
            at = back[dst] - 1
            back[dst] = at
            indices[at] = src
            codes[at] = cls + 3
    values = np.zeros(2 * len(HOP_CLASSES), dtype=dtype)
    for table, lo in ((lower, 0), (upper, len(HOP_CLASSES))):
        if table is not None:
            values[lo:lo + len(HOP_CLASSES)] = table
    data = values[codes]
    del codes
    if diag is not None:                      # the slot the two cursors left
        indices[front] = np.arange(n, dtype=index)
        data[front] = diag
    if drop_zeros:
        data += 0.0                           # stored as x + 0, as scipy does
    if drop_zeros and not data.all():
        # compact in place, DROP_CHUNK entries at a time: `put` is the write
        # cursor, and rows [row, end) are those whose start the chunk covers
        # (its end included, so the last chunk moves the trailing row starts)
        put = row = 0
        for lo in range(0, nnz, DROP_CHUNK):
            keep = data[lo:lo + DROP_CHUNK] != 0
            kept = np.zeros(len(keep) + 1, dtype=index)
            np.cumsum(keep, out=kept[1:])
            end = row + int(np.searchsorted(indptr[row:], lo + DROP_CHUNK,
                                            side="right"))
            indptr[row:end] = put + kept[indptr[row:end] - lo]
            data[put:put + kept[-1]] = data[lo:lo + DROP_CHUNK][keep]
            indices[put:put + kept[-1]] = indices[lo:lo + DROP_CHUNK][keep]
            put, row = put + int(kept[-1]), end
        # no view of either array is left, so they shrink without a copy
        data.resize(put, refcheck=False)
        indices.resize(put, refcheck=False)
    return CSRMatrix(data, indices, indptr, (n, n))


def _hermitian_csr(basis: SectorBasis, lower, upper, diag=None) -> CSRMatrix:
    """`_hop_csr` of both triangles, refused (`NumericalError`) unless the
    tables make it exactly Hermitian: upper[c] == conj(lower[c]) for the
    three classes (so zeros drop in mirror pairs) and `diag` equal to its
    own conjugate (real, no NaN).  Values compare as in the matrix: -0.0
    equals +0.0, and NaN equals nothing.  Purely imaginary tables (every
    real part zero, no diagonal) are stored as their imaginary parts, with
    phase 1j.
    """
    if not (np.array_equal(upper, np.conjugate(lower))
            and (diag is None or np.array_equal(diag, np.conjugate(diag)))):
        raise NumericalError("constructed matrix is not exactly Hermitian")
    if (diag is None and np.iscomplexobj(lower)
            and not np.real((lower, upper)).any()):
        return replace(_hop_csr(basis, lower.imag, upper.imag), phase=1j)
    return _hop_csr(basis, lower, upper, diag)


def _static_energies(basis: SectorBasis, params: ModelParams) -> np.ndarray:
    """U * (adjacent pairs) - g * (dipole moment) for every sector state,
    refused (`DomainError`) where an energy overflows."""
    pairs = np.bitwise_count(basis.states & (basis.states >> 1))
    with np.errstate(over="ignore", invalid="ignore"):
        energies = params.U * pairs - params.g * basis.dipoles.astype(np.float64)
    if not np.isfinite(energies).all():
        raise DomainError(f"g = {params.g!r} and U = {params.U!r} make the "
                          f"static energies overflow at L = {basis.L}")
    return energies


def build_onsite(basis: SectorBasis, params: ModelParams) -> HamiltonianMatrix:
    """Diagonal static Hamiltonian (interaction plus tilt)."""
    m = _hop_csr(basis, None, None, _static_energies(basis, params))
    return HamiltonianMatrix(basis, "onsite", params, m)


def build_hop(basis: SectorBasis, params: ModelParams) -> HamiltonianMatrix:
    """Bare nearest-neighbour tunneling, all matrix elements J = 1."""
    amps = np.full(len(HOP_CLASSES), 1.0)
    m = _hermitian_csr(basis, amps, amps)
    return HamiltonianMatrix(basis, "hop", params, m)


def build_half_period(basis: SectorBasis, params: ModelParams,
                      half: int) -> HamiltonianMatrix:
    """Static Hamiltonian of one half period: onsite + (1 -+ u) * hop."""
    if half not in (1, 2):
        raise DomainError(f"half must be 1 or 2, got {half}")
    factor = (1.0 - params.u) if half == 1 else (1.0 + params.u)
    amps = np.full(len(HOP_CLASSES), factor)
    m = _hermitian_csr(basis, amps, amps, _static_energies(basis, params))
    return HamiltonianMatrix(basis, f"half_period_{half}", params, m)


def build_effective_general(basis: SectorBasis,
                            params: ModelParams) -> HamiltonianMatrix:
    """First-order stroboscopic Hamiltonian at arbitrary drive parameters.

    Diagonal: static energies folded into [-omega/2, omega/2). Off-diagonal:
    the class amplitude J_c on the energy-raising hop direction, conjugate on
    the reverse.
    """
    jc = np.array(amplitudes_general(params), dtype=np.complex128)
    # moving j -> j+1 lowers the tilt energy; the raising direction is dst -> src
    diag = fold_quasienergy(_static_energies(basis, params), params.omega)
    m = _hermitian_csr(basis, jc, jc.conj(), diag.astype(np.complex128))
    return HamiltonianMatrix(basis, "effective_general", params, m)


def build_effective_resonant(basis: SectorBasis, params: ModelParams,
                             k1: int, k2: int, branch: str) -> HamiltonianMatrix:
    """Stroboscopic Hamiltonian at a full drive resonance.

    Purely imaginary, zero diagonal: the class-c hop j -> j+1 has amplitude
    +i*Ac. Wrong-resonance parameters are rejected rather than silently built.
    """
    amps = np.array(resonant_amplitudes(params, k1, k2, branch))
    m = _hermitian_csr(basis, -1j * amps, 1j * amps)
    return HamiltonianMatrix(basis, "effective_resonant", params, m)
