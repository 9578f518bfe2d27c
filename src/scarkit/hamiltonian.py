"""Hamiltonians for the square-wave-driven tilted chain of spinless fermions.

The static part is U * sum_j n_j n_{j+1} - g * sum_j j n_j (open chain, 1-based
sites). Nearest-neighbour tunneling J is modulated by a square wave taking the
value -u over the first half period and +u over the second, period T = 2*pi/omega.

Stroboscopic physics is organised by the change in static energy a hop causes.
With the two sites beside a hopping bond (j-1 and j+2, empty beyond the open
ends) in configuration (0,1) / equal / (1,0), the energy barrier of the hop is
|g-U| / g / g+U respectively. Averaging the drive over one period at first
order gives each hop class a complex amplitude; at a drive resonance these
collapse to the purely imaginary values built by `build_effective_resonant`.

Adjacent hops in a site-ordered fermion basis carry no Jordan-Wigner string
sign (no occupied site can sit between the two bond sites), so the builders
insert bare amplitudes; the sign-free property is asserted against a
string-carrying oracle in the tests rather than handled here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError
from .fock_basis import SectorBasis
from .spectral import fold_quasienergy

HOP_CLASSES = ("g-U", "g", "g+U")


@dataclass(frozen=True)
class ModelParams:
    """Chain and drive parameters; J is the energy unit and defaults to 1."""

    g: float
    U: float
    u: float
    omega: float
    J: float = 1.0

    def __post_init__(self):
        if self.g <= 0 or self.U <= 0 or self.omega <= 0 or self.J <= 0:
            raise DomainError("g, U, omega, J must all be positive")
        if self.u < 0:
            raise DomainError(f"drive amplitude u must be >= 0, got {self.u}")

    @property
    def T(self) -> float:
        return 2.0 * math.pi / self.omega

    @classmethod
    def from_ratios(cls, U_over_g: float, g_over_omega: float, g: float,
                    u: float, J: float = 1.0) -> "ModelParams":
        return cls(g=g, U=U_over_g * g, u=u, omega=g / g_over_omega, J=J)


def hop_class_code(n_left, n_right):
    """0 / 1 / 2 for barrier class g-U / g / g+U from the flanking sites.

    `n_left` and `n_right` are the occupations of sites j-1 and j+2 beside
    bond (j, j+1): equal flanks give g, an occupied right flank g-U, an
    occupied left flank g+U. Works elementwise on integer arrays.
    """
    return 1 + n_left - n_right


def _drive_averaged_amplitude(delta: float, T: float, u: float, J: float) -> complex:
    """First-order one-period average of J*(1+u(t))*e^{i*delta*t}.

    This is the amplitude acquired by the hop that RAISES the static energy
    by `delta` (the reverse hop gets the conjugate). The drive contributes
    u*(e^{i delta T/2}-1)^2 / (i delta) and the undriven part
    (e^{i delta T}-1) / (i delta); together they factor as below. At delta=0
    the average is exactly J.
    """
    if delta == 0.0:
        return complex(J)
    y = cmath.exp(0.5j * delta * T)
    return -1j * J / (delta * T) * (y - 1.0) * ((1.0 + u) * y + (1.0 - u))


def amplitudes_general(params: ModelParams) -> tuple[complex, complex, complex]:
    """Drive-averaged amplitudes (J1, J2, J3) for the three hop classes.

    Each is attached to the hop direction that raises the static energy:
    J1 for barrier g-U (signed), J2 for g, J3 for g+U.
    """
    T, u, J = params.T, params.u, params.J
    return (
        _drive_averaged_amplitude(params.g - params.U, T, u, J),
        _drive_averaged_amplitude(params.g, T, u, J),
        _drive_averaged_amplitude(params.g + params.U, T, u, J),
    )


def _check_resonance(params: ModelParams, k1: int, k2: int, branch: str) -> None:
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    if k1 < 0 or k2 < 0:
        raise DomainError("resonance indices must be non-negative")
    if branch == "-" and k2 <= k1:
        raise DomainError("'-' branch needs k2 > k1")
    q = 2 * k2 + 1
    ratio = 1.0 + (2 * k1 + 1) / q if branch == "+" else 1.0 - (2 * k1 + 1) / q
    if not math.isclose(params.U / params.g, ratio, rel_tol=1e-12):
        raise DomainError(
            f"U/g = {params.U / params.g!r} is not the ({k1},{k2},{branch}) "
            f"resonance ratio {ratio!r}")
    if not math.isclose(params.g / params.omega, q, rel_tol=1e-12):
        raise DomainError(
            f"g/omega = {params.g / params.omega!r} must equal {q} for k2 = {k2}")


def resonant_amplitudes(params: ModelParams, k1: int, k2: int,
                        branch: str) -> tuple[float, float, float]:
    """Real prefactors (A1, A2, A3) of the resonant stroboscopic Hamiltonian.

    At the (k1, k2, branch) drive resonance every barrier is an odd multiple
    of omega and the class-c hop j -> j+1 carries amplitude +i*Ac with
    Ac = 2*u*J / ((1 -+ U/g) * (2*k2+1) * pi); the general drive average
    reduces to exactly these values.
    """
    _check_resonance(params, k1, k2, branch)
    a = params.U / params.g
    q = 2 * k2 + 1
    base = 2.0 * params.u * params.J / (q * math.pi)
    return base / (1.0 - a), base, base / (1.0 + a)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """A sector Hamiltonian: sparse matrix plus the context that built it."""

    basis: SectorBasis
    kind: str
    params: ModelParams
    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _assert_hermitian(m: sp.csr_matrix) -> None:
    diff = (m - m.conjugate().T).tocsr()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        raise NumericalError("constructed matrix is not exactly Hermitian")


def hop_moves(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every hop pair of the sector once, as (src, dst, cls) index arrays.

    `src` holds the states with site j occupied and site j+1 empty, `dst` the
    state with that particle moved j -> j+1, and `cls` the int8 barrier class
    of the hop. Moving a particle right lowers the word, so dst < src. One
    numpy pass per bond; `dst` is found by `searchsorted` because the sector
    states are ascending.
    """
    L, states = basis.L, basis.states
    srcs, dsts, classes = [], [], []
    for j in range(1, L):
        lo = L - j - 1                     # bit of site j+1; site j sits at lo+1
        src = np.flatnonzero(((states >> lo) & 3) == 2)
        words = states[src]
        empty = np.zeros_like(words)       # virtual sites 0 and L+1
        n_left = (words >> (lo + 2)) & 1 if j >= 2 else empty
        n_right = (words >> (lo - 1)) & 1 if j + 2 <= L else empty
        srcs.append(src)
        dsts.append(np.searchsorted(states, words ^ (3 << lo)))
        classes.append(hop_class_code(n_left, n_right).astype(np.int8))
    if not srcs:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0, dtype=np.int8)
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(classes)


def _static_energies(basis: SectorBasis, params: ModelParams) -> np.ndarray:
    """U * (adjacent pairs) - g * (dipole moment) for every sector state."""
    occ = basis._site_columns()
    pairs = (occ[:-1] & occ[1:]).sum(axis=0, dtype=np.int64)
    return params.U * pairs - params.g * basis.dipoles.astype(np.float64)


def build_onsite(basis: SectorBasis, params: ModelParams) -> HamiltonianMatrix:
    """Diagonal static Hamiltonian (interaction plus tilt)."""
    m = sp.diags(_static_energies(basis, params), format="csr")
    return HamiltonianMatrix(basis, "onsite", params, m)


def build_hop(basis: SectorBasis, params: ModelParams) -> HamiltonianMatrix:
    """Bare nearest-neighbour tunneling, all matrix elements J."""
    src, dst, _ = hop_moves(basis)
    rows = np.concatenate((src, dst))
    cols = np.concatenate((dst, src))
    data = np.full(len(rows), params.J)
    m = sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size))
    _assert_hermitian(m)
    return HamiltonianMatrix(basis, "hop", params, m)


def build_half_period(basis: SectorBasis, params: ModelParams,
                      half: int) -> HamiltonianMatrix:
    """Static Hamiltonian of one half period: onsite + (1 -+ u) * hop."""
    if half not in (1, 2):
        raise DomainError(f"half must be 1 or 2, got {half}")
    factor = (1.0 - params.u) if half == 1 else (1.0 + params.u)
    m = (build_onsite(basis, params).matrix
         + factor * build_hop(basis, params).matrix).tocsr()
    _assert_hermitian(m)
    return HamiltonianMatrix(basis, f"half_period_{half}", params, m)


def build_effective_general(basis: SectorBasis,
                            params: ModelParams) -> HamiltonianMatrix:
    """First-order stroboscopic Hamiltonian at arbitrary drive parameters.

    Diagonal: static energies folded into [-omega/2, omega/2). Off-diagonal:
    the class amplitude J_c on the energy-raising hop direction, conjugate on
    the reverse.
    """
    src, dst, cls = hop_moves(basis)
    jc = np.array(amplitudes_general(params), dtype=np.complex128)[cls]
    # moving j -> j+1 lowers the tilt energy; the raising direction is dst -> src
    rows = np.concatenate((src, dst))
    cols = np.concatenate((dst, src))
    data = np.concatenate((jc, jc.conj()))
    diag = fold_quasienergy(_static_energies(basis, params), params.omega)
    m = (sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size))
         + sp.diags(diag.astype(np.complex128))).tocsr()
    _assert_hermitian(m)
    return HamiltonianMatrix(basis, "effective_general", params, m)


def build_effective_resonant(basis: SectorBasis, params: ModelParams,
                             k1: int, k2: int, branch: str) -> HamiltonianMatrix:
    """Stroboscopic Hamiltonian at a full drive resonance.

    Purely imaginary, zero diagonal: the class-c hop j -> j+1 has amplitude
    +i*Ac. Wrong-resonance parameters are rejected rather than silently built.
    """
    _check_resonance(params, k1, k2, branch)
    src, dst, cls = hop_moves(basis)
    ac = np.array(resonant_amplitudes(params, k1, k2, branch))[cls]
    rows = np.concatenate((dst, src))
    cols = np.concatenate((src, dst))
    data = np.concatenate((1j * ac, -1j * ac))
    m = sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size))
    _assert_hermitian(m)
    return HamiltonianMatrix(basis, "effective_resonant", params, m)
