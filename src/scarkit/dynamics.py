"""Stroboscopic dynamics of the driven chain and its effective descriptions.

A source of states is an object whose `blocks` yields the states at the
cycles `ks` in (dim x <= width) columns.  A `Spectrum` is one, an effective
Hamiltonian's or the exact drive's Floquet spectrum (`floquet_spectrum`),
and `Spectrum.times` refuses a run longer than its eigen-residual admits.
A `SteppedDrive` is the other: it steps each cycle by two sparse Krylov
half-period exponentials and bounds its norm drift.  `exact_drive` picks
the exact drive's route by size (FULL_DENSE_MAX).

`series` is the one reader that turns a source into F, S_EE and P_t.
`fidelity_series`, `ee_series`, `tower_probability_series` and
`full_fidelity_series` are calls to it, so each takes either source;
`Spectrum.propagate` returns a spectrum's states as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, DomainError, NumericalError
from .fock_basis import FockState, SectorBasis
from .graph import Tower, spta_matrix, tower_states
from .hamiltonian import HamiltonianMatrix, ModelParams, build_half_period
from .observables import (NORM_TOL, StateVector, cluster_levels,
                          fock_vector, schmidt_entropies)
from .spectral import (STATE_BLOCK_BYTES, Spectrum, check_drift,
                       dense_spectrum, eigh_inplace)

FULL_DENSE_MAX = 4096       # exact drive as a Floquet spectrum up to this dimension
FLOQUET_MIX_ANGLE = 0.5 * (math.sqrt(5.0) - 1.0)   # generic angle: splits Re/Im of the cycle
DEFAULT_CYCLES = 4096
EE_CHUNK = 128              # states per block of the streamed series
PEAK_MIN_HEIGHT = 0.05      # lowest local maximum `dominant_peaks` counts
PHASE_CHUNK = 512           # cycles per phase block of the F and P_t series
OBSERVABLES = {"F": "F", "EE": "S_EE", "Pt": "P_t"}   # name -> label, output order


@dataclass
class TimeSeries:
    """One observable sampled at whole driving cycles k = 0, 1, 2, ..."""

    label: str
    values: np.ndarray
    sd: np.ndarray | None = None

    @property
    def cycles(self) -> np.ndarray:
        return np.arange(len(self.values))


def _cycle_array(cycles) -> np.ndarray:
    if np.isscalar(cycles):
        if cycles < 0:
            raise DomainError(f"cycle count must be >= 0, got {cycles}")
        return np.arange(int(cycles) + 1)
    ks = np.asarray(cycles, dtype=np.int64)
    if len(ks) == 0 or np.any(np.diff(ks) <= 0) or ks[0] < 0:
        raise DomainError("cycle list must be non-empty, ascending, non-negative")
    return ks


def _as_vector(basis: SectorBasis, initial) -> np.ndarray:
    """Amplitude vector of a Fock state, StateVector or array start."""
    if isinstance(initial, StateVector):
        if initial.basis.size != basis.size:
            raise DomainError("initial state lives on a different sector")
        amps = initial.amplitudes
    elif isinstance(initial, (FockState, str)):
        return fock_vector(basis, initial).amplitudes
    else:
        amps = np.asarray(initial, dtype=np.complex128)
        if amps.shape != (basis.size,):
            raise DomainError(f"initial vector shape {amps.shape} does not "
                              f"match sector dimension {basis.size}")
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
        raise DomainError("initial state is not normalized")
    return amps


def check_cycles(cycles: int, n_series: int) -> None:
    """Refuse a run that holds `n_series` series over cycles 0..cycles.

    Each series is a float64 array of cycles + 1 values; together they must
    fit STATE_BLOCK_BYTES.  Callers check before building anything.
    """
    need = n_series * (cycles + 1) * 8
    if need > STATE_BLOCK_BYTES:
        raise CapabilityError(
            f"{n_series} series over {cycles} cycles need {need} bytes, over "
            f"the series budget of {STATE_BLOCK_BYTES}")


def fidelity_series(source, initial, cycles=DEFAULT_CYCLES) -> TimeSeries:
    """|<psi(0)|psi(k)>|^2 along the evolution: the F of `series`."""
    return series(source, [initial], cycles, ("F",))[0]["F"]


def ee_series(source, initial, cycles=DEFAULT_CYCLES) -> TimeSeries:
    """Half-chain entanglement entropy along the evolution: the S_EE of `series`."""
    return series(source, [initial], cycles, ("EE",))[0]["EE"]


def tower_probability_series(source, initial, tower: Tower | None = None,
                             cycles=DEFAULT_CYCLES) -> TimeSeries:
    """Total weight on the tower states along the evolution: the P_t of `series`."""
    return series(source, [initial], cycles, ("Pt",), tower)[0]["Pt"]


def analytic_fidelity(spec: Spectrum, f: FockState | str,
                      cycles=DEFAULT_CYCLES) -> TimeSeries:
    """Closed-form fidelity of a Fock start under a mirror-symmetric spectrum.

    The return amplitude is real: kernel weight plus paired cosine terms,
    F(k) = (P0 + 2 sum_c W_c cos(e_c k T))^2 over positive quasienergy
    clusters.  Degenerate levels are merged before forming the cosines.
    """
    idx = spec.basis.index_of(f)
    w = spec.weight_row(idx)
    eps = spec.quasienergies
    p0 = float(w[spec.is_zero].sum())
    pos = ~spec.is_zero & (eps > 0)
    neg = ~spec.is_zero & (eps < 0)
    pe, pw = cluster_levels(eps[pos], w[pos])
    ne, nw = cluster_levels(-eps[neg][::-1], w[neg][::-1])
    if len(pe) != len(ne) or np.max(np.abs(pe - ne), initial=0.0) > 1e-8:
        raise DomainError("spectrum is not mirror symmetric; the paired "
                          "cosine form does not apply")
    wbar = 0.5 * (pw + nw)
    kt = spec.times(_cycle_array(cycles))
    amplitude = p0 + 2.0 * (wbar @ np.cos(np.outer(pe, kt)))
    return TimeSeries("F", amplitude ** 2)


def _congruence(W: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^T diag(w) W for real W and w, as two symmetric rank-k products."""
    pos = w >= 0
    a = np.sqrt(w[pos])[:, None] * W[pos]
    b = np.sqrt(-w[~pos])[:, None] * W[~pos]
    out = a.T @ a
    out -= b.T @ b
    return out


def floquet_spectrum(h1: HamiltonianMatrix, h2: HamiltonianMatrix) -> Spectrum:
    """Floquet spectrum of the cycle u2 u1 (u_i = exp(-i h_i T/2)).

    With h_i = V_i diag(e_i) V_i^T and d = exp(-i tau e1 / 2), tau = T/2,
    the symmetrized cycle u1^(1/2) u2 u1^(1/2) reads, in the eigenframe of h1,
    M = d o (W^T diag(exp(-i tau e2)) W) o d with W = V2^T V1.  M is complex
    symmetric and unitary, so its real and imaginary parts are commuting
    real symmetric matrices, and so are those of exp(-i phi) M = C + i B
    (phi = FLOQUET_MIX_ANGLE, folded into d).  One real `eigh` of C gives
    their common orthogonal eigenbasis Q and mu = diag(Q^T C Q); one product
    B Q gives sigma = diag(Q^T B Q), so lambda = diag(Q^T M Q) =
    exp(i phi) (mu + i sigma), and the spectrum's `residual`
    max|B Q - Q sigma|, which is max|M Q - Q lambda| up to the `eigh`
    backward error.  The cycle's eigenvectors are V1 (conj(d) o Q), with
    quasienergies -arg(lambda) / T.  Every product is real.  The spectrum's
    `ham` is h1 (basis and period).
    """
    tau, phi = h1.params.T / 2.0, FLOQUET_MIX_ANGLE
    e1, V1 = eigh_inplace(h1.toarray())
    e2, V2 = eigh_inplace(h2.toarray())
    if not np.isfinite(tau * np.concatenate((e1, e2))).all():
        raise NumericalError("half-period phases tau * e overflow; the drive "
                             "parameters are out of range")
    W = V2.T @ V1
    del V2
    x_re = _congruence(W, np.cos(tau * e2))
    x_im = _congruence(W, np.sin(tau * e2))     # W^T e^{-i tau e2} W = x_re - i x_im
    del W
    c, s = np.cos(tau * e1 / 2.0 + phi / 2.0), np.sin(tau * e1 / 2.0 + phi / 2.0)
    g_re = np.outer(c, c)        # e^{-i phi} d_i d_j = g_re - i g_im
    g_re -= np.outer(s, s)
    g_im = np.outer(s, c)
    g_im += np.outer(c, s)
    # B = -(g_re x_im + g_im x_re) and C = g_re x_re - g_im x_im, formed
    # in place over x_re and x_im
    B = g_im * x_re
    x_re *= g_re
    g_re *= x_im
    B += g_re
    x_im *= g_im
    x_re -= x_im
    np.negative(B, out=B)
    C = x_re
    del g_re, g_im, x_re, x_im
    mu, Q = eigh_inplace(C)
    del C
    bq = B @ Q
    del B
    sigma = np.einsum("ij,ij->j", Q, bq)
    bq -= Q * sigma
    residual = float(np.abs(bq).max(initial=0.0))
    del bq
    c, s = np.cos(tau * e1 / 2.0), np.sin(tau * e1 / 2.0)   # conj(d) = c + i s
    P = np.empty(V1.shape, dtype=np.complex128)
    P.real = V1 @ (c[:, None] * Q)
    P.imag = V1 @ (s[:, None] * Q)
    del V1, Q
    energies = -(phi + np.angle(mu + 1j * sigma)) / h1.params.T
    return replace(dense_spectrum(energies, P, h1), residual=residual)


class SteppedDrive:
    """The square-wave drive stepped cycle by cycle: `step` applies the two
    half-period exponentials by sparse Krylov (`expm_multiply`), trading
    speed for memory, and `blocks` streams the states."""

    def __init__(self, basis: SectorBasis, params: ModelParams):
        half = params.T / 2.0
        self.basis = basis
        self._halves = tuple(
            build_half_period(basis, params, i).matrix.to_scipy().tocsc()
            * (-1j * half) for i in (1, 2))

    def step(self, psi: np.ndarray) -> np.ndarray:
        from scipy.sparse.linalg import expm_multiply
        return expm_multiply(self._halves[1], expm_multiply(self._halves[0], psi))

    def blocks(self, psi0: np.ndarray, ks: np.ndarray, width: int):
        """Yield the states at the cycles `ks` in (dim, <= width) column blocks.

        One pass steps to ks[-1]; once the caller has taken the last block
        and asks for the next, the norm is checked: a drift above
        UNITARITY_TOL per cycle stepped is refused (`check_drift`).
        """
        psi, done = psi0.astype(np.complex128), 0
        for lo in range(0, len(ks), width):
            chunk = ks[lo:lo + width]
            block = np.empty((len(psi), len(chunk)), dtype=np.complex128)
            for col, k in enumerate(chunk):
                for _ in range(k - done):
                    psi = self.step(psi)
                done = k
                block[:, col] = psi
            yield block
        check_drift(abs(np.linalg.norm(psi) - 1.0), done, "unitarity drift")


def exact_drive(basis: SectorBasis, params: ModelParams) -> Spectrum | SteppedDrive:
    """The exact drive on the route its size allows: the Floquet `Spectrum`
    up to FULL_DENSE_MAX states, the `SteppedDrive` above."""
    if basis.size > FULL_DENSE_MAX:
        return SteppedDrive(basis, params)
    return floquet_spectrum(build_half_period(basis, params, 1),
                            build_half_period(basis, params, 2))


def series(source, initials, cycles=DEFAULT_CYCLES,
           observables=tuple(OBSERVABLES),
           tower: Tower | None = None) -> list[dict[str, TimeSeries]]:
    """F, half-chain S_EE and P_t per initial state, from one source of states.

    `source` is a `Spectrum` (effective, or the exact drive's Floquet one)
    or a `SteppedDrive`: either yields the states at the cycles `ks` in
    column blocks (`blocks`).  On a spectrum, F and P_t come from the
    coefficients c_a = <a|psi(0)>, one pass over the eigenvectors, with no
    state materialized: in blocks of PHASE_CHUNK cycles,
    F(k) = |sum_a w_a exp(-i e_a k T)|^2 with w_a = |c_a|^2, and
    P_t(k) = sum_t |sum_a V_ta c_a exp(-i e_a k T)|^2 over the tower rows
    of the eigenvectors.  Every other series is read from blocks of
    EE_CHUNK states, so no (dim x cycles) array is held.  A spectrum's
    residual bound is checked where its times are read (`Spectrum.times`).
    P_t is the weight on `tower`, by default the half-filled tower of the
    chain.  Keys are the requested names among OBSERVABLES, in its order.
    """
    ks = _cycle_array(cycles)
    names = [n for n in OBSERVABLES if n in observables]
    weighted = [n for n in names if n in ("F", "Pt")] \
        if isinstance(source, Spectrum) else []
    streamed = [n for n in names if n not in weighted]
    basis = source.basis
    t_idx = (tower or tower_states(basis.L)).indices(basis) \
        if "Pt" in names else None
    runs = []
    for initial in initials:
        psi0 = _as_vector(basis, initial)
        parts = {n: [] for n in names}
        if weighted:
            kt = source.times(ks)
            c = source.vectors.coefficients(psi0)
            w = np.abs(c) ** 2
            if "Pt" in weighted:
                rows = source.vectors.rows(t_idx) * c[None, :]
            for lo in range(0, len(kt), PHASE_CHUNK):
                phase = np.outer(source.quasienergies, kt[lo:lo + PHASE_CHUNK])
                if "F" in weighted:
                    parts["F"].append((w @ np.cos(phase)) ** 2
                                      + (w @ np.sin(phase)) ** 2)
                if "Pt" in weighted:
                    parts["Pt"].append(
                        (np.abs(rows @ np.exp(-1j * phase)) ** 2).sum(axis=0))
        blocks = source.blocks(psi0, ks, EE_CHUNK) if streamed else ()
        for states in blocks:
            if "F" in streamed:
                parts["F"].append(np.abs(psi0.conj() @ states) ** 2)
            if "EE" in streamed:
                parts["EE"].append(schmidt_entropies(states, basis))
            if "Pt" in streamed:
                parts["Pt"].append((np.abs(states[t_idx, :]) ** 2).sum(axis=0))
        runs.append({n: TimeSeries(OBSERVABLES[n], np.concatenate(parts[n]))
                     for n in names})
    return runs


def full_fidelity_series(basis: SectorBasis, params: ModelParams, initial,
                         cycles=DEFAULT_CYCLES) -> TimeSeries:
    """|<psi(0)|psi(k)>|^2 under the exact drive: `fidelity_series` of it."""
    return fidelity_series(exact_drive(basis, params), initial, cycles)


def fta(series) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude spectrum of a cycle series, static bin removed, peak = 1.

    Frequencies come back in radians per driving cycle, so a quasienergy
    difference e maps to the frequency |e| * T.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series)
    n = len(values)
    check_fta_length(n)
    amps = np.abs(np.fft.rfft(np.asarray(values, dtype=np.float64)))[1:]
    freqs = 2.0 * np.pi * np.arange(1, len(amps) + 1) / n
    peak = amps.max()
    return freqs, amps / peak if peak > 0 else amps


def check_fta_length(n: int) -> None:
    """Refuse (`DomainError`) a series of n < 64 samples, too short for `fta`."""
    if n < 64:
        raise DomainError(f"series of length {n} too short for a spectrum")


def local_maxima(x: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of a 1-D array with x >= height, by
    scipy's `find_peaks(x, height=height)` rules.

    A peak has a strictly lower neighbour on each side; a flat top counts
    once, at its middle sample (rounded down); the first and last samples are
    never peaks.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = np.flatnonzero(x[1:] != x[:-1])  # x[j + 1] differs from x[j]
    rise = x[steps + 1] > x[steps]
    fall = x[steps + 1] < x[steps]
    top = rise[:-1] & fall[1:]                # a rise, then a fall at the next step
    peaks = (steps[:-1][top] + 1 + steps[1:][top]) // 2
    return peaks[x[peaks] >= height]


def dominant_peaks(freqs: np.ndarray, amps: np.ndarray,
                   count: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Strongest local maxima of an amplitude spectrum, descending by height.

    With no local maximum at or above PEAK_MIN_HEIGHT, the global maximum is
    returned instead.
    """
    idx = local_maxima(amps, PEAK_MIN_HEIGHT)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(amps))])
    heights = amps[idx]
    order = np.argsort(heights)[::-1][:count]
    return freqs[idx[order]], amps[idx[order]]


def spta_fidelity(ham: HamiltonianMatrix, cycles=DEFAULT_CYCLES) -> TimeSeries:
    """Fidelity of the pinnacle under the tower-restricted model of `ham`.

    The L x L tower block is cut from the built sector operator, so nothing
    is diagonalized at the sector dimension; the block evolves in closed
    form.
    """
    vals, vecs = eigh_inplace(spta_matrix(ham))
    weights = np.abs(vecs[-1, :]) ** 2       # pinnacle sits in the last row
    ks = _cycle_array(cycles)
    phases = np.exp(-1j * np.outer(vals, ks * ham.params.T))
    out = np.abs(weights @ phases) ** 2
    return TimeSeries("F_spta", out)


def random_nontower_states(basis: SectorBasis, count: int = 10,
                           seed: int = 7) -> list[FockState]:
    """Uniform sample of Fock states outside the tower, fixed by the seed."""
    if count < 1:
        raise DomainError(f"ensemble size must be at least 1, got {count}")
    pool = np.setdiff1d(np.arange(basis.size),
                        tower_states(basis.L).indices(basis))
    if count > len(pool):
        raise DomainError(f"asked for {count} states, only {len(pool)} outside "
                          "the tower")
    rng = np.random.default_rng(seed)
    picks = rng.choice(pool, size=count, replace=False)
    return [basis.state(int(i)) for i in picks]


def ensemble_stats(series_list: list[TimeSeries], label: str) -> TimeSeries:
    """Pointwise mean and standard deviation across an ensemble of series."""
    stack = np.stack([s.values for s in series_list])
    return TimeSeries(label, stack.mean(axis=0), sd=stack.std(axis=0))
