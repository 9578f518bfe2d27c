"""Stroboscopic dynamics of the driven chain and its effective descriptions.

Two evolution routes: eigenbasis rotation of an effective Hamiltonian's
spectrum, and the exact piecewise-constant drive applied as a pair of
half-period propagators per cycle.  The drive is square, so the full route
has no time-step error; a cycle is one matrix application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, NumericalError
from .fock_basis import FockState, SectorBasis
from .graph import Tower, spta_matrix, tower_states
from .hamiltonian import (ModelParams, build_effective_resonant,
                          build_half_period)
from .observables import (StateVector, cluster_levels, fock_vector,
                          schmidt_entropies)
from .spectral import Spectrum

FULL_DENSE_MAX = 4096       # dense half-period propagators up to this dimension
DEFAULT_CYCLES = 4096
UNITARITY_TOL = 1e-8
STATE_BLOCK_BYTES = 2_000_000_000
EE_CHUNK = 128              # states per stacked Schmidt SVD block


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
    if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
        raise DomainError("initial state is not normalized")
    return amps


def _guard_block(dim: int, n_states: int) -> None:
    if dim * n_states * 16 > STATE_BLOCK_BYTES:
        raise CapabilityError(
            f"materializing {n_states} states of dimension {dim} exceeds the "
            "state-block budget; use the chunked series functions")


def evolve_effective(spec: Spectrum, initial, cycles) -> np.ndarray:
    """State columns after whole cycles under the diagonalized effective model."""
    psi0 = _as_vector(spec.basis, initial)
    ks = _cycle_array(cycles)
    _guard_block(spec.size, len(ks))
    period = 2.0 * np.pi / spec.omega
    return spec.propagate(psi0, ks, period)


def fidelity_series(spec: Spectrum, initial, cycles=DEFAULT_CYCLES,
                    chunk: int = 512) -> TimeSeries:
    """|<psi(0)|psi(k)>|^2 = |sum_a w_a exp(-i e_a k T)|^2, chunked over k.

    The weights w_a = |c_a|^2 come from the coefficients c_a = <a|psi(0)>, one
    pass over the eigenvectors, so no state is materialized.
    """
    c = spec.vectors.coefficients(_as_vector(spec.basis, initial))
    w = np.abs(c) ** 2
    ks = _cycle_array(cycles)
    period = 2.0 * np.pi / spec.omega
    out = np.empty(len(ks))
    for lo in range(0, len(ks), chunk):
        phase = np.outer(spec.quasienergies, ks[lo:lo + chunk] * period)
        out[lo:lo + chunk] = (w @ np.cos(phase)) ** 2 + (w @ np.sin(phase)) ** 2
    return TimeSeries("F", out)


def ee_series(spec: Spectrum, initial, cycles=DEFAULT_CYCLES,
              cut: int | None = None, chunk: int = EE_CHUNK) -> TimeSeries:
    """Half-chain entanglement entropy along the evolution.

    A real start is passed on as a real array: the chiral route then evolves
    it in real arithmetic and the Schmidt step takes real SVDs (the dense
    route gives the same columns either way).
    """
    psi0 = _as_vector(spec.basis, initial)
    if not np.any(psi0.imag):
        psi0 = psi0.real
    ks = _cycle_array(cycles)
    if cut is None:
        cut = spec.basis.L // 2
    period = 2.0 * np.pi / spec.omega
    out = np.empty(len(ks))
    for lo in range(0, len(ks), chunk):
        states = spec.vectors.propagate(psi0, ks[lo:lo + chunk] * period,
                                        spec.quasienergies)
        out[lo:lo + chunk] = schmidt_entropies(states, spec.basis, cut)
    return TimeSeries("S_EE", out)


def tower_probability_series(spec: Spectrum, initial, tower: Tower | None = None,
                             cycles=DEFAULT_CYCLES,
                             chunk: int = 512) -> TimeSeries:
    """Total weight on the tower states along the evolution.

    P_t(k) = sum_t |sum_a V_ta c_a exp(-i e_a k T)|^2 with c_a = <a|psi(0)>,
    from the tower rows of the eigenvectors only, in blocks of `chunk`
    cycles; no state is materialized.
    """
    c = spec.vectors.coefficients(_as_vector(spec.basis, initial))
    if tower is None:
        tower = tower_states(spec.basis.L)
    weights = spec.vectors.rows(tower.indices(spec.basis)) * c[None, :]
    ks = _cycle_array(cycles)
    period = 2.0 * np.pi / spec.omega
    out = np.empty(len(ks))
    for lo in range(0, len(ks), chunk):
        phases = np.exp(-1j * np.outer(spec.quasienergies,
                                       ks[lo:lo + chunk] * period))
        out[lo:lo + chunk] = (np.abs(weights @ phases) ** 2).sum(axis=0)
    return TimeSeries("P_t", out)


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
    p0 = float(w[spec.zero_indices].sum())
    mask = np.ones(len(eps), dtype=bool)
    mask[spec.zero_indices] = False
    pos = mask & (eps > 0)
    neg = mask & (eps < 0)
    pe, pw = cluster_levels(eps[pos], w[pos])
    ne, nw = cluster_levels(-eps[neg][::-1], w[neg][::-1])
    if len(pe) != len(ne) or np.max(np.abs(pe - ne), initial=0.0) > 1e-8:
        raise DomainError("spectrum is not mirror symmetric; the paired "
                          "cosine form does not apply")
    wbar = 0.5 * (pw + nw)
    ks = _cycle_array(cycles)
    period = 2.0 * np.pi / spec.omega
    amplitude = p0 + 2.0 * (wbar @ np.cos(np.outer(pe, ks * period)))
    return TimeSeries("F", amplitude ** 2)


def _expi_real_symmetric(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for real symmetric h via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.T


class FullPropagator:
    """One-cycle map of the square-wave drive: two half-period exponentials.

    Below `dense_max` both halves are composed into a single dense cycle
    matrix; above it each application falls back to sparse Krylov
    exponentials, trading speed for memory.
    """

    def __init__(self, basis: SectorBasis, params: ModelParams,
                 dense_max: int = FULL_DENSE_MAX):
        h1 = build_half_period(basis, params, 1).matrix
        h2 = build_half_period(basis, params, 2).matrix
        half = params.T / 2.0
        if basis.size <= dense_max:
            u1 = _expi_real_symmetric(h1.toarray().real, half)
            u2 = _expi_real_symmetric(h2.toarray().real, half)
            self._cycle = u2 @ u1
            self._halves = None
        else:
            self._cycle = None
            self._halves = (h1.tocsc() * (-1j * half), h2.tocsc() * (-1j * half))

    def step(self, psi: np.ndarray) -> np.ndarray:
        if self._cycle is not None:
            return self._cycle @ psi
        from scipy.sparse.linalg import expm_multiply
        return expm_multiply(self._halves[1], expm_multiply(self._halves[0], psi))


def _drive(prop: FullPropagator, psi0: np.ndarray, last: int):
    """Yield the state after each cycle k = 0..last of the exact drive.

    Once the last state is consumed the norm is checked: a drift above
    UNITARITY_TOL per cycle stepped raises NumericalError.
    """
    psi = psi0.astype(np.complex128)
    yield psi
    for _ in range(last):
        psi = prop.step(psi)
        yield psi
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > UNITARITY_TOL * max(last, 1):
        raise NumericalError(f"unitarity drift {drift:.2e} over {last} cycles")


def _blocks_at(prop: FullPropagator, psi0: np.ndarray, ks: np.ndarray,
               width: int):
    """Yield the states at the cycles `ks` in (dim, <= width) column blocks.

    One `_drive` pass steps to ks[-1]; its drift check runs once the caller
    has taken the last block and asks for the next.
    """
    ptr, col = 0, 0
    for k, psi in enumerate(_drive(prop, psi0, int(ks[-1]))):
        if k != ks[ptr]:
            continue
        if col == 0:
            block = np.empty((len(psi0), min(width, len(ks) - ptr)),
                             dtype=np.complex128)
        block[:, col] = psi
        ptr, col = ptr + 1, col + 1
        if col == block.shape[1]:
            yield block
            col = 0


def evolve_full(basis: SectorBasis, params: ModelParams, initial, cycles,
                dense_max: int = FULL_DENSE_MAX) -> np.ndarray:
    """State columns at the requested cycles under the exact driven model."""
    psi0 = _as_vector(basis, initial)
    ks = _cycle_array(cycles)
    _guard_block(basis.size, len(ks))
    # unpacking asks for a second block, which runs the drift check
    (states,) = _blocks_at(FullPropagator(basis, params, dense_max), psi0, ks,
                           len(ks))
    return states


def full_fidelity_series(basis: SectorBasis, params: ModelParams, initial,
                         cycles=DEFAULT_CYCLES) -> TimeSeries:
    """|<psi(0)|psi(k)>|^2 under the exact drive: the F of `full_drive_ensemble`."""
    return full_drive_ensemble(basis, params, [initial], cycles, ("F",))[0]["F"]


def full_drive_ensemble(basis: SectorBasis, params: ModelParams, initials,
                        cycles=DEFAULT_CYCLES, observables=("F", "EE", "Pt")
                        ) -> list[dict[str, TimeSeries]]:
    """F, half-chain S_EE and P_t under the exact drive, per initial state.

    One FullPropagator steps every start.  Each start's states stream in
    blocks of EE_CHUNK cycles, and every requested series takes its values
    from each block, so no (dim x cycles) array is held.  Keys are the
    requested names among "F", "EE" and "Pt".
    """
    psis = [_as_vector(basis, initial) for initial in initials]
    ks = _cycle_array(cycles)
    prop = FullPropagator(basis, params)
    t_idx = tower_states(basis.L).indices(basis) if "Pt" in observables else None
    runs = []
    for psi0 in psis:
        bra, f, ee, pt = psi0.conj(), [], [], []
        for states in _blocks_at(prop, psi0, ks, EE_CHUNK):
            if "F" in observables:
                f.append(np.abs(bra @ states) ** 2)
            if "EE" in observables:
                ee.append(schmidt_entropies(states, basis, basis.L // 2))
            if "Pt" in observables:
                pt.append((np.abs(states[t_idx, :]) ** 2).sum(axis=0))
        series = {"F": ("F", f), "EE": ("S_EE", ee), "Pt": ("P_t", pt)}
        runs.append({name: TimeSeries(label, np.concatenate(parts))
                     for name, (label, parts) in series.items()
                     if name in observables})
    return runs


def fta(series) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude spectrum of a cycle series, static bin removed, peak = 1.

    Frequencies come back in radians per driving cycle, so a quasienergy
    difference e maps to the frequency |e| * T.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series)
    n = len(values)
    if n < 64:
        raise DomainError(f"series of length {n} too short for a spectrum")
    amps = np.abs(np.fft.rfft(np.asarray(values, dtype=np.float64)))[1:]
    freqs = 2.0 * np.pi * np.arange(1, len(amps) + 1) / n
    peak = amps.max()
    return freqs, amps / peak if peak > 0 else amps


def local_maxima(x: np.ndarray, height: float | None = None) -> np.ndarray:
    """Indices of the local maxima of a 1-D array, by scipy's `find_peaks` rules.

    A peak has a strictly lower neighbour on each side; a flat top counts
    once, at its middle sample (rounded down); the first and last samples are
    never peaks.  With `height`, only peaks with x >= height are kept.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = np.flatnonzero(x[1:] != x[:-1])  # x[j + 1] differs from x[j]
    rise = x[steps + 1] > x[steps]
    fall = x[steps + 1] < x[steps]
    top = rise[:-1] & fall[1:]                # a rise, then a fall at the next step
    peaks = (steps[:-1][top] + 1 + steps[1:][top]) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    return peaks


def dominant_peaks(freqs: np.ndarray, amps: np.ndarray, count: int = 2,
                   min_height: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Strongest local maxima of an amplitude spectrum, descending by height.

    With no local maximum at or above `min_height`, the global maximum is
    returned instead.
    """
    idx = local_maxima(amps, min_height)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(amps))])
    heights = amps[idx]
    order = np.argsort(heights)[::-1][:count]
    return freqs[idx[order]], amps[idx[order]]


def spta_fidelity(params: ModelParams, L: int, cycles=DEFAULT_CYCLES,
                  k1: int = 0, k2: int = 0, branch: str = "+") -> TimeSeries:
    """Fidelity of the pinnacle under the tower-restricted effective model.

    The restriction is taken from the genuine sector operator, so any change
    to the builder propagates here; the L x L block then evolves in closed
    form.
    """
    basis = SectorBasis(L, L // 2)
    ham = build_effective_resonant(basis, params, k1, k2, branch)
    block = spta_matrix(ham, tower_states(L))
    vals, vecs = np.linalg.eigh(block)
    weights = np.abs(vecs[-1, :]) ** 2       # pinnacle sits in the last row
    ks = _cycle_array(cycles)
    phases = np.exp(-1j * np.outer(vals, ks * params.T))
    out = np.abs(weights @ phases) ** 2
    return TimeSeries("F_spta", out)


def random_nontower_states(basis: SectorBasis, tower: Tower | None = None,
                           count: int = 10, seed: int = 7) -> list[FockState]:
    """Uniform sample of Fock states outside the tower, fixed by the seed."""
    if count < 1:
        raise DomainError(f"ensemble size must be at least 1, got {count}")
    if tower is None:
        tower = tower_states(basis.L)
    pool = np.setdiff1d(np.arange(basis.size), tower.indices(basis))
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
