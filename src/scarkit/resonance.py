"""Resonance conditions of the driven tilted chain and the amplitude-ratio landscape.

A tunneling process with static energy barrier ``delta`` is resonant with the
square-wave drive when ``|delta|`` is zero or an odd multiple of the driving
frequency.  All three barrier classes (|g-U|, g, g+U) are resonant
simultaneously only on discrete parameter families: g an odd multiple of
omega and U/g displaced from 1 by an odd/odd rational, the families of
`hamiltonian.resonant_family`, which the resonant builder checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import (ModelParams, ResonantFamily,  # noqa: F401
                          _drive_averaged_amplitude, fold_quasienergy,
                          resonant_family)    # the family names stay bound here

RESONANCE_RTOL = 1e-9
# folded barrier below this is reported as a divergent ratio, not an error
DIVERGENCE_CUT = 1e-12


def is_resonant(delta: float, omega: float) -> bool:
    """First-order resonance test: |delta| equals 0 or (2k+1)*omega.

    Relative tolerance 1e-9; rational family parameters enter exactly in
    double precision, so the slack only absorbs user-typed decimals.
    """
    if omega <= 0:
        raise DomainError(f"need omega > 0, got {omega}")
    d = abs(float(delta))
    if d <= RESONANCE_RTOL * omega:
        return True
    m = round(d / omega)
    return m % 2 == 1 and abs(d - m * omega) <= RESONANCE_RTOL * m * omega


@dataclass(frozen=True)
class AmplitudeRatios:
    """Drive-averaged amplitude over folded barrier, one entry per hop class.

    Where the folded barrier vanishes the ratio diverges; those points carry
    a flag and the ratio is reported against the unfolded barrier instead
    (infinite only for a barrier that is exactly zero).
    """

    ratios: tuple[float, float, float]
    divergent: tuple[bool, bool, bool]


def amplitude_ratio(params: ModelParams) -> AmplitudeRatios:
    """Perturbative validity measure |J_i| / |folded barrier_i| at one point."""
    row = scan_ratio_grid(params.U, params.g, params.omega,
                          params.u)[0].tolist()
    return AmplitudeRatios(tuple(row[2:5]), tuple(f == 1.0 for f in row[5:8]))


def scan_ratio_grid(U_values, g_values, omega: float, u: float) -> np.ndarray:
    """Amplitude-ratio table over a (U, g) grid at fixed drive.

    Returns rows (U, g, r1, r2, r3, div1, div2, div3) with g varying fastest;
    the row order is deterministic so repeated scans are byte-identical.
    Each row holds the `AmplitudeRatios` of its point.  The table fills one
    hop class at a time, and the drive-averaged amplitude is computed once
    per distinct signed barrier, shared by the classes.
    """
    U_values = np.atleast_1d(np.asarray(U_values, dtype=np.float64))
    g_values = np.atleast_1d(np.asarray(g_values, dtype=np.float64))
    out = np.empty((U_values.size * g_values.size, 8))
    if len(out) == 0:
        return out
    # the first point, and then the first point in loop order (U outer, g
    # inner) with a U or g that is not finite and positive, raise what
    # ModelParams raises there
    first = ModelParams(g=float(g_values[0]), U=float(U_values[0]), u=u,
                        omega=omega)
    refused = ~np.outer(np.isfinite(U_values) & (U_values > 0),
                        np.isfinite(g_values) & (g_values > 0))
    if refused.any():
        i, j = divmod(int(refused.argmax()), g_values.size)
        ModelParams(g=float(g_values[j]), U=float(U_values[i]), u=u,
                    omega=omega)
    out[:, 0] = np.repeat(U_values, g_values.size)
    out[:, 1] = np.tile(g_values, U_values.size)
    U, g = out[:, 0], out[:, 1]
    amplitudes: dict[float, float] = {}     # |amplitude| per signed barrier
    for c in range(3):                      # g-U, g, g+U, as in HOP_CLASSES
        signed = g - U if c == 0 else g + U if c == 2 else g
        deltas, where = np.unique(signed, return_inverse=True)
        deltas = deltas.tolist()
        for d in deltas:
            if d not in amplitudes:
                amplitudes[d] = abs(_drive_averaged_amplitude(
                    d, first.T, first.u))
        amp = np.array([amplitudes[d] for d in deltas])[where]
        barrier = np.abs(signed)
        del signed, where
        gap = np.abs(fold_quasienergy(barrier, omega))
        divergent = gap < DIVERGENCE_CUT
        ratio = out[:, 2 + c]
        ratio.fill(np.inf)
        np.divide(amp, np.where(divergent, barrier, gap), out=ratio,
                  where=~divergent | (barrier > DIVERGENCE_CUT))
        out[:, 5 + c] = divergent
    return out
