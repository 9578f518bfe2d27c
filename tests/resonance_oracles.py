"""Per-point implementation of the amplitude ratios and the ratio scan.

These are the original scalar routes, kept as oracles for the array route in
`scarkit.resonance.scan_ratio_grid` (which `amplitude_ratio` now calls): one
`ModelParams`, three drive-averaged amplitudes and three scalar folds per
grid point.
"""

import numpy as np

from scarkit.hamiltonian import ModelParams, amplitudes_general
from scarkit.resonance import DIVERGENCE_CUT, AmplitudeRatios
from scarkit.spectral import fold_quasienergy


def amplitude_ratio(params: ModelParams) -> AmplitudeRatios:
    """|J_i| / |folded barrier_i| at one point, one barrier at a time."""
    amps = amplitudes_general(params)
    barriers = (abs(params.g - params.U), params.g, params.g + params.U)
    ratios, flags = [], []
    for amp, barrier in zip(amps, barriers):
        gap = abs(fold_quasienergy(barrier, params.omega))
        if gap < DIVERGENCE_CUT:
            flags.append(True)
            ratios.append(abs(amp) / barrier if barrier > DIVERGENCE_CUT
                          else float("inf"))
        else:
            flags.append(False)
            ratios.append(abs(amp) / gap)
    return AmplitudeRatios(tuple(ratios), tuple(flags))


def scan_ratio_grid(U_values, g_values, omega, u):
    """Rows (U, g, r1, r2, r3, div1, div2, div3), g varying fastest."""
    U_values = np.atleast_1d(np.asarray(U_values, dtype=np.float64))
    g_values = np.atleast_1d(np.asarray(g_values, dtype=np.float64))
    out = np.empty((U_values.size * g_values.size, 8))
    i = 0
    for U in U_values:
        for g in g_values:
            point = amplitude_ratio(ModelParams(g=float(g), U=float(U),
                                                u=u, omega=omega))
            out[i, 0], out[i, 1] = U, g
            out[i, 2:5] = point.ratios
            out[i, 5:8] = point.divergent
            i += 1
    return out
