#!/usr/bin/env python3
"""Fidelity revivals and their frequency content for one initial state.

Evolves a Fock state under the resonant effective model, Fourier-analyzes
the fidelity trace, and checks the peak positions against the predictions
from the state's overlap table: |eps~ T| lines when the kernel catches
weight, 2|eps~ T| when it does not (odd N).
"""

import argparse
import sys

import numpy as np

from scarkit.dynamics import analytic_fidelity, dominant_peaks, fta
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import build_effective_resonant
from scarkit.observables import overlap_table, zero_projection
from scarkit.resonance import resonant_family
from scarkit.spectral import diagonalize


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=12)
    ap.add_argument("--initial", default=None,
                    help="occupation string (default: pinnacle)")
    ap.add_argument("--cycles", type=int, default=4096)
    ap.add_argument("--g", type=float, default=50.0)
    ap.add_argument("--u", type=float, default=0.5)
    ap.add_argument("--out", default=None, help="fidelity CSV path")
    args = ap.parse_args(argv)

    N = args.L // 2
    word = args.initial or "1" * N + "0" * (args.L - N)
    basis = SectorBasis(args.L, N)
    params = resonant_family(0, 0, "+").params(g=args.g, u=args.u)
    spec = diagonalize(build_effective_resonant(basis, params, 0, 0, "+"))

    series = analytic_fidelity(spec, word, args.cycles)
    freqs, amps = fta(series)
    peaks, heights = dominant_peaks(freqs, amps, count=4)

    p0 = zero_projection(word, spec)
    table = overlap_table(spec, word)
    pos = table[table[:, 0] > 1e-9]
    top = pos[np.argsort(pos[:, 1])[::-1][:3]]
    T = params.T
    factor = 1.0 if p0 > 1e-6 else 2.0    # squared cosine doubles when P0=0

    print(f"L={args.L}  initial={word}  P0={p0:.6f}  bin={freqs[0]:.6g}")
    print("FTA peaks (rad/cycle):")
    for f, h in zip(peaks, heights):
        print(f"  {f:.6g}  height {h:.3f}")
    print("overlap-table predictions:")
    for eps, wt in top:
        print(f"  eps~={eps:+.6g}  weight {wt:.4g}  ->  {factor * abs(eps) * T:.6g}")

    if args.out:
        rows = np.column_stack([np.arange(len(series.values)), series.values])
        np.savetxt(args.out, rows, delimiter=",", header="k,F", comments="",
                   fmt=("%d", "%.15g"))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
