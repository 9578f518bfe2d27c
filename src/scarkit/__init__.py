"""Driven tilted-chain toolkit: sector bases, effective Hamiltonians,
resonances, spectral structure, tower dynamics, and the command line.

Re-exports resolve lazily so that importing the package stays cheap and the
command line can pin BLAS thread pools before numpy first loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "CapabilityError": ".errors", "ConfigError": ".errors", "DomainError": ".errors",
    "NumericalError": ".errors",
    "FockState": ".fock_basis", "SectorBasis": ".fock_basis",
    "chiral_parity": ".fock_basis", "dim_difference_formula": ".fock_basis",
    "dipole_moment": ".fock_basis",
    "parity_dim_sums": ".fock_basis", "pinnacle_state": ".fock_basis",
    "pinnacle_in_larger_sector": ".fock_basis", "subspace_dims": ".fock_basis",
    "CSRMatrix": ".hamiltonian", "ResonantFamily": ".hamiltonian",
    "HOP_CLASSES": ".hamiltonian", "HamiltonianMatrix": ".hamiltonian",
    "ModelParams": ".hamiltonian", "amplitudes_general": ".hamiltonian",
    "build_effective_general": ".hamiltonian", "fold_quasienergy": ".hamiltonian",
    "build_effective_resonant": ".hamiltonian", "build_half_period": ".hamiltonian",
    "build_hop": ".hamiltonian", "build_onsite": ".hamiltonian",
    "hop_moves": ".hamiltonian", "resonant_amplitudes": ".hamiltonian",
    "resonant_family": ".hamiltonian",
    "AmplitudeRatios": ".resonance", "amplitude_ratio": ".resonance",
    "is_resonant": ".resonance", "scan_ratio_grid": ".resonance",
    "GapRatioStats": ".spectral", "Spectrum": ".spectral",
    "diagonalize": ".spectral", "gap_ratio_stats": ".spectral",
    "mirror_asymmetry": ".spectral", "zero_modes": ".spectral",
    "HilbertGraph": ".graph", "Tower": ".graph", "build_graph": ".graph",
    "components": ".graph", "spta_matrix": ".graph", "to_dot": ".graph",
    "tower_states": ".graph",
    "StateVector": ".observables", "coe_ie_reference": ".observables",
    "entanglement_entropy": ".observables",
    "entropy_profile": ".observables", "fock_vector": ".observables",
    "overlap_table": ".observables", "page_entropy": ".observables",
    "scar_state": ".observables", "shannon_entropy": ".observables",
    "zero_projection": ".observables",
    "TimeSeries": ".dynamics", "analytic_fidelity": ".dynamics",
    "dominant_peaks": ".dynamics", "ee_series": ".dynamics",
    "ensemble_stats": ".dynamics", "fidelity_series": ".dynamics",
    "fta": ".dynamics", "full_fidelity_series": ".dynamics",
    "random_nontower_states": ".dynamics", "spta_fidelity": ".dynamics",
    "tower_probability_series": ".dynamics",
}

_SUBMODULES = {"errors", "fock_basis", "hamiltonian", "resonance", "spectral",
               "graph", "observables", "dynamics", "cli"}

__all__ = sorted(_EXPORTS) + sorted(_SUBMODULES)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(_EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
