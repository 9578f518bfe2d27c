"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test recomputes its quantities from scratch through the public API and
asserts the stated tolerances; frozen numbers in comments are the values
observed when the oracle runs were taken, kept as a drift record.  Tests
suffixed _extended need SCARKIT_EXTENDED=1 and (for L=16) a few minutes of
dense diagonalization; everything else is desk scale.
"""

import os

import numpy as np
import pytest
from scipy.signal import find_peaks

from scarkit.fock_basis import (SectorBasis, dim_difference_formula,
                                parity_dim_sums, pinnacle_in_larger_sector,
                                pinnacle_state, subspace_dims)
from scarkit.graph import (bipartite_violations, build_graph, components,
                           tower_internal_edges, tower_states)
from scarkit.hamiltonian import ModelParams, build_effective_resonant
from scarkit.observables import (coe_ie_reference, entanglement_entropy,
                                 entropy_profile, fock_vector, overlap_table,
                                 scar_state, shannon_entropy, zero_projection)
from scarkit.resonance import amplitude_ratio, scan_ratio_grid
from scarkit.spectral import diagonalize, gap_ratio_stats, mirror_asymmetry
from scarkit.dynamics import (analytic_fidelity, dominant_peaks,
                              fidelity_series, fta, full_fidelity_series,
                              random_nontower_states, spta_fidelity)

extended = pytest.mark.skipif(
    os.environ.get("SCARKIT_EXTENDED", "") in ("", "0"),
    reason="extended tier: set SCARKIT_EXTENDED=1",
)

PINNACLE = {L: "1" * (L // 2) + "0" * (L // 2) for L in (8, 12, 14, 16)}


def _top_clusters(spec, state, count):
    """Highest-weight positive-quasienergy clusters as (eps, weight) rows."""
    table = overlap_table(spec, state)
    pos = table[table[:, 0] > 1e-9]
    order = np.argsort(pos[:, 1])[::-1][:count]
    return pos[order]


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_zero_mode_counts(spectrum_cache):
    expected = {4: 2, 6: 0, 8: 6, 10: 0, 12: 20, 14: 0}
    for L, n0 in expected.items():
        assert len(spectrum_cache(L).zero_indices) == n0, f"L={L}"


@extended
def test_criterion_01_zero_mode_counts_extended(spectrum_cache):
    assert len(spectrum_cache(16).zero_indices) == 70


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_chiral_structure(spectrum_cache, standard_params):
    for L in (4, 6, 8, 10, 12):
        basis = SectorBasis(L, L // 2)
        ham = build_effective_resonant(basis, standard_params, 0, 0, "+")
        h = ham.matrix.toarray()
        c = basis.parities.astype(np.float64)
        anti = c[:, None] * h + h * c[None, :]
        assert np.all(anti == 0), f"L={L}: anticommutator has nonzero entries"
        spec = spectrum_cache(L)
        assert mirror_asymmetry(spec) < 1e-10, f"L={L}"
        if not spec.zero_indices.size:
            continue
        split = basis.chiral_split()
        smaller = basis.parities == (1 if split.n_plus < split.n_minus else -1)
        kernel = spec.kernel_matrix()
        assert np.max(np.abs(kernel[smaller, :])) < 1e-9, f"L={L}"
        sv = np.linalg.svd(kernel[~smaller, :], compute_uv=False)
        assert sv[-1] > 1e-9, f"L={L}: kernel rank deficient in larger sector"


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_sector_counting():
    for N in range(1, 11):
        L = 2 * N
        split = subspace_dims(L, N)
        assert (split.n_plus, split.n_minus) == parity_dim_sums(N), f"N={N}"
        assert split.difference == dim_difference_formula(N), f"N={N}"
        if N % 2 == 0:
            assert pinnacle_in_larger_sector(L), f"N={N}"


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_scar_locality(spectrum_cache):
    # mean thermal weight of the pinnacle is (1 - P0) spread over D - n0
    # states; the kernel catch must beat it by >= 10x.  Frozen ratios:
    # L=8 -> 409, L=12 -> 3662.
    for L in (8, 12):
        spec = spectrum_cache(L)
        basis = SectorBasis(L, L // 2)
        p0 = zero_projection(pinnacle_state(L), spec)
        n0 = len(spec.zero_indices)
        mean_thermal = (1.0 - p0) / (basis.size - n0)
        assert p0 / mean_thermal >= 10.0, f"L={L}: ratio {p0 / mean_thermal}"


@extended
def test_criterion_04_scar_locality_extended(spectrum_cache):
    spec = spectrum_cache(16)
    tp = pinnacle_state(16)
    p0 = zero_projection(tp, spec)
    assert abs(p0 - 0.74) <= 0.02            # frozen: 0.736193632027210
    s0 = scar_state(spec, tp)
    eps = spec.quasienergies
    center = 0.5 * (eps.max() + eps.min())
    half = 0.1 * (eps.max() - eps.min())
    band = np.flatnonzero(np.abs(eps - center) <= half)
    median_ee = float(np.median(entropy_profile(spec, band)))
    assert entanglement_entropy(s0) <= median_ee - 1.5   # frozen: 1.058 vs ~4.8
    assert shannon_entropy(s0) <= coe_ie_reference(spec.size) - 1.5


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_gap_ratio(spectrum_cache):
    stats = gap_ratio_stats(spectrum_cache(12))
    assert 0.47 <= stats.mean_r <= 0.56      # frozen: 0.529714186041485


@extended
def test_criterion_05_gap_ratio_extended(spectrum_cache):
    stats = gap_ratio_stats(spectrum_cache(16))
    assert abs(stats.mean_r - 0.53) <= 0.02  # frozen: 0.528326689293061


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_closed_form_vs_direct(spectrum_cache):
    for L in (8, 12):
        spec = spectrum_cache(L)
        basis = SectorBasis(L, L // 2)
        tower = tower_states(L)
        initials = [pinnacle_state(L), tower.eaves[L // 2],
                    random_nontower_states(basis, count=1, seed=7)[0]]
        for state in initials:
            # direct: |<psi0|psi(k)>|^2 from explicitly propagated states
            psi0 = fock_vector(basis, state).amplitudes
            states = spec.propagate(psi0, np.arange(257))
            direct = np.abs(psi0.conj() @ states) ** 2
            closed = analytic_fidelity(spec, state, 256).values
            dev = np.max(np.abs(direct - closed))
            assert dev < 1e-8, f"L={L} {state.to_string()}: {dev}"


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_plateau_and_odd_revivals(spectrum_cache):
    # even N: non-decaying plateau at P0^2 (frozen: mean 0.64618 vs 0.64323,
    # slope -8.4e-6); odd N: decaying revival envelope (frozen ratio 6.50).
    spec = spectrum_cache(12)
    p0 = zero_projection(pinnacle_state(12), spec)
    values = analytic_fidelity(spec, PINNACLE[12], 4096).values
    window = values[500:]
    assert abs(window.mean() - p0 ** 2) <= 0.05
    slope = np.polyfit(np.arange(500, len(values)), window, 1)[0]
    assert abs(slope) < 1e-5

    spec14 = spectrum_cache(14)
    series = analytic_fidelity(spec14, PINNACLE[14], 8192).values
    freqs, amps = fta(series)
    lead = dominant_peaks(freqs, amps, count=1)[0][0]
    spacing = int(0.6 * 2.0 * np.pi / lead)
    peaks, _ = find_peaks(series, distance=spacing)
    heights = series[peaks]
    assert len(heights) >= 10
    assert heights[0] / heights[9] > 1.5


@extended
def test_criterion_07_plateau_extended(spectrum_cache):
    spec = spectrum_cache(16)
    p0 = zero_projection(pinnacle_state(16), spec)
    values = analytic_fidelity(spec, PINNACLE[16], 4096).values
    window = values[500:]
    assert abs(window.mean() - p0 ** 2) <= 0.05   # frozen: 0.5553 vs 0.5420
    slope = np.polyfit(np.arange(500, len(values)), window, 1)[0]
    assert abs(slope) < 1e-5                      # frozen: -5.8e-6


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_fft_peaks(spectrum_cache):
    # odd N: the dominant revival line sits at 2|eps~ T| because the kernel
    # weight vanishes and the leading cosine only enters squared.
    spec14 = spectrum_cache(14)
    series = analytic_fidelity(spec14, PINNACLE[14], 4096)
    freqs, amps = fta(series)
    bin_width = freqs[0]
    peak = dominant_peaks(freqs, amps, count=1)[0][0]
    eps_top = _top_clusters(spec14, PINNACLE[14], 1)[0, 0]
    predicted = 2.0 * abs(eps_top) * spec14.period
    assert abs(peak - predicted) <= bin_width    # frozen: 0.03 bins apart

    # tower restriction vs the sector model, desk scale: the dominant SPTA
    # line lands within 15% of the high-frequency fidelity peak (the strict
    # one-bin statement is checked at L=16 in the extended tier).
    spec12 = spectrum_cache(12)
    freqs, amps = fta(analytic_fidelity(spec12, PINNACLE[12], 4096))
    pf, _ = dominant_peaks(freqs, amps, count=2)
    high = pf.max()
    sf, sa = fta(spta_fidelity(spec12.ham, 4096))
    spta_peak = dominant_peaks(sf, sa, count=1)[0][0]
    assert abs(spta_peak - high) / high < 0.15   # frozen: 0.125


@extended
def test_criterion_08_fft_peaks_extended(spectrum_cache):
    spec = spectrum_cache(16)
    series = analytic_fidelity(spec, PINNACLE[16], 4096)
    freqs, amps = fta(series)
    bin_width = freqs[0]
    period = spec.period
    clusters = _top_clusters(spec, PINNACLE[16], 2)
    eps1, eps2 = sorted(float(abs(e)) for e in clusters[:, 0])
    assert abs(eps1 - 0.064) <= 0.1 * 0.064      # frozen: 0.0665770453
    assert abs(eps2 - 0.15) <= 0.1 * 0.15        # frozen: 0.148990607
    pf, _ = dominant_peaks(freqs, amps, count=2)
    for target in (eps1 * period, eps2 * period):
        assert np.min(np.abs(pf - target)) <= bin_width

    sf, sa = fta(spta_fidelity(spec.ham, 4096))
    spta_peak = dominant_peaks(sf, sa, count=1)[0][0]
    high = pf.max()
    assert abs(spta_peak - high) <= bin_width * (1 + 1e-9)  # adjacent bins


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_full_vs_effective_converges_in_g():
    basis = SectorBasis(12, 6)
    worst = {}
    for g in (15.0, 30.0):
        params = ModelParams(g=g, U=2 * g, u=0.5, omega=g)
        cycles = int(50 * g)
        spec = diagonalize(build_effective_resonant(basis, params, 0, 0, "+"))
        f_eff = fidelity_series(spec, PINNACLE[12], cycles).values
        f_full = full_fidelity_series(basis, params, PINNACLE[12], cycles).values
        worst[g] = float(np.max(np.abs(f_full - f_eff)))
    # frozen: 0.2758 at g=15 vs 0.1644 at g=30
    assert worst[30.0] < worst[15.0]
    assert worst[15.0] < 0.5


# --------------------------------------------------------------- criterion 10

def _fold(x, omega):
    return (x + 0.5 * omega) % omega - 0.5 * omega


def test_criterion_10_resonance_landscape():
    # The flags mark every commensurate line of the fold.  Odd multiples of
    # omega are genuine divergences; even multiples carry a vanishing
    # drive-averaged amplitude and must come out flagged but with ratio ~ 0.
    omega, u = 20.0, 0.5
    grid = np.linspace(1.0, 80.0, 160)
    table = scan_ratio_grid(grid, grid, omega, u)
    U, g = table[:, 0], table[:, 1]
    step = grid[1] - grid[0]
    ridges = omega * np.arange(1, 5)

    def on_ridge(values):
        return np.min(np.abs(values[:, None] - ridges[None, :]), axis=1) <= step

    div1 = table[:, 5].astype(bool)
    div2 = table[:, 6].astype(bool)
    near0 = np.abs(U - g) <= step
    assert np.all(on_ridge(g[div2])), "r2 divergence off the tilt ridges"
    assert np.all(on_ridge(np.abs(U - g)[div1]) | near0[div1])
    even = div2 & (np.abs(g / omega - np.round(g / omega)) < 1e-9) \
                & (np.round(g / omega) % 2 == 0)
    if even.any():
        assert table[even, 3].max() < 1e-10   # removable, not divergent

    # the flags genuinely fire on exact odd-ridge points ...
    exact = scan_ratio_grid(np.array([40.0]), np.array([20.0]), omega, u)
    assert exact[0, 6] == 1.0 and exact[0, 3] > 0
    r = amplitude_ratio(ModelParams(g=20.0, U=20.0, u=u, omega=omega))
    assert r.divergent[0]                     # g = U: first barrier exactly 0
    # ... and everything far from every ridge stays small
    folded = np.stack([np.abs(_fold(np.abs(d), omega))
                       for d in (g - U, g, g + U)], axis=1)
    off = np.all(folded >= 0.45 * omega, axis=1)
    assert off.any()
    assert table[off, 2:5].max() < 0.1


# --------------------------------------------------------------- criterion 11

def test_criterion_11_graph_and_tower_structure(standard_params):
    basis = SectorBasis(6, 3)
    graph = build_graph(basis)
    assert bipartite_violations(graph) == 0
    tower = tower_states(6)
    pin = basis.index_of(tower.pinnacle)
    incident = graph.neighbors(pin)
    assert len(incident) == 1 and incident[0][1] == "g+U"

    assert len(tower.states) == 6 and len(tower.eaves) == 5
    internal = tower_internal_edges(graph, tower)
    members = {basis.index_of(s) for s in tower.states}
    assert len(internal) == len(members) - 1
    parent = {v: v for v in members}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b, _ in internal:
        ra, rb = root(a), root(b)
        assert ra != rb, "cycle inside the tower"
        parent[ra] = rb

    kept = components(graph, {"g", "g-U"})
    singles = [c for c in kept if len(c) == 1]
    assert any(pin in c for c in singles), "pinnacle still attached"
