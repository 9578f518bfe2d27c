"""Stroboscopic evolution: effective and exact routes, spectra, ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from scarkit.dynamics import (analytic_fidelity, dominant_peaks, ee_series,
                              ensemble_stats, evolve_effective, evolve_full,
                              fidelity_series, fta, full_drive_ensemble,
                              full_fidelity_series, local_maxima,
                              random_nontower_states, spta_fidelity,
                              tower_probability_series, TimeSeries)
from scarkit.errors import DomainError
from scarkit.fock_basis import FockState, SectorBasis, pinnacle_state
from scarkit.graph import tower_states
from scarkit.hamiltonian import (ModelParams, build_effective_general,
                                 build_effective_resonant)
from scarkit.observables import StateVector, entanglement_entropy, fock_vector
from scarkit.resonance import resonant_family
from scarkit.spectral import diagonalize

PARAMS = resonant_family(0, 0, "+").params(g=50.0, u=0.5)


def spectrum_for(L):
    basis = SectorBasis(L, L // 2)
    return diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))


def test_fidelity_basics():
    spec = spectrum_for(8)
    f = fidelity_series(spec, "11110000", cycles=64)
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)
    assert (f.values <= 1.0 + 1e-10).all()
    assert (f.values >= -1e-12).all()
    assert len(f.values) == 65
    assert np.array_equal(f.cycles, np.arange(65))


def test_initial_state_forms_agree():
    spec = spectrum_for(6)
    basis = SectorBasis(6, 3)
    word = "110100"
    by_string = fidelity_series(spec, word, cycles=16).values
    by_state = fidelity_series(spec, FockState.from_string(word),
                               cycles=16).values
    by_vector = fidelity_series(spec, fock_vector(basis, word),
                                cycles=16).values
    arr = fock_vector(basis, word).amplitudes
    by_array = fidelity_series(spec, arr, cycles=16).values
    for other in (by_state, by_vector, by_array):
        np.testing.assert_allclose(by_string, other, atol=1e-13)


def test_unnormalized_initial_rejected():
    spec = spectrum_for(6)
    bad = np.full(spec.size, 0.3, dtype=np.complex128)
    with pytest.raises(DomainError):
        fidelity_series(spec, bad, cycles=4)


def test_analytic_matches_direct_evolution():
    spec = spectrum_for(8)
    for word in ("11110000", "11101000"):
        direct = fidelity_series(spec, word, cycles=128).values
        closed = analytic_fidelity(spec, word, 128).values
        assert np.max(np.abs(direct - closed)) < 1e-10


def test_ee_series_starts_at_zero_for_fock_state():
    spec = spectrum_for(8)
    s = ee_series(spec, "11110000", cycles=32)
    assert s.values[0] == pytest.approx(0.0, abs=1e-10)
    assert (s.values > -1e-12).all()


def test_tower_probability_shortcut_matches_projection():
    spec = spectrum_for(8)
    basis = SectorBasis(8, 4)
    tower = tower_states(8)
    idx = tower.indices(basis)
    ks = np.arange(33)
    series = tower_probability_series(spec, "11110000", cycles=32).values
    states = evolve_effective(spec, "11110000", ks)
    direct = (np.abs(states[idx, :]) ** 2).sum(axis=0)
    np.testing.assert_allclose(series, direct, atol=1e-10)
    assert series[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("L, cycles", [(8, 64), (12, 200)])
def test_tower_probability_chunks_agree(L, cycles):
    spec = spectrum_for(L)
    word = "1" * (L // 2) + "0" * (L // 2)
    one = tower_probability_series(spec, word, cycles=cycles,
                                   chunk=cycles + 1).values
    small = tower_probability_series(spec, word, cycles=cycles, chunk=7).values
    np.testing.assert_allclose(small, one, rtol=0, atol=1e-13)
    # a StateVector start gives the series of its Fock word
    vector = fock_vector(spec.basis, word)
    for chunk in (7, cycles + 1):
        direct = tower_probability_series(spec, vector, cycles=cycles,
                                          chunk=chunk).values
        np.testing.assert_allclose(one, direct, rtol=0, atol=1e-12)


def test_full_propagator_is_unitary_and_consistent():
    basis = SectorBasis(6, 3)
    states_dense = evolve_full(basis, PARAMS, "111000", np.arange(11))
    norms = np.linalg.norm(states_dense, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    # sparse Krylov route agrees with the dense eigendecomposition route
    states_krylov = evolve_full(basis, PARAMS, "111000", np.arange(11),
                                dense_max=1)
    np.testing.assert_allclose(states_dense, states_krylov, atol=1e-8)


def test_full_fidelity_streaming_matches_block():
    basis = SectorBasis(6, 3)
    f = full_fidelity_series(basis, PARAMS, "110010", 20)
    states = evolve_full(basis, PARAMS, "110010", np.arange(21))
    psi0 = states[:, 0]
    np.testing.assert_allclose(f.values, np.abs(psi0.conj() @ states) ** 2,
                               atol=1e-10)


@pytest.mark.parametrize("cycles", [300, np.arange(5, 700, 3)],
                         ids=["0..300", "non-contiguous"])
def test_full_drive_ensemble_matches_evolve_full_states(cycles):
    # blocks of EE_CHUNK = 128 states: edges at 128 and 256, a partial last one
    basis = SectorBasis(8, 4)
    t_idx = tower_states(8).indices(basis)
    words = ["11110000", "11001010"]
    runs = full_drive_ensemble(basis, PARAMS, words, cycles)
    for word, run in zip(words, runs):
        psi0 = fock_vector(basis, word).amplitudes
        states = evolve_full(basis, PARAMS, word, cycles)
        assert [s.label for s in run.values()] == ["F", "S_EE", "P_t"]
        ee = [entanglement_entropy(StateVector(states[:, k], basis))
              for k in range(states.shape[1])]
        for name, want in (("F", np.abs(psi0.conj() @ states) ** 2),
                           ("EE", ee),
                           ("Pt", (np.abs(states[t_idx]) ** 2).sum(axis=0))):
            np.testing.assert_allclose(run[name].values, want, rtol=0, atol=1e-12)


def test_full_drive_ensemble_matches_krylov_route():
    basis = SectorBasis(8, 4)
    (run,) = full_drive_ensemble(basis, PARAMS, ["11110000"], 300, ("F",))
    assert list(run) == ["F"]
    states = evolve_full(basis, PARAMS, "11110000", 300, dense_max=0)
    np.testing.assert_allclose(run["F"].values,
                               np.abs(states[:, 0].conj() @ states) ** 2,
                               rtol=0, atol=1e-8)


def off_resonant_spectrum():
    basis = SectorBasis(8, 4)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    return diagonalize(build_effective_general(basis, params))


@pytest.mark.parametrize("route, L", [("chiral", 8), ("chiral", 12),
                                      ("dense", 8)])
def test_series_from_complex_start_match_evolved_states(route, L):
    spec = spectrum_for(L) if route == "chiral" else off_resonant_spectrum()
    rng = np.random.default_rng(L)
    psi0 = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    psi0 /= np.linalg.norm(psi0)
    states = evolve_effective(spec, psi0, 200)
    t_idx = tower_states(L).indices(spec.basis)
    np.testing.assert_allclose(fidelity_series(spec, psi0, 200).values,
                               np.abs(psi0.conj() @ states) ** 2,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        tower_probability_series(spec, psi0, cycles=200, chunk=64).values,
        (np.abs(states[t_idx]) ** 2).sum(axis=0), rtol=0, atol=1e-12)


def test_effective_approximates_full_at_strong_tilt():
    basis = SectorBasis(6, 3)
    spec = spectrum_for(6)
    k = 50
    f_eff = fidelity_series(spec, "111000", cycles=k).values
    f_full = full_fidelity_series(basis, PARAMS, "111000", k).values
    assert np.max(np.abs(f_eff - f_full)) < 5e-3  # leading correction ~1/g


def test_fta_grid_and_normalization():
    k = np.arange(256)
    series = 0.5 + 0.4 * np.cos(0.3 * k) + 0.1 * np.cos(0.9 * k)
    freqs, amps = fta(series)
    assert len(freqs) == len(amps) == 128
    assert freqs[0] == pytest.approx(2 * math.pi / 256)
    assert amps.max() == pytest.approx(1.0)
    # the DC component is gone: nothing at frequency zero
    assert freqs.min() > 0


def test_fta_rejects_short_series():
    with pytest.raises(DomainError):
        fta(np.ones(32))


def test_dominant_peaks_on_synthetic_spectrum():
    k = np.arange(2048)
    series = 0.6 * np.cos(0.25 * k) + 0.3 * np.cos(0.8 * k)
    freqs, amps = fta(series)
    pk, ph = dominant_peaks(freqs, amps, count=2)
    assert sorted(pk) == pytest.approx([0.25, 0.8], abs=2 * math.pi / 2048)
    assert ph[0] >= ph[1]


def scipy_dominant_peaks(freqs, amps, count=2, min_height=0.05):
    """The find_peaks route `dominant_peaks` replaced, kept as its oracle."""
    idx, props = find_peaks(amps, height=min_height)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(amps))])
        heights = amps[idx]
    else:
        heights = props["peak_heights"]
    order = np.argsort(heights)[::-1][:count]
    return freqs[idx[order]], amps[idx[order]]


@given(st.lists(st.integers(0, 3), max_size=64),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=400, deadline=None)
def test_local_maxima_matches_find_peaks_on_plateaus(values, height):
    # small integers make plateaus, flat edges and edge maxima common
    x = np.asarray(values, dtype=np.float64)
    h = None if height is None else float(height)
    expected, _ = find_peaks(x, height=h)
    assert np.array_equal(local_maxima(x, h), expected)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=64),
       st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_local_maxima_matches_find_peaks_on_floats(values, height):
    x = np.asarray(values, dtype=np.float64)
    expected, _ = find_peaks(x, height=height)
    assert np.array_equal(local_maxima(x, height), expected)


@pytest.mark.parametrize("values", [
    [0.0, 1.0, np.nan], [0.0, 1.0, np.nan, 1.0, 0.0], [np.nan, 1.0, 0.0],
    [0.0, np.inf, np.inf, 0.0], [0.0, np.inf, np.inf], [-np.inf, 0.0, -np.inf],
])
def test_local_maxima_matches_find_peaks_on_nan_and_inf(values):
    x = np.asarray(values)
    assert np.array_equal(local_maxima(x), find_peaks(x)[0])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64),
       st.integers(1, 4), st.sampled_from([0.05, 1.0, 2.5, 4.0]))
@settings(max_examples=300, deadline=None)
def test_dominant_peaks_matches_find_peaks_route(values, count, min_height):
    # min_height 4.0 is above every value, so the argmax fallback runs
    amps = np.asarray(values, dtype=np.float64)
    freqs = np.arange(1, len(amps) + 1) * 0.5
    got = dominant_peaks(freqs, amps, count, min_height)
    want = scipy_dominant_peaks(freqs, amps, count, min_height)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("amps", [[0.2, 0.5, 1.0], [1.0, 1.0, 0.3],
                                  [0.5, 1.0, 1.0], [0.7], [0.0, 0.01, 0.0]])
def test_dominant_peaks_falls_back_to_argmax(amps):
    amps = np.asarray(amps)
    freqs = np.arange(len(amps), dtype=np.float64)
    assert len(local_maxima(amps, 0.05)) == 0
    f, a = dominant_peaks(freqs, amps)
    assert f.tolist() == [float(np.argmax(amps))]
    assert a.tolist() == [amps.max()]
    want = scipy_dominant_peaks(freqs, amps)
    assert np.array_equal(f, want[0]) and np.array_equal(a, want[1])


def test_dominant_peaks_on_revival_spectrum():
    spec = spectrum_for(12)
    freqs, amps = fta(fidelity_series(spec, pinnacle_state(12), 1024))
    for count in (2, 5):
        got = dominant_peaks(freqs, amps, count)
        want = scipy_dominant_peaks(freqs, amps, count)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_spta_fidelity_series():
    f = spta_fidelity(PARAMS, 12, cycles=128)
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)
    assert (f.values <= 1.0 + 1e-10).all()
    # the restriction is L-dimensional, so revivals are strong
    assert f.values.max() > 0.5


def test_random_nontower_sampling():
    basis = SectorBasis(8, 4)
    tower = tower_states(8)
    mask = tower.membership_mask(basis)
    a = random_nontower_states(basis, count=10, seed=7)
    b = random_nontower_states(basis, count=10, seed=7)
    c = random_nontower_states(basis, count=10, seed=8)
    assert [s.bits for s in a] == [s.bits for s in b]
    assert [s.bits for s in a] != [s.bits for s in c]
    assert len({s.bits for s in a}) == 10
    for s in a:
        assert not mask[basis.index_of(s)]
    with pytest.raises(DomainError):
        random_nontower_states(basis, count=100)
    for count in (0, -1):
        with pytest.raises(DomainError, match="at least 1"):
            random_nontower_states(basis, count=count)


def test_ensemble_statistics():
    s1 = TimeSeries("F", np.array([1.0, 0.0, 1.0]))
    s2 = TimeSeries("F", np.array([0.0, 0.0, 1.0]))
    agg = ensemble_stats([s1, s2], "F")
    np.testing.assert_allclose(agg.values, [0.5, 0.0, 1.0])
    np.testing.assert_allclose(agg.sd, [0.5, 0.0, 0.0])


def test_explicit_cycle_lists():
    spec = spectrum_for(6)
    full = fidelity_series(spec, "111000", cycles=64).values
    sparse = fidelity_series(spec, "111000", cycles=[0, 10, 30, 64]).values
    np.testing.assert_allclose(sparse, full[[0, 10, 30, 64]], atol=1e-12)


def test_unitarity_drift_raises_numerical_error(monkeypatch, standard_params):
    from scarkit import dynamics
    from scarkit.errors import NumericalError
    monkeypatch.setattr(dynamics, "UNITARITY_TOL", -1.0)
    basis = SectorBasis(4, 2)
    # both entry points report the cycles actually stepped
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.full_fidelity_series(basis, standard_params, pinnacle_state(4), 4)
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.evolve_full(basis, standard_params, pinnacle_state(4), 4)
    # the streamed ensemble checks once its last block is taken
    monkeypatch.setattr(dynamics, "EE_CHUNK", 2)
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.full_drive_ensemble(basis, standard_params,
                                     [pinnacle_state(4)], 4)
