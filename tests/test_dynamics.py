"""Stroboscopic evolution: effective and exact routes, spectra, ensembles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import drive_oracles
from conftest import extended
from scarkit import dynamics
from scarkit.dynamics import (analytic_fidelity, dominant_peaks, ee_series,
                              ensemble_stats, fidelity_series, fta,
                              full_fidelity_series, local_maxima,
                              random_nontower_states, series, spta_fidelity,
                              tower_probability_series, TimeSeries)
from scarkit.errors import DomainError, NumericalError
from scarkit.fock_basis import FockState, SectorBasis, pinnacle_state
from scarkit.graph import tower_states
from scarkit.hamiltonian import (ModelParams, build_effective_general,
                                 build_effective_resonant, build_half_period)
from scarkit.observables import (StateVector, entanglement_entropy, fock_vector,
                                 schmidt_entropies)
from scarkit.resonance import resonant_family
from scarkit.spectral import (ChiralPairVectors, DenseVectors, Spectrum,
                              diagonalize)

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
    states = spec.propagate(fock_vector(basis, "11110000").amplitudes, ks)
    direct = (np.abs(states[idx, :]) ** 2).sum(axis=0)
    np.testing.assert_allclose(series, direct, atol=1e-10)
    assert series[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("L, cycles", [(8, 64), (12, 200)])
def test_tower_probability_chunks_agree(L, cycles, monkeypatch):
    from scarkit import dynamics
    spec = spectrum_for(L)
    word = "1" * (L // 2) + "0" * (L // 2)
    monkeypatch.setattr(dynamics, "PHASE_CHUNK", cycles + 1)
    one = tower_probability_series(spec, word, cycles=cycles).values
    monkeypatch.setattr(dynamics, "PHASE_CHUNK", 7)
    small = tower_probability_series(spec, word, cycles=cycles).values
    np.testing.assert_allclose(small, one, rtol=0, atol=1e-13)
    # a StateVector start gives the series of its Fock word
    vector = fock_vector(spec.basis, word)
    for chunk in (7, cycles + 1):
        monkeypatch.setattr(dynamics, "PHASE_CHUNK", chunk)
        direct = tower_probability_series(spec, vector, cycles=cycles).values
        np.testing.assert_allclose(one, direct, rtol=0, atol=1e-12)


def test_full_propagator_is_unitary_and_consistent():
    basis = SectorBasis(6, 3)
    psi0 = fock_vector(basis, "111000").amplitudes
    states_dense = dynamics.exact_drive(basis, PARAMS).propagate(
        psi0, np.arange(11))
    norms = np.linalg.norm(states_dense, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    # sparse Krylov route agrees with the dense eigendecomposition route
    (states_krylov,) = dynamics.SteppedDrive(basis, PARAMS).blocks(
        psi0, np.arange(11), 11)
    np.testing.assert_allclose(states_dense, states_krylov, atol=1e-8)


def test_full_fidelity_streaming_matches_block():
    basis = SectorBasis(6, 3)
    f = full_fidelity_series(basis, PARAMS, "110010", 20)
    psi0 = fock_vector(basis, "110010").amplitudes
    states = dynamics.exact_drive(basis, PARAMS).propagate(psi0, np.arange(21))
    np.testing.assert_allclose(f.values, np.abs(psi0.conj() @ states) ** 2,
                               atol=1e-10)


@pytest.mark.parametrize("route", ["dense", "chiral"])
def test_ee_series_expands_each_start_once(route, monkeypatch):
    basis = SectorBasis(10, 5)
    if route == "dense":
        spec = diagonalize(build_effective_general(
            basis, ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)))
    else:
        spec = spectrum_for(10)
    rng = np.random.default_rng(8)
    mixed = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    mixed /= np.linalg.norm(mixed)
    monkeypatch.setattr(dynamics, "EE_CHUNK", 16)
    calls = []

    def counted(name, method):
        def wrapper(self, psi0):
            calls.append(name)
            return method(self, psi0)
        return wrapper

    for cls in (DenseVectors, ChiralPairVectors):
        for name in ("coefficients", "expand"):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for start in (pinnacle_state(10), mixed):
        psi0 = fock_vector(basis, start).amplitudes.real \
            if isinstance(start, FockState) else start
        calls.clear()
        got = ee_series(spec, start, 100).values
        # one expansion of the start for the whole series: the coefficients
        # on the dense route, the factor products on the chiral one
        assert calls == (["expand", "coefficients"] if route == "dense"
                         else ["expand"])
        want = [schmidt_entropies(spec.vectors.propagate(
                    spec.vectors.expand(psi0), np.arange(lo, min(lo + 16, 101))
                    * spec.period, spec.quasienergies), basis)
                for lo in range(0, 101, 16)]
        assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("cycles", [300, np.arange(5, 700, 3)],
                         ids=["0..300", "non-contiguous"])
def test_series_on_the_drive_matches_evolve_full_states(cycles):
    # blocks of EE_CHUNK = 128 states: edges at 128 and 256, a partial last one
    basis = SectorBasis(8, 4)
    t_idx = tower_states(8).indices(basis)
    words = ["11110000", "11001010"]
    drive = dynamics.exact_drive(basis, PARAMS)
    ks = np.arange(cycles + 1) if np.isscalar(cycles) else cycles
    runs = series(drive, words, cycles)
    for word, run in zip(words, runs):
        psi0 = fock_vector(basis, word).amplitudes
        states = drive.propagate(psi0, ks)
        assert [s.label for s in run.values()] == ["F", "S_EE", "P_t"]
        ee = [entanglement_entropy(StateVector(states[:, k], basis))
              for k in range(states.shape[1])]
        for name, want in (("F", np.abs(psi0.conj() @ states) ** 2),
                           ("EE", ee),
                           ("Pt", (np.abs(states[t_idx]) ** 2).sum(axis=0))):
            np.testing.assert_allclose(run[name].values, want, rtol=0, atol=1e-12)


def test_series_on_the_drive_matches_krylov_route():
    basis = SectorBasis(8, 4)
    (run,) = series(dynamics.exact_drive(basis, PARAMS), ["11110000"], 300,
                    ("F",))
    assert list(run) == ["F"]
    psi0 = fock_vector(basis, "11110000").amplitudes
    (states,) = dynamics.SteppedDrive(basis, PARAMS).blocks(
        psi0, np.arange(301), 301)
    np.testing.assert_allclose(run["F"].values,
                               np.abs(states[:, 0].conj() @ states) ** 2,
                               rtol=0, atol=1e-8)


def _floquet_vs_stepping(L, g, starts, cycles, observables):
    """Largest |Floquet - stepped| of each series over the start columns."""
    basis = SectorBasis(L, L // 2)
    params = resonant_family(0, 0, "+").params(g=g, u=0.5)
    runs = series(dynamics.exact_drive(basis, params), list(starts.T),
                  cycles, observables)
    want = drive_oracles.stepped_series(basis, params, starts, cycles)
    return {name: max(np.max(np.abs(run[name].values - want[name][n]))
                      for n, run in enumerate(runs))
            for name in observables}


def _drive_starts(L):
    """tp, te_p:2, a complex random vector and a random: ensemble of three."""
    basis = SectorBasis(L, L // 2)
    rng = np.random.default_rng(L)
    z = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    words = [pinnacle_state(L), tower_states(L).eaves[L // 2],
             *random_nontower_states(basis, count=3, seed=7)]
    return np.column_stack([fock_vector(basis, w).amplitudes for w in words]
                           + [z / np.linalg.norm(z)])


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("g", [15.0, 30.0])
def test_floquet_route_matches_stepping_oracle(L, g):
    cycles = int(round(50 * g))
    diff = _floquet_vs_stepping(L, g, _drive_starts(L), cycles,
                                ("F", "EE", "Pt"))
    assert max(diff.values()) < 1e-10, diff


def test_floquet_spectrum_footprint_at_L12():
    # the traced peak is six float64 D^2 arrays, reached while x_im is
    # formed and again while B is: B and C are formed in place over x_re
    # and x_im
    basis = SectorBasis(12, 6)
    params = resonant_family(0, 0, "+").params(g=15.0, u=0.5)
    halves = [build_half_period(basis, params, i) for i in (1, 2)]
    dynamics.exact_drive(SectorBasis(4, 2), params)       # lazy imports
    tracemalloc.start()
    try:
        dynamics.floquet_spectrum(*halves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.1 * 8 * basis.size ** 2, peak / (8 * basis.size ** 2)


@extended
def test_floquet_route_matches_stepping_oracle_L14_extended():
    basis = SectorBasis(14, 7)
    tp = fock_vector(basis, pinnacle_state(14)).amplitudes[:, None]
    diff = _floquet_vs_stepping(14, 15.0, tp, 750, ("F", "Pt"))
    assert max(diff.values()) < 1e-10, diff


def test_krylov_stream_matches_floquet_route(monkeypatch):
    # above the dense bound each start streams Krylov-stepped blocks
    basis = SectorBasis(6, 3)
    words = ["111000", "110010", "101100"]
    cycles = np.arange(2, 41, 3)
    want = series(dynamics.exact_drive(basis, PARAMS), words, cycles)
    monkeypatch.setattr(dynamics, "EE_CHUNK", 4)
    got = series(dynamics.SteppedDrive(basis, PARAMS), words, cycles)
    for run, ref in zip(got, want):
        assert list(run) == ["F", "EE", "Pt"]
        for name in run:
            np.testing.assert_allclose(run[name].values, ref[name].values,
                                       rtol=0, atol=1e-8)


def test_series_reads_f_and_pt_off_a_spectrum_without_states(monkeypatch):
    basis = SectorBasis(8, 4)
    sources = [spectrum_for(8), dynamics.exact_drive(basis, PARAMS)]
    words = ["11110000", "11001010"]
    want = [series(source, words, 64) for source in sources]

    def no_blocks(*args, **kw):
        raise AssertionError("a state block was materialized")

    monkeypatch.setattr(Spectrum, "blocks", no_blocks)
    monkeypatch.setattr(dynamics.SteppedDrive, "blocks", no_blocks)
    for source, ref in zip(sources, want):
        for run, ref_run in zip(series(source, words, 64, ("F", "Pt")), ref):
            assert list(run) == ["F", "Pt"]
            for name in run:
                assert run[name].values.tobytes() == \
                    ref_run[name].values.tobytes()
        with pytest.raises(AssertionError, match="materialized"):
            series(source, words, 64, ("EE",))


@pytest.mark.parametrize("route", ["dense", "chiral"])
def test_series_reads_f_and_pt_from_one_pass_per_start(route, monkeypatch):
    spec = off_resonant_spectrum() if route == "dense" else spectrum_for(8)
    words = ["11110000", "11001010", "10110100"]
    t_idx = tower_states(8).indices(spec.basis)
    calls = []

    def counted(name, method):
        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    cls = type(spec.vectors)
    monkeypatch.setattr(cls, "coefficients",
                        counted("coefficients", cls.coefficients))
    monkeypatch.setattr(Spectrum, "times", counted("times", Spectrum.times))
    # 701 cycles span two PHASE_CHUNK windows: still one pass per start
    runs = series(spec, words, 700, ("F", "Pt"))
    assert calls == ["times", "coefficients"] * len(words)
    for word, run in zip(words, runs):
        assert list(run) == ["F", "Pt"]
        psi0 = fock_vector(spec.basis, word).amplitudes
        states = spec.propagate(psi0, np.arange(701))
        np.testing.assert_allclose(run["F"].values,
                                   np.abs(psi0.conj() @ states) ** 2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(run["Pt"].values,
                                   (np.abs(states[t_idx]) ** 2).sum(axis=0),
                                   rtol=0, atol=1e-12)


def test_stepped_drive_feeds_fidelity_and_tower_series():
    # the Krylov route streams what the Floquet spectrum reads off weights
    basis = SectorBasis(8, 4)
    params = resonant_family(0, 0, "+").params(g=15.0, u=0.5)
    floquet = dynamics.exact_drive(basis, params)
    stepped = dynamics.SteppedDrive(basis, params)
    assert isinstance(floquet, Spectrum)
    tower = tower_states(8)
    for start in (pinnacle_state(8), tower.eaves[4]):
        for read in (lambda src: fidelity_series(src, start, 150),
                     lambda src: tower_probability_series(src, start, tower,
                                                          150)):
            got, want = read(stepped), read(floquet)
            assert got.label == want.label
            np.testing.assert_allclose(got.values, want.values,
                                       rtol=0, atol=1e-10)


def test_floquet_residual_is_read_and_checked(monkeypatch):
    basis = SectorBasis(6, 3)
    prop = dynamics.exact_drive(basis, PARAMS)
    assert 0.0 <= prop.residual < 1e-12
    # an angle that merges the lowest and highest Floquet phases in the real
    # combination leaves their eigenvectors mixed: the residual shows it
    theta = -prop.quasienergies * PARAMS.T
    monkeypatch.setattr(dynamics, "FLOQUET_MIX_ANGLE",
                        0.5 * (theta[0] + theta[-1]))
    merged = dynamics.exact_drive(basis, PARAMS)
    assert merged.residual > 1e-3
    merged.times(np.arange(1))    # no cycle read off it, nothing to bound
    psi0 = fock_vector(basis, "111000").amplitudes
    for run in (lambda: full_fidelity_series(basis, PARAMS, "111000", 5),
                lambda: merged.propagate(psi0, np.arange(6)),
                lambda: series(merged, ["111000"], 5)):
        with pytest.raises(NumericalError,
                           match="unitarity drift bound .* over 5 cycles"):
            run()


def test_floquet_residual_bounds_every_read_of_the_spectrum(monkeypatch):
    basis = SectorBasis(6, 3)
    assert spectrum_for(6).residual == 0.0      # an effective spectrum
    theta = -dynamics.exact_drive(basis, PARAMS).quasienergies * PARAMS.T
    monkeypatch.setattr(dynamics, "FLOQUET_MIX_ANGLE",
                        0.5 * (theta[0] + theta[-1]))
    spec = dynamics.exact_drive(basis, PARAMS)
    assert isinstance(spec, Spectrum) and spec.residual > 1e-3
    psi0 = fock_vector(basis, "111000").amplitudes
    # read directly, not through `series`, the spectrum still refuses
    for run in (lambda: fidelity_series(spec, "111000", 5),
                lambda: tower_probability_series(spec, "111000", cycles=5),
                lambda: list(spec.blocks(psi0, np.arange(6), 4))):
        with pytest.raises(NumericalError,
                           match="unitarity drift bound .* over 5 cycles"):
            run()


def off_resonant_spectrum():
    basis = SectorBasis(8, 4)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    return diagonalize(build_effective_general(basis, params))


@pytest.mark.parametrize("route, L", [("chiral", 8), ("chiral", 12),
                                      ("dense", 8)])
def test_series_from_complex_start_match_evolved_states(route, L,
                                                       monkeypatch):
    from scarkit import dynamics
    spec = spectrum_for(L) if route == "chiral" else off_resonant_spectrum()
    rng = np.random.default_rng(L)
    psi0 = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    psi0 /= np.linalg.norm(psi0)
    states = spec.propagate(psi0, np.arange(201))
    t_idx = tower_states(L).indices(spec.basis)
    np.testing.assert_allclose(fidelity_series(spec, psi0, 200).values,
                               np.abs(psi0.conj() @ states) ** 2,
                               rtol=0, atol=1e-12)
    monkeypatch.setattr(dynamics, "PHASE_CHUNK", 64)
    np.testing.assert_allclose(
        tower_probability_series(spec, psi0, cycles=200).values,
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


def test_fta_length_rule_is_64_samples():
    dynamics.check_fta_length(64)
    assert len(fta(np.arange(64.0))[0]) == 32
    with pytest.raises(DomainError, match="^series of length 63 too short"):
        dynamics.check_fta_length(63)


def test_dominant_peaks_on_synthetic_spectrum():
    k = np.arange(2048)
    series = 0.6 * np.cos(0.25 * k) + 0.3 * np.cos(0.8 * k)
    freqs, amps = fta(series)
    pk, ph = dominant_peaks(freqs, amps, count=2)
    assert sorted(pk) == pytest.approx([0.25, 0.8], abs=2 * math.pi / 2048)
    assert ph[0] >= ph[1]


def scipy_dominant_peaks(freqs, amps, count=2, min_height=0.05):
    """The find_peaks route `dominant_peaks` replaced, kept as its oracle;
    `dominant_peaks` reads its min_height from PEAK_MIN_HEIGHT."""
    idx, props = find_peaks(amps, height=min_height)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(amps))])
        heights = amps[idx]
    else:
        heights = props["peak_heights"]
    order = np.argsort(heights)[::-1][:count]
    return freqs[idx[order]], amps[idx[order]]


@given(st.lists(st.integers(0, 3), max_size=64), st.integers(-1, 4))
@settings(max_examples=400, deadline=None)
def test_local_maxima_matches_find_peaks_on_plateaus(values, height):
    # small integers make plateaus, flat edges and edge maxima common
    x = np.asarray(values, dtype=np.float64)
    expected, _ = find_peaks(x, height=float(height))
    assert np.array_equal(local_maxima(x, float(height)), expected)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=64),
       st.floats(-1e6, 1e6, allow_nan=False))
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
    for height in (-np.inf, 0.5, dynamics.PEAK_MIN_HEIGHT, np.inf):
        assert np.array_equal(local_maxima(x, height),
                              find_peaks(x, height=height)[0])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64),
       st.integers(1, 4), st.sampled_from([0.05, 1.0, 2.5, 4.0]))
@settings(max_examples=300, deadline=None)
def test_dominant_peaks_matches_find_peaks_route(values, count, min_height):
    # min_height 4.0 is above every value, so the argmax fallback runs
    amps = np.asarray(values, dtype=np.float64)
    freqs = np.arange(1, len(amps) + 1) * 0.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "PEAK_MIN_HEIGHT", min_height)
        got = dominant_peaks(freqs, amps, count)
    want = scipy_dominant_peaks(freqs, amps, count, min_height)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("amps", [[0.2, 0.5, 1.0], [1.0, 1.0, 0.3],
                                  [0.5, 1.0, 1.0], [0.7], [0.0, 0.01, 0.0]])
def test_dominant_peaks_falls_back_to_argmax(amps):
    amps = np.asarray(amps)
    freqs = np.arange(len(amps), dtype=np.float64)
    assert len(local_maxima(amps, dynamics.PEAK_MIN_HEIGHT)) == 0
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
    basis = SectorBasis(12, 6)
    f = spta_fidelity(build_effective_resonant(basis, PARAMS, 0, 0, "+"),
                      cycles=128)
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)
    assert (f.values <= 1.0 + 1e-10).all()
    # the restriction is L-dimensional, so revivals are strong
    assert f.values.max() > 0.5


def test_spta_fidelity_needs_no_sector_eigensystem(monkeypatch):
    # dim 48620 lies above the dense threshold: only the L x L block is solved
    from scarkit import spectral

    def no_solve(*args, **kw):
        raise AssertionError("spta_fidelity diagonalized the sector")

    monkeypatch.setattr(spectral, "diagonalize", no_solve)
    basis = SectorBasis(18, 9)
    assert basis.size > spectral.DENSE_EIG_DEFAULT
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    f = spta_fidelity(ham, cycles=64)
    assert len(f.values) == 65
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)
    assert (f.values <= 1.0 + 1e-10).all()


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
    from scarkit import dynamics, spectral
    from scarkit.errors import NumericalError
    monkeypatch.setattr(spectral, "UNITARITY_TOL", -1.0)
    basis = SectorBasis(4, 2)
    # both entry points report the cycles actually stepped
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.full_fidelity_series(basis, standard_params, pinnacle_state(4), 4)
    psi0 = fock_vector(basis, pinnacle_state(4)).amplitudes
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.exact_drive(basis, standard_params).propagate(psi0,
                                                               np.arange(5))
    # one block off the stepper: unpacking asks for a second, which checks
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        (states,) = dynamics.SteppedDrive(basis, standard_params).blocks(
            psi0, np.arange(5), 5)
    # the streamed ensemble checks once its last block is taken
    monkeypatch.setattr(dynamics, "EE_CHUNK", 2)
    krylov = dynamics.SteppedDrive(basis, standard_params)
    with pytest.raises(NumericalError, match="unitarity drift .* over 4 cycles"):
        dynamics.series(krylov, [pinnacle_state(4)], 4)
