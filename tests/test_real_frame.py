"""Real-frame chiral observables against the complex path they replace.

The oracles are the complex routes: `ChiralPairVectors.columns` with the
complex stacked SVD for entropies, `Spectrum.propagate` (always complex) for
the evolved states, and the per-column/per-row loops in `chiral_oracles`.
"""

import numpy as np
import pytest

import chiral_oracles
from scarkit.dynamics import ee_series, fidelity_series
from scarkit.fock_basis import SectorBasis, pinnacle_state
from scarkit.hamiltonian import (ModelParams, build_effective_general,
                                 build_effective_resonant)
from scarkit.observables import (entropy_profile, fock_vector,
                                 schmidt_entropies, schmidt_spectrum)
from scarkit.resonance import resonant_family
from scarkit.spectral import diagonalize

FAMILIES = [(0, 0, "+"), (0, 1, "-")]
_CACHE = {}


def chiral_spectrum(L, family):
    if (L, family) not in _CACHE:
        basis = SectorBasis(L, L // 2)
        params = resonant_family(*family).params(g=50.0, u=0.5)
        _CACHE[L, family] = diagonalize(
            build_effective_resonant(basis, params, *family))
    return _CACHE[L, family]


def complex_entropies(spec, indices):
    return schmidt_entropies(spec.vectors.columns(indices), spec.basis)


def partner(spec, a):
    """The column of the -eps partner of pair column a."""
    vec = spec.vectors
    j = vec._perm[a]
    return int(np.flatnonzero(vec._perm == vec.n_states - 1 - j)[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_pair_keys_name_the_minus_partner(family):
    spec = chiral_spectrum(8, family)
    vec = spec.vectors
    keys = vec.pair_keys(np.arange(spec.size))
    for a in range(spec.size):
        j = vec._perm[a]
        if j >= vec.n_states - vec.rank:        # '+' column
            assert keys[a] == partner(spec, a) and vec._perm[keys[a]] < vec.rank
        else:
            assert keys[a] == a


@pytest.mark.parametrize("L", [8, 10, 12])
@pytest.mark.parametrize("family", FAMILIES)
def test_entropy_profile_matches_complex_columns(L, family, monkeypatch):
    from scarkit import observables
    spec = chiral_spectrum(L, family)
    everything = np.arange(spec.size)
    np.testing.assert_allclose(
        entropy_profile(spec), complex_entropies(spec, everything),
        rtol=0, atol=1e-12)
    # a subset in scrambled order, with repeats, both partners of some pairs
    # and (L = 8, 12) kernel columns, over several small batches
    rng = np.random.default_rng(L)
    subset = rng.choice(spec.size, size=37, replace=False)
    subset = np.concatenate([subset, subset[:3], spec.zero_indices[:2],
                             [partner(spec, 0), 0]])
    monkeypatch.setattr(observables, "PROFILE_BATCH", 5)
    np.testing.assert_allclose(
        entropy_profile(spec, subset), complex_entropies(spec, subset),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("family", FAMILIES)
def test_pair_entropies_are_equal(L, family):
    spec = chiral_spectrum(L, family)
    vec = spec.vectors
    prof = entropy_profile(spec)
    minus = np.flatnonzero(vec._perm < vec.rank)
    plus = np.array([partner(spec, a) for a in minus])
    assert len(minus) == vec.rank
    np.testing.assert_array_equal(prof[minus], prof[plus])
    np.testing.assert_allclose(complex_entropies(spec, minus),
                               complex_entropies(spec, plus),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_real_columns_are_local_phase_images(family):
    spec = chiral_spectrum(8, family)
    vec = spec.vectors
    cols = spec.vectors.columns(np.arange(spec.size))
    real = vec.real_columns(np.arange(spec.size))
    assert real.dtype == np.float64
    plus = [partner(spec, a) for a in np.flatnonzero(vec._perm < vec.rank)]
    np.testing.assert_array_equal(real[:, plus],
                                  real[:, vec._perm < vec.rank])
    phase = 1j ** (spec.basis.dipoles % 4)      # i^D, a product of site phases
    minus = vec._perm < vec.rank
    kernel = ~minus & (vec._perm < vec.n_states - vec.rank)
    # '-' columns: i^D psi is the real column up to one global phase
    overlap = np.abs(np.sum(np.conj(phase[:, None] * cols) * real, axis=0))
    np.testing.assert_allclose(overlap[minus], 1.0, rtol=0, atol=1e-13)
    # kernel columns come as they are
    np.testing.assert_array_equal(real[:, kernel], cols[:, kernel].real)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("family", FAMILIES)
def test_real_columns_match_columns_in_magnitude_bit_for_bit(L, family):
    # `eigenstate_measures` rests on this: a real column carries the
    # |amplitudes| of the columns it stands for, bit for bit
    spec = chiral_spectrum(L, family)
    everything = np.arange(spec.size)
    assert np.abs(spec.vectors.real_columns(everything)).tobytes() == \
        np.abs(spec.vectors.columns(everything)).tobytes()


@pytest.mark.parametrize("L", [8, 12])
def test_series_match_complex_propagate(L):
    spec = chiral_spectrum(L, (0, 0, "+"))
    basis = spec.basis
    rng = np.random.default_rng(3)
    mixed = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    mixed /= np.linalg.norm(mixed)
    ks = np.arange(131)
    for start in (pinnacle_state(L), mixed):
        psi0 = (fock_vector(basis, start).amplitudes
                if not isinstance(start, np.ndarray) else start)
        states = spec.propagate(psi0, ks)
        assert states.dtype == np.complex128
        np.testing.assert_allclose(
            fidelity_series(spec, start, 130).values,
            np.abs(psi0.conj() @ states) ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ee_series(spec, start, 130).values,
            schmidt_entropies(states, basis), rtol=0, atol=1e-12)


def test_fidelity_weights_on_the_dense_route():
    basis = SectorBasis(8, 4)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    spec = diagonalize(build_effective_general(basis, params))
    rng = np.random.default_rng(9)
    psi0 = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi0 /= np.linalg.norm(psi0)
    for start in ("11001010", psi0):
        amps = fock_vector(basis, start).amplitudes if isinstance(start, str) \
            else start
        states = spec.propagate(amps, np.arange(65))
        np.testing.assert_allclose(fidelity_series(spec, start, 64).values,
                                   np.abs(amps.conj() @ states) ** 2,
                                   rtol=0, atol=1e-12)


def test_real_start_propagates_in_real_arithmetic():
    spec = chiral_spectrum(12, (0, 1, "-"))
    psi0 = fock_vector(spec.basis, pinnacle_state(12)).amplitudes
    kt = np.arange(50) * spec.period
    real = spec.vectors.propagate(spec.vectors.expand(psi0.real), kt,
                                  spec.quasienergies)
    assert real.dtype == np.float64
    np.testing.assert_allclose(real, spec.propagate(psi0, np.arange(50)),
                               rtol=0, atol=1e-13)
    assert spec.propagate(psi0.real, np.arange(4)).dtype == np.complex128


@pytest.mark.parametrize("chiral", [True, False])
def test_spectrum_propagate_passes_a_real_start_through(chiral):
    # a start with no imaginary part is evolved as a real one, then cast
    if chiral:
        spec = chiral_spectrum(10, (0, 0, "+"))
    else:
        basis = SectorBasis(8, 4)
        spec = diagonalize(build_effective_general(
            basis, ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)))
    psi0 = fock_vector(spec.basis, pinnacle_state(spec.basis.L)).amplitudes
    ks = np.arange(40)
    real = spec.vectors.propagate(spec.vectors.expand(psi0.real),
                                  ks * spec.period, spec.quasienergies)
    for start in (psi0, psi0.real):
        states = spec.propagate(start, ks)
        assert states.dtype == np.complex128
        assert np.array_equal(states, real)
    # a complex start still runs its imaginary part
    phased = 1j * psi0
    np.testing.assert_allclose(spec.propagate(phased, ks), 1j * real,
                               rtol=0, atol=1e-15)


def test_schmidt_real_dtype_matches_complex():
    rng = np.random.default_rng(4)
    for basis in (SectorBasis(10, 5), SectorBasis(9, 4)):
        cols = rng.normal(size=(basis.size, 6))
        cols /= np.linalg.norm(cols, axis=0)
        np.testing.assert_allclose(
            schmidt_spectrum(cols, basis),
            schmidt_spectrum(cols.astype(np.complex128), basis),
            rtol=0, atol=1e-14)


@pytest.mark.parametrize("L, family", [(8, (0, 0, "+")), (8, (0, 1, "-")),
                                       (10, (0, 0, "+")), (12, (0, 1, "-"))])
def test_columns_and_rows_bitwise_equal_loop_oracles(L, family):
    spec = chiral_spectrum(L, family)
    vec = spec.vectors
    rng = np.random.default_rng(L)
    order = np.concatenate([np.arange(spec.size), rng.permutation(spec.size),
                            [3, 3, 0]])
    for indices in (order, order[:1], order[:0]):
        assert vec.columns(indices).tobytes() == \
            chiral_oracles.columns(vec, indices).tobytes()
        assert vec.rows(indices).tobytes() == \
            chiral_oracles.rows(vec, indices).tobytes()
    for a in (0, spec.size - 1, *spec.zero_indices[:1]):
        assert vec.columns([a])[:, 0].tobytes() == \
            chiral_oracles.column(vec, a).tobytes()
    assert vec.rows([5])[0].tobytes() == \
        chiral_oracles.rows(vec, [5])[0].tobytes()
