"""Diagonalization routes, folding, kernel extraction, level statistics."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarkit.dynamics import exact_drive
from scarkit.errors import CapabilityError, DomainError
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import (CSRMatrix, ModelParams,
                                 build_effective_general,
                                 build_effective_resonant)
from scarkit.observables import entropy_profile
from scarkit.resonance import resonant_family
from scarkit.spectral import (ZERO_MODE_RTOL, ChiralPairVectors, DenseVectors,
                              dense_spectrum, diagonalize, fold_quasienergy,
                              gap_ratio_stats, mirror_asymmetry, zero_modes)

FAMILY = resonant_family(0, 0, "+")
PARAMS = FAMILY.params(g=50.0, u=0.5)


def resonant_spectrum(L):
    basis = SectorBasis(L, L // 2)
    return diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))


def test_fold_half_open_interval():
    assert fold_quasienergy(0.0, 2.0) == 0.0
    assert fold_quasienergy(1.0, 2.0) == -1.0   # upper edge wraps to the lower
    assert fold_quasienergy(-1.0, 2.0) == -1.0
    assert fold_quasienergy(3.0, 2.0) == -1.0
    assert fold_quasienergy(0.9, 2.0) == pytest.approx(0.9)
    assert fold_quasienergy(2.0, 2.0) == 0.0


@given(st.floats(-1e4, 1e4), st.floats(0.1, 100.0))
@settings(max_examples=200, deadline=None)
def test_fold_is_idempotent_and_periodic(e, omega):
    f = fold_quasienergy(e, omega)
    assert -omega / 2 <= f < omega / 2
    assert fold_quasienergy(f, omega) == pytest.approx(f, abs=1e-12)
    assert fold_quasienergy(e + 3 * omega, omega) == pytest.approx(f, abs=1e-9)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_chiral_route_matches_dense_eigh(L):
    spec = resonant_spectrum(L)
    basis = SectorBasis(L, L // 2)
    A = build_effective_resonant(basis, PARAMS, 0, 0, "+").toarray()
    vals = np.linalg.eigvalsh(A)
    assert np.allclose(np.sort(spec.quasienergies), np.sort(vals), atol=1e-12)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_eigenpairs_reconstruct(L):
    spec = resonant_spectrum(L)
    basis = SectorBasis(L, L // 2)
    A = build_effective_resonant(basis, PARAMS, 0, 0, "+").toarray()
    V = spec.vectors.columns(np.arange(spec.size))
    resid = A @ V - V * spec.quasienergies[None, :]
    assert np.max(np.abs(resid)) < 1e-12
    # orthonormality
    gram = V.conj().T @ V
    assert np.max(np.abs(gram - np.eye(spec.size))) < 1e-12


def test_vector_views_agree():
    spec = resonant_spectrum(6)
    V = spec.vectors.columns(np.arange(spec.size))
    assert np.allclose(spec.vectors.columns([3])[:, 0], V[:, 3], atol=0)
    assert np.allclose(spec.vectors.rows([5])[0], V[5, :], atol=0)
    assert np.allclose(spec.vectors.columns([1, 4, 7]), V[:, [1, 4, 7]], atol=0)


def test_propagate_matches_direct_exponential():
    spec = resonant_spectrum(6)
    basis = SectorBasis(6, 3)
    A = build_effective_resonant(basis, PARAMS, 0, 0, "+").toarray()
    rng = np.random.default_rng(3)
    psi0 = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    psi0 /= np.linalg.norm(psi0)
    T = PARAMS.T
    ks = np.array([0, 1, 7, 40])
    out = spec.propagate(psi0, ks)
    vals, V = np.linalg.eigh(A)
    for i, k in enumerate(ks):
        direct = (V * np.exp(-1j * vals * k * T)) @ (V.conj().T @ psi0)
        assert np.max(np.abs(out[:, i] - direct)) < 1e-11


def test_propagation_is_unitary_and_periodic_at_zero():
    spec = resonant_spectrum(8)
    psi0 = np.zeros(spec.size, dtype=np.complex128)
    psi0[0] = 1.0
    out = spec.propagate(psi0, [0, 13, 200])
    norms = np.linalg.norm(out, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-10)
    assert np.allclose(out[:, 0], psi0, atol=1e-12)


def test_propagate_refuses_a_block_over_the_budget(monkeypatch):
    from scarkit import spectral
    spec = resonant_spectrum(6)
    psi0 = np.zeros(spec.size)
    psi0[0] = 1.0
    monkeypatch.setattr(spectral, "STATE_BLOCK_BYTES", spec.size * 3 * 16)
    assert spec.propagate(psi0, np.arange(3)).shape == (spec.size, 3)

    def no_blocks(*args, **kw):
        raise AssertionError("states were evolved before the refusal")

    monkeypatch.setattr(spectral.Spectrum, "blocks", no_blocks)
    with pytest.raises(CapabilityError, match="4 states of dimension 20 "
                       "exceeds the state-block budget"):
        spec.propagate(psi0, np.arange(4))


@pytest.mark.parametrize("L,count", [(4, 2), (6, 0), (8, 6), (10, 0), (12, 20)])
def test_zero_mode_counts(L, count):
    spec = resonant_spectrum(L)
    assert len(spec.zero_indices) == count
    assert len(zero_modes(spec)) == count


def test_spectrum_carries_its_hamiltonian_period_and_tolerance():
    basis = SectorBasis(8, 4)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    spec = diagonalize(ham)
    assert spec.ham is ham and spec.basis is basis
    assert spec.period == 2.0 * np.pi / PARAMS.omega     # bitwise
    # chiral route: the rank cut on the singular values, s_max = max |level|
    s_max = float(np.max(np.abs(np.linalg.eigvalsh(ham.toarray()))))
    assert spec.zero_tol == pytest.approx(ZERO_MODE_RTOL * s_max, rel=1e-12)
    general = diagonalize(build_effective_general(basis, PARAMS))
    assert general.zero_tol == \
        ZERO_MODE_RTOL * float(np.max(np.abs(general.quasienergies)))


def _kernel_cases():
    """(route, spectrum, the route's former kernel columns): chiral routes
    compared exact zeros, the dense and Floquet routes |level| < zero_tol."""
    for L, fam, g in [(8, (0, 0, "+"), 50.0), (12, (0, 0, "+"), 50.0),
                      (8, (0, 1, "-"), 21.0), (12, (0, 1, "-"), 21.0),
                      (10, (0, 0, "+"), 1.0)]:      # g = 1: levels wrap
        params = resonant_family(*fam).params(g=g, u=0.5)
        spec = diagonalize(build_effective_resonant(
            SectorBasis(L, L // 2), params, *fam))
        yield "chiral", spec, np.flatnonzero(spec.quasienergies == 0.0)
    basis = SectorBasis(8, 4)
    raw = diagonalize(build_effective_general(basis, PARAMS))
    floquet = exact_drive(basis, FAMILY.params(g=15.0, u=0.5))
    for route, spec in (("dense", raw), ("floquet", floquet)):
        yield route, spec, np.flatnonzero(np.abs(spec.quasienergies)
                                          < spec.zero_tol)


def test_kernel_is_every_level_within_the_tolerance_on_every_route():
    for route, spec, former in _kernel_cases():
        assert isinstance(spec.vectors, ChiralPairVectors if route == "chiral"
                          else DenseVectors)
        levels = np.abs(spec.quasienergies)
        np.testing.assert_array_equal(spec.zero_indices,
                                      np.flatnonzero(levels <= spec.zero_tol))
        np.testing.assert_array_equal(np.flatnonzero(spec.is_zero),
                                      spec.zero_indices)
        np.testing.assert_array_equal(spec.zero_indices, former)
        tighter = dataclasses.replace(spec, zero_tol=0.0)
        np.testing.assert_array_equal(tighter.zero_indices,
                                      np.flatnonzero(levels == 0.0))


def test_zero_modes_warns_when_a_kept_level_is_near_the_tolerance():
    spec = resonant_spectrum(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zero_modes(spec) is spec.zero_indices
    kept = np.abs(np.delete(spec.quasienergies, spec.zero_indices)).min()
    close = dataclasses.replace(spec, zero_tol=kept / 5)
    with pytest.warns(UserWarning, match="tolerance-sensitive"):
        assert np.array_equal(zero_modes(close), spec.zero_indices)
    far = dataclasses.replace(spec, zero_tol=kept / 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero_modes(far)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_mirror_symmetry_at_resonance(L):
    assert mirror_asymmetry(resonant_spectrum(L)) < 1e-10


@pytest.mark.parametrize("L", [4, 8, 12])
def test_kernel_confined_to_larger_parity_sector(L):
    spec = resonant_spectrum(L)
    basis = SectorBasis(L, L // 2)
    split = basis.chiral_split()
    K = spec.kernel_matrix()
    smaller = basis.parities == (1 if split.n_plus < split.n_minus else -1)
    assert np.max(np.abs(K[smaller, :])) < 1e-9
    # and the kernel has full column rank within the larger sector
    s = np.linalg.svd(K[~smaller, :], compute_uv=False)
    assert s[-1] > 1e-9


def test_kernel_vectors_annihilated():
    spec = resonant_spectrum(8)
    basis = SectorBasis(8, 4)
    A = build_effective_resonant(basis, PARAMS, 0, 0, "+").toarray()
    K = spec.kernel_matrix()
    assert np.max(np.abs(A @ K)) < 1e-12


def test_weight_rows_sum_to_one():
    spec = resonant_spectrum(8)
    for n in (0, 17, 42):
        w = spec.weight_row(n)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert (w >= 0).all()


def test_sector_weights_partition():
    spec = resonant_spectrum(8)
    basis = SectorBasis(8, 4)
    plus = spec.vectors.sector_weight(basis.parities == 1)
    minus = spec.vectors.sector_weight(basis.parities == -1)
    assert np.allclose(plus + minus, 1.0, atol=1e-10)
    # nonzero modes split their weight equally between the parity sectors
    nz = np.setdiff1d(np.arange(spec.size), spec.zero_indices)
    assert np.allclose(plus[nz], 0.5, atol=1e-9)


def test_phase_convention_largest_component_positive():
    spec = resonant_spectrum(6)
    V = spec.vectors.columns(np.arange(spec.size))
    for a in range(spec.size):
        lead = V[np.argmax(np.abs(V[:, a])), a]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_general_route_produces_dense_vectors():
    basis = SectorBasis(6, 3)
    p = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    spec = diagonalize(build_effective_general(basis, p))
    assert spec.ham.kind == "effective_general"
    A = build_effective_general(basis, p).toarray()
    V = spec.vectors.columns(np.arange(spec.size))
    resid = A @ V - V * spec.quasienergies[None, :]
    assert np.max(np.abs(resid)) < 1e-11


def test_dense_route_keeps_one_permuted_copy():
    # eigh's V, its column-permuted copy (phase-fixed in place) and the real
    # |V| the pivots read: 2.5 complex D^2 arrays at the traced peak
    basis = SectorBasis(12, 6)
    ham = build_effective_general(
        basis, ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0))
    diagonalize(build_effective_general(SectorBasis(4, 2), ham.params))
    tracemalloc.start()
    try:
        diagonalize(ham)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 16 * basis.size ** 2, peak / (16 * basis.size ** 2)


def test_capability_refusal_above_threshold():
    basis = SectorBasis(6, 3)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    with pytest.raises(CapabilityError):
        diagonalize(ham, dense_threshold=10)


def test_chiral_route_is_picked_by_the_stored_phase():
    basis = SectorBasis(4, 2)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    relabelled = dataclasses.replace(ham, kind="hand_built")
    assert isinstance(diagonalize(relabelled).vectors, ChiralPairVectors)
    # a purely imaginary matrix that couples two even-parity states
    a, b = np.flatnonzero(basis.parities == 1)[:2]
    indptr = np.zeros(basis.size + 1, dtype=np.int32)
    indptr[a + 1:] += 1
    indptr[b + 1:] += 1
    m = CSRMatrix(np.array([1.0, -1.0]), np.array([b, a], dtype=np.int32),
                  indptr, (basis.size, basis.size), phase=1j)
    np.testing.assert_array_equal(m.toarray(), m.toarray().conj().T)
    with pytest.raises(DomainError, match="couples equal-parity states"):
        diagonalize(dataclasses.replace(ham, matrix=m))


@pytest.mark.parametrize("L, N", [(1, 0), (1, 1), (3, 0), (4, 0), (4, 4)])
def test_one_state_sector_views_match_the_dense_route(L, N):
    # one parity block is empty, so every column lacks one factor part
    ham = build_effective_resonant(SectorBasis(L, N), PARAMS, 0, 0, "+")
    spec = diagonalize(ham)
    dense = dense_spectrum(*np.linalg.eigh(ham.toarray()), ham)
    vec, ref = spec.vectors, dense.vectors
    assert isinstance(vec, ChiralPairVectors) and vec.rank == 0
    assert min(vec.n_plus, vec.n_minus) == 0
    a = np.arange(spec.size)
    np.testing.assert_array_equal(spec.quasienergies, dense.quasienergies)
    # H = 0: both routes' tolerances are 0, and the one level is kernel
    np.testing.assert_array_equal(dense.zero_indices, [0])
    np.testing.assert_array_equal(vec.columns(a), ref.columns(a))
    np.testing.assert_array_equal(vec.rows(a), ref.rows(a))
    np.testing.assert_array_equal(vec.real_columns(a), ref.columns(a).real)
    # H = 0, so the chiral route puts the one state in the kernel
    np.testing.assert_array_equal(spec.zero_indices, [0])
    np.testing.assert_array_equal(spec.kernel_matrix(), ref.columns([0]))
    for mask in (spec.basis.parities == 1, spec.basis.parities == -1):
        np.testing.assert_array_equal(vec.sector_weight(mask),
                                      ref.sector_weight(mask))
    for psi0 in (np.ones(1), np.array([0.6 + 0.8j])):
        np.testing.assert_array_equal(vec.coefficients(psi0),
                                      ref.coefficients(psi0))
        np.testing.assert_array_equal(
            np.hstack(list(spec.blocks(psi0, [0, 1, 5], 2))),
            np.hstack(list(dense.blocks(psi0, [0, 1, 5], 2))))
    if L < 2:                  # no half-chain cut: both routes refuse
        for s in (spec, dense):
            with pytest.raises(DomainError, match="cut"):
                entropy_profile(s)
    else:
        np.testing.assert_array_equal(entropy_profile(spec),
                                      entropy_profile(dense))


def test_gap_ratio_statistics_manual_oracle():
    spec = resonant_spectrum(8)
    pos = np.sort(spec.quasienergies[spec.quasienergies > 1e-12])
    gaps = np.diff(pos)
    keep = gaps > 1e-12
    g = gaps[keep]
    r = np.minimum(g[1:], g[:-1]) / np.maximum(g[1:], g[:-1])
    stats = gap_ratio_stats(spec)
    assert stats.mean_r == pytest.approx(float(r.mean()), abs=1e-12)
    assert stats.n_ratios == len(r)
