"""Entanglement, information entropy, kernel projections, overlap tables."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import hop_oracles
from scarkit import observables
from scarkit.errors import DomainError
from scarkit.fock_basis import FockState, SectorBasis, pinnacle_state
from scarkit.hamiltonian import build_effective_resonant
from scarkit.observables import (SCHMIDT_FLOOR, StateVector, coe_ie_reference,
                                 entanglement_entropy, entropy_profile,
                                 fock_vector, overlap_table, page_entropy,
                                 plogp, scar_state, schmidt_entropies,
                                 schmidt_spectrum, shannon_entropies,
                                 shannon_entropy, zero_projection)
from scarkit.resonance import resonant_family
from scarkit.spectral import diagonalize

PARAMS = resonant_family(0, 0, "+").params(g=50.0, u=0.5)


def dense_entropy_oracle(amplitudes, basis):
    """Half-chain EE via embedding into the full 2^L lattice space and one
    big SVD."""
    L, cut = basis.L, basis.L // 2
    full = np.zeros(2 ** L, dtype=np.complex128)
    for i, bits in enumerate(basis.states):
        full[int(bits)] = amplitudes[i]
    block = full.reshape(2 ** cut, 2 ** (L - cut))
    lam = scipy.linalg.svdvals(block) ** 2
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log(lam)).sum())


@pytest.mark.parametrize("L", [3, 4, 6, 7, 8, 9])
def test_entropy_matches_dense_reshape_oracle(L):
    # odd L cuts unevenly, (L - 1)/2 | (L + 1)/2 sites
    basis = SectorBasis(L, L // 2)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    mine = entanglement_entropy(StateVector(amps, basis))
    assert mine == pytest.approx(dense_entropy_oracle(amps, basis), abs=1e-10)


def test_schmidt_spectrum_is_a_distribution():
    basis = SectorBasis(8, 4)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    (lam,) = schmidt_spectrum(amps[:, None], basis)
    assert (lam >= -1e-14).all()
    assert lam.sum() == pytest.approx(1.0, abs=1e-10)


def test_fock_state_is_unentangled():
    basis = SectorBasis(6, 3)
    sv = fock_vector(basis, FockState.from_string("101010"))
    assert entanglement_entropy(sv) == pytest.approx(0.0, abs=1e-12)
    assert shannon_entropy(sv) == pytest.approx(0.0, abs=1e-12)


def test_two_term_superposition_gives_ln2():
    basis = SectorBasis(4, 2)
    a = basis.index_of(FockState.from_string("1100"))
    b = basis.index_of(FockState.from_string("0011"))
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[a] = amps[b] = 1.0 / math.sqrt(2.0)
    sv = StateVector(amps, basis)
    assert entanglement_entropy(sv) == pytest.approx(math.log(2), abs=1e-12)
    assert shannon_entropy(sv) == pytest.approx(math.log(2), abs=1e-12)


def test_uniform_state_maximizes_information_entropy():
    basis = SectorBasis(6, 3)
    amps = np.full(basis.size, 1.0 / math.sqrt(basis.size), dtype=np.complex128)
    assert shannon_entropy(StateVector(amps, basis)) == pytest.approx(
        math.log(basis.size), abs=1e-12)


def test_entropy_profile_matches_columns(monkeypatch):
    basis = SectorBasis(6, 3)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    monkeypatch.setattr(observables, "PROFILE_BATCH", 7)
    prof = entropy_profile(spec)
    for a in (0, 5, 13, 19):
        sv = StateVector(spec.vectors.columns([a])[:, 0], basis)
        assert prof[a] == pytest.approx(entanglement_entropy(sv), abs=1e-10)


@pytest.mark.parametrize("route", ["chiral", "dense"])
def test_eigenstate_measures_match_per_column_values(monkeypatch, route):
    from scarkit.hamiltonian import build_effective_general
    from scarkit.observables import eigenstate_measures
    basis = SectorBasis(8, 4)
    ham = (build_effective_resonant(basis, PARAMS, 0, 0, "+")
           if route == "chiral" else build_effective_general(basis, PARAMS))
    spec = diagonalize(ham)
    monkeypatch.setattr(observables, "PROFILE_BATCH", 7)
    ee, ie = eigenstate_measures(
        spec, [lambda c: schmidt_entropies(c, basis), shannon_entropies])
    for a in range(spec.size):
        sv = StateVector(spec.vectors.columns([a])[:, 0], basis)
        assert ie[a] == shannon_entropy(sv)     # bit for bit, pair or not
        assert ee[a] == pytest.approx(entanglement_entropy(sv), abs=1e-10)
    subset = [9, 2, 9, 60]
    ee_sub, ie_sub = eigenstate_measures(
        spec, [lambda c: schmidt_entropies(c, basis), shannon_entropies],
        subset)
    assert ee_sub.tolist() == ee[subset].tolist()
    assert ie_sub.tolist() == ie[subset].tolist()


def test_reference_entropies():
    assert page_entropy(16) == pytest.approx(8 * math.log(2) - 0.5)
    assert coe_ie_reference(12870) == pytest.approx(math.log(0.48 * 12870))
    with pytest.raises(DomainError):
        coe_ie_reference(0)


def test_zero_projection_against_null_space():
    basis = SectorBasis(8, 4)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    spec = diagonalize(ham)
    kernel = scipy.linalg.null_space(ham.toarray(), rcond=1e-9)
    tp = pinnacle_state(8)
    e = np.zeros(basis.size)
    e[basis.index_of(tp)] = 1.0
    independent = float(np.linalg.norm(kernel.conj().T @ e) ** 2)
    assert zero_projection(tp, spec) == pytest.approx(independent, abs=1e-12)
    # frozen regression value for the standard working point
    assert zero_projection(tp, spec) == pytest.approx(0.864697902101752,
                                                      abs=1e-12)


def test_scar_state_geometry():
    basis = SectorBasis(8, 4)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    spec = diagonalize(ham)
    tp = pinnacle_state(8)
    s0 = scar_state(spec, tp)
    assert np.linalg.norm(s0.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # the kernel annihilates its own projection
    assert np.max(np.abs(ham.matrix @ s0.amplitudes)) < 1e-12
    # overlap with the seed is the square root of the projection, phase-fixed
    ov = s0.amplitudes[basis.index_of(tp)]
    assert ov.imag == pytest.approx(0.0, abs=1e-14)
    assert ov.real == pytest.approx(math.sqrt(zero_projection(tp, spec)),
                                    abs=1e-12)


def test_scar_state_needs_kernel_weight():
    basis = SectorBasis(6, 3)  # odd N: empty kernel
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    with pytest.raises(DomainError):
        scar_state(spec, pinnacle_state(6))


def test_overlap_table_weights():
    basis = SectorBasis(8, 4)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    table = overlap_table(spec, pinnacle_state(8))
    eps, w = table[:, 0], table[:, 1]
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert (np.diff(eps) > 0).all()
    # mirror symmetry of the weight function for a Fock initial state
    pos = eps > 1e-12
    neg = eps < -1e-12
    np.testing.assert_allclose(np.sort(eps[pos]), np.sort(-eps[neg]),
                               atol=1e-9)
    np.testing.assert_allclose(w[pos][np.argsort(eps[pos])],
                               w[neg][np.argsort(-eps[neg])], atol=1e-10)


def test_int_state_is_a_bit_word_everywhere():
    # 0b11110000 = 240 lies past the last basis index (dim 70): an int read as
    # a basis position would raise or pick another state
    basis = SectorBasis(8, 4)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    tp = pinnacle_state(8)
    assert tp.bits == 240 and basis.size == 70
    assert zero_projection(tp.bits, spec) == zero_projection(tp, spec)
    assert np.array_equal(scar_state(spec, tp.bits).amplitudes,
                          scar_state(spec, tp).amplitudes)
    assert np.array_equal(overlap_table(spec, tp.bits),
                          overlap_table(spec, tp))
    assert np.array_equal(fock_vector(basis, tp.bits).amplitudes,
                          fock_vector(basis, tp).amplitudes)
    # a small word is not taken as the position of the same number
    word = int(basis.states[3])
    assert zero_projection(word, spec) == zero_projection(basis.state(3), spec)


def test_overlap_table_aggregation_reduces_rows():
    basis = SectorBasis(8, 4)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    tp = pinnacle_state(8)
    fine = spec.weight_row(basis.index_of(tp))      # one weight per eigenstate
    coarse = overlap_table(spec, tp)
    assert len(coarse) < len(fine)                  # the kernel is one row
    assert coarse[:, 1].sum() == pytest.approx(fine.sum(), abs=1e-12)


@given(st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_projection_bounded(N):
    basis = SectorBasis(2 * N, N)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    p = zero_projection(basis.state(basis.size // 2), spec)
    assert -1e-12 <= p <= 1.0 + 1e-12


# plogp replaced scipy.special.xlogy(p, p); xlogy stays the oracle.  The two
# may differ in the last ulp of a term (different log implementations).
PLOGP_ATOL = 1e-15


@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), max_size=64))
@settings(max_examples=300, deadline=None)
def test_plogp_matches_xlogy_with_exact_zeros(values):
    p = np.asarray(values, dtype=np.float64)
    got = plogp(p)
    assert got.shape == p.shape
    np.testing.assert_allclose(got, xlogy(p, p), rtol=0, atol=PLOGP_ATOL)
    assert np.array_equal(got[p == 0], np.zeros(int((p == 0).sum())))
    assert not np.signbit(got[p == 0]).any()


def test_plogp_at_the_schmidt_floor():
    below = np.nextafter(SCHMIDT_FLOOR, 0.0)
    above = np.nextafter(SCHMIDT_FLOOR, 1.0)
    p = np.array([0.0, below, SCHMIDT_FLOOR, above, 1.0])
    np.testing.assert_allclose(plogp(p), xlogy(p, p), rtol=0, atol=PLOGP_ATOL)
    assert plogp(p)[-1] == 0.0


def xlogy_entropies(columns, basis):
    """The xlogy formula `schmidt_entropies` used before plogp."""
    out = []
    for lam in schmidt_spectrum(columns, basis):
        lam = lam[lam >= SCHMIDT_FLOOR]
        out.append(-xlogy(lam, lam).sum())
    return np.array(out)


@pytest.mark.parametrize("L", [8, 12])
def test_schmidt_entropies_match_xlogy_formula(L):
    basis = SectorBasis(L, L // 2)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    rng = np.random.default_rng(L)
    picks = np.concatenate([spec.zero_indices[:8],
                            rng.choice(spec.size, size=24, replace=False)])
    random = rng.normal(size=(basis.size, 4)) + 1j * rng.normal(size=(basis.size, 4))
    random /= np.linalg.norm(random, axis=0)
    for cols in (spec.vectors.columns(picks), random,
                 np.eye(basis.size)[:, :6]):
        np.testing.assert_allclose(schmidt_entropies(cols, basis),
                                   xlogy_entropies(cols, basis),
                                   rtol=0, atol=PLOGP_ATOL)


@pytest.mark.parametrize("L", [8, 12])
def test_shannon_entropy_matches_xlogy_formula(L):
    basis = SectorBasis(L, L // 2)
    spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
    states = [fock_vector(basis, pinnacle_state(L))]
    states += [StateVector(c, basis) for c in
               spec.vectors.columns(np.arange(0, spec.size, 7)).T]
    for sv in states:
        p = np.abs(sv.amplitudes) ** 2
        assert shannon_entropy(sv) == pytest.approx(-xlogy(p, p).sum(),
                                                    rel=0, abs=PLOGP_ATOL)


@pytest.mark.parametrize("L", [8, 12, 16])
def test_blocked_shannon_entropies_equal_per_column_values(L):
    # the per-column StateVector loop `scar --per-state` ran before is the
    # oracle; summing each column contiguously keeps the values bitwise.
    # L = 16 (dim 12870) runs past numpy's 8192-element reduction buffer.
    basis = SectorBasis(L, L // 2)
    if L <= 12:
        spec = diagonalize(build_effective_resonant(basis, PARAMS, 0, 0, "+"))
        cols = spec.vectors.columns(np.arange(0, spec.size, 3))
    else:
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(basis.size, 24)) + 1j * rng.normal(
            size=(basis.size, 24))
        cols /= np.linalg.norm(cols, axis=0)
    expected = [shannon_entropy(StateVector(c, basis)) for c in cols.T]
    assert shannon_entropies(cols).tolist() == expected
    assert shannon_entropies(cols[:, :1]).tolist() == expected[:1]
    assert shannon_entropies(cols[:, 0]) == expected[0]


def test_shannon_entropies_check_every_column_norm():
    basis = SectorBasis(6, 3)
    cols = np.eye(basis.size)[:, :5]
    assert shannon_entropies(cols).tolist() == [0.0] * 5
    cols[3, 3] = 1.0 + 1e-9
    with pytest.raises(DomainError, match="state norm"):
        shannon_entropies(cols)
    with pytest.raises(DomainError, match="state norm"):
        shannon_entropy(StateVector(cols[:, 3], basis))


@st.composite
def sectors(draw):
    L = draw(st.integers(2, 14))
    return L, draw(st.integers(0, L))


@given(sectors())
@example((14, 7)).via("the largest half-filled sector")
@example((13, 6)).via("an uneven cut")
@example((6, 0)).via("empty chain")
@example((6, 6)).via("full chain")
@settings(max_examples=60, deadline=None)
def test_cut_layout_matches_per_state_rank_oracle(LN):
    L, N = LN
    order, shapes = observables._cut_layout(L, N)
    expected, expected_shapes = hop_oracles.cut_layout(L, N, L // 2)
    assert shapes == expected_shapes
    assert order.dtype == expected.dtype
    assert order.tobytes() == expected.tobytes()


@st.composite
def schmidt_inputs(draw):
    """(amplitudes, basis): L <= 12, any N, real or complex (dim, n) blocks
    with n >= 0."""
    L = draw(st.integers(2, 12))
    basis = SectorBasis(L, draw(st.integers(0, L)))
    shape = (basis.size, draw(st.integers(0, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=shape)
    if draw(st.booleans()):
        amps = amps + 1j * rng.normal(size=shape)
    return amps, basis


@given(schmidt_inputs())
@example((np.zeros((70, 0)), SectorBasis(8, 4))).via("an empty block")
@example((np.ones((35, 1), dtype=np.complex128), SectorBasis(7, 3))).via(
    "complex, uneven cut")
@settings(max_examples=200, deadline=None)
def test_schmidt_spectrum_bytes_equal_the_scatter_oracle(case):
    amps, basis = case
    got = schmidt_spectrum(amps, basis)
    want = hop_oracles.schmidt_spectrum_scatter(amps, basis, basis.L // 2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_schmidt_spectrum_peak_is_bounded_by_its_input(spectrum_cache):
    # the L = 14 half-chain blocks of a real (3432, 256) batch are slices of
    # the input: the traced peak stays within the input's bytes
    spec = spectrum_cache(14)
    cols = spec.vectors.real_columns(np.arange(256))
    schmidt_spectrum(cols[:, :1], spec.basis)       # cached layout, imports
    tracemalloc.start()
    try:
        schmidt_spectrum(cols, spec.basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cols.nbytes, peak / cols.nbytes
