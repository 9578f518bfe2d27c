"""Operator construction against independent small-system oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hop_oracles
from scarkit import hamiltonian
from scarkit.errors import DomainError
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import (HOP_CLASSES, ModelParams,
                                 amplitudes_general, build_effective_general,
                                 build_effective_resonant, build_half_period,
                                 build_hop, build_onsite, hop_moves,
                                 resonant_amplitudes)
from scarkit.resonance import resonant_family
from scarkit.spectral import fold_quasienergy

PARAMS = ModelParams(g=7.0, U=11.0, u=0.5, omega=5.0)

param_values = st.builds(
    ModelParams,
    g=st.floats(0.5, 100, allow_nan=False),
    U=st.floats(0.5, 100, allow_nan=False),
    u=st.floats(0, 2, allow_nan=False),
    omega=st.floats(0.5, 100, allow_nan=False),
)


def fermion_hop_oracle(basis: SectorBasis) -> np.ndarray:
    """Dense hop matrix (J = 1) built from creation/annihilation string
    arithmetic.

    Tracks the full anticommutation string between the two bond sites, which
    for nearest neighbours is always empty; this independently confirms the
    builders may drop fermionic signs.
    """
    D, L = basis.size, basis.L
    H = np.zeros((D, D))
    words = {basis.state(i).to_string(): i for i in range(D)}
    for word, a in words.items():
        occ = [int(c) for c in word]
        for j in range(L - 1):
            if occ[j] == 1 and occ[j + 1] == 0:
                string = (-1) ** sum(occ[j + 1:j + 1])  # sites strictly between
                moved = word[:j] + "01" + word[j + 2:]
                b = words[moved]
                H[b, a] += string
                H[a, b] += string
    return H


def onsite_energy(word: str, params: ModelParams) -> float:
    """The `build_onsite` diagonal entry of one occupation word."""
    basis = SectorBasis(len(word), word.count("1"))
    return build_onsite(basis, params).toarray().diagonal()[basis.index_of(word)]


def hops_of(word: str, params: ModelParams = PARAMS) -> dict:
    """Every hop of `word` from `hop_moves`, as {moved word: (class, |dE|)}.

    |dE| is the change of the `build_onsite` diagonal across the hop.
    """
    basis = SectorBasis(len(word), word.count("1"))
    src, dst, cls = hop_moves(basis)
    energy = build_onsite(basis, params).toarray().diagonal()
    a = basis.index_of(word)
    out = {}
    for s, d, c in zip(src.tolist(), dst.tolist(), cls.tolist()):
        if a in (s, d):
            b = d if s == a else s
            out[basis.state(b).to_string()] = (HOP_CLASSES[c],
                                               abs(energy[b] - energy[a]))
    return out


def test_onsite_energy_small_cases():
    p = ModelParams(g=3.0, U=5.0, u=0.5, omega=2.0)
    # |1100>: one adjacent pair, dipole 1+2=3
    assert onsite_energy("1100", p) == 5.0 - 9.0
    # |1010>: no pairs, dipole 1+3=4
    assert onsite_energy("1010", p) == -12.0
    # |0111>: two pairs, dipole 2+3+4=9
    assert onsite_energy("0111", p) == 10.0 - 27.0


def test_hop_classification_neighbour_rules():
    # 0(10)1 -> barrier |g-U|
    kind, barrier = hops_of("0101")["0011"]
    assert kind == "g-U" and barrier == pytest.approx(4.0)
    # 0(10)0 -> bare tilt barrier g
    kind, barrier = hops_of("0100")["0010"]
    assert kind == "g" and barrier == pytest.approx(7.0)
    # 1(10)0 -> barrier g+U
    kind, barrier = hops_of("1100")["1010"]
    assert kind == "g+U" and barrier == pytest.approx(18.0)
    # blocked bonds 1 and 3 give no hop
    assert set(hops_of("1100")) == {"1010"}


def test_hop_classification_open_ends_count_empty():
    # leftmost bond: virtual site 0 empty -> class set by site 3 only
    assert hops_of("1010")["0110"][0] == "g-U"
    assert hops_of("1000")["0100"][0] == "g"


@given(st.integers(4, 7).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(1, L - 1))))
@settings(max_examples=30, deadline=None)
def test_signed_delta_matches_barrier(LN):
    # the barrier is the magnitude of the onsite energy change of the hop
    L, N = LN
    basis = SectorBasis(L, N)
    src, dst, cls = hop_moves(basis)
    energy = build_onsite(basis, PARAMS).toarray().diagonal()
    barriers = np.array([abs(PARAMS.g - PARAMS.U), PARAMS.g,
                         PARAMS.g + PARAMS.U])
    assert len(src) > 0
    np.testing.assert_allclose(np.abs(energy[dst] - energy[src]),
                               barriers[cls], rtol=1e-12)


@pytest.mark.parametrize("L,N", [(4, 2), (5, 2), (6, 3)])
def test_hop_matrix_matches_fermion_string_oracle(L, N):
    basis = SectorBasis(L, N)
    built = build_hop(basis, PARAMS).toarray()
    assert np.array_equal(built, fermion_hop_oracle(basis))


def test_half_period_combination():
    basis = SectorBasis(6, 3)
    on = build_onsite(basis, PARAMS).toarray()
    hop = build_hop(basis, PARAMS).toarray()
    h1 = build_half_period(basis, PARAMS, 1).toarray()
    h2 = build_half_period(basis, PARAMS, 2).toarray()
    assert np.allclose(h1, on + (1 - PARAMS.u) * hop, atol=1e-14)
    assert np.allclose(h2, on + (1 + PARAMS.u) * hop, atol=1e-14)
    # the drive averages away: (h1 + h2)/2 is the undriven Hamiltonian
    assert np.allclose((h1 + h2) / 2, on + hop, atol=1e-14)


def test_amplitude_at_zero_barrier_is_bare_J():
    p = ModelParams(g=5.0, U=5.0, u=0.7, omega=3.0)
    j1, _, _ = amplitudes_general(p)
    assert j1 == pytest.approx(1.0)


@given(param_values)
@settings(max_examples=80, deadline=None)
def test_general_amplitudes_bounded_by_J(p):
    # |average of J(1+u(t)) e^{i d t}| can never exceed J = 1 at u <= 1
    if p.u <= 1.0:
        for amp in amplitudes_general(p):
            assert abs(amp) <= 1.0 + 1e-12


def test_amplitudes_by_quadrature():
    # independent numerical average of J (1 + u(t)) e^{i delta t} over one period
    p = ModelParams(g=13.0, U=4.0, u=0.8, omega=7.0)
    t1 = np.linspace(0.0, p.T / 2, 20001)
    t2 = np.linspace(p.T / 2, p.T, 20001)
    for amp, delta in zip(amplitudes_general(p),
                          (p.g - p.U, p.g, p.g + p.U)):
        f1 = (1 - p.u) * np.exp(1j * delta * t1)
        f2 = (1 + p.u) * np.exp(1j * delta * t2)
        quad = (np.trapezoid(f1, t1) + np.trapezoid(f2, t2)) / p.T
        assert amp == pytest.approx(quad, abs=1e-8)


def test_resonant_amplitude_values():
    fam = resonant_family(0, 0, "+")
    p = fam.params(g=50.0, u=0.5)
    a1, a2, a3 = resonant_amplitudes(p, 0, 0, "+")
    assert a1 == pytest.approx(-1.0 / math.pi, rel=1e-14)
    assert a2 == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert a3 == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("k1,k2,branch", [(0, 0, "+"), (1, 0, "+"),
                                          (0, 1, "-"), (1, 2, "-")])
def test_general_reduces_to_resonant(k1, k2, branch):
    fam = resonant_family(k1, k2, branch)
    p = fam.params(g=float(5 * (2 * k2 + 1)), u=0.5)
    gen = amplitudes_general(p)
    res = resonant_amplitudes(p, k1, k2, branch)
    for jc, ac in zip(gen, res):
        assert jc == pytest.approx(-1j * ac, abs=1e-13)


def test_resonant_builder_rejects_wrong_parameters():
    basis = SectorBasis(4, 2)
    with pytest.raises(Exception):
        build_effective_resonant(basis, PARAMS, 0, 0, "+")


@pytest.mark.parametrize("family, match", [
    ((0, 0, "x"), "branch must be"), ((-1, 0, "+"), "non-negative"),
    ((1, 1, "-"), "needs k2 > k1"), ((1, 0, "+"), "resonance ratio"),
    ((0, 1, "+"), "resonance ratio")])
def test_resonant_amplitudes_refuse_other_family_members(family, match):
    p = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    with pytest.raises(DomainError, match=match):
        resonant_amplitudes(p, *family)
    # right U/g, wrong drive frequency
    off = ModelParams(g=p.g, U=p.U, u=p.u, omega=2.0 * p.omega)
    with pytest.raises(DomainError, match="g/omega"):
        resonant_amplitudes(off, 0, 0, "+")


def test_resonant_amplitudes_refuse_an_overflowing_drive():
    # 2 u overflows to inf, which -1j * amps would turn into NaN
    p = resonant_family(0, 0, "+").params(g=50.0, u=1e308)
    with pytest.raises(DomainError, match=r"drive amplitude u = 1e\+308"):
        resonant_amplitudes(p, 0, 0, "+")
    assert all(map(math.isfinite, resonant_amplitudes(
        resonant_family(0, 0, "+").params(g=50.0, u=1e307), 0, 0, "+")))


@pytest.mark.parametrize("name", ["g", "U", "u", "omega"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_model_params_refuse_non_finite_values(name, value):
    fields = {"g": 7.0, "U": 11.0, "u": 0.5, "omega": 5.0}
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        ModelParams(**{**fields, name: value})


def test_static_energies_refuse_an_overflow():
    # g and U are finite, but g * D overflows at L = 12 (D up to 57)
    params = resonant_family(0, 0, "+").params(g=1e307, u=0.5)
    basis = SectorBasis(12, 6)
    for build in (build_onsite, build_effective_general,
                  lambda b, p: build_half_period(b, p, 1)):
        with pytest.raises(DomainError, match=r"g = 1e\+307 and U = 2e\+307"):
            build(basis, params)
    assert np.isfinite(build_onsite(SectorBasis(6, 3), params).matrix.data).all()


def test_resonant_build_validates_the_family_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return resonant_family(*args)

    monkeypatch.setattr(hamiltonian, "resonant_family", counting)
    p = resonant_family(0, 1, "-").params(g=21.0, u=0.5)
    build_effective_resonant(SectorBasis(6, 3), p, 0, 1, "-")
    assert calls == [(0, 1, "-")]


@pytest.mark.parametrize("L", [4, 6, 8])
def test_resonant_matrix_structure(L):
    basis = SectorBasis(L, L // 2)
    p = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    m = build_effective_resonant(basis, p, 0, 0, "+").toarray()
    assert np.max(np.abs(m.real)) == 0.0
    assert np.max(np.abs(np.diag(m))) == 0.0
    assert np.allclose(m, m.conj().T, atol=0)
    # entry magnitudes only ever take the three class values
    mags = np.unique(np.abs(m[np.abs(m) > 0]))
    expected = sorted({abs(a) for a in resonant_amplitudes(p, 0, 0, "+")})
    assert np.allclose(mags, expected, rtol=1e-12)


def test_general_matches_resonant_at_family_point():
    basis = SectorBasis(8, 4)
    p = resonant_family(0, 0, "+").params(g=50.0, u=0.5)
    gen = build_effective_general(basis, p).toarray()
    res = build_effective_resonant(basis, p, 0, 0, "+").toarray()
    assert np.max(np.abs(gen - res)) < 1e-12


def test_general_diagonal_folds_to_zero_at_family_point():
    basis = SectorBasis(6, 3)
    p = resonant_family(0, 1, "-").params(g=3 * 7.0, u=0.5)
    gen = build_effective_general(basis, p).toarray()
    assert np.max(np.abs(np.diag(gen))) < 1e-9


def test_general_diagonal_is_folded_static_energy():
    basis = SectorBasis(4, 2)
    gen = build_effective_general(basis, PARAMS).toarray()
    for i, e in enumerate(hop_oracles._static_energies(basis, PARAMS)):
        assert np.real(gen[i, i]) == pytest.approx(
            fold_quasienergy(e, PARAMS.omega), abs=1e-12)


def test_params_validation():
    with pytest.raises(Exception):
        ModelParams(g=-1.0, U=1.0, u=0.5, omega=1.0)
    with pytest.raises(Exception):
        ModelParams(g=1.0, U=1.0, u=-0.5, omega=1.0)
