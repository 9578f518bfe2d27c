"""The chiral route's strip passes against their one-shot forms.

`spectral._pivots` takes |M| one strip of lines at a time,
`ChiralPairVectors.columns` fills its output one chunk of columns at a time,
and `chiral_svd` applies its Newton-Schulz step X <- X E in place, one
strip of rows at a time.  Each keeps only its live arrays; the first two
give the one-shot results bit for bit, the third to rounding, and bit for
bit where X is one strip.
"""

import tracemalloc

import numpy as np
import pytest

from scarkit import spectral
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import build_effective_resonant
from scarkit.resonance import resonant_family

import chiral_oracles as oracle

FAMILIES = [(0, 0, "+"), (0, 1, "-")]


def resonant_ham(L, family, N=None):
    params = resonant_family(*family).params(50.0, 0.5)
    basis = SectorBasis(L, L // 2 if N is None else N)
    return build_effective_resonant(basis, params, *family)


def full_pivots(M, axis):
    """The one-shot form: argmax over one full |M| copy."""
    idx = np.expand_dims(np.abs(M).argmax(axis=axis), axis)
    return np.take_along_axis(M, idx, axis=axis).squeeze(axis)


def one_shot_columns(vec, indices):
    """The one-shot form: each factor part gathered for every column."""
    a = np.asarray(indices, dtype=np.intp)
    out = np.empty((vec.n_states, len(a)), dtype=np.complex128)
    for (F, at), i, c in zip(vec._blocks, vec._index[:, a], vec._coef[:, a]):
        out[at] = spectral._gather(F, i, c != 0) * c
    return out


def tied(dtype, axis):
    """A 150 x 130 matrix whose every line along `axis` holds a planted
    tie for its largest magnitude, the two entries of opposite sign (real)
    or phase (complex), the later one first in no strip order."""
    rng = np.random.default_rng(11)
    M = rng.uniform(-1.0, 1.0, size=(150, 130))
    if dtype == np.complex128:
        M = M + 1j * rng.uniform(-1.0, 1.0, size=M.shape)
    lines = M.T if axis == 0 else M
    for n, line in enumerate(lines):
        i, j = sorted(rng.choice(len(line), size=2, replace=False))
        first = (-1.0) ** n * (1j if dtype == np.complex128 else 1.0)
        line[i], line[j] = 2.0 * first, -2.0 * first
    return M, lines


@pytest.mark.parametrize("strip", [1, 7, 64, 1000])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pivots_match_the_full_magnitude_copy(monkeypatch, dtype, axis, strip):
    monkeypatch.setattr(spectral, "_VIEW_STRIP", strip)
    M, lines = tied(dtype, axis)
    got = spectral._pivots(M, axis)
    assert got.dtype == M.dtype
    assert got.tobytes() == full_pivots(M, axis).tobytes()
    # each tie went to the lower index
    first = [line[np.flatnonzero(np.abs(line) == 2.0)[0]] for line in lines]
    assert got.tobytes() == np.array(first, dtype=M.dtype).tobytes()
    # a non-contiguous M gives the same pivots as its copy
    assert spectral._pivots(M[::2, ::3], axis).tobytes() == \
        full_pivots(M[::2, ::3], axis).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("L", [8, 12])
def test_columns_match_the_one_shot_gather(L, family):
    vec = spectral.diagonalize(resonant_ham(L, family)).vectors
    every = np.arange(vec.n_states)
    assert vec.n_states > spectral._VIEW_STRIP       # several chunks
    assert vec.columns(every).tobytes() == \
        one_shot_columns(vec, every).tobytes()
    picked = np.random.default_rng(2).choice(vec.n_states, size=150)
    assert vec.columns(picked).tobytes() == \
        one_shot_columns(vec, picked).tobytes()
    assert vec.columns([]).shape == (vec.n_states, 0)


@pytest.mark.parametrize("L, N", [(4, 0), (4, 4), (1, 0)])
def test_columns_match_the_one_shot_gather_on_one_state(L, N):
    vec = spectral.diagonalize(resonant_ham(L, (0, 0, "+"), N)).vectors
    assert vec.columns([0, 0]).tobytes() == \
        one_shot_columns(vec, [0, 0]).tobytes()


# L = 8: C is 38 x 32 (k = 32), L = 12: 452 x 472 (k = 452, C^T's Gram
# matrix), both one strip at the default height; L = 14: k = 1716, four
@pytest.mark.parametrize("L, family", [(8, (0, 0, "+")), (12, (0, 0, "+")),
                                       (12, (0, 1, "-")), (14, (0, 1, "-"))])
def test_strip_newton_schulz_matches_the_one_gemm_oracle(L, family):
    cut = spectral.chiral_block(resonant_ham(L, family))[2]
    got, want = spectral.chiral_svd(cut), oracle.gram_factors(cut())
    k = min(cut().shape)
    for a, b in zip(got, want):
        if k <= spectral._PRODUCT_STRIP:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.max(np.abs(a - b)) <= 1e-15


@pytest.mark.parametrize("strip", [1, 100, 451])
def test_strips_below_k_agree_with_the_one_gemm_oracle(monkeypatch, strip):
    monkeypatch.setattr(spectral, "_PRODUCT_STRIP", strip)
    cut = spectral.chiral_block(resonant_ham(12, (0, 0, "+")))[2]
    got, want = spectral.chiral_svd(cut), oracle.gram_factors(cut())
    # C is 452 x 472: U is the stepped X, V^T the Gram eigenvectors' W^T
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert got[0].tobytes() != want[0].tobytes()
    assert np.max(np.abs(got[0] - want[0])) <= 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_chiral_svd_holds_three_gram_sized_arrays(monkeypatch, family):
    # traced by tracemalloc: numpy's arrays, and so G (which becomes W), X,
    # C while a product reads it, |X|^2 inside the norm, E and one strip of
    # X E; LAPACK's syevd workspace (2 n^2 reals) is malloc'd inside
    # OpenBLAS and not traced.  The one-GEMM step held a fourth, X E.
    strip = 64
    monkeypatch.setattr(spectral, "_PRODUCT_STRIP", strip)
    cut = spectral.chiral_block(resonant_ham(12, family))[2]
    n, k = max(cut().shape), min(cut().shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        factors = spectral.chiral_svd(cut)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [f.shape for f in factors] != []
    assert peak <= 8 * (3 * n * n + strip * k) + 65536, peak / (8 * n * n)
