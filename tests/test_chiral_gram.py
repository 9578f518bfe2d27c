"""The chiral route's Gram `eigh` against the full SVD it replaced.

`spectral.chiral_svd` takes C's factors from one `eigh` of the larger
side's Gram matrix, and the full SVD only as a fallback; the kernel columns
then go through `canonical_kernel`.  The SVD stays here as the oracle
(`chiral_oracles.svd_factors`).
"""

import tracemalloc

import numpy as np
import pytest

from scarkit import spectral
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import build_effective_resonant
from scarkit.resonance import resonant_family

import chiral_oracles as oracle
from conftest import extended

FAMILIES = [(0, 0, "+"), (0, 1, "-")]


def resonant_ham(L, family):
    params = resonant_family(*family).params(50.0, 0.5)
    return build_effective_resonant(SectorBasis(L, L // 2), params, *family)


# L = 8: C is 38 x 32, kernel on the even side; L = 12: 452 x 472, kernel on
# the odd side (the Gram matrix of C^T); L = 14: square, no kernel, and the
# smallest lambda_k / lambda_0 seen (1.6e-9 for (0,1,-))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("L", [8, 12, 14])
def test_gram_factors_match_the_svd(L, family):
    ham = resonant_ham(L, family)
    vec = spectral.diagonalize(ham).vectors
    U, s, Vt, r = vec.Uf, vec.s, vec.Vt, vec.rank
    C = spectral.chiral_block(ham)[2]()
    U0, s0, Vt0 = oracle.svd_factors(C)
    assert U.shape == U0.shape and Vt.shape == Vt0.shape
    assert r == len(s) == int(np.count_nonzero(
        s0 > spectral.ZERO_MODE_RTOL * s0[0]))
    assert np.max(np.abs(s - s0)) <= 1e-13
    for Q in (U, Vt.T):
        assert np.max(np.abs(Q.T @ Q - np.eye(len(Q)))) <= 1e-12
    # entrywise: the 2-norm of the smallest triplet's residual is 2.6e-12 s_0
    # at L = 14 (0,1,-), the Gram route's eps s_0^2 / s_k
    assert np.max(np.abs(C @ Vt[:r].T - U[:, :r] * s)) <= 1e-12 * s[0]
    assert np.max(np.abs(U[:, r:] - U0[:, r:]), initial=0.0) <= 1e-9
    assert np.max(np.abs(Vt[r:] - Vt0[r:]), initial=0.0) <= 1e-9


# L = 8 takes the Gram matrix C C^T, L = 12 C^T C, L = 14 the square C's
@pytest.mark.parametrize("L, family", [(8, (0, 0, "+")), (8, (0, 1, "-")),
                                       (12, (0, 0, "+")), (12, (0, 1, "-")),
                                       (14, (0, 0, "+"))])
def test_no_dense_block_is_alive_across_the_gram_eigh(L, family, monkeypatch):
    # at the Gram eigh's entry the route holds G, the parity index arrays
    # and a few small objects, but no dense copy of C, which would add
    # C's bytes, nearly G's
    ham = resonant_ham(L, family)
    ham.basis.parities                      # cached before the baseline
    eigh, seen = spectral.eigh_inplace, []

    def traced_eigh(a):
        seen.append((tracemalloc.get_traced_memory()[0] - base, a.nbytes))
        return eigh(a)

    monkeypatch.setattr(spectral, "eigh_inplace", traced_eigh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral.diagonalize(ham)
    finally:
        tracemalloc.stop()
    held, gram = seen[0]                    # the Gram eigh comes first
    split = ham.basis.chiral_split()
    assert gram == 8 * max(split.n_plus, split.n_minus) ** 2
    assert held <= gram + 8 * ham.basis.size + 8192, held / gram


@extended
def test_gram_kernel_matches_the_svd_at_L16():
    ham = resonant_ham(16, (0, 0, "+"))
    vec = spectral.diagonalize(ham).vectors
    r = vec.rank
    kernels = vec.Uf[:, r:].copy(), vec.Vt[r:].copy()
    del vec
    C = spectral.chiral_block(ham)[2]()
    U0, _, Vt0 = oracle.svd_factors(C)
    assert kernels[0].shape[1] + kernels[1].shape[0] == 70
    assert np.max(np.abs(kernels[0] - U0[:, r:]), initial=0.0) <= 1e-9
    assert np.max(np.abs(kernels[1] - Vt0[r:]), initial=0.0) <= 1e-9


def test_canonical_kernel_ignores_the_basis_it_is_given():
    C = spectral.chiral_block(resonant_ham(12, (0, 1, "-")))[2]()
    _, s, Vt = np.linalg.svd(C, full_matrices=True)
    K = Vt[len(s):].T                       # the 20 odd-side kernel columns
    R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(20, 20)))
    want = oracle.signed_kernel(spectral.canonical_kernel(K))
    got = oracle.signed_kernel(spectral.canonical_kernel(K @ R))
    assert np.max(np.abs(K.T @ (K @ R) - R)) <= 1e-12   # same kernel
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_rank_deficient_smaller_side_falls_back_to_the_svd(shape, monkeypatch):
    # two equal columns (or rows) on the smaller side: lambda_k is zero up
    # to rounding, so the Gram route is refused, and the factors are the
    # full SVD's, bit for bit
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(spectral.np.linalg, "svd",
                        lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    C = np.random.default_rng(3).normal(size=shape)
    assert spectral.chiral_svd(lambda: C)[1].shape == (5,) and calls == []
    if shape[0] > shape[1]:
        C[:, 3] = C[:, 1]
    else:
        C[3] = C[1]
    got = spectral.chiral_svd(lambda: C)
    want = svd(C, full_matrices=True)
    assert calls == [shape]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
