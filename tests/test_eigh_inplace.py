"""`spectral.eigh_inplace`: numpy's `eigh`, bit for bit, in place.

The solve is numpy's own LAPACKE divide-and-conquer routine, so its
eigenpairs are numpy's bytes; the eigenvectors overwrite the input, so the
call holds no numpy n x n array beside it.
"""

import tracemalloc

import numpy as np
import pytest

from scarkit import dynamics, spectral
from scarkit.fock_basis import SectorBasis
from scarkit.hamiltonian import (ModelParams, build_effective_general,
                                 build_effective_resonant, build_half_period)
from scarkit.resonance import resonant_family

DTYPES = [np.float64, np.complex128]


def matrix(kind, n, dtype):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.normal(size=(n, n))
    return {"zero": np.zeros((n, n), dtype),
            "identity": np.eye(n, dtype=dtype),
            "random": (m + m.conj().T) / 2,
            # not Hermitian: both read the lower triangle alone
            "lower": m}[kind]


def same_bytes(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape
               and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.fixture
def lookup_fails(monkeypatch):
    """A call that makes the symbol lookup fail, so `eigh_inplace` takes
    numpy's `eigh`; the lookup is redone after the test."""
    def fail():
        for dtype in spectral._EVD_SYMBOLS:
            monkeypatch.setitem(spectral._EVD_SYMBOLS, dtype, "no_such_symbol")
        spectral._evd.cache_clear()
    yield fail
    monkeypatch.undo()
    spectral._evd.cache_clear()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("kind", ["zero", "identity", "random", "lower"])
def test_eigenpairs_are_numpys_bytes(kind, n, dtype):
    a = matrix(kind, n, dtype)
    want = np.linalg.eigh(a)
    w, v = got = spectral.eigh_inplace(a)
    assert spectral._evd(np.dtype(dtype)) is not None
    assert v is a and v.flags.c_contiguous and w.dtype == np.float64
    assert same_bytes(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("kind", ["zero", "identity", "random", "lower"])
def test_fallback_gives_the_same_bytes(kind, n, dtype, lookup_fails):
    a = matrix(kind, n, dtype)
    held = a.copy()
    want = spectral.eigh_inplace(a.copy())
    lookup_fails()
    assert spectral._evd(np.dtype(dtype)) is None
    got = spectral.eigh_inplace(a)
    assert got[1] is not a and a.tobytes() == held.tobytes()
    assert same_bytes(got, want)


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda a: a.astype(np.float32), np.asfortranarray, read_only,
    lambda a: np.stack([a, 2 * a]), lambda a: a[1:], lambda a: a[::2, ::2],
], ids=["float32", "fortran", "read-only", "stack", "not-square", "strided"])
def test_other_inputs_go_to_numpys_eigh(make):
    a = make(matrix("random", 8, np.float64))
    held = a.copy()
    try:
        want = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        with pytest.raises(np.linalg.LinAlgError, match=str(err)):
            spectral.eigh_inplace(a)
    else:
        assert same_bytes(spectral.eigh_inplace(a), want)
    assert a.tobytes() == held.tobytes()


def test_non_finite_input_is_refused_as_numpy_refuses_it():
    a = np.ones((5, 5))
    a[2, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        np.linalg.eigh(a)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectral.eigh_inplace(a)


@pytest.mark.parametrize("info, error", [
    (-1010, MemoryError), (-5, np.linalg.LinAlgError),
    (3, np.linalg.LinAlgError)])
def test_lapacke_failures_raise(info, error, monkeypatch):
    # -1010: LAPACKE could not allocate its workspace; -5: its NaN check
    # refused argument 5, a; > 0: not converged
    monkeypatch.setattr(spectral, "_evd", lambda dtype: lambda *args: info)
    with pytest.raises(error):
        spectral.eigh_inplace(np.eye(3))


def resonant(L):
    family = resonant_family(0, 0, "+")
    return build_effective_resonant(SectorBasis(L, L // 2),
                                    family.params(50.0, 0.5), 0, 0, "+")


def off_resonant(L):
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    return build_effective_general(SectorBasis(L, L // 2), params)


def floquet(L):
    basis = SectorBasis(L, L // 2)
    params = resonant_family(0, 0, "+").params(15.0, 0.5)
    return tuple(build_half_period(basis, params, i) for i in (1, 2))


# the chiral route's Gram matrix (C^T C at L = 12, the square C's at
# L = 14), the dense route's complex H and the Floquet route's three
@pytest.mark.parametrize("route, L", [("chiral", 12), ("chiral", 14),
                                      ("dense", 12), ("floquet", 12)])
def test_no_numpy_square_array_is_made_inside_the_eigh(route, L, monkeypatch):
    # numpy's eigh returns a fresh n x n W, a.nbytes inside the call; the
    # in-place solve allocates only its transpose strips and w
    eigh, seen = spectral.eigh_inplace, []

    def traced_eigh(a):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = eigh(a)
        seen.append((tracemalloc.get_traced_memory()[1] - before, a.nbytes))
        return out

    for module in (spectral, dynamics):
        monkeypatch.setattr(module, "eigh_inplace", traced_eigh)
    build = {"chiral": resonant, "dense": off_resonant, "floquet": floquet}
    ham = build[route](L)
    tracemalloc.start()
    try:
        if route == "floquet":
            dynamics.floquet_spectrum(*ham)
        else:
            spectral.diagonalize(ham)
    finally:
        tracemalloc.stop()
    square = [(made, size) for made, size in seen if size >= 2 ** 20]
    assert len(square) == {"chiral": 1, "dense": 1, "floquet": 3}[route]
    for made, size in square:
        assert made <= size / 4, made / size
