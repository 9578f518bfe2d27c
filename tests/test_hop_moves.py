"""The array hop enumerator and its consumers against the per-state oracles.

The builders' `CSRMatrix` arrays are compared bitwise with the scipy.sparse
matrices the oracles assemble, and its block, dense and product views with
scipy's slicing, `toarray` and matvec.  The Hermitian builders' output is
checked against the transpose oracle `hop_oracles.assert_hermitian`.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hop_oracles as oracle
from conftest import extended
from scarkit import cli, hamiltonian, spectral
from scarkit.errors import NumericalError
from scarkit.fock_basis import SectorBasis
from scarkit.graph import (HOP_CLASSES, build_graph, components, spta_matrix,
                           tower_states)
from scarkit.hamiltonian import (CSRMatrix, ModelParams,
                                 build_effective_general,
                                 build_effective_resonant, build_half_period,
                                 build_hop, build_onsite, hop_moves)
from scarkit.resonance import resonant_family


@st.composite
def sectors(draw, max_L=12):
    L = draw(st.integers(1, max_L))
    return SectorBasis(L, draw(st.integers(0, L)))


param_values = st.builds(
    ModelParams,
    g=st.floats(0.5, 100, allow_nan=False),
    U=st.floats(0.5, 100, allow_nan=False),
    u=st.floats(0, 2, allow_nan=False),
    omega=st.floats(0.5, 100, allow_nan=False),
)

families = st.sampled_from([(0, 0, "+"), (0, 1, "-"), (1, 0, "+"), (0, 2, "-")])


def assert_same_csr(new, old):
    """`new`, a `CSRMatrix` or its `to_scipy()`, holds scipy's `old`: the
    index arrays and the values (phase * data) bitwise, signed zeros too.
    Where every real part is zero, those compare by value: a purely
    imaginary matrix stores its imaginary parts and reads its real parts as
    +0.0, where scipy's complex products leave some -0.0."""
    assert new.shape == old.shape
    assert new.nnz == old.nnz
    for name in ("indices", "indptr"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    a = new.values() if isinstance(new, CSRMatrix) else new.data
    b = old.data
    assert a.dtype == b.dtype, "data"
    if np.iscomplexobj(b) and not b.real.any():
        assert not a.real.any(), "data"
        a, b = a.imag, b.imag
    assert a.tobytes() == b.tobytes(), "data"   # bitwise: signed zeros too
    a, b = new.toarray(), old.toarray()
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), "toarray"


@settings(max_examples=60, deadline=None)
@given(sectors())
def test_moves_equal_oracle(basis):
    src, dst, cls = hop_moves(basis)
    assert (src.dtype, dst.dtype, cls.dtype) == (np.intp, np.intp, np.int8)
    got = set(zip(src.tolist(), dst.tolist(), cls.tolist()))
    assert len(got) == len(src)
    assert got == oracle.move_set(basis)
    assert np.all(dst < src)


@pytest.mark.parametrize("L,N", [(1, 0), (1, 1), (2, 0), (2, 2), (6, 0), (6, 6)])
def test_moves_empty_sectors(L, N):
    src, dst, cls = hop_moves(SectorBasis(L, N))
    assert len(src) == len(dst) == len(cls) == 0
    assert (src.dtype, dst.dtype, cls.dtype) == (np.intp, np.intp, np.int8)


@settings(max_examples=40, deadline=None)
@given(sectors(), param_values)
def test_static_builders_equal_oracle(basis, params):
    assert_same_csr(build_onsite(basis, params).matrix, oracle.onsite(basis, params))
    assert_same_csr(build_hop(basis, params).matrix, oracle.hop(basis, params))
    assert_same_csr(build_effective_general(basis, params).matrix,
                    oracle.effective_general(basis, params))
    for half in (1, 2):
        assert_same_csr(build_half_period(basis, params, half).matrix,
                        oracle.half_period(basis, params, half))


# Entries scipy's `diags` and `+` drop or re-sign.  (6, 3) at U = g = omega,
# u = 1: the first-half hop factor 1 - u is 0, every static energy is a
# multiple of omega (a folded diagonal of zeros), and the g-U class amplitude
# is exactly J, so its conjugate carries a -0.0 imaginary part.  (6, 2) at
# U = 3g: the state 110000 has onsite energy exactly 0.  (5, 0): the one
# state of the empty sector, energy 0 and no hops.
ZERO_CASES = [(6, 3, ModelParams(g=2.0, U=2.0, u=1.0, omega=2.0)),
              (6, 2, ModelParams(g=1.0, U=3.0, u=1.0, omega=7.0)),
              (5, 0, ModelParams(g=1.0, U=3.0, u=0.5, omega=7.0))]


@pytest.mark.parametrize("L,N,params", ZERO_CASES)
def test_builders_drop_and_keep_zeros_as_scipy_does(L, N, params):
    basis = SectorBasis(L, N)
    energies = oracle._static_energies(basis, params)
    folded = energies - params.omega * np.floor(energies / params.omega + 0.5)
    assert not (energies.all() and folded.all())       # a zero on the diagonal
    assert_same_csr(build_onsite(basis, params).matrix, oracle.onsite(basis, params))
    assert_same_csr(build_hop(basis, params).matrix, oracle.hop(basis, params))
    assert_same_csr(build_effective_general(basis, params).matrix,
                    oracle.effective_general(basis, params))
    for half in (1, 2):
        assert_same_csr(build_half_period(basis, params, half).matrix,
                        oracle.half_period(basis, params, half))
    family = (0, 0, "+")
    res = resonant_family(*family).params(1.0, 0.0)     # u = 0: all zeros, kept
    got = build_effective_resonant(basis, res, *family).matrix
    assert_same_csr(got, oracle.effective_resonant(basis, res, *family))
    assert got.nnz == 2 * len(hop_moves(basis)[0])
    assert_same_csr(got.to_scipy(), oracle.effective_resonant(basis, res, *family))


# Rows whose diagonal entry is zero (-0.0 among them): such a row gets no
# diagonal slot, so its neighbours' slots start earlier, and a row with no
# hop and a zero diagonal is left empty.
ZERO_ROWS = {"none": [], "first": [0], "last": [-1],
             "runs": [*range(20, 40), *range(100, 103), 251],
             "every": slice(None)}


@pytest.mark.parametrize("hops", [False, True], ids=["diagonal", "hops"])
@pytest.mark.parametrize("pattern", ZERO_ROWS)
def test_zero_diagonal_entries_drop_as_scipy_does(pattern, hops):
    basis = SectorBasis(10, 5)
    n = basis.size
    at = np.arange(n)
    diag = np.where(at % 2, -0.25, 0.25) * (at + 1)
    zeros = at[ZERO_ROWS[pattern]]
    diag[zeros] = np.where(zeros % 2, -0.0, 0.0)
    if hops:                                  # every imaginary part -0.0
        diag = diag - 0.0j
    lower = np.array([1 + 2j, -0.5j, 3.0]) if hops else None
    upper = np.conjugate(lower) if hops else None
    got = hamiltonian._hop_csr(basis, lower, upper, diag)
    src, dst, cls = hop_moves(basis)
    if hops:
        rows, cols, data = (np.concatenate((src, dst, at)),
                            np.concatenate((dst, src, at)),
                            np.concatenate((lower[cls], upper[cls], diag)))
    else:
        rows, cols, data = at, at, diag
    want = oracle.canonical_csr(rows, cols, data, n, drop_zeros=True)
    assert got.nnz == np.count_nonzero(data) == len(data) - len(zeros)
    assert_same_csr(got, want)


def test_mixed_zero_tables_beside_a_diagonal_are_refused():
    # scipy would drop the class-0 zeros, which the slot count cannot see
    basis = SectorBasis(6, 3)
    table = np.array([0.0, 1.0, 1.0])
    with pytest.raises(NumericalError, match="mixes zero"):
        hamiltonian._hop_csr(basis, table, table, np.ones(basis.size))


def test_mixed_zero_amplitudes_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(hamiltonian, "amplitudes_general",
                        lambda params: (0, 1j, 1.0))
    code = cli.main(["hamiltonian", "--L", "6", "--g", "50", "--u", "0.5",
                     "--omega", "20", "--u-over-g", "0.7",
                     "--kind", "effective"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "") and "mixes zero" in out.err


@settings(max_examples=40, deadline=None)
@given(sectors(), families, st.floats(1.0, 100.0), st.floats(0.0, 2.0))
def test_resonant_builder_equals_oracle(basis, family, g, u):
    params = resonant_family(*family).params(g, u)
    assert_same_csr(build_effective_resonant(basis, params, *family).matrix,
                    oracle.effective_resonant(basis, params, *family))


@pytest.mark.parametrize("family,g", [((0, 0, "+"), 50.0), ((0, 1, "-"), 21.0)])
@pytest.mark.parametrize("L", [4, 8, 12])
def test_resonant_matrix_stores_its_imaginary_parts(L, family, g):
    basis = SectorBasis(L, L // 2)
    params = resonant_family(*family).params(g, 0.5)
    m = build_effective_resonant(basis, params, *family).matrix
    want = oracle.effective_resonant(basis, params, *family)
    assert (m.data.dtype, m.phase, m.dtype) == (np.float64, 1j, np.complex128)
    assert m.data.tobytes() == want.data.imag.tobytes()
    with pytest.raises(ValueError, match="phase must be 1 or 1j"):
        CSRMatrix(m.data, m.indices, m.indptr, m.shape, -1j)
    assert_same_csr(m, want)
    assert_same_csr(m.to_scipy(), want)
    plus = np.flatnonzero(basis.parities == 1)
    minus = np.flatnonzero(basis.parities == -1)
    got, block = m.block(plus, minus), want[plus][:, minus].toarray()
    assert got.dtype == block.dtype and got.tobytes() == block.tobytes()
    # the product of the complex arrays the builder stored before
    complex_m = CSRMatrix(want.data, want.indices, want.indptr, want.shape)
    rng = np.random.default_rng(L)
    for shape in ((basis.size,), (basis.size, 3)):
        for x in (rng.normal(size=shape),
                  rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            a, b = m @ x, complex_m @ x
            # bitwise but for the sign of a zero real part (+ 0.0 folds it)
            assert a.dtype == b.dtype and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def resonant_footprint(L):
    """The L resonant build's final CSR bytes and its traced build peak."""
    basis = SectorBasis(L, L // 2)
    res = resonant_family(0, 0, "+").params(50.0, 0.5)
    build_effective_resonant(basis, res, 0, 0, "+")      # lazy imports
    tracemalloc.start()
    try:
        m = build_effective_resonant(basis, res, 0, 0, "+").matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return m, m.data.nbytes + m.indices.nbytes + m.indptr.nbytes, peak


def test_resonant_build_stores_twelve_bytes_an_entry():
    m, final, peak = resonant_footprint(16)
    assert final <= 12 * m.nnz + m.indptr.nbytes      # float64 value, int32 column
    assert peak <= 1.3 * final, peak / final


@extended
def test_resonant_build_footprint_at_L20():
    _, final, peak = resonant_footprint(20)
    assert final <= 22 * 2 ** 20 and peak <= 27 * 2 ** 20, (final, peak)


def test_chiral_and_tower_blocks_equal_scipy_slicing():
    basis = SectorBasis(10, 5)
    family = (0, 1, "-")
    params = resonant_family(*family).params(30.0, 0.7)
    ham = build_effective_resonant(basis, params, *family)
    m = oracle.effective_resonant(basis, params, *family)
    C = spectral.chiral_block(ham)[2]()
    plus = np.flatnonzero(basis.parities == 1)
    minus = np.flatnonzero(basis.parities == -1)
    want = m[plus][:, minus].imag.toarray()
    assert C.dtype == want.dtype and C.tobytes() == want.tobytes()
    idx = tower_states(basis.L).indices(basis)
    got, want = spta_matrix(ham), m[idx][:, idx].toarray()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["resonant", "half", "onsite", "empty"])
@pytest.mark.parametrize("width", [None, 1, 3])
def test_product_matches_scipy_matvec(kind, width):
    basis = SectorBasis(*((5, 0) if kind == "empty" else (10, 5)))
    if kind == "resonant":
        ham = build_effective_resonant(basis, resonant_family(0, 0, "+").params(
            50.0, 0.5), 0, 0, "+")
    elif kind == "onsite":          # the zero energy of 1100000000 leaves an empty row
        ham = build_onsite(SectorBasis(10, 2), ModelParams(1.0, 3.0, 0.5, 7.0))
    else:
        ham = build_half_period(basis, ModelParams(1.0, 3.0, 0.5, 7.0), 2)
    m = ham.matrix
    rng = np.random.default_rng(3)
    shape = (m.shape[1],) if width is None else (m.shape[1], width)
    for x in (rng.normal(size=shape),
              rng.normal(size=shape) + 1j * rng.normal(size=shape)):
        got, want = m @ x, m.to_scipy() @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(
            1.0, np.max(np.abs(want), initial=0.0))
    with pytest.raises(ValueError):
        m @ np.ones(m.shape[1] + 1)


def test_imaginary_product_traces_less_than_the_complex_copy():
    m = build_effective_resonant(SectorBasis(16, 8), resonant_family(
        0, 0, "+").params(50.0, 0.5), 0, 0, "+").matrix
    x = np.random.default_rng(2).normal(size=m.shape[1])
    peaks = []
    for product in (m.__matmul__, lambda v: oracle.complex_copy_product(m, v)):
        tracemalloc.start()
        try:
            product(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    new, old = peaks
    # a real x: its gathered entries and the complex terms, 24 bytes an
    # entry, and complex row sums
    assert new <= 24 * m.nnz + 64 * m.shape[0] < old, (new, old)


def hermitian_builds(basis, params, res):
    """The four Hermitian builders' matrices one at a time, both half
    periods, with the resonant one at the (0,0,+) parameters `res`."""
    yield build_hop(basis, params).matrix
    for half in (1, 2):
        yield build_half_period(basis, params, half).matrix
    yield build_effective_general(basis, params).matrix
    yield build_effective_resonant(basis, res, 0, 0, "+").matrix


@settings(max_examples=40, deadline=None)
@given(sectors(), param_values, st.floats(1.0, 100.0), st.floats(0.0, 2.0))
def test_builders_are_hermitian(basis, params, g, u):
    res = resonant_family(0, 0, "+").params(g, u)
    for m in hermitian_builds(basis, params, res):
        oracle.assert_hermitian(m)


# L = 20 holds 184,756 states, so the oracle's transpose takes both digits
@pytest.mark.parametrize("L", [16, pytest.param(20, marks=extended)])
def test_builders_are_hermitian_at_large_L(L):
    basis = SectorBasis(L, L // 2)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    res = resonant_family(0, 0, "+").params(50.0, 0.5)
    for m in hermitian_builds(basis, params, res):
        oracle.assert_hermitian(m)


def test_hermitian_check_reads_the_final_arrays():
    # a 2^17-state matrix, so the transpose order takes both 16-bit digits,
    # and more entries than one chunk of the comparison
    n = 1 << 17
    rng = np.random.default_rng(5)
    a = rng.choice(n, 40000, replace=False)
    b = rng.choice(n, 40000, replace=False)
    pairs = a != b
    a, b = a[pairs], b[pairs]
    v = rng.normal(size=len(a)) + 1j * rng.normal(size=len(a))
    rows, cols = np.concatenate((a, b)), np.concatenate((b, a))
    m = oracle.canonical_csr(rows, cols, np.concatenate((v, v.conj())), n,
                             drop_zeros=False)
    assert m.nnz > oracle.HERMITIAN_CHUNK
    oracle.assert_hermitian(m)
    for bad in (np.concatenate((v, v)),                  # not conjugated
                np.concatenate((v, v.conj() * (1 + 1e-16j)))):
        with pytest.raises(AssertionError):
            oracle.assert_hermitian(oracle.canonical_csr(rows, cols, bad, n,
                                                         drop_zeros=False))
    with pytest.raises(AssertionError):                  # one mirror missing
        oracle.assert_hermitian(oracle.canonical_csr(
            rows[1:], cols[1:], np.concatenate((v, v.conj()))[1:], n,
            drop_zeros=False))
    shifted = CSRMatrix(m.data, (m.indices + 1) % n, m.indptr, m.shape)
    with pytest.raises(AssertionError):                  # mirror in the wrong slot
        oracle.assert_hermitian(shifted)
    # one bad value whose slot and whose mirror's slot both lie past the
    # first chunk: both its row and its column start after that chunk
    rows_of = m.row_indices()
    past = rows_of[oracle.HERMITIAN_CHUNK]
    e = np.flatnonzero((rows_of > past) & (m.indices > past))[0]
    data = m.data.copy()
    data[e] += 1e-12
    with pytest.raises(AssertionError):
        oracle.assert_hermitian(CSRMatrix(data, m.indices, m.indptr, m.shape))


# Each replaces a table source of one builder so that the matrix it would
# build is not Hermitian: (function in `hamiltonian`, replacement, the
# `hamiltonian --kind` that builds through it).
BAD_TABLES = {
    # lower = -i a and upper = +i a are conjugates only for a real a
    "complex-resonant": ("resonant_amplitudes",
                         lambda *args: (1 + 1j, 1 + 1j, 1 + 1j), "resonant"),
    # upper = conj(lower) by construction, but a NaN equals nothing
    "nan-amplitude": ("amplitudes_general",
                      lambda params: (math.nan, 1j, 1.0), "effective"),
    "imaginary-diagonal": ("fold_quasienergy",
                           lambda e, omega: e + 1e-3j, "effective"),
    "imaginary-onsite": ("_static_energies",
                         lambda basis, params: np.full(basis.size, 1e-3j),
                         "half1"),
}


@pytest.mark.parametrize("name", BAD_TABLES)
def test_builders_refuse_tables_of_a_non_hermitian_matrix(monkeypatch, capsys,
                                                          name):
    attr, replacement, kind = BAD_TABLES[name]
    basis = SectorBasis(6, 3)
    res = resonant_family(0, 0, "+").params(50.0, 0.5)
    list(hermitian_builds(basis, res, res))              # the tables as shipped
    monkeypatch.setattr(hamiltonian, attr, replacement)
    build = {"resonant": lambda: build_effective_resonant(basis, res, 0, 0, "+"),
             "effective": lambda: build_effective_general(basis, res),
             "half1": lambda: build_half_period(basis, res, 1)}[kind]
    with pytest.raises(NumericalError):
        build()
    code = cli.main(["hamiltonian", "--L", "6", "--family", "0,0,+", "--g",
                     "50", "--u", "0.5", "--kind", kind])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "numerical error: constructed matrix is not exactly Hermitian\n"


def test_hermitian_tables_are_compared_by_value():
    basis = SectorBasis(8, 4)
    a = np.array([0.25, 0.5, 1.5])
    lower = a * np.exp(1j * np.array([0.3, -1.1, 2.0]))
    # -i a has a -0.0 real part where +i a has +0.0: equal values
    for ok in ((-1j * a, 1j * a, None), (lower, lower.conj(), None),
               (lower, lower.conj(), np.linspace(-1, 1, basis.size) + 0j)):
        oracle.assert_hermitian(hamiltonian._hermitian_csr(basis, *ok))
    diag = np.linspace(-1, 1, basis.size)
    for bad in ((lower, lower, None),                        # not conjugated
                (lower, lower.conj() * (1 + 1e-16j), None),   # off by an ulp
                (a, a, np.where(diag > 0, diag, math.nan))):  # NaN on the diagonal
        with pytest.raises(NumericalError):
            hamiltonian._hermitian_csr(basis, *bad)


def test_builders_and_graph_assemble_without_sorting(monkeypatch):
    sorted_keys = []
    for name in ("argsort", "lexsort", "sort"):
        sort = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *args, _sort=sort, **kw: (
            sorted_keys.append(np.asarray(a).dtype) or _sort(a, *args, **kw)))
    basis = SectorBasis(12, 6)
    build_graph(basis)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    build_onsite(basis, params)
    list(hermitian_builds(basis, params,
                          resonant_family(0, 0, "+").params(50.0, 0.5)))
    assert sorted_keys == []


ZERO_HOPS = ModelParams(g=43.7, U=96.14, u=1.0, omega=50.0)


def test_all_zero_hop_tables_build_the_onsite_matrix():
    basis = SectorBasis(18, 9)
    new = build_half_period(basis, ZERO_HOPS, 1).matrix
    old = build_onsite(basis, ZERO_HOPS).matrix
    assert new.shape == old.shape
    for name in ("data", "indices", "indptr"):      # no dense view at L = 18
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_hermitian_build_peaks_are_bounded_by_their_matrices():
    basis = SectorBasis(18, 9)
    res = resonant_family(0, 0, "+").params(50.0, 0.5)
    params = ModelParams(g=43.7, U=2.2 * 43.7, u=0.5, omega=50.0)
    # every static energy here is an even multiple of omega, so every folded
    # diagonal entry is 0 and this build drops all of them
    zeros = ModelParams(g=2.0, U=2.0, u=1.0, omega=2.0)
    builds = {"resonant": lambda: build_effective_resonant(basis, res, 0, 0, "+"),
              "hop": lambda: build_hop(basis, params),
              "half1": lambda: build_half_period(basis, params, 1),
              # 1 - u = 0: both hop tables are all zero, so no slot is written
              "half1, u = 1": lambda: build_half_period(basis, ZERO_HOPS, 1),
              "effective": lambda: build_effective_general(basis, params),
              "effective, zeros dropped": lambda: build_effective_general(
                  basis, zeros)}
    for name, build in builds.items():
        build()                                          # lazy imports
        tracemalloc.start()
        try:
            m = build().matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        final = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert peak <= 2.0 * final, (name, peak / final)
    assert m.nnz < basis.size + 2 * len(hop_moves(basis)[0])   # zeros dropped


@settings(max_examples=60, deadline=None)
@given(sectors())
def test_graph_equals_oracle(basis):
    new, old = build_graph(basis), oracle.graph(basis)
    for name in ("edge_a", "edge_b", "edge_class"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(sectors(), st.one_of(st.none(), st.sets(st.sampled_from(HOP_CLASSES))))
def test_components_equal_union_find(basis, allowed):
    graph = build_graph(basis)
    got, want = components(graph, allowed), oracle.components(graph, allowed)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.intp and np.array_equal(a, b)
