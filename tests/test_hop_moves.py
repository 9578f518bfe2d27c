"""The array hop enumerator and its consumers against the per-state oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hop_oracles as oracle
from scarkit.fock_basis import SectorBasis
from scarkit.graph import HOP_CLASSES, build_graph, components
from scarkit.hamiltonian import (ModelParams, build_effective_general,
                                 build_effective_resonant, build_hop,
                                 build_onsite, hop_moves)
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
    assert new.shape == old.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name   # bitwise: signed zeros too


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


@settings(max_examples=40, deadline=None)
@given(sectors(), families, st.floats(1.0, 100.0), st.floats(0.0, 2.0))
def test_resonant_builder_equals_oracle(basis, family, g, u):
    params = resonant_family(*family).params(g, u)
    assert_same_csr(build_effective_resonant(basis, params, *family).matrix,
                    oracle.effective_resonant(basis, params, *family))


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
