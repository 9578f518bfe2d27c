"""Sector hop graph: bipartiteness, fragmentation, the tower block.

`scipy.sparse.csgraph.connected_components` and `np.lexsort` are the oracles
for `components` and `build_graph`'s edge order.
"""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import extended
from scarkit.errors import DomainError
from scarkit.fock_basis import SectorBasis, pinnacle_state
from scarkit.graph import (HilbertGraph, Tower, bipartite_violations,
                           build_graph, components, spta_matrix, to_dot,
                           tower_escape_edges, tower_internal_edges,
                           tower_states)
from scarkit.hamiltonian import (HOP_CLASSES, build_effective_resonant,
                                 hop_moves, resonant_amplitudes)
from scarkit.resonance import resonant_family

FAMILY = resonant_family(0, 0, "+")
PARAMS = FAMILY.params(g=50.0, u=0.5)


@pytest.mark.parametrize("L,V,E,counts", [
    (4, 6, 6, {"g-U": 2, "g": 2, "g+U": 2}),
    (6, 20, 30, {"g-U": 9, "g": 12, "g+U": 9}),
    (8, 70, 140, {"g-U": 40, "g": 60, "g+U": 40}),
])
def test_graph_sizes_and_class_counts(L, V, E, counts):
    g = build_graph(SectorBasis(L, L // 2))
    assert g.n_vertices == V and g.n_edges == E
    assert g.class_counts() == counts


@given(st.integers(2, 10).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(1, L - 1))))
@settings(max_examples=40, deadline=None)
def test_every_sector_graph_is_bipartite(LN):
    L, N = LN
    assert bipartite_violations(build_graph(SectorBasis(L, N))) == 0


def test_edges_flip_dipole_parity():
    g = build_graph(SectorBasis(8, 4))
    par = g.parities
    assert (par[g.edge_a] * par[g.edge_b] == -1).all()


@pytest.mark.parametrize("L", [4, 6, 8])
def test_full_graph_connected(L):
    g = build_graph(SectorBasis(L, L // 2))
    assert len(components(g)) == 1


@pytest.mark.parametrize("L", [4, 6, 8])
def test_dropping_barrier_process_isolates_pinnacle(L):
    basis = SectorBasis(L, L // 2)
    g = build_graph(basis)
    comps = components(g, allowed={"g", "g-U"})
    tp = basis.index_of(pinnacle_state(L))
    singletons = [c[0] for c in comps if len(c) == 1]
    assert tp in singletons


def test_component_determinism_and_partition():
    basis = SectorBasis(8, 4)
    g = build_graph(basis)
    comps = components(g, allowed={"g"})
    comps2 = components(g, allowed={"g"})
    assert all(np.array_equal(a, b) for a, b in zip(comps, comps2))
    everything = np.sort(np.concatenate(comps))
    assert np.array_equal(everything, np.arange(basis.size))


def csgraph_components(n, a, b):
    """The csgraph partition, components ordered by their smallest vertex."""
    adj = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    _, first = np.unique(labels, return_index=True)
    return [np.flatnonzero(labels == labels[v]) for v in np.sort(first)]


def assert_same_partition(got, expected):
    assert len(got) == len(expected)
    for c, e in zip(got, expected):
        assert c.dtype == np.intp
        assert np.array_equal(c, e)


@st.composite
def edge_lists(draw):
    """(n, a, b, classes): random edges, or a path through shuffled labels,
    with intp or int32 endpoints (`build_graph` stores int32)."""
    n = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.intp, np.int32]))
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(range(n))), dtype=dtype)
        a, b = order[:-1], order[1:]
    else:
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        a = np.array([p[0] for p in pairs], dtype=dtype)
        b = np.array([p[1] for p in pairs], dtype=dtype)
    classes = np.array(draw(st.lists(st.integers(0, 2), min_size=len(a),
                                     max_size=len(a))), dtype=np.int8)
    return n, a, b, classes


@given(edge_lists(), st.sampled_from([None, {"g"}, {"g", "g-U"}]))
@example((1, np.empty(0, np.intp), np.empty(0, np.intp),
          np.empty(0, np.int8)), None).via("one vertex, no edges")
@example((300, np.empty(0, np.intp), np.empty(0, np.intp),
          np.empty(0, np.int8)), None).via("isolated vertices only")
@example((300, np.arange(299, 0, -1), np.arange(298, -1, -1),
          np.ones(299, np.int8)), {"g"}).via("path hooked from the far end")
@example((300, np.arange(299, 0, -1, dtype=np.int32),
          np.arange(298, -1, -1, dtype=np.int32), np.ones(299, np.int8)),
         {"g"}).via("the same path, int32 endpoints")
@settings(max_examples=200, deadline=None)
def test_components_match_csgraph_on_random_edge_lists(case, allowed):
    n, a, b, classes = case
    graph = HilbertGraph(SimpleNamespace(size=n), a, b, classes)
    keep = graph._edge_mask(allowed)
    assert_same_partition(components(graph, allowed),
                          csgraph_components(n, a[keep], b[keep]))


CLASS_FILTERS = [None] + [set(c) for k in (1, 2)
                          for c in itertools.combinations(HOP_CLASSES, k)]


@pytest.mark.parametrize("L", [4, 6, 8, 10, 12])
def test_components_match_csgraph_on_half_filled_sectors(L):
    graph = build_graph(SectorBasis(L, L // 2))
    for allowed in CLASS_FILTERS:
        keep = graph._edge_mask(allowed)
        assert_same_partition(
            components(graph, allowed),
            csgraph_components(graph.n_vertices, graph.edge_a[keep],
                               graph.edge_b[keep]))


def traced_peak(fn):
    """fn's return value and the traced peak of its allocations, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_components_peak_is_bounded_by_the_edge_arrays():
    graph = build_graph(SectorBasis(18, 9))
    assert graph.edge_a.dtype == graph.edge_b.dtype == np.int32
    edges = graph.edge_a.nbytes + graph.edge_b.nbytes + graph.edge_class.nbytes
    components(graph, {"g-U", "g"})                      # lazy imports
    comps, peak = traced_peak(lambda: components(graph, {"g-U", "g"}))
    assert len(comps) == 9
    assert peak <= 2.0 * edges, peak / edges


def test_edge_mask_is_a_class_lookup():
    graph = build_graph(SectorBasis(10, 5))
    for k in range(len(HOP_CLASSES) + 1):
        for allowed in map(set, itertools.combinations(HOP_CLASSES, k)):
            codes = [HOP_CLASSES.index(name) for name in allowed]
            assert np.array_equal(graph._edge_mask(allowed),
                                  np.isin(graph.edge_class, codes)), allowed


def test_edge_mask_peak_is_bounded_by_the_mask():
    graph = build_graph(SectorBasis(18, 9))
    mask, peak = traced_peak(lambda: graph._edge_mask({"g-U", "g"}))
    assert mask.dtype == bool and peak < 2 * mask.nbytes, peak / mask.nbytes


@extended
def test_graph_stage_peak_at_L20():
    basis = SectorBasis(20, 10)
    comps, peak = traced_peak(lambda: components(build_graph(basis),
                                                 {"g-U", "g"}))
    assert sum(map(len, comps)) == basis.size
    assert peak <= 25 * 2**20, peak / 2**20


@pytest.mark.parametrize("L", range(1, 13))
def test_build_graph_edge_order_matches_lexsort(L):
    for N in range(L + 1):
        basis = SectorBasis(L, N)
        src, dst, cls = hop_moves(basis)
        order = np.lexsort((src, dst))
        graph = build_graph(basis)
        assert np.array_equal(graph.edge_a, dst[order])
        assert np.array_equal(graph.edge_b, src[order])
        assert np.array_equal(graph.edge_class, cls[order])


@pytest.mark.parametrize("L", [4, 6, 8, 10])
def test_tower_shape(L):
    tower = tower_states(L)
    words = [s.to_string() for s in tower.states]
    assert len(words) == L
    assert len(set(words)) == L
    assert len(tower.eaves) == L - 1
    assert tower.pinnacle == pinnacle_state(L)
    N = L // 2
    shared = "1" * (N - 1) + "01" + "0" * (N - 1)
    # path order: N-1 hole excursions, the shared rung, N-1 particle ones
    assert tower.eaves[N - 1].to_string() == shared


@pytest.mark.parametrize("L", [4, 6, 10])
def test_tower_excursions_are_the_eaves(L):
    tower, N = tower_states(L), L // 2
    particle = [tower.excursion(q) for q in range(1, N + 1)]
    hole = [tower.excursion(q, hole=True) for q in range(1, N + 1)]
    # path order: hole excursions N..2, the shared rung (q = 1), particle 2..N
    assert tower.eaves == (*hole[:0:-1], *particle)
    assert hole[0] == particle[0]
    for q in (0, N + 1, -1):
        with pytest.raises(DomainError, match=rf"^excursion index {q} outside 1..{N}$"):
            tower.excursion(q)


def test_tower_membership_tools():
    basis = SectorBasis(8, 4)
    tower = tower_states(8)
    idx = tower.indices(basis)
    mask = tower.membership_mask(basis)
    assert mask.sum() == 8
    assert set(idx) == set(np.flatnonzero(mask))


@pytest.mark.parametrize("L", [4, 6, 8])
def test_tower_internal_adjacency_is_a_tree(L):
    basis = SectorBasis(L, L // 2)
    g = build_graph(basis)
    tower = tower_states(L)
    edges = tower_internal_edges(g, tower)
    assert len(edges) == L - 1  # L vertices, L-1 edges
    # connectivity: union-find over the tower vertices only
    idx = {int(v): int(v) for v in tower.indices(basis)}

    def find(x):
        while idx[x] != x:
            idx[x] = idx[idx[x]]
            x = idx[x]
        return x

    for a, b, _ in edges:
        idx[find(a)] = find(b)
    roots = {find(v) for v in idx}
    assert len(roots) == 1


def test_tower_edge_classes():
    # chain links are bare-tilt hops except the deepest-hole link; the
    # pinnacle hangs off the shared rung through the large-barrier process
    basis = SectorBasis(8, 4)
    g = build_graph(basis)
    tower = tower_states(8)
    idx = tower.indices(basis)
    by_pair = {frozenset((a, b)): c for a, b, c in tower_internal_edges(g, tower)}
    path = list(idx[:-1])
    chain_classes = [by_pair[frozenset((path[i], path[i + 1]))]
                     for i in range(len(path) - 1)]
    assert chain_classes[0] == "g-U"
    assert all(c == "g" for c in chain_classes[1:])
    shared = int(idx[8 // 2 - 1])
    assert by_pair[frozenset((int(idx[-1]), shared))] == "g+U"


@pytest.mark.parametrize("L", [6, 8, 10])
def test_escape_routes(L):
    basis = SectorBasis(L, L // 2)
    g = build_graph(basis)
    tower = tower_states(L)
    idx = tower.indices(basis)
    escapes = tower_escape_edges(g, tower)
    N = L // 2
    shared = int(idx[N - 1])
    pinnacle = int(idx[-1])
    for v, out in escapes.items():
        if v in (shared, pinnacle):
            assert out == []
        else:
            assert len(out) == 1
            assert out[0][1] == "g+U"


def test_spta_block_structure():
    basis = SectorBasis(8, 4)
    ham = build_effective_resonant(basis, PARAMS, 0, 0, "+")
    block = spta_matrix(ham)
    assert block.shape == (8, 8)
    assert np.allclose(block, block.conj().T, atol=0)
    assert np.max(np.abs(block.real)) == 0.0
    # pinnacle row: a single matrix element, the weakest-process amplitude
    a3 = abs(resonant_amplitudes(PARAMS, 0, 0, "+")[2])
    last = np.abs(block[-1, :])
    assert np.count_nonzero(last) == 1
    assert last[8 // 2 - 1] == pytest.approx(a3)


def test_dot_output_mentions_every_vertex_and_edge():
    basis = SectorBasis(4, 2)
    g = build_graph(basis)
    text = to_dot(g, name="tiny")
    assert text.startswith("graph tiny {")
    assert text.count(" -- ") == g.n_edges
    assert text.count("[label=") == g.n_vertices
    assert "1100" in text
