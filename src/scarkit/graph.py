"""Hop graph of a filling sector: class-labeled edges, blocks, and the tower.

Vertices are the sector's Fock states; an edge is one nearest-neighbour hop,
labeled by its barrier class.  Because every hop flips the dipole parity the
graph is bipartite, and dropping the g+U edges splinters it into weakly
coupled blocks, the smallest of which is the single pinnacle state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock_basis import FockState, SectorBasis, pinnacle_state
from .hamiltonian import HOP_CLASSES, HamiltonianMatrix, hop_moves

# DOT styling per barrier class, in HOP_CLASSES order
_EDGE_STYLE = ("dashed", "solid", "dotted")
_EDGE_COLOR = ("firebrick", "black", "forestgreen")


@dataclass(frozen=True)
class HilbertGraph:
    """Undirected hop graph with per-edge barrier classes (a < b, stored once)."""

    basis: SectorBasis
    edge_a: np.ndarray      # intp
    edge_b: np.ndarray
    edge_class: np.ndarray  # int8 index into HOP_CLASSES

    @property
    def n_vertices(self) -> int:
        return self.basis.size

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    @property
    def parities(self) -> np.ndarray:
        return self.basis.parities

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.edge_class, minlength=len(HOP_CLASSES))
        return {name: int(c) for name, c in zip(HOP_CLASSES, counts)}

    def neighbors(self, v: int, allowed: set[str] | None = None):
        """(vertex, class name) pairs adjacent to v, ascending by vertex."""
        keep = self._edge_mask(allowed)
        out = []
        for a, b, c in zip(self.edge_a[keep], self.edge_b[keep],
                           self.edge_class[keep]):
            if a == v:
                out.append((int(b), HOP_CLASSES[c]))
            elif b == v:
                out.append((int(a), HOP_CLASSES[c]))
        return sorted(out)

    def _edge_mask(self, allowed: set[str] | None) -> np.ndarray:
        if allowed is None:
            return np.ones(self.n_edges, dtype=bool)
        codes = [HOP_CLASSES.index(name) for name in allowed]
        return np.isin(self.edge_class, codes)


def build_graph(basis: SectorBasis) -> HilbertGraph:
    """Enumerate every legal hop once; the class labels are purely geometric."""
    src, dst, cls = hop_moves(basis)      # dst < src
    # (dst, src) pairs are unique, so one key sorts them lexicographically
    order = np.argsort(dst * basis.size + src, kind="stable")
    return HilbertGraph(basis, dst[order], src[order], cls[order])


def bipartite_violations(graph: HilbertGraph) -> int:
    """Number of edges joining equal dipole parities (must be zero)."""
    par = graph.parities
    return int(np.count_nonzero(par[graph.edge_a] == par[graph.edge_b]))


def components(graph: HilbertGraph,
               allowed: set[str] | None = None) -> list[np.ndarray]:
    """Connected components of the class-filtered subgraph.

    Components come back as ascending index arrays, ordered by their smallest
    vertex, so the labeling is deterministic.  Hook and compress: every edge
    joining two roots hooks the larger root onto the smaller, and pointer
    jumping then flattens the trees, until no edge joins two roots.  Each
    root is thus the smallest vertex of its component.
    """
    keep = graph._edge_mask(allowed)
    a, b = graph.edge_a[keep], graph.edge_b[keep]
    labels = np.arange(graph.n_vertices)
    while True:
        ra, rb = labels[a], labels[b]
        join = ra != rb
        if not join.any():
            break
        # an edge inside one tree stays inside it, so only joining edges go on
        a, b, ra, rb = a[join], b[join], ra[join], rb[join]
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
    _, labels = np.unique(labels, return_inverse=True)
    members = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels))[:-1]
    return np.split(members, bounds)


@dataclass(frozen=True)
class Tower:
    """The pinnacle plus its chain of single-excursion states.

    `eaves` runs in path order from the deepest hole excursion through the
    shared first rung to the farthest particle excursion; the pinnacle hangs
    off the shared rung as a leaf.
    """

    L: int
    pinnacle: FockState
    eaves: tuple[FockState, ...]

    @property
    def states(self) -> tuple[FockState, ...]:
        """Path order, pinnacle last (the ordering used by the restriction)."""
        return (*self.eaves, self.pinnacle)

    def indices(self, basis: SectorBasis) -> np.ndarray:
        return np.array([basis.index_of(s) for s in self.states], dtype=np.intp)

    def membership_mask(self, basis: SectorBasis) -> np.ndarray:
        mask = np.zeros(basis.size, dtype=bool)
        mask[self.indices(basis)] = True
        return mask


def tower_states(L: int) -> Tower:
    """The L tower states at half filling.

    Particle branch: the block's edge particle detached q sites to the right,
    |1^(N-1) 0^q 1 0^(N-q)>.  Hole branch: a hole sunk q sites into the block,
    |1^(N-q) 0 1^q 0^(N-1)>.  The two coincide at q = 1, leaving L-1 distinct
    eaves.
    """
    if L % 2 or L < 4:
        raise DomainError(f"tower needs L = 2N with N >= 2, got L={L}")
    N = L // 2
    hole = ["1" * (N - q) + "0" + "1" * q + "0" * (N - 1)
            for q in range(N, 1, -1)]
    shared = "1" * (N - 1) + "01" + "0" * (N - 1)
    particle = ["1" * (N - 1) + "0" * q + "1" + "0" * (N - q)
                for q in range(2, N + 1)]
    eaves = tuple(FockState.from_string(w) for w in (*hole, shared, *particle))
    return Tower(L, pinnacle_state(L), eaves)


def tower_internal_edges(graph: HilbertGraph, tower: Tower) -> list[tuple[int, int, str]]:
    """Edges with both ends in the tower, as (a, b, class name)."""
    mask = tower.membership_mask(graph.basis)
    keep = mask[graph.edge_a] & mask[graph.edge_b]
    return [(int(a), int(b), HOP_CLASSES[c])
            for a, b, c in zip(graph.edge_a[keep], graph.edge_b[keep],
                               graph.edge_class[keep])]


def tower_escape_edges(graph: HilbertGraph, tower: Tower) -> dict[int, list[tuple[int, str]]]:
    """For each tower vertex, its edges leaving the tower as (outside vertex, class).

    The shared first rung is landlocked (all three of its neighbours are tower
    states) and the pinnacle's single edge points inward, so only they may
    come back with empty lists; every other eave escapes through exactly one
    g+U edge.
    """
    mask = tower.membership_mask(graph.basis)
    out: dict[int, list[tuple[int, str]]] = {int(v): []
                                             for v in tower.indices(graph.basis)}
    boundary = mask[graph.edge_a] != mask[graph.edge_b]
    for a, b, c in zip(graph.edge_a[boundary], graph.edge_b[boundary],
                       graph.edge_class[boundary]):
        if mask[a]:
            out[int(a)].append((int(b), HOP_CLASSES[c]))
        else:
            out[int(b)].append((int(a), HOP_CLASSES[c]))
    return out


def spta_matrix(ham: HamiltonianMatrix, tower: Tower | None = None) -> np.ndarray:
    """Restriction of the operator to the tower: an L x L dense Hermitian block.

    Row order is the tower's path order with the pinnacle last; every coupling
    to the rest of the sector is dropped.
    """
    if tower is None:
        tower = tower_states(ham.basis.L)
    idx = tower.indices(ham.basis)
    sub = ham.matrix[idx][:, idx].toarray()
    return np.asarray(sub)


def to_dot(graph: HilbertGraph, name: str = "sector") -> str:
    """GraphViz rendering: node shape encodes dipole parity, edge style the class."""
    lines = [f"graph {name} {{", "  node [fontsize=10];"]
    par = graph.parities
    for v in range(graph.n_vertices):
        word = graph.basis.state(v).to_string()
        shape = "ellipse" if par[v] > 0 else "box"
        lines.append(f'  v{v} [label="{word}" shape={shape}];')
    for a, b, c in zip(graph.edge_a, graph.edge_b, graph.edge_class):
        lines.append(f"  v{a} -- v{b} "
                     f"[style={_EDGE_STYLE[c]} color={_EDGE_COLOR[c]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
