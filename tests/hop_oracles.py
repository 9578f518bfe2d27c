"""Per-state loop implementations of the sector enumeration, the hop
enumeration, the builders, the hop graph, union-find components and the
Schmidt cut order.

These are the original scalar routes, kept as oracles for the array routes in
`scarkit.fock_basis`, `scarkit.hamiltonian`, `scarkit.graph` and
`scarkit.observables`: one Python iteration per state and bond (Gosper's
hack for the sector words), a binomial-table `rank` per hop or half-word,
and an iterative union-find.  The builders here assemble scipy.sparse
matrices: the oracles for the arrays of scarkit's own `CSRMatrix`.
`canonical_csr` is the sort-based assembly the builders used before they
wrote their entries in canonical order directly, and `assert_hermitian` the
check on the final arrays they ran before they checked their tables instead.
`schmidt_spectrum_scatter` reads Schmidt spectra the way they were read
before the cut order: amplitudes scattered into zero-filled blocks.
"""

from functools import lru_cache
import math

import numpy as np
import scipy.sparse as sp

from scarkit.fock_basis import SectorBasis
from scarkit.graph import HilbertGraph
from scarkit.hamiltonian import (CSRMatrix, ModelParams, amplitudes_general,
                                 resonant_amplitudes)


def gosper_states(L: int, N: int) -> np.ndarray:
    """The (L, N) sector words ascending, one Python step per state."""
    if N == 0:
        return np.zeros(1, dtype=np.int64)
    out = np.empty(math.comb(L, N), dtype=np.int64)
    v = (1 << N) - 1
    last = v << (L - N)
    for i in range(len(out)):
        out[i] = v
        if v == last:
            break
        # Gosper's hack: next word with the same popcount
        t = (v | (v - 1)) + 1
        v = t | ((((t & -t) // (v & -v)) >> 1) - 1)
    return out


def canonical_csr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                  n: int, drop_zeros: bool) -> CSRMatrix:
    """The n x n `CSRMatrix` holding distinct entries (rows[e], cols[e], data[e]).

    Its arrays are those scipy.sparse stores for the same entries: as its
    COO -> CSR conversion leaves them (values untouched, explicit zeros
    kept), or with `drop_zeros` as its `diags` and `+` leave them, where every
    value x is stored as x + 0 (a -0.0 part reads +0.0) and zeros are dropped.
    """
    if drop_zeros:
        keep = data != 0
        rows, cols, data = rows[keep], cols[keep], data[keep] + 0.0
    index = np.int32 if max(len(data), n) <= np.iinfo(np.int32).max else np.int64
    key = np.asarray(rows, dtype=np.int64) * n
    key += cols
    order = np.argsort(key, kind="stable")
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSRMatrix(data[order], cols[order].astype(index), indptr, (n, n))


HERMITIAN_CHUNK = 1 << 16    # entries compared with their mirrors at a time


def assert_hermitian(m: CSRMatrix) -> None:
    """Raise AssertionError unless `m` stores exactly its conjugate transpose.

    Every stored value (phase * data) is compared, by value, with the value
    in its transpose slot, a chunk of HERMITIAN_CHUNK entries at a time, so
    no matrix-sized mirrored copy is made.
    """
    # the transpose stores the entries ordered by column, rows ascending: a
    # stable sort of the columns, here as a radix sort over 16-bit digits
    # (numpy radix-sorts uint16 keys; two digits cover every sector size)
    order = np.argsort(m.indices.astype(np.uint16), kind="stable")
    if m.shape[1] > 1 << 16:
        high = (m.indices[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    rows = m.row_indices()
    for lo in range(0, m.nnz, HERMITIAN_CHUNK):
        at = order[lo:lo + HERMITIAN_CHUNK]
        if not (np.array_equal(rows[at], m.indices[lo:lo + HERMITIAN_CHUNK])
                and np.array_equal(np.conjugate(m.phase * m.data[at]),
                                   m.phase * m.data[lo:lo + HERMITIAN_CHUNK])):
            raise AssertionError("matrix is not exactly Hermitian")


def right_moves(basis: SectorBasis):
    """Yield (a, b, j, bits) for each hop with site j occupied, j+1 empty.

    `a` is the source index, `b` the index of the state with the particle
    moved j -> j+1. Every undirected hop pair is produced exactly once.
    """
    L = basis.L
    for a in range(basis.size):
        bits = int(basis.states[a])
        for j in range(1, L):
            hi = (bits >> (L - j)) & 1
            lo = (bits >> (L - j - 1)) & 1
            if hi == 1 and lo == 0:
                moved = bits ^ (1 << (L - j)) ^ (1 << (L - j - 1))
                yield a, basis.rank(moved), j, bits


def hop_class(bits: int, j: int, L: int) -> int:
    """0 / 1 / 2 for barrier class g-U / g / g+U of the bond-j hop."""
    n_left = (bits >> (L - j + 1)) & 1 if j >= 2 else 0
    n_right = (bits >> (L - j - 2)) & 1 if j + 2 <= L else 0
    if n_left == n_right:
        return 1
    return 0 if n_right == 1 else 2


def move_set(basis: SectorBasis) -> set[tuple[int, int, int]]:
    return {(a, b, hop_class(bits, j, basis.L))
            for a, b, j, bits in right_moves(basis)}


def _static_energies(basis: SectorBasis, params: ModelParams) -> np.ndarray:
    pairs = np.array([(int(s) & (int(s) >> 1)).bit_count() for s in basis.states],
                     dtype=np.int64)
    return params.U * pairs - params.g * basis.dipoles.astype(np.float64)


def onsite(basis: SectorBasis, params: ModelParams) -> sp.csr_matrix:
    return sp.diags(_static_energies(basis, params), format="csr")


def hop(basis: SectorBasis, params: ModelParams) -> sp.csr_matrix:
    rows, cols = [], []
    for a, b, _, _ in right_moves(basis):
        rows += [a, b]
        cols += [b, a]
    data = np.full(len(rows), 1.0)
    return sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size))


def half_period(basis: SectorBasis, params: ModelParams,
                half: int) -> sp.csr_matrix:
    factor = (1.0 - params.u) if half == 1 else (1.0 + params.u)
    return (onsite(basis, params) + factor * hop(basis, params)).tocsr()


def effective_general(basis: SectorBasis, params: ModelParams) -> sp.csr_matrix:
    L = basis.L
    amps = amplitudes_general(params)
    rows, cols, data = [], [], []
    for a, b, j, bits in right_moves(basis):
        jc = amps[hop_class(bits, j, L)]
        rows += [a, b]
        cols += [b, a]
        data += [jc, jc.conjugate()]
    omega = params.omega
    diag = np.array([e - omega * math.floor(e / omega + 0.5)
                     for e in _static_energies(basis, params)])
    return (sp.csr_matrix((np.array(data, dtype=np.complex128), (rows, cols)),
                          shape=(basis.size, basis.size))
            + sp.diags(diag.astype(np.complex128))).tocsr()


def effective_resonant(basis: SectorBasis, params: ModelParams,
                       k1: int, k2: int, branch: str) -> sp.csr_matrix:
    amps = resonant_amplitudes(params, k1, k2, branch)
    L = basis.L
    rows, cols, data = [], [], []
    for a, b, j, bits in right_moves(basis):
        ac = amps[hop_class(bits, j, L)]
        rows += [b, a]
        cols += [a, b]
        data += [1j * ac, -1j * ac]
    return sp.csr_matrix((np.array(data, dtype=np.complex128), (rows, cols)),
                         shape=(basis.size, basis.size))


def graph(basis: SectorBasis) -> HilbertGraph:
    ea, eb, ec = [], [], []
    L = basis.L
    for a, b, j, bits in right_moves(basis):
        lo, hi = (a, b) if a < b else (b, a)
        ea.append(lo)
        eb.append(hi)
        ec.append(hop_class(bits, j, L))
    order = np.lexsort((eb, ea))
    # int32 endpoints, the index dtype of every sector's hop matrix
    return HilbertGraph(basis,
                        np.asarray(ea, dtype=np.int32)[order],
                        np.asarray(eb, dtype=np.int32)[order],
                        np.asarray(ec, dtype=np.int8)[order])


def components(g: HilbertGraph, allowed: set[str] | None = None) -> list[np.ndarray]:
    """Iterative union-find; smaller root wins, components by smallest vertex."""
    parent = np.arange(g.n_vertices, dtype=np.intp)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:        # path compression
            parent[x], x = root, parent[x]
        return root

    keep = g._edge_mask(allowed)
    for a, b in zip(g.edge_a[keep], g.edge_b[keep]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.array([find(v) for v in range(g.n_vertices)], dtype=np.intp)
    comps: dict[int, list[int]] = {}
    for v, r in enumerate(roots):
        comps.setdefault(int(r), []).append(v)
    return [np.asarray(comps[r], dtype=np.intp) for r in sorted(comps)]


def cut_layout(L: int, N: int, cut: int):
    """`observables._cut_layout` with a per-state popcount and `rank`.

    State i goes to position offset[m] + row * b + col of the cut order,
    where m is its left particle count, (row, col) the ranks of its left and
    right words in their sub-sectors and offset[m] the size of the blocks
    before block m.
    """
    basis = SectorBasis(L, N)
    right_bits = L - cut
    m_lo = max(0, N - right_bits)
    blocks = [(SectorBasis(cut, m), SectorBasis(right_bits, N - m))
              for m in range(m_lo, min(cut, N) + 1)]
    offsets = np.cumsum([0] + [lb.size * rb.size for lb, rb in blocks])
    order = np.empty(basis.size, dtype=np.intp)
    for i, word in enumerate(basis.states.tolist()):
        left, right = word >> right_bits, word & ((1 << right_bits) - 1)
        m = left.bit_count()
        left_basis, right_basis = blocks[m - m_lo]
        order[offsets[m - m_lo] + left_basis.rank(left) * right_basis.size
              + right_basis.rank(right)] = i
    return order, tuple((lb.size, rb.size) for lb, rb in blocks)


@lru_cache(maxsize=None)
def scatter_layout(L: int, N: int, cut: int):
    """Scatter pattern of sector amplitudes into per-left-count blocks.

    Returns (block_id, row_in_block, col_in_block, shapes): state i goes to
    entry (row[i], col[i]) of block block_id[i], block m having shape
    (C(cut, m), C(L-cut, N-m)).
    """
    basis = SectorBasis(L, N)
    right_bits = L - cut
    left_words = basis.states >> right_bits
    right_words = basis.states & ((1 << right_bits) - 1)
    m_lo = max(0, N - right_bits)
    m_hi = min(cut, N)
    block_id = np.bitwise_count(left_words).astype(np.intp) - m_lo
    row = np.empty(basis.size, dtype=np.intp)
    col = np.empty(basis.size, dtype=np.intp)
    shapes = []
    for b, m in enumerate(range(m_lo, m_hi + 1)):
        left_basis = SectorBasis(cut, m)
        right_basis = SectorBasis(right_bits, N - m)
        sel = block_id == b
        # sub-basis states ascend, so a word's rank is its sorted position
        row[sel] = np.searchsorted(left_basis.states, left_words[sel])
        col[sel] = np.searchsorted(right_basis.states, right_words[sel])
        shapes.append((left_basis.size, right_basis.size))
    return block_id, row, col, tuple(shapes)


def schmidt_spectrum_scatter(cols: np.ndarray, basis: SectorBasis,
                             cut: int) -> np.ndarray:
    """`observables.schmidt_spectrum` of a (dim, n) block, across any cut,
    by scattering the amplitudes into zero-filled blocks, complex unless
    the amplitudes are real."""
    block_id, row, col, shapes = scatter_layout(basis.L, basis.N, cut)
    dtype = np.complex128 if np.iscomplexobj(cols) else np.float64
    lams = []
    for b, shape in enumerate(shapes):
        sel = block_id == b
        blocks = np.zeros((cols.shape[1], *shape), dtype=dtype)
        blocks[:, row[sel], col[sel]] = cols[sel].T
        s = np.linalg.svd(blocks, compute_uv=False)
        lams.append(s * s)
    return np.concatenate(lams, axis=1)


def complex_copy_product(m: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """`CSRMatrix @` as it was before the stored parts were multiplied
    directly: the complex values `values()` times x, summed row by row."""
    data = m.values()
    terms = (data if x.ndim == 1 else data[:, None]) * x[m.indices]
    out = np.zeros((m.shape[0],) + x.shape[1:], dtype=terms.dtype)
    starts = m.indptr[:-1]
    filled = starts < m.indptr[1:]
    if m.nnz:
        out[filled] = np.add.reduceat(terms, starts[filled], axis=0)
    return out
