"""Bit-packed Fock states and fixed-filling sector bases for a spinless-fermion chain.

Sites are numbered 1..L. Site j is stored at bit position L-j of an integer,
so site 1 is the most significant bit and the binary string of the integer
reads |n_1 n_2 ... n_L> left to right. Sorting states by integer value is
therefore the same as sorting the occupation words lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError

# word size bound: states live in a single Python int but sector arrays use int64
MAX_SITES = 63


@dataclass(frozen=True)
class FockState:
    """One occupation configuration of an L-site chain."""

    bits: int
    L: int

    def __post_init__(self):
        if not 1 <= self.L <= MAX_SITES:
            raise DomainError(f"chain length {self.L} outside 1..{MAX_SITES}")
        if not 0 <= self.bits < (1 << self.L):
            raise DomainError(f"bits {self.bits:#x} do not fit {self.L} sites")

    @classmethod
    def from_string(cls, word: str) -> "FockState":
        if not word or set(word) - {"0", "1"}:
            raise DomainError(f"not an occupation word: {word!r}")
        return cls(int(word, 2), len(word))

    def to_string(self) -> str:
        return format(self.bits, f"0{self.L}b")

    def occupation(self, j: int) -> int:
        """Occupation n_j of site j (1-based)."""
        if not 1 <= j <= self.L:
            raise DomainError(f"site {j} outside 1..{self.L}")
        return (self.bits >> (self.L - j)) & 1


def dipole_moment(state: FockState) -> int:
    """D = sum_j j * n_j with 1-based site indices."""
    d, bits, L = 0, state.bits, state.L
    while bits:
        p = bits & -bits
        d += L - p.bit_length() + 1
        bits ^= p
    return d


def chiral_parity(state: FockState) -> int:
    """Dipole parity (-1)**D; the diagonal chiral operator in the Fock basis."""
    return -1 if dipole_moment(state) & 1 else 1


def spatial_reverse(state: FockState) -> FockState:
    """Mirror the chain: site j -> L+1-j."""
    return FockState(int(state.to_string()[::-1], 2), state.L)


@dataclass(frozen=True)
class ChiralSplit:
    """Sizes of the two dipole-parity sectors; larger_sector is +1/-1, 0 on a tie."""

    n_plus: int
    n_minus: int
    larger_sector: int

    @property
    def difference(self) -> int:
        return abs(self.n_plus - self.n_minus)


class SectorBasis:
    """All occupation states of L sites with exactly N particles, ascending by word.

    Positions are resolved combinatorially: the rank of a state is the number
    of smaller words with the same particle count, computed from a binomial
    table in O(L) without search.
    """

    def __init__(self, L: int, N: int):
        if not 1 <= L <= MAX_SITES:
            raise CapabilityError(f"chain length {L} outside 1..{MAX_SITES}")
        if not 0 <= N <= L:
            raise DomainError(f"particle number {N} outside 0..{L}")
        self.L = L
        self.N = N
        self.size = math.comb(L, N)
        # C(p, k) for p <= L, k <= N; fits int64 for L <= 63
        self._binom = np.zeros((L + 1, N + 1), dtype=np.int64)
        for p in range(L + 1):
            for k in range(min(p, N) + 1):
                self._binom[p, k] = math.comb(p, k)
        self.states = self._enumerate()
        self._parities: np.ndarray | None = None
        self._dipoles: np.ndarray | None = None

    def _enumerate(self) -> np.ndarray:
        if self.N == 0:
            return np.zeros(1, dtype=np.int64)
        out = np.empty(self.size, dtype=np.int64)
        v = (1 << self.N) - 1
        last = v << (self.L - self.N)
        for i in range(self.size):
            out[i] = v
            if v == last:
                break
            # Gosper's hack: next word with the same popcount
            t = (v | (v - 1)) + 1
            v = t | ((((t & -t) // (v & -v)) >> 1) - 1)
        return out

    def rank(self, bits: int) -> int:
        """Position of `bits` in the ascending state list."""
        r, k, b = 0, 0, int(bits)
        while b:
            p = b & -b
            k += 1
            r += self._binom[p.bit_length() - 1, k]
            b ^= p
        if k != self.N:
            raise DomainError(f"state has {k} particles, sector holds {self.N}")
        return int(r)

    def unrank(self, i: int) -> int:
        """Inverse of rank: the i-th state word."""
        if not 0 <= i < self.size:
            raise DomainError(f"rank {i} outside sector of size {self.size}")
        r, bits, p = int(i), 0, self.L - 1
        for k in range(self.N, 0, -1):
            while self._binom[p, k] > r:
                p -= 1
            r -= self._binom[p, k]
            bits |= 1 << p
            p -= 1
        return bits

    def state(self, i: int) -> FockState:
        return FockState(int(self.states[i]), self.L)

    def index_of(self, state: FockState | int | str) -> int:
        if isinstance(state, str):
            state = FockState.from_string(state)
        bits = state.bits if isinstance(state, FockState) else int(state)
        return self.rank(bits)

    def _site_columns(self) -> np.ndarray:
        """(L, size) array of occupations, row j-1 holding n_j for every state."""
        cols = np.empty((self.L, self.size), dtype=np.int8)
        for j in range(1, self.L + 1):
            cols[j - 1] = (self.states >> (self.L - j)) & 1
        return cols

    @property
    def dipoles(self) -> np.ndarray:
        if self._dipoles is None:
            occ = self._site_columns()
            sites = np.arange(1, self.L + 1, dtype=np.int64)
            self._dipoles = sites @ occ.astype(np.int64)
        return self._dipoles

    @property
    def parities(self) -> np.ndarray:
        """Dipole parity (+1/-1) per state, aligned with `states`."""
        if self._parities is None:
            self._parities = np.where(self.dipoles & 1, -1, 1).astype(np.int8)
        return self._parities

    def chiral_split(self) -> ChiralSplit:
        n_plus = int(np.count_nonzero(self.parities == 1))
        n_minus = self.size - n_plus
        larger = 0 if n_plus == n_minus else (1 if n_plus > n_minus else -1)
        return ChiralSplit(n_plus, n_minus, larger)


def subspace_dims(L: int, N: int) -> ChiralSplit:
    """Dipole-parity sector sizes of the (L, N) sector."""
    return SectorBasis(L, N).chiral_split()


def dim_difference_formula(N: int) -> int:
    """Closed form for |n_plus - n_minus| at half filling L = 2N.

    Zero for odd N; N! / ((N/2)!)**2 for even N.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    if N % 2:
        return 0
    return math.comb(N, N // 2)


def parity_dim_sums(N: int) -> tuple[int, int]:
    """Binomial-sum form of the parity sector sizes at half filling L = 2N.

    Splitting the chain into its N odd and N even sites, a state with m
    particles on odd sites has dipole parity (-1)**m up to an N-dependent
    overall parity, so the two sector sizes are the even-m and odd-m sums
    of C(N, m)**2.
    """
    even = sum(math.comb(N, m) ** 2 for m in range(0, N + 1, 2))
    odd = sum(math.comb(N, m) ** 2 for m in range(1, N + 1, 2))
    return even, odd


def pinnacle_state(L: int) -> FockState:
    """All particles stacked against the low-tilt-energy end: |1...1 0...0>."""
    if L % 2 or L < 4:
        raise DomainError(f"need even L >= 4, got {L}")
    N = L // 2
    return FockState(((1 << N) - 1) << N, L)


def pinnacle_in_larger_sector(L: int) -> bool:
    """Whether the pinnacle's dipole parity matches the larger chiral sector.

    At half filling with even N both equal (-1)**(N/2), so this holds for
    every even N; it is checked rather than assumed.
    """
    N = L // 2
    if L % 2 or N % 2:
        raise DomainError("defined for L = 2N with even N")
    split = subspace_dims(L, N)
    return chiral_parity(pinnacle_state(L)) == split.larger_sector
