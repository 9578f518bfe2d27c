"""Bit-packed Fock states and fixed-filling sector bases for a spinless-fermion chain.

Sites are numbered 1..L. Site j is stored at bit position L-j of an integer,
so site 1 is the most significant bit and the binary string of the integer
reads |n_1 n_2 ... n_L> left to right. Sorting states by integer value is
therefore the same as sorting the occupation words lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, DomainError

# word size bound: states live in a single Python int but sector arrays use int64
MAX_SITES = 63
SECTOR_MAX = 1 << 24      # refuse sectors above this many states (C(26, 13) fits)


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
        if self.size > SECTOR_MAX:
            raise CapabilityError(f"sector L = {L}, N = {N} holds {self.size} "
                                  f"states, above the bound {SECTOR_MAX}")
        # C(p, k) for p <= L, k <= N; fits int64 for L <= 63
        self._binom = np.zeros((L + 1, N + 1), dtype=np.int64)
        for p in range(L + 1):
            for k in range(min(p, N) + 1):
                self._binom[p, k] = math.comb(p, k)
        self.states = self._enumerate()

    def _enumerate(self) -> np.ndarray:
        """The sector's words ascending, built by their top bit.

        S(l, n), the l-bit words with n set bits, is S(l-1, n) followed by
        2^(l-1) + S(l-1, n-1); every word of the first part is below 2^(l-1),
        so each concatenation stays ascending.  Only the fillings that can
        still reach N are kept at each length.
        """
        L, N = self.L, self.N
        empty = np.zeros(0, dtype=np.int64)
        level = {0: np.zeros(1, dtype=np.int64)}       # S(0, 0) = {0}
        for bits in range(1, L + 1):
            top = 1 << (bits - 1)
            level = {n: np.concatenate((level.get(n, empty),
                                        level.get(n - 1, empty) + top))
                     for n in range(max(0, N - L + bits), min(bits, N) + 1)}
        return level[N]

    def rank(self, bits: int) -> int:
        """Position of `bits` in the ascending state list."""
        r, k, b = 0, 0, int(bits)
        if b.bit_count() != self.N:
            raise DomainError(f"state has {b.bit_count()} particles, sector "
                              f"holds {self.N}")
        while b:
            p = b & -b
            k += 1
            r += self._binom[p.bit_length() - 1, k]
            b ^= p
        return int(r)

    def state(self, i: int) -> FockState:
        return FockState(int(self.states[i]), self.L)

    def index_of(self, state: FockState | int | str) -> int:
        """Position of a state of this sector's chain length and filling.

        An int names the state by its bit word, not by a basis position.
        """
        if isinstance(state, str):
            state = FockState.from_string(state)
        if isinstance(state, FockState) and state.L != self.L:
            raise DomainError(f"state has {state.L} sites, sector has {self.L}")
        bits = state.bits if isinstance(state, FockState) else int(state)
        if not 0 <= bits < (1 << self.L):
            raise DomainError(f"bits {bits:#x} do not fit {self.L} sites")
        return self.rank(bits)

    @cached_property
    def dipoles(self) -> np.ndarray:
        """D = sum_j j * n_j per state (int64).

        Site j holds bit b = L - j, so D = L N - sum_b b * bit_b, and the sum
        is sum_t 2^t popcount(state & mask_t) over the bits t of the index b
        (mask_t: the bits b with bit t set), one pass per bit of L - 1.
        """
        dipoles = np.full(self.size, self.L * self.N, dtype=np.int64)
        term = np.empty_like(dipoles)
        count = np.empty(self.size, dtype=np.uint8)
        for t in range((self.L - 1).bit_length()):
            mask = sum(1 << b for b in range(self.L) if b >> t & 1)
            np.bitwise_and(self.states, mask, out=term)
            np.bitwise_count(term, out=count)
            np.left_shift(count, t, out=term, dtype=np.int64)
            dipoles -= term
        return dipoles

    @cached_property
    def parities(self) -> np.ndarray:
        """Dipole parity (+1/-1) per state, aligned with `states`."""
        return np.where(self.dipoles & 1, -1, 1).astype(np.int8)

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
