"""Sector enumeration, ranking, dipole/parity bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hop_oracles as oracle
from conftest import extended
from scarkit.errors import CapabilityError, DomainError
from scarkit.fock_basis import (SECTOR_MAX, FockState, SectorBasis, chiral_parity,
                                dim_difference_formula, dipole_moment,
                                parity_dim_sums, pinnacle_in_larger_sector,
                                pinnacle_state, subspace_dims)

sectors = st.integers(2, 12).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(0, L)))


def test_enumeration_is_sorted_and_complete():
    for L, N in [(4, 2), (6, 3), (8, 4), (5, 2), (7, 3)]:
        basis = SectorBasis(L, N)
        assert basis.size == math.comb(L, N)
        assert (np.diff(basis.states) > 0).all()
        assert all(bin(int(b)).count("1") == N for b in basis.states)


def test_enumeration_equals_gosper_oracle():
    for L in range(1, 17):
        for N in range(L + 1):
            got, want = SectorBasis(L, N).states, oracle.gosper_states(L, N)
            assert got.dtype == want.dtype and np.array_equal(got, want), (L, N)


@extended
def test_largest_sector_equals_gosper_oracle():
    assert np.array_equal(SectorBasis(26, 13).states, oracle.gosper_states(26, 13))


def test_dipoles_accumulate_in_one_array():
    basis = SectorBasis(18, 9)
    tracemalloc.start()
    try:
        dipoles = basis.dipoles
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * basis.size * 8
    occupations = (basis.states >> np.arange(17, -1, -1)[:, None]) & 1
    assert dipoles.dtype == np.int64
    assert np.array_equal(dipoles, np.arange(1, 19) @ occupations)


@given(sectors)
@settings(max_examples=60, deadline=None)
def test_rank_unrank_roundtrip(LN):
    L, N = LN
    basis = SectorBasis(L, N)
    for i in (0, basis.size // 2, basis.size - 1):
        assert basis.index_of(basis.state(i)) == i


@given(sectors)
@settings(max_examples=40, deadline=None)
def test_string_roundtrip(LN):
    L, N = LN
    basis = SectorBasis(L, N)
    s = basis.state(basis.size // 2)
    word = s.to_string()
    assert len(word) == L and word.count("1") == N
    assert FockState.from_string(word) == s


def test_dipole_convention_is_one_based():
    # |1 0 0 1> -> occupied sites 1 and 4
    assert dipole_moment(FockState.from_string("1001")) == 5
    assert dipole_moment(FockState.from_string("0001")) == 4
    assert dipole_moment(FockState.from_string("1000")) == 1


@given(sectors)
@settings(max_examples=60, deadline=None)
def test_reversal_dipole_identity(LN):
    # D(state) + D(mirror image) = N (L + 1) with 1-based site labels
    L, N = LN
    basis = SectorBasis(L, N)
    s = basis.state(basis.size // 3)
    mirror = FockState.from_string(s.to_string()[::-1])    # site j -> L+1-j
    total = dipole_moment(s) + dipole_moment(mirror)
    assert total == N * (L + 1)


def test_parity_alternates_with_dipole():
    s = FockState.from_string("110100")
    assert chiral_parity(s) == (-1) ** dipole_moment(s)


@pytest.mark.parametrize("L,expected", [
    (4, (2, 4)), (6, (10, 10)), (8, (38, 32)), (10, (126, 126)),
    (12, (452, 472)),
])
def test_chiral_splits(L, expected):
    split = SectorBasis(L, L // 2).chiral_split()
    assert (split.n_plus, split.n_minus) == expected


@pytest.mark.parametrize("N", range(1, 11))
def test_split_formulas_match_enumeration(N):
    L = 2 * N
    split = SectorBasis(L, N).chiral_split()
    assert (split.n_plus, split.n_minus) == parity_dim_sums(N)
    assert split.difference == dim_difference_formula(N)
    if N % 2 == 0:
        assert split.difference == math.comb(N, N // 2)
    else:
        assert split.difference == 0


def test_index_of_refuses_other_chain_lengths():
    basis = SectorBasis(6, 3)
    for state in ("0111", FockState.from_string("000000111"),
                  FockState(0b1000011, 7)):
        with pytest.raises(DomainError, match="sector has 6"):
            basis.index_of(state)
    # 0b1000011 has three particles but seven sites; it used to rank as 20
    for bits in (0b1000011, 1 << 6, -1):
        with pytest.raises(DomainError, match="do not fit 6 sites"):
            basis.index_of(bits)
    assert basis.index_of(0b000111) == basis.index_of("000111") == 0
    assert basis.index_of(0b111000) == basis.index_of("111000") == basis.size - 1


def test_pinnacle_layout():
    tp = pinnacle_state(8)
    assert tp.to_string() == "11110000"
    basis = SectorBasis(8, 4)
    assert basis.state(basis.index_of(tp)) == tp


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_pinnacle_sits_in_larger_sector(N):
    assert pinnacle_in_larger_sector(2 * N)


def test_subspace_dims_matches_split():
    split = subspace_dims(12, 6)
    assert split.n_plus + split.n_minus == math.comb(12, 6)


def test_bad_sectors_rejected():
    with pytest.raises(Exception):
        SectorBasis(4, 5)
    with pytest.raises(Exception):
        FockState.from_string("10a1")


def test_sector_size_bound_refuses_before_allocating():
    # C(40, 20) states would ask numpy for a 1 TiB word array
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="above the bound"):
            SectorBasis(40, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert math.comb(26, 13) <= SECTOR_MAX < math.comb(28, 14)
