"""Resonance families and amplitude-to-barrier ratio maps."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonance_oracles as oracle
from scarkit.errors import DomainError
from scarkit.hamiltonian import ModelParams
from scarkit.resonance import (amplitude_ratio, is_resonant, resonant_family,
                               scan_ratio_grid)

branches = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.just("+")),
    st.tuples(st.integers(0, 5), st.integers(1, 7), st.just("-")).filter(
        lambda t: t[1] > t[0]),
)


def test_family_ratio_examples():
    assert resonant_family(0, 0, "+").U_over_g == Fraction(2)
    assert resonant_family(0, 0, "+").g_over_omega == 1
    assert resonant_family(0, 1, "-").U_over_g == Fraction(2, 3)
    assert resonant_family(0, 1, "-").g_over_omega == 3
    for k in range(4):
        fam = resonant_family(k, k + 1, "-")
        assert fam.U_over_g == Fraction(2, 2 * k + 3)


def test_minus_branch_constraint():
    with pytest.raises(DomainError):
        resonant_family(1, 1, "-")
    with pytest.raises(DomainError):
        resonant_family(3, 2, "-")


@given(branches)
@settings(max_examples=100, deadline=None)
def test_family_consistency_relations(knb):
    # |1 - U/g| (2 k2 + 1) = 2 k1 + 1 and (1 + U/g)(2 k2 + 1) = 2 k3 + 1
    k1, k2, branch = knb
    fam = resonant_family(k1, k2, branch)
    q = 2 * k2 + 1
    assert abs(1 - fam.U_over_g) * q == 2 * k1 + 1
    assert (1 + fam.U_over_g) * q == 2 * fam.k3 + 1
    assert fam.g_over_omega == q


@given(branches, st.floats(1.0, 200.0))
@settings(max_examples=60, deadline=None)
def test_family_barriers_all_resonant(knb, g):
    k1, k2, branch = knb
    p = resonant_family(k1, k2, branch).params(g, 0.5)
    for barrier in (abs(p.g - p.U), p.g, p.g + p.U):
        assert is_resonant(barrier, p.omega)


def test_is_resonant_odd_multiples_only():
    assert is_resonant(0.0, 20.0)
    assert is_resonant(20.0, 20.0)
    assert is_resonant(60.0, 20.0)
    assert not is_resonant(40.0, 20.0)
    assert not is_resonant(30.0, 20.0)
    assert not is_resonant(20.0 * (1 + 1e-6), 20.0)
    assert is_resonant(20.0 * (1 + 1e-12), 20.0)


def test_ratio_divergence_on_tilt_ridge():
    from scarkit.hamiltonian import ModelParams
    # g = omega with U/g = 2: the family point, so all three barriers
    # (20, 20, 60) are odd multiples and every ratio diverges
    r = amplitude_ratio(ModelParams(g=20.0, U=40.0, u=0.5, omega=20.0))
    assert all(r.divergent)
    # push U off the family ratio: only the bare-tilt process stays on ridge
    r = amplitude_ratio(ModelParams(g=20.0, U=47.0, u=0.5, omega=20.0))
    assert r.divergent[1]
    assert not r.divergent[0] and not r.divergent[2]


def test_ratio_small_off_all_ridges():
    from scarkit.hamiltonian import ModelParams
    r = amplitude_ratio(ModelParams(g=7.0, U=40.0, u=0.5, omega=20.0))
    assert not any(r.divergent)
    assert all(v < 0.2 for v in r.ratios)


def test_ratio_infinite_at_zero_barrier():
    from scarkit.hamiltonian import ModelParams
    r = amplitude_ratio(ModelParams(g=30.0, U=30.0, u=0.5, omega=20.0))
    assert r.divergent[0]
    assert math.isinf(r.ratios[0])


def test_even_multiple_is_flagged_but_vanishing():
    # at an even multiple the folded barrier hits zero while the averaged
    # amplitude vanishes too: the flag fires, but the reported (unfolded)
    # ratio goes to zero rather than diverging
    from scarkit.hamiltonian import ModelParams
    r = amplitude_ratio(ModelParams(g=40.0, U=80.0, u=0.5, omega=20.0))
    assert r.divergent[1]
    assert r.ratios[1] < 1e-12


def test_scan_grid_shape_and_order():
    U = np.array([10.0, 30.0])
    g = np.array([5.0, 15.0, 25.0])
    table = scan_ratio_grid(U, g, omega=20.0, u=0.5)
    assert table.shape == (6, 8)
    # g varies fastest, U slowest
    assert np.array_equal(table[:, 0], [10, 10, 10, 30, 30, 30])
    assert np.array_equal(table[:, 1], [5, 15, 25, 5, 15, 25])


def test_single_point_grid_reduces_to_amplitude_ratio():
    from scarkit.hamiltonian import ModelParams
    table = scan_ratio_grid(np.array([33.0]), np.array([11.0]),
                            omega=20.0, u=0.5)
    r = amplitude_ratio(ModelParams(g=11.0, U=33.0, u=0.5, omega=20.0))
    assert table[0, 2:5] == pytest.approx(r.ratios)
    assert tuple(bool(v) for v in table[0, 5:8]) == r.divergent


def test_scan_is_deterministic():
    U = np.linspace(1, 80, 13)
    g = np.linspace(1, 80, 17)
    t1 = scan_ratio_grid(U, g, omega=20.0, u=0.5)
    t2 = scan_ratio_grid(U, g, omega=20.0, u=0.5)
    assert np.array_equal(t1, t2)


@pytest.mark.parametrize("U, g, omega, u", [
    (np.linspace(1.0, 80.0, 160), np.linspace(1.0, 80.0, 160), 20.0, 0.5),
    (np.arange(1.0, 81.0), np.arange(1.0, 81.0), 20.0, 0.5),   # g = U, folds to 0
    (np.linspace(1.0, 80.0, 37), np.linspace(2.0, 60.0, 23), 7.0, 0.0),
    (np.array([33.0]), np.array([11.0]), 20.0, 1.5),
])
def test_scan_is_bitwise_the_per_point_loop(U, g, omega, u):
    table = scan_ratio_grid(U, g, omega, u)
    assert table.tobytes() == oracle.scan_ratio_grid(U, g, omega, u).tobytes()


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8),
       st.lists(st.integers(1, 60), min_size=1, max_size=8),
       st.sampled_from([1.0, 3.0, 7.5, 20.0]),
       st.sampled_from([0.0, 0.5, 2.0]))
@settings(max_examples=150, deadline=None)
def test_scan_matches_loop_on_integer_grids(U, g, omega, u):
    # integer barriers hit exact resonances: divergent flags and zero folds
    U, g = np.asarray(U, dtype=np.float64), np.asarray(g, dtype=np.float64)
    table = scan_ratio_grid(U, g, omega, u)
    assert table.tobytes() == oracle.scan_ratio_grid(U, g, omega, u).tobytes()


# Points whose energies are given in units of a tunneling J enter scarkit,
# whose unit is J = 1, divided by J.
@pytest.mark.parametrize("g, U, omega, u, J", [
    (20.0, 40.0, 20.0, 0.5, 1.0), (20.0, 47.0, 20.0, 0.5, 1.0),
    (7.0, 40.0, 20.0, 0.5, 1.0), (30.0, 30.0, 20.0, 0.5, 1.0),
    (40.0, 80.0, 20.0, 0.5, 1.0), (11.0, 33.0, 20.0, 1.5, 0.7),
])
def test_amplitude_ratio_is_the_scalar_oracle(g, U, omega, u, J):
    params = ModelParams(g=g / J, U=U / J, u=u, omega=omega / J)
    assert amplitude_ratio(params) == oracle.amplitude_ratio(params)


def test_scan_peak_is_bounded_by_its_table():
    grid = np.linspace(1.0, 80.0, 160)           # the ratio-landscape grid
    scan_ratio_grid(grid, grid, 20.0, 0.5)       # lazy imports
    tracemalloc.start()
    try:
        table = scan_ratio_grid(grid, grid, 20.0, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * table.nbytes, peak / table.nbytes


def test_scan_of_an_empty_axis_is_empty():
    assert scan_ratio_grid([], [1.0, 2.0], 20.0, 0.5).shape == (0, 8)


@pytest.mark.parametrize("U, g, omega, u, J", [
    ([10.0, -1.0], [5.0], 20.0, 0.5, 1.0),
    ([10.0], [5.0, 0.0], 20.0, 0.5, 1.0),
    ([0.0], [5.0], 20.0, -0.5, 1.0),       # both wrong: first point decides
    ([10.0], [5.0], 0.0, 0.5, 1.0),
    ([10.0], [5.0], 20.0, math.inf, 2.0),
    ([10.0, 20.0], [5.0], 20.0, -0.5, 1.0),
])
def test_scan_raises_what_the_loop_raises(U, g, omega, u, J):
    U, g, omega = np.divide(U, J), np.divide(g, J), omega / J    # units of J
    with pytest.raises(DomainError) as loop:
        oracle.scan_ratio_grid(U, g, omega, u)
    with pytest.raises(DomainError, match=re.escape(str(loop.value))):
        scan_ratio_grid(U, g, omega, u)
