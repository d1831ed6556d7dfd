"""Tests for the upstream marching profile solver and jump placement."""

import gc
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backwater.data import (
    DESK_GRID,
    FULL_GRID,
    PARAM_NAMES,
    ParameterRanges,
    ProfileDataset,
    assign_splits,
    desk_ranges,
    fit_scaler,
    full_ranges,
    generate,
)
from backwater.harness import extrapolation_dataset
from backwater.hydraulics import (
    GRAVITY,
    ChannelScenario,
    ConvergenceError,
    InsufficientEnergyError,
    conjugate_depth,
    critical_depth,
    depth_from_energy,
    friction_slope,
    froude,
    momentum_function,
    normal_depth,
    scenario_table,
    specific_energy,
    weir_depth,
)
from backwater import hydraulics, solver
from backwater.solver import (
    _OK,
    GridSpec,
    WaterProfile,
    _libm_pow,
    _march_error,
    _subcritical_depths,
    boundary_depths,
    classify_regime,
    solve_profile,
    solve_profiles,
    step_upstream,
    weir_and_normal_depths,
)

MILD = ChannelScenario(s=1e-3, b=10.0, n=0.02, z_d=3.0, Q=44.29)
STEEP = ChannelScenario(s=0.02, b=5.0, n=0.01, z_d=1.0, Q=10.0)
GRID = GridSpec(dx=10.0, length=1000.0)
#: The benchmark's wide box: both regimes, jumps, and scenarios whose
#: subcritical march runs out of energy.
WIDE_RANGES = ParameterRanges.from_dict(
    {
        "s": (5e-4, 2e-2, 5),
        "b": (5.0, 50.0, 5),
        "n": (0.01, 0.05, 5),
        "zd": (1.0, 5.0, 2),
        "Q": (100.0, 300.0, 2),
    }
)


# ---------------------------------------------------------------- #
#  Grid arithmetic
# ---------------------------------------------------------------- #


def test_grid_point_count_and_stations():
    assert GridSpec(dx=10.0, length=5000.0).n_points == 501
    assert GRID.n_points == 101
    assert GRID.stations[0] == 0.0
    assert GRID.stations[-1] == 1000.0
    with pytest.raises(ValueError):
        GridSpec(dx=0.0, length=100.0)
    with pytest.raises(ValueError):
        GridSpec(dx=10.0, length=5.0)
    # a length between stations would stop short of, or run past, the channel
    for length in (105.0, 115.0):
        with pytest.raises(ValueError, match="whole number"):
            GridSpec(dx=10.0, length=length)
    assert GridSpec(0.1, 1000.0).n_points == 10001
    # a value that is not a real number, as a JSON manifest can hold
    for dx, length in (("10", 100.0), (True, 100.0), (10.0, None)):
        with pytest.raises(ValueError, match="must be a real number"):
            GridSpec(dx=dx, length=length)
    assert GridSpec(np.float64(10.0), 100).n_points == 11


# ---------------------------------------------------------------- #
#  Regime classification
# ---------------------------------------------------------------- #


def test_classify_regime_limits():
    # Nearly flat bed: enormous normal depth, hence subcritical.
    assert classify_regime(ChannelScenario(1e-5, 10.0, 0.02, 3.0, 44.29)) == "subcritical"
    # Steep and smooth: tiny normal depth, hence mixed.
    assert classify_regime(ChannelScenario(0.05, 10.0, 0.01, 3.0, 44.29)) == "mixed"


def test_classify_regime_against_brute_force_scans():
    scen = ChannelScenario(s=0.005, b=10.0, n=0.015, z_d=1.0, Q=50.0)
    grid = np.linspace(0.01, 20.0, 2_000_001)
    h_n_scan = grid[np.argmin(np.abs(friction_slope(grid, scen.Q, scen.b, scen.n) - scen.s))]
    h_c_scan = grid[np.argmin(np.abs(froude(grid, scen.Q, scen.b) - 1.0))]
    assert h_n_scan < h_c_scan  # steep channel
    assert classify_regime(scen) == "mixed"
    assert normal_depth(scen) == pytest.approx(h_n_scan, abs=2e-5)
    assert critical_depth(scen.Q, scen.b) == pytest.approx(h_c_scan, abs=2e-5)


# ---------------------------------------------------------------- #
#  Single energy step
# ---------------------------------------------------------------- #


def test_uniform_flow_is_a_fixed_point():
    h_n = normal_depth(MILD)
    assert step_upstream(h_n, MILD, 10.0) == pytest.approx(h_n, abs=1e-9)


def test_backwater_decays_upstream():
    # M1 curve: above normal depth on a mild slope, depth drops upstream.
    h = weir_depth(MILD)
    assert h > normal_depth(MILD)
    assert step_upstream(h, MILD, 10.0) < h


def test_step_against_refined_integrator():
    # Oracle: 1000 substeps of dx/1000 from the same starting depth.
    h_ref = weir_depth(MILD)
    for _ in range(1000):
        h_ref = step_upstream(h_ref, MILD, 0.01)
    coarse = step_upstream(weir_depth(MILD), MILD, 10.0)
    # First-order local truncation at this scale is ~2.5e-6 m.
    assert coarse == pytest.approx(h_ref, abs=1e-5)


def test_step_across_critical_raises():
    # A depth barely above critical on a steep channel cannot sustain a
    # subcritical step of this size.
    h_c = critical_depth(STEEP.Q, STEEP.b)
    with pytest.raises(InsufficientEnergyError):
        step_upstream(h_c * 1.0001, STEEP, 10.0)


# ---------------------------------------------------------------- #
#  Full profiles
# ---------------------------------------------------------------- #


def test_mild_profile_shape_and_boundary():
    prof = solve_profile(MILD, GRID)
    assert prof.regime == "subcritical"
    assert prof.jump_index is None
    assert prof.depths[0] == weir_depth(MILD)  # exact boundary condition
    assert np.all(np.diff(prof.depths) < 0.0)  # monotone decay toward h_n
    assert np.all(prof.depths > normal_depth(MILD))
    assert np.all(prof.depths > critical_depth(MILD.Q, MILD.b))


def test_scalar_march_checks_no_depth_per_station(monkeypatch):
    # The scenario was checked when it was built; the march calls the
    # kernels, so the depth checks it makes do not grow with the grid.
    calls = []
    validated = hydraulics._validated_depth

    def spy(h):
        calls.append(h)
        return validated(h)

    monkeypatch.setattr(hydraulics, "_validated_depth", spy)
    for scen in (MILD, STEEP):
        counts = []
        for grid in (GRID, GridSpec(dx=10.0, length=5000.0)):
            calls.clear()
            solve_profile(scen, grid)
            counts.append(len(calls))
        assert counts[0] == counts[1], (scen, counts)


def test_discrete_energy_balance_is_exact():
    prof = solve_profile(MILD, GRID)
    E = specific_energy(prof.depths, MILD.Q, MILD.b)
    J = friction_slope(prof.depths, MILD.Q, MILD.b, MILD.n)
    residual = (E[1:] - E[:-1]) / GRID.dx - (J[:-1] - MILD.s)
    assert np.max(np.abs(residual)) <= 1e-12


def test_steep_profile_has_jump_with_momentum_bracket():
    prof = solve_profile(STEEP, GRID)
    assert prof.regime == "mixed"
    j = prof.jump_index
    assert j is not None and 1 <= j < GRID.n_points
    h_n = normal_depth(STEEP)
    assert np.all(prof.depths[j:] == h_n)  # uniform supercritical reach

    # Conjugate crossing brackets the normal depth within one station.
    h_down = prof.depths[j - 1]
    h_next = step_upstream(h_down, STEEP, GRID.dx)
    assert conjugate_depth(h_down, STEEP.Q, STEEP.b) < h_n
    assert conjugate_depth(h_next, STEEP.Q, STEEP.b) >= h_n

    # Momentum balance across the jump holds to the one-station bound.
    m_gap = abs(momentum_function(h_n, STEEP.Q, STEEP.b)
                - momentum_function(h_down, STEEP.Q, STEEP.b))
    m_step = abs(momentum_function(h_next, STEEP.Q, STEEP.b)
                 - momentum_function(h_down, STEEP.Q, STEEP.b))
    assert m_gap <= m_step


def test_jump_is_the_only_discontinuity():
    prof = solve_profile(STEEP, GRID)
    j = prof.jump_index
    gaps = np.abs(np.diff(prof.depths))
    assert np.argmax(gaps) == j - 1
    # Away from the jump the profile varies smoothly (well under the jump gap).
    others = np.delete(gaps, j - 1)
    assert np.max(others) < gaps[j - 1] / 3.0


def test_first_order_convergence_under_dx_refinement():
    scenarios = [
        MILD,
        ChannelScenario(s=2e-3, b=20.0, n=0.03, z_d=2.0, Q=100.0),
        ChannelScenario(s=5e-4, b=30.0, n=0.015, z_d=4.0, Q=200.0),
    ]
    for scen in scenarios:
        coarse = solve_profile(scen, GridSpec(10.0, 1000.0)).depths
        mid = solve_profile(scen, GridSpec(1.0, 1000.0)).depths
        fine = solve_profile(scen, GridSpec(0.1, 1000.0)).depths
        err_coarse = np.max(np.abs(coarse - mid[::10]))
        err_mid = np.max(np.abs(mid - fine[::10]))
        # First order: error shrinks ~10x per 10x dx refinement.
        assert 5.0 < err_coarse / err_mid < 20.0
        assert err_coarse < 0.01


def test_profiles_are_deterministic():
    a = solve_profile(STEEP, GRID)
    b = solve_profile(STEEP, GRID)
    assert np.array_equal(a.depths, b.depths)
    assert a.jump_index == b.jump_index


def test_water_profile_validation():
    with pytest.raises(ValueError):
        WaterProfile(MILD, GRID, np.ones(7))
    with pytest.raises(ValueError):
        WaterProfile(MILD, GRID, np.ones(GRID.n_points), regime="mixed")


# ---------------------------------------------------------------- #
#  Batched march against the scalar one
# ---------------------------------------------------------------- #


def scalar_outcomes(scenarios, grid):
    """What solve_profile returns or raises, scenario by scenario."""
    outcomes = []
    for scen in scenarios:
        try:
            outcomes.append(solve_profile(scen, grid))
        except (InsufficientEnergyError, ConvergenceError, ValueError) as err:
            outcomes.append(err)
    return outcomes


def assert_same_outcomes(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
        else:
            assert isinstance(got, WaterProfile)
            assert got.scenario == want.scenario and got.grid == want.grid
            assert np.array_equal(got.depths, want.depths)
            assert got.regime == want.regime
            assert got.jump_index == want.jump_index


@pytest.fixture(scope="module")
def wide_reference():
    scenarios = list(WIDE_RANGES.scenarios())
    return scenarios, scalar_outcomes(scenarios, DESK_GRID)


def test_batched_march_is_bitwise_the_scalar_march_on_the_desk_box():
    scenarios = list(desk_ranges().scenarios())[::2]
    assert_same_outcomes(
        solve_profiles(scenarios, DESK_GRID), scalar_outcomes(scenarios, DESK_GRID)
    )


def test_batched_march_is_bitwise_the_scalar_march_on_the_wide_box(wide_reference):
    scenarios, reference = wide_reference
    kinds = {o.regime if isinstance(o, WaterProfile) else type(o) for o in reference}
    assert kinds == {"subcritical", "mixed", InsufficientEnergyError}
    assert_same_outcomes(solve_profiles(scenarios, DESK_GRID), reference)


def test_batched_march_is_bitwise_the_scalar_march_on_the_full_box():
    scenarios = list(full_ranges().scenarios())[::97]
    assert_same_outcomes(
        solve_profiles(scenarios, FULL_GRID), scalar_outcomes(scenarios, FULL_GRID)
    )


def test_batched_march_reports_failures_per_scenario():
    # J(1e4 m) still exceeds this slope: no normal depth inside the bracket
    flat = ChannelScenario(s=1e-12, b=1.0, n=0.05, z_d=1.0, Q=300.0)
    scenarios = [MILD, flat, STEEP]
    assert_same_outcomes(solve_profiles(scenarios, GRID), scalar_outcomes(scenarios, GRID))
    # a 1 km step drives the energy below zero, which is below the critical
    # minimum: the steep channel jumps there, the mild one is rejected
    coarse = GridSpec(dx=1000.0, length=5000.0)
    rough = ChannelScenario(s=0.005, b=5.0, n=0.05, z_d=1.0, Q=10.0)
    scenarios.append(rough)
    reference = scalar_outcomes(scenarios, coarse)
    assert [type(o) for o in reference] == [
        WaterProfile, ConvergenceError, WaterProfile, InsufficientEnergyError
    ]
    assert (reference[2].regime, reference[2].jump_index) == ("mixed", 1)
    assert "specific energy -0.970815 below critical minimum" in str(reference[3])
    assert_same_outcomes(solve_profiles(scenarios, coarse), reference)
    assert solve_profiles([], GRID) == []


def test_boundary_depths_are_weir_and_normal_depths_with_half_the_batch_cached(monkeypatch):
    flat = ChannelScenario(s=1e-12, b=1.0, n=0.05, z_d=1.0, Q=300.0)  # a failing search
    scenarios = list(full_ranges().scenarios())[::37] + [flat]
    batch = [scenarios[k] for k in np.random.default_rng(2).permutation(len(scenarios))]
    def bits(arrays):
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    first = batch[::2]  # none of it cached yet
    assert bits(boundary_depths(first)) == bits(weir_and_normal_depths(scenario_table(first)))
    batch += batch[:5]  # scenarios seen twice in one batch
    want = weir_and_normal_depths(scenario_table(batch))
    got = boundary_depths(batch)
    assert bits(got) == bits(want)
    assert got[2].any()
    # equal scenarios built anew read the same entries, with no solve
    rebuilt = [ChannelScenario(*row) for row in scenario_table(batch).tolist()]
    monkeypatch.setattr(solver, "weir_and_normal_depths", None)
    assert [a.tobytes() for a in boundary_depths(rebuilt)] == [a.tobytes() for a in want]
    assert [a.shape for a in boundary_depths([])] == [(0,)] * 3


def test_a_boundary_depth_entry_lives_as_long_as_its_scenario():
    values = (1.234e-3, 17.5, 0.0234, 2.345, 56.78)
    scen = ChannelScenario(*values)
    boundary_depths([scen])
    assert ChannelScenario(*values) in solver._BOUNDARY_DEPTHS
    del scen
    gc.collect()
    assert ChannelScenario(*values) not in solver._BOUNDARY_DEPTHS


def box_scenarios():
    """Scenarios anywhere in the full box, and on its grid."""
    box = full_ranges()
    anywhere = st.builds(
        ChannelScenario, *(st.floats(*getattr(box, k)[:2]) for k in PARAM_NAMES)
    )
    return st.one_of(anywhere, st.sampled_from(list(box.scenarios())))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(box_scenarios(), min_size=1, max_size=12).flatmap(st.permutations))
def test_batched_march_is_the_scalar_march_on_random_batches(scenarios):
    grid = GridSpec(10.0, 300.0)
    assert_same_outcomes(solve_profiles(scenarios, grid), scalar_outcomes(scenarios, grid))


#: Target energies as multiples of the critical minimum: solvable ones,
#: ones at the tolerance edge, below-critical ones and non-finite ones.
ENERGY_FACTORS = st.one_of(
    st.floats(0.5, 4.0),
    st.floats(1.0 - 2e-12, 1.0 + 2e-12),
    st.floats(-1.0, 0.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.floats(10.0, 300.0), st.floats(5.0, 50.0), ENERGY_FACTORS, st.floats(0.01, 5.0)),
        min_size=1,
        max_size=20,
    )
)
def test_subcritical_depths_are_depth_from_energy(cases):
    q, b, factor, guess = (np.array(column) for column in zip(*cases))
    a = q * q / (2.0 * GRAVITY * b * b)  # the march's a and h_c
    h_c = _libm_pow(2.0 * a, 1.0 / 3.0)
    e_min = 1.5 * h_c
    e, h0 = factor * e_min, guess * h_c
    depth, status = _subcritical_depths(e, a, h_c, e_min, h0)
    for k in range(len(cases)):
        try:
            want = depth_from_energy(float(e[k]), float(q[k]), float(b[k]), float(h0[k]))
        except (InsufficientEnergyError, ConvergenceError, ValueError) as err:
            got = _march_error(status[k], e[k], e_min[k])
            assert (type(got), str(got)) == (type(err), str(err))
        else:
            assert status[k] == _OK
            assert struct.pack("<d", depth[k]) == struct.pack("<d", want)


def test_generate_matches_the_per_scenario_loop(wide_reference):
    scenarios, reference = wide_reference
    profiles, rejected = [], []
    for scen, outcome in zip(scenarios, reference):
        if isinstance(outcome, WaterProfile):
            profiles.append(outcome)
        else:
            rejected.append(
                {"s": scen.s, "b": scen.b, "n": scen.n, "zd": scen.z_d, "Q": scen.Q,
                 "reason": str(outcome)}
            )
    split = assign_splits(len(profiles), 3)
    train = [p for p, tag in zip(profiles, split) if tag == "train"]
    expected = ProfileDataset(profiles, split, DESK_GRID, {})

    ds = generate(WIDE_RANGES, DESK_GRID, seed=3)
    assert ds.content_hash() == expected.content_hash()
    assert ds.manifest["rejected"] == rejected
    assert ds.manifest["counts"] == {
        "grid": len(scenarios),
        "retained": len(profiles),
        "train": len(train),
        "val": split.count("val"),
        "test": split.count("test"),
    }
    assert ds.scaler == fit_scaler(train)


def test_corpus_bits_are_pinned():
    # The content hashes of three corpora the march builds: a change to any
    # depth bit, regime, jump or split changes one of them.
    desk = generate(desk_ranges(), DESK_GRID, seed=0)
    assert desk.content_hash() == (
        "3d6a1505e14d249a5cbf85aedd45ec8165f54ca7565a790381304aeaabf08d72"
    )
    assert generate(WIDE_RANGES, FULL_GRID, seed=3).content_hash() == (
        "348b1296e9411533c196f17e4d8f161d814351dc27b041c71ff990ba91d2c85a"
    )
    assert extrapolation_dataset(desk, count=75, seed=7919).content_hash() == (
        "64e204a5fbbf9c04763c9138efa918faa9b45a4d993fe2a5a31993a2f69e418c"
    )


#: Every exponent the batched march raises an array to.
MARCH_EXPONENTS = (1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0, 2.0, 3.0)


def positive_floats():
    """Finite positive floats, subnormals and the largest values included."""
    tiny, huge = 5e-324, sys.float_info.max
    return st.one_of(
        st.floats(min_value=tiny, max_value=huge, allow_subnormal=True),
        st.floats(min_value=tiny, max_value=sys.float_info.min),  # subnormal
        st.floats(min_value=huge / 16, max_value=huge),  # near overflow
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(positive_floats(), max_size=40), st.sampled_from(MARCH_EXPONENTS))
def test_libm_pow_is_math_pow_bit_for_bit(values, p):
    def bits(v):
        return struct.pack("<d", v)

    x = np.array(values, dtype=float)
    try:
        want = [math.pow(v, p) for v in values]
    except OverflowError:
        with pytest.raises(OverflowError):
            _libm_pow(x, p)
        return
    got = _libm_pow(x, p)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert [bits(v) for v in got.tolist()] == [bits(v) for v in want]


@pytest.mark.parametrize("p", MARCH_EXPONENTS)
def test_libm_pow_takes_math_pow_where_a_result_is_not_finite(p):
    def bits(values):
        return [struct.pack("<d", v) for v in values]

    huge = sys.float_info.max
    batches = ([0.0, -0.0, 1.0], [-8.0, 2.0], [math.inf, 2.0], [-math.inf], [math.nan, 1.0],
               [huge, 2.0], [1e200, 1.0], [-1.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in batches:
            try:
                want = [math.pow(v, p) for v in values]
            except (OverflowError, ValueError) as err:
                with pytest.raises(type(err)):
                    _libm_pow(np.array(values), p)
            else:
                assert bits(_libm_pow(np.array(values), p).tolist()) == bits(want)
