"""The option layer's vectorized kernels against the computations they replace.

Each reference is the straightforward form kept here: draws taken straight
from the lane generators (``path_generator(seed, *key, lane)``, 64 paths per
lane) and sliced per path, greek planes taken with ``np.gradient`` of a value slice,
``searchsorted`` cell lookups and scipy's ``RegularGridInterpolator``.  Where
the arithmetic is unchanged the results must be equal; where only its order
changed, the tolerance is fixed from float64 rounding, not from a run.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from hestonmm import option_mm
from hestonmm.option_mm import (
    FunctionalLattice,
    GridExitError,
    _functionals,
    _integrals,
    _simulate_integrals,
    run_hedged_paths,
    run_joint_paths,
)
from hestonmm.option_pricing import C, PRICE, PricingConfig, cell, mc_terminal, solve_call_grid
from hestonmm.seeding import (
    DEFAULT_BLOCK,
    FUNCTIONAL_STREAM,
    LANE,
    OPTION_MM_STREAM,
    PRICING_STREAM,
    lane_draws,
    path_generator,
)

# relative to the largest magnitude involved: a few float64 roundings
REL = 1e-12


def _lane_reference(seed, key, n_paths, n_steps, n_uniform=0):
    """Paths ``0..n_paths-1``'s shocks (and uniforms) drawn lane by lane:
    each lane generator draws 64 paths' shocks, then 64 paths' uniforms."""
    n_lanes = -(-n_paths // LANE)
    shocks = np.empty((n_lanes * LANE, n_steps, 2))
    uniforms = np.empty((n_lanes * LANE, n_steps, n_uniform))
    for lane in range(n_lanes):
        rng = path_generator(seed, *key, lane)
        rows = slice(lane * LANE, (lane + 1) * LANE)
        shocks[rows] = rng.standard_normal((LANE, n_steps, 2))
        if n_uniform:
            uniforms[rows] = rng.random((LANE, n_steps, n_uniform))
    return shocks[:n_paths], uniforms[:n_paths]


def _searchsorted_cell(grid, x):
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


def _bilinear_ref(grid, plane, s, nu):
    i, wi = _searchsorted_cell(grid.s_grid, s)
    j, wj = _searchsorted_cell(grid.nu_grid, nu)
    return ((1 - wi) * (1 - wj) * plane[i, j] + wi * (1 - wj) * plane[i + 1, j]
            + (1 - wi) * wj * plane[i, j + 1] + wi * wj * plane[i + 1, j + 1])


def _gradient_planes(grid, c):
    delta = np.gradient(c, grid.s_grid, axis=0)
    return delta, np.gradient(delta, grid.s_grid, axis=0), np.gradient(c, grid.nu_grid, axis=1)


@pytest.mark.parametrize("grid", [np.linspace(84.0, 116.0, 161),
                                  np.array([0.0, 0.1, 0.5, 2.0, 2.5, 7.0, 7.01, 12.0])])
def test_cell_matches_searchsorted(grid):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(grid[0], grid[-1], 5000), grid,
                        np.nextafter(grid[1:], -np.inf), np.nextafter(grid[:-1], np.inf)])
    i, w = cell(grid, x)
    i_ref, w_ref = _searchsorted_cell(grid, x)
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(w, w_ref)
    i0, w0 = cell(grid, np.float64(grid[-1]))
    assert (i0, w0) == (grid.size - 2, 1.0)


def test_greek_planes_at_stored_slices_are_gradients(pricing_grid):
    for it, t in enumerate(pricing_grid.times):
        c = pricing_grid.values[:, :, it]
        for plane, ref in zip(pricing_grid.greek_planes(t), _gradient_planes(pricing_grid, c)):
            np.testing.assert_array_equal(plane, ref)
        np.testing.assert_array_equal(pricing_grid._time_slice(t)[:, :, 0], c)


def test_greek_planes_between_slices_match_gradient_of_blend(pricing_grid):
    times = pricing_grid.times
    for it, w in [(0, 0.3), (57, 0.5), (133, 0.9), (199, 0.01)]:
        t = times[it] + w * (times[it + 1] - times[it])
        i, wt = pricing_grid._locate(times, np.asarray(t), "t")
        assert i == it and 0.0 < wt < 1.0
        v = pricing_grid.values
        blend = (1.0 - wt) * v[:, :, it] + wt * v[:, :, it + 1]
        for plane, ref in zip(pricing_grid.greek_planes(t), _gradient_planes(pricing_grid, blend)):
            np.testing.assert_allclose(plane, ref, rtol=0, atol=REL * np.abs(ref).max())
        np.testing.assert_array_equal(pricing_grid.price(pricing_grid.s_grid[3:-3], 2.5, t),
                                      _bilinear_ref(pricing_grid, blend, pricing_grid.s_grid[3:-3], 2.5))


def test_price_column_blend_equals_full_blend(pricing_grid):
    # the books read C at t + dt from a one-column blend of the stacked slices
    s = np.array([90.0, 99.9, 100.0, 107.3])
    nu = np.array([0.0, 1.7, 4.0, 9.2])
    times = pricing_grid.times
    for t in [times[7], times[7] + 0.3 * (times[8] - times[7]), 0.4321]:
        full = pricing_grid._time_slice(t)
        price = pricing_grid._time_slice(t, PRICE)
        assert price.shape == full.shape[:2] + (1,)
        np.testing.assert_array_equal(price[:, :, 0], full[:, :, C])
        np.testing.assert_array_equal(pricing_grid._bilinear(price, s, nu)[:, 0],
                                      pricing_grid._bilinear(full, s, nu)[:, C])


def test_cached_planes_are_read_only(pricing_grid):
    t = pricing_grid.times[4]
    for plane in pricing_grid.greek_planes(t) + (pricing_grid._time_slice(t),):
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[0, 0] = 1.0


def test_greeks_match_per_plane_interpolation(pricing_grid):
    s = np.array([90.0, 99.9, 100.0, 107.3])
    nu = np.array([0.0, 1.7, 4.0, 9.2])
    t = pricing_grid.times[20]
    refs = [_bilinear_ref(pricing_grid, p, s, nu)
            for p in _gradient_planes(pricing_grid, pricing_grid.values[:, :, 20])]
    for got, ref in zip(pricing_grid.greeks(s, nu, t), refs):
        np.testing.assert_array_equal(got, ref)
    scalar = pricing_grid.greeks(99.9, 1.7, t)
    assert all(isinstance(g, float) for g in scalar)
    assert scalar == tuple(float(r[1]) for r in refs)


def test_mm_draws_fill_equals_stacked_draws():
    # the books' draws: a block inside one lane, and one spanning three lanes
    n_steps, n_uniform = 37, 4
    ref_z, ref_u = _lane_reference(9, (OPTION_MM_STREAM,), 200, n_steps, n_uniform)
    for lo, hi in [(5, 11), (60, 190)]:
        shocks = np.empty((hi - lo, n_steps, 2))
        uniforms = np.empty((hi - lo, n_steps, n_uniform))
        lane_draws(9, (OPTION_MM_STREAM,), lo, hi, shocks, uniforms)
        np.testing.assert_array_equal(shocks, ref_z[lo:hi])
        np.testing.assert_array_equal(uniforms, ref_u[lo:hi])


def test_mc_terminal_equals_stacked_reference(pricing_grid):
    cfg = pricing_grid.config
    h = cfg.heston
    # the paths past DEFAULT_BLOCK run as a second block
    n_paths, n_steps = DEFAULT_BLOCK + 150, 40
    dt = 1.0 / n_steps
    rho_c = math.sqrt(1.0 - h.rho**2)
    risk_adj = h.xi * rho_c * cfg.eta_nu
    shocks, _ = _lane_reference(4, (PRICING_STREAM,), n_paths, n_steps)
    s, v = np.full(n_paths, 100.0), np.full(n_paths, 4.0)
    for step in range(n_steps):
        v_pos = np.maximum(v, 0.0)
        root = np.sqrt(v_pos)
        z_s = shocks[:, step, 0]
        z_v = h.rho * z_s + rho_c * shocks[:, step, 1]
        s = s + root * z_s * math.sqrt(dt)
        v = np.maximum(v + (h.theta * (h.alpha - v_pos) - risk_adj * root) * dt
                       + h.xi * root * z_v * math.sqrt(dt), 0.0)
    got = mc_terminal(cfg, 100.0, 4.0, 0.0, n_paths=n_paths, seed=4, dt_target=dt)
    np.testing.assert_array_equal(got, s)


def test_integrals_equal_stacked_reference(heston, pricing_grid):
    # t = 0 and dt = 0.005 land every step on a stored slice, where the greek
    # planes are the gradients of the value slice exactly
    n_paths, seed, n_steps = 1000, 6, 200
    dt = 1.0 / n_steps
    rho, xi = heston.rho, heston.xi
    rho_c = math.sqrt(1.0 - rho**2)
    g = pricing_grid
    # estimate_functionals draws from node key 0
    shocks, _ = _lane_reference(seed, (FUNCTIONAL_STREAM, 0), n_paths, n_steps)
    s, nu = np.full(n_paths, 103.0), np.full(n_paths, 2.0)
    a1, a2, a3 = np.zeros(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    for step in range(n_steps):
        sc = np.clip(s, g.s_grid[0], g.s_grid[-1])
        vc = np.clip(nu, g.nu_grid[0], g.nu_grid[-1])
        dplane, _, cplane = _gradient_planes(g, g.values[:, :, step])
        delta = _bilinear_ref(g, dplane, sc, vc)
        c_nu = _bilinear_ref(g, cplane, sc, vc)
        a1 += nu * (delta + rho * xi * c_nu) * dt
        a2 += nu * (delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2) * dt
        a3 += nu * c_nu**2 * dt
        root = np.sqrt(np.maximum(nu, 0.0))
        z_s = shocks[:, step, 0]
        z_v = rho * z_s + rho_c * shocks[:, step, 1]
        s = s + root * z_s * math.sqrt(dt)
        nu = np.maximum(nu + heston.theta * (heston.alpha - nu) * dt
                        + xi * root * z_v * math.sqrt(dt), 0.0)
    got = _simulate_integrals(103.0, 2.0, 0.0, 1.0, heston, g, n_paths, seed, dt, 1.0)
    for x, ref in zip(got, (a1, a2, a3)):
        np.testing.assert_array_equal(x, ref)


def _rgi_functionals(lattice, s, nu, t):
    """The interpolation as scipy evaluates it, on the clipped point."""
    nodes = (lattice.s_nodes, lattice.nu_nodes, lattice.t_nodes)
    pts = np.stack(np.broadcast_arrays(
        *(np.clip(np.asarray(x, dtype=np.float64), n[0], n[-1]) for n, x in zip(nodes, (s, nu, t)))),
        axis=-1)
    return tuple(RegularGridInterpolator(nodes, table, bounds_error=False, fill_value=None)(pts)
                 for table in (lattice.h1, lattice.h2, lattice.m))


def test_lattice_kernel_matches_regular_grid_interpolator(functional_lattice):
    lat = functional_lattice
    rng = np.random.default_rng(12)
    n = 500
    s = rng.uniform(80.0, 120.0, n)  # nodes span 88..112: part of each draw is outside
    nu = rng.uniform(-1.0, 10.0, n)  # nodes span 0.5..9
    t = rng.uniform(-0.1, 1.1, n)
    probes = [(s, nu, t), (s, nu, 0.37), (s[:, None], nu[None, :20], 0.6),
              (lat.s_nodes[2], lat.nu_nodes[1], lat.t_nodes[2]), (100.3, 4.1, 0.41),
              (130.0, -2.0, 2.0), (70.0, 20.0, -1.0)]
    for probe in probes:
        got = lat.functionals(*probe)
        ref = _rgi_functionals(lat, *probe)
        for g, r, table in zip(got, ref, (lat.h1, lat.h2, lat.m)):
            if np.ndim(probe[0]) == 0:
                assert isinstance(g, float)
                r = float(r.reshape(-1)[0])
            np.testing.assert_allclose(g, r, rtol=REL, atol=REL * np.abs(table).max())


def test_lattice_rejects_nan_points(functional_lattice):
    with pytest.raises(ValueError):
        functional_lattice.functionals(np.array([100.0, math.nan]), 4.0, 0.5)
    with pytest.raises(ValueError):
        functional_lattice.functionals(100.0, 4.0, math.nan)


def test_lattice_rejects_degenerate_axes():
    z = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        FunctionalLattice([100.0], [1.0, 2.0], [0.0, 1.0], z, z, z)
    with pytest.raises(ValueError):
        FunctionalLattice([100.0, 90.0], [1.0, 2.0], [0.0, 1.0], z.repeat(2, 0), z.repeat(2, 0),
                          z.repeat(2, 0))


def test_batched_build_equals_per_node_estimates(heston, risk_nofee, pricing_grid):
    # 9 nodes x 1000 paths per time: the 4096-path batches straddle nodes,
    # and lanes straddle the batches
    s_nodes, nu_nodes, t_nodes = np.linspace(95, 105, 3), np.linspace(1, 7, 3), np.linspace(0, 1, 3)
    seed = 40
    lat = FunctionalLattice.build(s_nodes, nu_nodes, t_nodes, 1.0, heston, risk_nofee,
                                  pricing_grid, n_paths=1000, seed=seed, dt_target=0.05)
    node = 0
    for i, sv in enumerate(s_nodes):
        for j, nv in enumerate(nu_nodes):
            for k, tv in enumerate(t_nodes):
                node += 1
                got = (lat.h1[i, j, k], lat.h2[i, j, k], lat.m[i, j, k])
                if tv == 1.0:
                    assert got == (0.0, 0.0, 0.0)
                    continue
                i1, i2, i3, _ = _integrals([(sv, nv, node)], tv, 1.0, heston, pricing_grid,
                                           1000, seed, 0.05)
                f = _functionals(i1, i2, i3, risk_nofee.gamma, heston.xi)
                assert got == (f.h1, f.h2, f.m)
    assert lat.h1[:, :, -1].max() == 0.0 and lat.h1[:, :, 0].min() < 0.0


def test_lattice_seeds_do_not_alias(heston, risk_nofee, pricing_grid, monkeypatch):
    # node n draws from (FUNCTIONAL_STREAM, n) under the master seed; seeding
    # node n with seed + n would give node 2 at seed s the shocks of node 1
    # at seed s + 1
    calls = []

    def recording(master, key, lo, hi, shocks, *args, **kwargs):
        lane_draws(master, key, lo, hi, shocks, *args, **kwargs)
        calls.append((master, key, lo, hi, shocks.copy()))

    monkeypatch.setattr(option_mm, "lane_draws", recording)
    s = 7
    for seed in (s, s + 1):
        FunctionalLattice.build([99.0, 101.0], [3.0, 5.0], [0.0, 0.5, 1.0], 1.0, heston,
                                risk_nofee, pricing_grid, n_paths=1000, seed=seed, dt_target=0.05)

    def node_shocks(master, node):
        key = (FUNCTIONAL_STREAM, node)
        rows = sorted((c for c in calls if c[:2] == (master, key)), key=lambda c: c[2])
        return np.concatenate([c[4] for c in rows])

    node2, node1 = node_shocks(s, 2), node_shocks(s + 1, 1)  # t = 0.5 and t = 0
    assert node2.shape == (1000, 10, 2) and node1.shape == (1000, 20, 2)
    assert not np.any(node2 == node1[:, :10])


def test_batched_build_edge_node_raises(heston, risk_nofee, pricing_grid):
    s_edge = pricing_grid.s_grid[-1] - 0.1
    with pytest.raises(GridExitError):
        FunctionalLattice.build([100.0, s_edge], [3.0, 5.0], [0.0, 1.0], 1.0, heston,
                                risk_nofee, pricing_grid, n_paths=1000, seed=5,
                                dt_target=0.05, max_exit_fraction=0.01)


def _recount_exits(heston, grid, T, dt, n_paths, seed):
    """Paths whose Euler path visits a state outside the grid, redrawn from
    the book's streams."""
    n_steps = round(T / dt)
    rho_c = math.sqrt(1.0 - heston.rho**2)
    exits = 0
    draws, _ = _lane_reference(seed, (OPTION_MM_STREAM,), n_paths, n_steps)
    for z in draws:
        s, nu = heston.s0, heston.nu0
        off = False
        for step in range(n_steps + 1):
            off |= not (grid.s_grid[0] <= s <= grid.s_grid[-1]
                        and grid.nu_grid[0] <= nu <= grid.nu_grid[-1])
            if step == n_steps:
                break
            root = math.sqrt(max(nu, 0.0))
            z_v = heston.rho * z[step, 0] + rho_c * z[step, 1]
            s = s + root * z[step, 0] * math.sqrt(dt)
            nu = max(nu + heston.theta * (heston.alpha - nu) * dt
                     + heston.xi * root * z_v * math.sqrt(dt), 0.0)
        exits += off
    return exits


def test_books_count_grid_exits(heston, arrival, risk_nofee):
    narrow = solve_call_grid(PricingConfig(heston=heston, strike=100.0, T=1.0,
                                           s_grid=tuple(np.linspace(97.0, 103.0, 25)),
                                           nu_grid=tuple(np.linspace(0.0, 6.0, 7))))
    z = np.zeros((2, 2, 2))
    lattice = FunctionalLattice([0.0, 200.0], [0.0, 20.0], [0.0, 1.0], z, z, z)
    args = dict(heston=heston, arrival=arrival, risk=risk_nofee, grid=narrow, lattice=lattice,
                T=1.0, dt=0.01, n_paths=200, seed=31)
    expected = _recount_exits(heston, narrow, 1.0, 0.01, 200, 31)
    assert expected > 0
    assert run_hedged_paths(**args).grid_exits == expected
    assert run_joint_paths(**args).grid_exits == expected
