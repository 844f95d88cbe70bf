"""The option layer's vectorized kernels against the computations they replace.

Each reference is the straightforward form kept here: draws read through
``lane_draws`` in one chunk of every step and sliced per step, greek planes
taken with ``np.gradient`` of a value slice, ``searchsorted`` cell lookups,
scipy's ``RegularGridInterpolator``, one ``solve_banded`` call per variance
level, each right-hand side of a stacked backward solve solved alone, and the
books' step loops written out from the market kernels.  Where the arithmetic is unchanged the results
must be equal; where only its order changed, the tolerance is fixed from
float64 rounding, not from a run.
"""

import contextlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

from hestonmm import cli, fd, option_mm, option_pricing
from hestonmm.heston import euler_step
from hestonmm.intensity import fills
from hestonmm.option_mm import (
    CHUNK,
    FunctionalLattice,
    hedged_book_quotes,
    joint_book_quotes,
    run_hedged_paths,
    run_joint_paths,
)
from hestonmm.option_pricing import (C, PRICE, PricingConfig, PricingGrid, cell, default_nu_grid,
                                     default_s_grid, douglas_steps, mc_terminal, solve_call_grid)
from hestonmm.seeding import (
    DEFAULT_BLOCK,
    FUNCTIONAL_STREAM,
    OPTION_MM_STREAM,
    PRICING_STREAM,
    lane_draws,
)
from oracles import _simulate_integrals

# relative to the largest magnitude involved: a few float64 roundings
REL = 1e-12


def _all_steps(seed, key, n_paths, n_steps, n_uniform=0):
    """Paths ``0..n_paths-1``'s shocks and uniforms, every step in one chunk:
    ``(n_steps, 2, n_paths)`` and ``(n_steps, n_uniform, n_paths)``."""
    (shocks, uniforms), = lane_draws(seed, key, 0, n_paths, n_steps, 2, n_uniform, chunk=n_steps)
    return shocks, uniforms


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


def _sinh_grid(hi, n):
    """In 't Hout & Foulon's stretched variance grid on [0, hi], d = hi / 10."""
    d = hi / 10.0
    return d * np.sinh(np.linspace(0.0, np.arcsinh(hi / d), n))


_GRIDS = st.one_of(
    st.builds(lambda lo, width, n: np.linspace(lo, lo + width, n),
              st.floats(-200.0, 200.0), st.floats(1e-2, 1e3), st.integers(3, 400)),
    st.builds(_sinh_grid, st.floats(0.1, 50.0), st.integers(3, 200)),
    st.builds(lambda lo, width: np.array([lo, lo + width]),
              st.floats(-200.0, 200.0), st.floats(1e-2, 1e3)),
)


@settings(max_examples=300, deadline=None, database=None)
@given(grid=_GRIDS, data=st.data())
def test_cell_is_searchsorted_on_any_increasing_grid(grid, data):
    # uniform, stretched and 2-node grids: points inside, every node and the
    # nodes' inside neighbours, as one array and one scalar at a time
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50)))
    x = np.concatenate([np.clip(grid[0] + u * (grid[-1] - grid[0]), grid[0], grid[-1]), grid,
                        np.nextafter(grid[1:], -np.inf), np.nextafter(grid[:-1], np.inf)])
    i, w = cell(grid, x)
    i_ref, w_ref = _searchsorted_cell(grid, x)
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(w, w_ref)
    for point in data.draw(st.lists(st.sampled_from(list(x)), min_size=1, max_size=5)):
        i, w = cell(grid, np.float64(point))
        i_ref, w_ref = _searchsorted_cell(grid, np.float64(point))
        assert (i, w) == (i_ref, w_ref) and np.ndim(i) == np.ndim(w) == 0


def test_greek_planes_at_stored_slices_are_gradients(pricing_grid):
    for it, t in enumerate(pricing_grid.times):
        c = pricing_grid.values[it]
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
        blend = (1.0 - wt) * v[it] + wt * v[it + 1]
        for plane, ref in zip(pricing_grid.greek_planes(t), _gradient_planes(pricing_grid, blend)):
            np.testing.assert_allclose(plane, ref, rtol=0, atol=REL * np.abs(ref).max())
        np.testing.assert_array_equal(pricing_grid.price(pricing_grid.s_grid[3:-3], 2.5, t),
                                      _bilinear_ref(pricing_grid, blend, pricing_grid.s_grid[3:-3], 2.5))


def test_price_column_blend_equals_full_blend(pricing_grid):
    # the joint book reads C from a one-column blend of the stacked slices
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


@pytest.mark.parametrize("cols", [slice(None), PRICE])
def test_slab_read_equals_one_read_per_row(pricing_grid, cols):
    # a (K, n_s, n_nu, m) slab of time slices read with (K, n) points: row r
    # is the read of slice r alone, bitwise
    g = pricing_grid
    rng = np.random.default_rng(8)
    times = [0.0, g.times[3], 0.1234, g.times[-2] + 0.3 * (g.times[-1] - g.times[-2]), 1.0]
    s = np.concatenate([rng.uniform(g.s_grid[0], g.s_grid[-1], (5, 300)),
                        np.tile(g.s_grid[[0, 1, -2, -1]], (5, 1))], axis=1)
    nu = np.concatenate([rng.uniform(g.nu_grid[0], g.nu_grid[-1], (5, 300)),
                         np.tile(g.nu_grid[[0, 2, -1, -1]], (5, 1))], axis=1)
    slab = np.stack([g._time_slice(t, cols) for t in times])
    got = g._bilinear(slab, s, nu)
    assert got.shape == s.shape + slab.shape[-1:]
    for r, t in enumerate(times):
        np.testing.assert_array_equal(got[r], g._bilinear(g._time_slice(t, cols), s[r], nu[r]))


def test_cached_planes_are_read_only(pricing_grid):
    assert not pricing_grid.values.flags.writeable
    assert not solve_call_grid(pricing_grid.config).values.flags.writeable
    t = pricing_grid.times[4]
    # a derived slice, and the reads that return it or a view of it at a stored time
    read = (pricing_grid._planes(4), pricing_grid._time_slice(t), pricing_grid._time_slice(t, PRICE))
    for plane in pricing_grid.greek_planes(t) + read:
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[0, 0] = 1.0


class _Ledger(dict):
    """A grid's cache of derived slices that logs the stored time of each
    slice derived into it."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __setitem__(self, it, planes):
        self.log.append(it)
        super().__setitem__(it, planes)


@pytest.fixture
def derived(monkeypatch):
    """The stored times of the slices that the grids made in a test derive, in order."""
    log = []
    post_init = PricingGrid.__post_init__

    def logged(self):
        post_init(self)
        self._derived = _Ledger(log)

    monkeypatch.setattr(PricingGrid, "__post_init__", logged)
    return log


def test_price_option_derives_one_slice(derived, tmp_path):
    # criterion 11's small pricer grid; the CSV holds the t = 0 slice alone
    argv = ["price-option", "--seed", "42", "--set", "pricing.n_s=41", "--set", "pricing.n_nu=9",
            "--set", "pricing.n_time=60", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert derived == [0]


@pytest.mark.parametrize("dt", [0.01, 1.0 / 270], ids=["on-slices", "between-slices"])
def test_lattice_and_books_derive_each_slice_at_most_once(derived, heston, arrival, risk_nofee, dt):
    # criterion 11's small option-mm grids, at its book step and one between the stored times
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0, n_time=100,
                        s_grid=tuple(default_s_grid(heston, 1.0, 81)),
                        nu_grid=tuple(default_nu_grid(heston, 1.0, 16)))
    grid = solve_call_grid(cfg)
    assert derived == []
    lattice = FunctionalLattice.build(np.linspace(88.0, 112.0, 3), np.linspace(0.5, 9.0, 3),
                                      np.linspace(0.0, 1.0, 3), 1.0, heston, risk_nofee, grid)
    assert derived == list(range(cfg.n_time, -1, -1))  # the backward solve's sources, once each
    derived.clear()
    books = dict(grid=grid, lattice=lattice, T=1.0, dt=dt, n_paths=20, seed=42)
    run_joint_paths(heston, arrival, risk_nofee, **books)
    grid.price(np.array([95.0, 100.0]), 4.0, 0.0)
    grid.price(100.0, 4.0, 0.4321)
    assert derived == []  # C alone is read from the stored values
    run_hedged_paths(heston, arrival, risk_nofee, **books)
    assert derived and len(derived) == len(set(derived))


def test_planes_read_in_any_order_are_the_planes_read_in_order(pricing_grid):
    in_order = replace(pricing_grid)  # a grid on the same values with nothing derived
    want = [in_order._planes(it) for it in range(pricing_grid.times.size)]
    shuffled = replace(pricing_grid)
    order = np.random.default_rng(11).permutation(np.repeat(np.arange(pricing_grid.times.size), 2))
    for it in order:
        assert shuffled._planes(it).tobytes() == want[it].tobytes()


def test_greeks_match_per_plane_interpolation(pricing_grid):
    s = np.array([90.0, 99.9, 100.0, 107.3])
    nu = np.array([0.0, 1.7, 4.0, 9.2])
    t = pricing_grid.times[20]
    refs = [_bilinear_ref(pricing_grid, p, s, nu)
            for p in _gradient_planes(pricing_grid, pricing_grid.values[20])]
    got = pricing_grid._bilinear(pricing_grid._time_slice(t), s, nu)  # (C, delta, gamma, c_nu)
    for col, ref in zip(got.T[1:], refs):
        np.testing.assert_array_equal(col, ref)


def test_mm_draws_fill_equals_stacked_draws():
    # the books' draws, CHUNK steps at a time: a block inside one lane, and
    # one spanning three lanes, against every step of paths 0..199 at once
    n_steps, n_uniform = 37, 4
    ref_z, ref_u = _all_steps(9, (OPTION_MM_STREAM,), 200, n_steps, n_uniform)
    for lo, hi in [(5, 11), (60, 190)]:
        chunks = list(lane_draws(9, (OPTION_MM_STREAM,), lo, hi, n_steps, 2, n_uniform, chunk=CHUNK))
        assert len(chunks) == -(-n_steps // CHUNK)
        np.testing.assert_array_equal(np.concatenate([z for z, _ in chunks]), ref_z[..., lo:hi])
        np.testing.assert_array_equal(np.concatenate([u for _, u in chunks]), ref_u[..., lo:hi])


def test_mc_terminal_equals_stacked_reference(pricing_grid):
    cfg = pricing_grid.config
    h = cfg.heston
    # the paths past DEFAULT_BLOCK run as a second block
    n_paths, n_steps = DEFAULT_BLOCK + 150, 40
    dt = 1.0 / n_steps
    rho_c = math.sqrt(1.0 - h.rho**2)
    risk_adj = h.xi * rho_c * cfg.eta_nu
    shocks, _ = _all_steps(4, (PRICING_STREAM,), n_paths, n_steps)
    s, v = np.full(n_paths, 100.0), np.full(n_paths, 4.0)
    for step in range(n_steps):
        v_pos = np.maximum(v, 0.0)
        root = np.sqrt(v_pos)
        z_s = shocks[step, 0]
        z_v = h.rho * z_s + rho_c * shocks[step, 1]
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
    shocks, _ = _all_steps(seed, (FUNCTIONAL_STREAM, 0), n_paths, n_steps)
    s, nu = np.full(n_paths, 103.0), np.full(n_paths, 2.0)
    a1, a2, a3 = np.zeros(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    for step in range(n_steps):
        sc = np.clip(s, g.s_grid[0], g.s_grid[-1])
        vc = np.clip(nu, g.nu_grid[0], g.nu_grid[-1])
        dplane, _, cplane = _gradient_planes(g, g.values[step])
        delta = _bilinear_ref(g, dplane, sc, vc)
        c_nu = _bilinear_ref(g, cplane, sc, vc)
        a1 += nu * (delta + rho * xi * c_nu) * dt
        a2 += nu * (delta**2 + 2.0 * rho * xi * delta * c_nu + xi**2 * c_nu**2) * dt
        a3 += nu * c_nu**2 * dt
        root = np.sqrt(np.maximum(nu, 0.0))
        z_s = shocks[step, 0]
        z_v = rho * z_s + rho_c * shocks[step, 1]
        s = s + root * z_s * math.sqrt(dt)
        nu = np.maximum(nu + heston.theta * (heston.alpha - nu) * dt
                        + xi * root * z_v * math.sqrt(dt), 0.0)
    got = _simulate_integrals(103.0, 2.0, 0.0, heston, g, n_paths, seed, dt, 1.0)
    for x, ref in zip(got, (a1, a2, a3)):
        np.testing.assert_array_equal(x, ref)


def _rgi_functionals(lattice, s, nu, t):
    """The interpolation as scipy evaluates it, on the clipped points, row
    ``r`` of ``(s, nu)`` at time ``t[r]``."""
    nodes = (lattice.s_nodes, lattice.nu_nodes, lattice.t_nodes)
    pts = np.stack(np.broadcast_arrays(
        *(np.clip(x, n[0], n[-1]) for n, x in zip(nodes, (s, nu, t[:, None])))), axis=-1)
    return tuple(RegularGridInterpolator(nodes, np.moveaxis(lattice.table[..., c], 0, -1),
                                         bounds_error=False, fill_value=None)(pts)
                 for c in range(3))


# one time per row: before the first node, at each node, between nodes, at T
# and past it
ROW_TIMES = np.array([-0.1, 0.0, 0.13, 0.25, 0.37, 0.5, 0.5 + 1e-9, 0.6, 0.75, 0.999, 1.0, 1.1])


def test_lattice_kernel_matches_regular_grid_interpolator(functional_lattice):
    lat = functional_lattice
    rng = np.random.default_rng(12)
    n = 500
    s = rng.uniform(80.0, 120.0, (ROW_TIMES.size, n))  # nodes span 88..112: part of each draw is outside
    nu = rng.uniform(-1.0, 10.0, (ROW_TIMES.size, n))  # nodes span 0.5..9
    corners = np.array([[130.0, 70.0, lat.s_nodes[2], 100.3], [-2.0, 20.0, lat.nu_nodes[1], 4.1]])
    s[:, :4], nu[:, :4] = corners  # far outside the box, on a node, and inside a cell
    got = lat.functionals(s, nu, ROW_TIMES)
    for g, r, c in zip(got, _rgi_functionals(lat, s, nu, ROW_TIMES), range(3)):
        assert g.shape == s.shape
        np.testing.assert_allclose(g, r, rtol=REL, atol=REL * np.abs(lat.table[..., c]).max())


def test_lattice_blends_in_t_then_reads_bilinearly(functional_lattice):
    lat = functional_lattice
    rng = np.random.default_rng(5)
    shape = (ROW_TIMES.size, 300)
    s, nu = rng.uniform(80.0, 120.0, shape), rng.uniform(-1.0, 10.0, shape)
    got = lat.functionals(s, nu, ROW_TIMES)
    for r, t in enumerate(ROW_TIMES):
        k, wk = _searchsorted_cell(lat.t_nodes, np.clip(t, lat.t_nodes[0], lat.t_nodes[-1]))
        plane = (1.0 - wk) * lat.table[k] + wk * lat.table[k + 1]
        i, wi = _searchsorted_cell(lat.s_nodes, np.clip(s[r], lat.s_nodes[0], lat.s_nodes[-1]))
        j, wj = _searchsorted_cell(lat.nu_nodes, np.clip(nu[r], lat.nu_nodes[0], lat.nu_nodes[-1]))
        wi, wj = wi[:, None], wj[:, None]
        ref = ((1 - wi) * (1 - wj) * plane[i, j] + wi * (1 - wj) * plane[i + 1, j]
               + (1 - wi) * wj * plane[i, j + 1] + wi * wj * plane[i + 1, j + 1])
        for col, want in zip(got, ref.T):
            np.testing.assert_array_equal(col[r], want)


def test_lattice_returns_the_stored_values_at_the_nodes(functional_lattice):
    lat = functional_lattice
    s, nu = np.meshgrid(lat.s_nodes, lat.nu_nodes, indexing="ij")
    rows = (lat.t_nodes.size, s.size)
    got = lat.functionals(np.broadcast_to(s.ravel(), rows), np.broadcast_to(nu.ravel(), rows),
                          lat.t_nodes)
    for c, col in enumerate(got):
        np.testing.assert_array_equal(col.reshape(lat.table.shape[:3]), lat.table[..., c])


def test_lattice_rejects_degenerate_axes():
    nu, t = np.array([1.0, 2.0]), np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        FunctionalLattice(np.array([100.0]), nu, t, np.zeros((2, 1, 2, 3)))
    with pytest.raises(ValueError):
        FunctionalLattice(np.array([100.0, 90.0]), nu, t, np.zeros((2, 2, 2, 3)))


def _recount_exits(heston, grid, T, dt, n_paths, seed):
    """Paths whose Euler path visits a state outside the grid, redrawn from
    the book's streams."""
    n_steps = round(T / dt)
    rho_c = math.sqrt(1.0 - heston.rho**2)
    exits = 0
    shocks, _ = _all_steps(seed, (OPTION_MM_STREAM,), n_paths, n_steps)
    for z in shocks.transpose(2, 0, 1):
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
    lattice = FunctionalLattice(np.array([0.0, 200.0]), np.array([0.0, 20.0]), np.array([0.0, 1.0]),
                                np.zeros((2, 2, 2, 3)))
    args = dict(heston=heston, arrival=arrival, risk=risk_nofee, grid=narrow, lattice=lattice,
                T=1.0, dt=0.01, n_paths=200, seed=31)
    expected = _recount_exits(heston, narrow, 1.0, 0.01, 200, 31)
    assert expected > 0
    assert run_hedged_paths(**args).grid_exits == expected
    assert run_joint_paths(**args).grid_exits == expected


def test_clamp_reads_off_grid_states_at_the_edge(pricing_grid):
    s_lo, s_hi = pricing_grid.s_grid[[0, -1]]
    nu_hi = pricing_grid.nu_grid[-1]
    s = np.array([100.0, s_lo, s_hi + 1.0, 100.0, np.nan])
    nu = np.array([1.0, nu_hi, 1.0, -0.5, 1.0])
    sc, vc, outside = pricing_grid.clamp(s, nu)
    np.testing.assert_array_equal(sc[:4], [100.0, s_lo, s_hi, 100.0])
    np.testing.assert_array_equal(vc, [1.0, nu_hi, 1.0, pricing_grid.nu_grid[0], 1.0])
    # a state on the edge is inside; a non-finite one is outside
    np.testing.assert_array_equal(outside, [False, False, True, True, True])


def _scipy_ab(lower, diag, upper):
    """Tridiagonal ``(lower, diag, upper)`` in scipy's ``(3, n)`` banded layout."""
    return np.stack([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])


def _per_level_solves(cfg, calls):
    """``solve_banded`` as the pricer calls it, except that the s-direction
    system (the one with an operator per variance level) is solved one level
    at a time by scipy, against that level's implicit factor built on its own."""
    half = 0.5 * cfg.T / cfg.n_time
    d2 = fd.operator_diagonals(cfg.s, 0.0, 1.0)
    factors = []
    for v in cfg.nu:
        lower, diag, upper = (0.5 * v * d for d in d2)
        lower[[0, -1]] = diag[[0, -1]] = upper[[0, -1]] = 0.0  # Dirichlet rows
        ab = _scipy_ab(-half * lower, 1.0 - half * diag, -half * upper)
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        factors.append(ab)

    def solve(diags, b):
        if diags[1].ndim == 1:  # the nu-direction: one operator for every s row
            return fd.solve_banded(diags, b)
        calls.append(b.size)
        np.testing.assert_array_equal(_scipy_ab(*(d.ravel() for d in diags)),
                                      np.concatenate(factors, axis=1))
        return np.stack([solve_banded((1, 1), f, row) for f, row in zip(factors, b)])

    return solve


@pytest.mark.parametrize("variant", ["default", "nonuniform_s", "eta_nu"])
def test_batched_s_solve_equals_per_level_solves(heston, monkeypatch, variant):
    s = np.concatenate([np.linspace(60.0, 94.0, 25), np.linspace(94.5, 106.0, 70),
                        np.linspace(107.0, 140.0, 20)])
    kw = {"default": {}, "nonuniform_s": {"s_grid": tuple(s)}, "eta_nu": {"eta_nu": 0.8}}[variant]
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0, **kw)
    batched = solve_call_grid(cfg).values
    calls = []
    monkeypatch.setattr(option_pricing, "solve_banded", _per_level_solves(cfg, calls))
    reference = solve_call_grid(cfg).values
    assert calls == [cfg.s.size * cfg.nu.size] * cfg.n_time
    np.testing.assert_array_equal(batched, reference)


def test_stacked_douglas_steps_equal_separate_solves(heston):
    # the s-systems of a stack are one tiled block-diagonal solve: each
    # right-hand side must come out as it does alone
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal((3, cfg.s.size, cfg.nu.size))
    f = rng.standard_normal((cfg.n_time + 1,) + u0.shape)
    stacked = list(douglas_steps(cfg, u0, lambda it: f[it]))
    assert len(stacked) == cfg.n_time
    for m in range(3):
        for alone, both in zip(douglas_steps(cfg, u0[m], lambda it: f[it, m]), stacked):
            np.testing.assert_array_equal(alone, both[m])


def test_douglas_steps_integrate_a_constant_source(heston):
    # u = (T - t) f solves u_t + L u + f = 0 for constant f, since L has no
    # reaction term; without s-edge values the edge rows follow it too
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    level = np.array([1.0, 3.0])[:, None, None]
    f = level * np.ones((cfg.s.size, cfg.nu.size))
    for back, u in enumerate(douglas_steps(cfg, np.zeros_like(f), lambda it: f), 1):
        np.testing.assert_allclose(u, back * cfg.T / cfg.n_time * f, rtol=0.0,
                                   atol=REL * cfg.T * level.max())


def _clamped(grid, s, nu):
    return (np.clip(s, grid.s_grid[0], grid.s_grid[-1]),
            np.clip(nu, grid.nu_grid[0], grid.nu_grid[-1]))


def _lattice_at(lat, g, s, nu, t):
    """(H1, H2, M) at the clamped states of one step, read as one row."""
    s, nu = _clamped(g, s, nu)
    return [col[0] for col in lat.functionals(s[None], nu[None], np.array([t]))]


def _end_time(step, n_steps, dt, T):
    """A book's time at the end of ``step``: the last step ends at ``T`` itself."""
    return T if step + 1 == n_steps else (step + 1) * dt


def _joint_step_loop(g, lat, heston, arrival, risk, n, T, dt, seed, q_s0, q_o0):
    """The joint book written out step by step: per-path z and QV, and q_s, q_o."""
    n_steps = round(T / dt)
    shocks, uniforms = _all_steps(seed, (OPTION_MM_STREAM,), n, n_steps, 4)
    s, nu = np.full(n, heston.s0), np.full(n, heston.nu0)
    q_s, q_o = np.full(n, q_s0), np.full(n, q_o0)
    z, qv = np.zeros(n), np.zeros(n)
    for step in range(n_steps):
        t = step * dt
        c_now = g.price(*_clamped(g, s, nu), t)
        h1, h2, _ = _lattice_at(lat, g, s, nu, t)
        quotes = joint_book_quotes(q_s, q_o, nu, t, T, h1, h2, arrival, heston, risk)
        hit, _ = fills(quotes, uniforms[step].T, arrival, dt)
        paid = np.where(hit, quotes, 0.0)
        z += paid[:, 0] + paid[:, 1] + paid[:, 2] + paid[:, 3]
        q_s += hit[:, 1].astype(int) - hit[:, 0]
        q_o += hit[:, 3].astype(int) - hit[:, 2]
        ds, nu = euler_step(heston, dt, nu, shocks[step, 0], shocks[step, 1])
        s = s + ds
        qv += (q_s * ds + q_o * (g.price(*_clamped(g, s, nu), _end_time(step, n_steps, dt, T)) - c_now)) ** 2
    return z, qv, q_s, q_o


def _hedged_step_loop(g, lat, heston, arrival, n, T, dt, seed, q_o0):
    """The hedged book written out step by step: per-path z, hedged and
    option-only QV, the predicted rate's sum, q_o, and the trace of path 0's
    quotes."""
    n_steps = round(T / dt)
    shocks, uniforms = _all_steps(seed, (OPTION_MM_STREAM,), n, n_steps, 2)
    s, nu = np.full(n, heston.s0), np.full(n, heston.nu0)
    q_o = np.full(n, q_o0)
    z, acc_h, acc_u, acc_pred, trace = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), []
    for step in range(n_steps):
        t = step * dt
        c_now = g.price(*_clamped(g, s, nu), t)
        _, delta, _, c_nu = g._bilinear(g._time_slice(t), *_clamped(g, s, nu)).T
        quotes = hedged_book_quotes(q_o, _lattice_at(lat, g, s, nu, t)[2], arrival)
        trace.append(quotes[0])
        hit, _ = fills(quotes, uniforms[step].T, arrival, dt)
        paid = np.where(hit, quotes, 0.0)
        z += paid[:, 0] + paid[:, 1]
        q_o += hit[:, 1].astype(int) - hit[:, 0]
        acc_pred += nu * heston.xi**2 * c_nu**2 * q_o**2 * dt
        ds, nu = euler_step(heston, dt, nu, shocks[step, 0], shocks[step, 1])
        s = s + ds
        dc = g.price(*_clamped(g, s, nu), _end_time(step, n_steps, dt, T)) - c_now
        acc_h += (-q_o * delta * ds + q_o * dc) ** 2
        acc_u += (q_o * dc) ** 2
    return z, acc_h, acc_u, acc_pred, q_o, np.array(trace)


def test_joint_book_equals_a_step_loop(heston, arrival, risk_nofee, pricing_grid,
                                       functional_lattice):
    # each step reads the price at its start and at its end, both at the
    # clamped state, and H1/H2 at its start
    g, lat = pricing_grid, functional_lattice
    n, T, dt, seed = 40, 0.2, 0.01, 19
    z, qv, q_s, q_o = _joint_step_loop(g, lat, heston, arrival, risk_nofee, n, T, dt, seed, 1, -2)
    st = run_joint_paths(heston, arrival, risk_nofee, g, lat, T=T, dt=dt, n_paths=n, seed=seed,
                         q_s0=1, q_o0=-2)
    np.testing.assert_array_equal(st.z_terminal, z)
    np.testing.assert_array_equal(st.qv_terminal, qv)
    assert (st.q_s_mean, st.q_o_mean) == (float(q_s.mean()), float(q_o.mean()))
    assert np.unique(q_o).size > 1 and qv.min() > 0.0  # fills and price moves were seen


def test_hedged_book_equals_a_step_loop(heston, arrival, risk_nofee, pricing_grid,
                                        functional_lattice):
    g, lat = pricing_grid, functional_lattice
    n, T, dt, seed = 40, 0.2, 0.01, 23
    n_steps = round(T / dt)
    z, acc_h, acc_u, acc_pred, q_o, _ = _hedged_step_loop(g, lat, heston, arrival, n, T, dt, seed, 1)
    st = run_hedged_paths(heston, arrival, risk_nofee, g, lat, T=T, dt=dt, n_paths=n, seed=seed,
                          q_o0=1)
    np.testing.assert_array_equal(st.qv_hedged, acc_h)
    np.testing.assert_array_equal(st.qv_unhedged, acc_u)
    np.testing.assert_array_equal(st.qv_rate_pred, acc_pred / (n_steps * dt))
    assert (st.z_mean, st.q_o_mean) == (float(z.mean()), float(q_o.mean()))
    assert np.unique(q_o).size > 1


def test_option_mm_has_no_interpolation_kernel_of_its_own():
    # the books, the integrands and the lattice read through option_pricing's kernel
    assert ".take(" not in Path(option_mm.__file__).read_text()


@pytest.mark.parametrize("n_steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_books_equal_a_step_loop_at_the_chunk_edges(heston, arrival, risk_nofee, pricing_grid,
                                                     functional_lattice, n_steps):
    # fewer steps than one chunk, exactly one, one past it, and one past two
    g, lat, dt = pricing_grid, functional_lattice, 0.025
    T = n_steps * dt
    z, qv, q_s, q_o = _joint_step_loop(g, lat, heston, arrival, risk_nofee, 40, T, dt, 19, 1, -2)
    st_j = run_joint_paths(heston, arrival, risk_nofee, g, lat, T=T, dt=dt, n_paths=40, seed=19,
                           q_s0=1, q_o0=-2)
    np.testing.assert_array_equal(st_j.z_terminal, z)
    np.testing.assert_array_equal(st_j.qv_terminal, qv)
    assert (st_j.q_s_mean, st_j.q_o_mean) == (float(q_s.mean()), float(q_o.mean()))
    z, acc_h, acc_u, acc_pred, q_o, trace = _hedged_step_loop(g, lat, heston, arrival, 40, T, dt, 23, 1)
    st_h = run_hedged_paths(heston, arrival, risk_nofee, g, lat, T=T, dt=dt, n_paths=40,
                            seed=23, q_o0=1)
    np.testing.assert_array_equal(st_h.qv_hedged, acc_h)
    np.testing.assert_array_equal(st_h.qv_unhedged, acc_u)
    np.testing.assert_array_equal(st_h.qv_rate_pred, acc_pred / T)
    assert (st_h.z_mean, st_h.q_o_mean) == (float(z.mean()), float(q_o.mean()))
    np.testing.assert_array_equal(np.stack([st_h.trace["a_o"], st_h.trace["b_o"]], axis=1), trace)
