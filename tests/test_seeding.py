"""The keyed-lane contract: path ``i``'s draws depend only on
``(seed, key, i)``, whatever range, block layout or worker count asks for them."""

import mmap
import re
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from hestonmm import seeding
from hestonmm.heston import sample_terminal
from hestonmm.option_pricing import PricingConfig, mc_terminal
from hestonmm.quotes import InventorySV
from hestonmm.seeding import DEFAULT_BLOCK, LANE, SIM_STREAM, lane_draws, map_blocks
from hestonmm.sim_engine import ENSEMBLE_BLOCK, SimConfig, run_ensemble, run_path

N_STEPS, N_UNIFORM = 7, 3


def _draws(lo, hi, scheme="gaussian", key=(SIM_STREAM,), seed=11):
    shocks = np.empty((hi - lo, N_STEPS, 2))
    uniforms = np.empty((hi - lo, N_STEPS, N_UNIFORM))
    lane_draws(seed, key, lo, hi, shocks, uniforms, scheme)
    return shocks, uniforms


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
def test_draws_independent_of_range(scheme):
    z_all, u_all = _draws(0, 1000, scheme)
    for lo, hi in [(0, 1), (63, 65), (100, 1000), (64, 128), (5, 6), (0, 1000), (999, 1000)]:
        z, u = _draws(lo, hi, scheme)
        np.testing.assert_array_equal(z, z_all[lo:hi])
        np.testing.assert_array_equal(u, u_all[lo:hi])


def test_shocks_do_not_depend_on_uniforms():
    z, _ = _draws(30, 200)
    alone = np.empty_like(z)
    lane_draws(11, (SIM_STREAM,), 30, 200, alone)
    np.testing.assert_array_equal(alone, z)


def test_keys_and_seeds_give_distinct_draws():
    z, _ = _draws(0, 2 * LANE)
    assert not np.any(z[:LANE] == z[LANE:])  # lanes differ
    for other in [_draws(0, 2 * LANE, key=(SIM_STREAM, 1))[0], _draws(0, 2 * LANE, seed=12)[0]]:
        assert not np.any(other == z)


def test_binomial_signs_and_unit_uniforms():
    z, u = _draws(0, 300, "binomial")
    assert set(np.unique(z)) == {-1.0, 1.0}
    assert abs(z.mean()) < 0.05
    assert u.min() >= 0.0 and u.max() < 1.0
    zg, ug = _draws(0, 300, "gaussian")
    assert abs(zg.mean()) < 0.05 and abs(zg.std() - 1.0) < 0.05
    assert ug.min() >= 0.0 and ug.max() < 1.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _draws(0, 10, "uniform")
    with pytest.raises(ValueError):
        lane_draws(1, (SIM_STREAM,), 0, 10, np.empty((9, N_STEPS, 2)))
    with pytest.raises(ValueError):
        lane_draws(1, (SIM_STREAM,), 0, 10, np.empty((10, N_STEPS, 2)), np.empty((11, N_STEPS, 1)))


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
def test_sample_terminal_agrees_across_sizes(heston, scheme):
    runs = {n: sample_terminal(heston, 1.0, 20, n, seed=3, scheme=scheme) for n in (1, 63, 64, 65)}
    for n, (s, nu) in runs.items():
        np.testing.assert_array_equal(s, runs[65][0][:n])
        np.testing.assert_array_equal(nu, runs[65][1][:n])


@pytest.fixture()
def sim(heston, arrival, risk):
    return SimConfig(heston=heston, arrival=arrival, risk=risk, T=0.5, dt=0.005)


def test_ensemble_independent_of_blocks_and_threads(heston, arrival, risk, sim):
    # 2,100 paths run as three blocks; the first 1,000 as one
    pol = InventorySV(heston, arrival, risk, sim.T)
    n = 2 * ENSEMBLE_BLOCK + 52
    a = run_ensemble(pol, sim, n, seed=4)
    b = run_ensemble(pol, sim, n, seed=4, threads=2)
    for name in ("profits", "q_terminal", "z_terminal", "qv_terminal", "iv_terminal"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.curve_mean, b.curve_mean)
    np.testing.assert_array_equal(a.curve_std, b.curve_std)
    assert a.clipped == b.clipped
    small = run_ensemble(pol, sim, 1000, seed=4)
    for name in ("profits", "q_terminal", "z_terminal", "qv_terminal", "iv_terminal"):
        np.testing.assert_array_equal(getattr(a, name)[:1000], getattr(small, name))


@pytest.mark.parametrize("threads", [1, 3])
def test_map_blocks_returns_blocks_in_index_order(threads):
    caller, ran_on = threading.get_ident(), set()

    def block(lo, hi):
        ran_on.add(threading.get_ident())
        time.sleep(0.002 * max(10 - lo, 0))  # on a pool, later blocks finish first
        return lo, hi

    # the last block is short
    assert map_blocks(10, block, block=4, threads=threads) == [(0, 4), (4, 8), (8, 10)]
    assert map_blocks(3, block, block=4, threads=threads) == [(0, 3)]
    assert map_blocks(DEFAULT_BLOCK + 1, block, threads=threads) == [
        (0, DEFAULT_BLOCK), (DEFAULT_BLOCK, DEFAULT_BLOCK + 1)]
    # one thread, or a single block, runs on the calling thread
    assert (ran_on == {caller}) == (threads == 1)


@pytest.mark.parametrize("n", [0, -3])
def test_map_blocks_rejects_no_paths(n):
    with pytest.raises(ValueError):
        map_blocks(n, lambda lo, hi: None)


def _mapping(a):
    """The object owning an array's memory."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.mark.parametrize("lazy", [False, True])
def test_os_array_is_a_mapping_released_with_the_array(lazy):
    a = seeding.os_array((3, 5, 2), lazy=lazy)
    assert a.shape == (3, 5, 2) and a.dtype == np.float64
    assert a.flags.writeable and a.flags.c_contiguous
    a[:] = 1.5
    assert a.sum() == 45.0
    mapping = weakref.ref(_mapping(a))
    assert isinstance(mapping(), mmap.mmap)
    del a
    assert mapping() is None  # unmapped at once, not kept by an allocator
    assert seeding.os_array((0, 4)).shape == (0, 4)


def test_pricing_surfaces_are_os_mappings(pricing_grid):
    """The grid's values and stacked slices, the largest arrays of an
    option-mm run, never pass through malloc."""
    assert isinstance(_mapping(pricing_grid.values), mmap.mmap)
    assert isinstance(_mapping(pricing_grid._stack), mmap.mmap)


def test_only_the_seeding_module_builds_a_thread_pool():
    src = Path(seeding.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"^\s*(import concurrent|from concurrent)", p.read_text(), re.M))
    assert users == ["seeding.py"]


def test_run_path_replays_ensemble_member(heston, arrival, risk, sim):
    pol = InventorySV(heston, arrival, risk, sim.T)
    stats = run_ensemble(pol, sim, 100, seed=8)
    rec = run_path(pol, sim, seed=8, index=64)
    assert rec.profit == stats.profits[64]
    assert rec.q == stats.q_terminal[64]
    assert rec.qv == stats.qv_terminal[64]


def test_mc_terminal_prefix_of_larger_run(heston):
    # 5,000 paths cross a block boundary; 1,000 fit in one block
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    small = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=1000, seed=6, dt_target=0.05)
    large = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=5000, seed=6, dt_target=0.05)
    assert large.size > DEFAULT_BLOCK
    np.testing.assert_array_equal(large[:1000], small)
