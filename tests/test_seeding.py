"""The keyed-lane contract: path ``i``'s draws depend only on
``(seed, key, i)``, whatever range, block layout or worker count asks for them."""

import functools
import mmap
import re
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import seeding
from hestonmm.heston import sample_terminal
from hestonmm.option_pricing import PricingConfig, mc_terminal
from hestonmm.quotes import InventorySV
from hestonmm.seeding import DEFAULT_BLOCK, LANE, SIM_STREAM, lane_draws, map_blocks, path_generator
from hestonmm.sim_engine import ENSEMBLE_BLOCK, SimConfig, run_ensemble, run_path

N_STEPS, N_UNIFORM = 7, 3


def _draws(lo, hi, scheme="gaussian", key=(SIM_STREAM,), seed=11):
    return lane_draws(seed, key, lo, hi, N_STEPS, 2, N_UNIFORM, scheme)


ALL_PATHS = 700


@functools.cache
def _all_draws(n_steps, n_shocks, n_uniforms, scheme):
    return lane_draws(11, (SIM_STREAM,), 0, ALL_PATHS, n_steps, n_shocks, n_uniforms, scheme)


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
@given(
    bounds=st.lists(st.integers(0, ALL_PATHS), min_size=2, max_size=2, unique=True).map(sorted),
    n_steps=st.integers(1, 5),
    n_shocks=st.sampled_from([1, 2]),
    n_uniforms=st.sampled_from([0, 2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_draws_independent_of_range(scheme, bounds, n_steps, n_shocks, n_uniforms):
    lo, hi = bounds
    z, u = lane_draws(11, (SIM_STREAM,), lo, hi, n_steps, n_shocks, n_uniforms, scheme)
    assert z.shape == (n_steps, n_shocks, hi - lo) and u.shape == (n_steps, n_uniforms, hi - lo)
    z_all, u_all = _all_draws(n_steps, n_shocks, n_uniforms, scheme)
    np.testing.assert_array_equal(z, z_all[..., lo:hi])
    np.testing.assert_array_equal(u, u_all[..., lo:hi])


def _path_major(lo, hi, n_steps, n_shocks, n_uniforms, scheme, key=(SIM_STREAM, 2), seed=11):
    """Paths ``lo..hi-1``'s draws as each lane generator makes them: all 64
    paths' shocks, path by path and step by step, then all their uniforms."""
    lanes = range(lo // LANE, -(-hi // LANE))
    z, u = [], []
    for lane in lanes:
        rng = path_generator(seed, *key, lane)
        if scheme == "gaussian":
            z.append(rng.standard_normal((LANE, n_steps, n_shocks)))
        else:
            z.append(rng.integers(0, 2, size=(LANE, n_steps, n_shocks), dtype=np.int8) * 2 - 1)
        u.append(rng.random((LANE, n_steps, n_uniforms)))
    rows = slice(lo - lanes[0] * LANE, hi - lanes[0] * LANE)
    return np.concatenate(z)[rows], np.concatenate(u)[rows]


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
@pytest.mark.parametrize("lo, hi", [(5, 11), (37, 200), (64, 128)])
def test_draws_are_the_lane_streams_transposed(scheme, lo, hi):
    # pins the stream: column k of step j is path lo + k's draws at step j
    n_steps, n_shocks, n_uniforms = 5, 2, 3
    z, u = lane_draws(11, (SIM_STREAM, 2), lo, hi, n_steps, n_shocks, n_uniforms, scheme)
    ref_z, ref_u = _path_major(lo, hi, n_steps, n_shocks, n_uniforms, scheme)
    assert z.dtype == ref_z.dtype and u.dtype == ref_u.dtype == np.float64
    np.testing.assert_array_equal(z.transpose(2, 0, 1), ref_z)
    np.testing.assert_array_equal(u.transpose(2, 0, 1), ref_u)
    for step in range(n_steps):  # the kernels read one step's draws as contiguous rows
        assert z[step, 0].flags.c_contiguous and u[step, 1].flags.c_contiguous


def test_draws_are_rows_of_whole_lane_mappings():
    z, u = _draws(70, 75)
    assert z.shape == (N_STEPS, 2, 5) and u.shape == (N_STEPS, N_UNIFORM, 5)
    assert len(_mapping(z)) == 8 * LANE * N_STEPS * 2  # lane 1, all 64 rows
    assert len(_mapping(u)) == 8 * LANE * N_STEPS * N_UNIFORM


def test_shocks_do_not_depend_on_uniforms():
    z, _ = _draws(30, 200)
    alone, no_uniforms = lane_draws(11, (SIM_STREAM,), 30, 200, N_STEPS, 2)
    assert no_uniforms.shape == (N_STEPS, 0, 170)
    np.testing.assert_array_equal(alone, z)


def test_keys_and_seeds_give_distinct_draws():
    z, _ = _draws(0, 2 * LANE)
    assert not np.any(z[..., :LANE] == z[..., LANE:])  # lanes differ
    for other in [_draws(0, 2 * LANE, key=(SIM_STREAM, 1))[0], _draws(0, 2 * LANE, seed=12)[0]]:
        assert not np.any(other == z)


def test_binomial_signs_and_unit_uniforms():
    z, u = _draws(0, 300, "binomial")
    assert z.dtype == np.int8
    assert set(np.unique(z)) == {-1, 1}
    assert abs(z.mean()) < 0.05
    assert u.min() >= 0.0 and u.max() < 1.0
    zg, ug = _draws(0, 300, "gaussian")
    assert zg.dtype == np.float64
    assert abs(zg.mean()) < 0.05 and abs(zg.std() - 1.0) < 0.05
    assert ug.min() >= 0.0 and ug.max() < 1.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _draws(0, 10, "uniform")


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
    # 2 * ENSEMBLE_BLOCK + 52 paths run as three blocks; the first 1,000 as one
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


def test_os_array_is_a_mapping_released_with_the_array():
    a = seeding.os_array((3, 5, 2))
    assert a.shape == (3, 5, 2) and a.dtype == np.float64
    assert a.flags.writeable and a.flags.c_contiguous
    a[:] = 1.5
    assert a.sum() == 45.0
    mapping = weakref.ref(_mapping(a))
    assert isinstance(mapping(), mmap.mmap)
    del a
    assert mapping() is None  # unmapped at once, not kept by an allocator
    assert seeding.os_array((0, 4)).shape == (0, 4)
    signs = seeding.os_array((4, 3), dtype=np.int8)  # the binomial shocks
    assert signs.dtype == np.int8 and signs.flags.writeable and signs.flags.c_contiguous
    signs[:] = -1
    assert signs.sum() == -12 and len(_mapping(signs)) == 12
    mapping = weakref.ref(_mapping(signs))
    del signs
    assert mapping() is None


def test_pricing_surfaces_are_os_mappings(pricing_grid):
    """The grid's stacked slices, the largest array of an option-mm run,
    never pass through malloc."""
    assert isinstance(_mapping(pricing_grid.stack), mmap.mmap)


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
