"""The keyed-lane contract: path ``i``'s draws depend only on ``(seed, key,
i)``, whatever range, block layout or step chunking asks for them, and no
draw call asks for more than one chunk of steps."""

import ast
import functools
import mmap
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import option_mm, seeding
from hestonmm.hjb import HjbConfig, solve_stock_hjb
from hestonmm.option_pricing import PricingConfig, mc_terminal
from hestonmm.quotes import InventorySV
from hestonmm.seeding import (DEFAULT_BLOCK, LANE, SIM_STREAM, STEP_CHUNK, lane_draws, map_blocks,
                              path_generator)
from hestonmm.sim_engine import SimConfig, run_ensemble
from oracles import sample_terminal

N_STEPS, N_UNIFORM = 7, 3


def _joined(chunks):
    """The chunks of ``lane_draws`` joined along the steps: ``(shocks, uniforms)``."""
    z, u = zip(*chunks)
    return np.concatenate(z), np.concatenate(u)


def _draws(lo, hi, scheme="gaussian", key=(SIM_STREAM,), seed=11):
    return _joined(lane_draws(seed, key, lo, hi, N_STEPS, 2, N_UNIFORM, scheme, chunk=3))


ALL_PATHS = 700


@functools.cache
def _all_draws(n_steps, n_shocks, n_uniforms, scheme):
    return _joined(lane_draws(11, (SIM_STREAM,), 0, ALL_PATHS, n_steps, n_shocks, n_uniforms,
                              scheme, chunk=n_steps))


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
@given(
    bounds=st.lists(st.integers(0, ALL_PATHS), min_size=2, max_size=2, unique=True).map(sorted),
    n_steps=st.integers(1, 5),
    n_shocks=st.sampled_from([1, 2]),
    n_uniforms=st.sampled_from([0, 2, 4]),
    chunk=st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_draws_independent_of_range(scheme, bounds, n_steps, n_shocks, n_uniforms, chunk):
    lo, hi = bounds
    chunks = list(lane_draws(11, (SIM_STREAM,), lo, hi, n_steps, n_shocks, n_uniforms, scheme,
                             chunk=chunk))
    assert [z.shape for z, _ in chunks] == [(min(chunk, n_steps - a), n_shocks, hi - lo)
                                            for a in range(0, n_steps, chunk)]
    z, u = _joined(chunks)
    assert u.shape == (n_steps, n_uniforms, hi - lo)
    z_all, u_all = _all_draws(n_steps, n_shocks, n_uniforms, scheme)
    np.testing.assert_array_equal(z, z_all[..., lo:hi])
    np.testing.assert_array_equal(u, u_all[..., lo:hi])


def _lane_streams(lo, hi, n_steps, n_shocks, n_uniforms, scheme, key=(SIM_STREAM, 2), seed=11):
    """Paths ``lo..hi-1``'s draws as the lane generators make them, each in
    one call: lane L's shocks from ``(seed, *key, 0, L)`` and its uniforms
    from ``(seed, *key, 1, L)``, step by step, ``(n_steps, k, 64)``."""
    lanes = range(lo // LANE, -(-hi // LANE))
    z, u = [], []
    for lane in lanes:
        rng = path_generator(seed, *key, 0, lane)
        if scheme == "gaussian":
            z.append(rng.standard_normal((n_steps, n_shocks, LANE)))
        else:
            z.append(rng.integers(0, 2, size=(n_steps, n_shocks, LANE), dtype=np.int8) * 2 - 1)
        u.append(path_generator(seed, *key, 1, lane).random((n_steps, n_uniforms, LANE)))
    paths = slice(lo - lanes[0] * LANE, hi - lanes[0] * LANE)
    return np.concatenate(z, axis=-1)[..., paths], np.concatenate(u, axis=-1)[..., paths]


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
@pytest.mark.parametrize("lo, hi", [(5, 11), (37, 200), (64, 128)])
def test_draws_are_the_lane_streams_transposed(scheme, lo, hi):
    # pins the stream: each lane generator's stream read step-major, the
    # lanes side by side, so column k of step j is path lo + k's draws at
    # step j; drawn two steps at a time, against one call per generator
    n_steps, n_shocks, n_uniforms = 5, 2, 3
    chunks = list(lane_draws(11, (SIM_STREAM, 2), lo, hi, n_steps, n_shocks, n_uniforms, scheme,
                             chunk=2))
    z, u = _joined(chunks)
    ref_z, ref_u = _lane_streams(lo, hi, n_steps, n_shocks, n_uniforms, scheme)
    assert z.dtype == ref_z.dtype and u.dtype == ref_u.dtype == np.float64
    np.testing.assert_array_equal(z, ref_z)
    np.testing.assert_array_equal(u, ref_u)
    for z, u in chunks:  # the kernels read one step's draws as contiguous rows
        assert z[0, 0].flags.c_contiguous and u[-1, 1].flags.c_contiguous


def _chunk_dependent_draws(master, key, lo, hi, n_steps, n_shocks, n_uniforms, scheme, chunk):
    """A variant of ``lane_draws`` with one generator per lane that draws a
    chunk's shocks, then its uniforms: where one chunk ends moves the rest."""
    lanes = range(lo // LANE, -(-hi // LANE))
    rngs = [path_generator(master, *key, lane) for lane in lanes]
    paths = slice(lo - lanes.start * LANE, hi - lanes.start * LANE)
    for a in range(0, n_steps, chunk):
        k = min(chunk, n_steps - a)
        if scheme == "gaussian":
            z = [rng.standard_normal((k, n_shocks, LANE)) for rng in rngs]
        else:
            z = [rng.integers(0, 2, size=(k, n_shocks, LANE), dtype=np.int8) * 2 - 1 for rng in rngs]
        u = [rng.random((k, n_uniforms, LANE)) for rng in rngs]
        yield np.concatenate(z, axis=-1)[..., paths], np.concatenate(u, axis=-1)[..., paths]


def _chunking_is_invisible(draw, scheme, n_uniforms, n_steps=60, lo=37, hi=300):
    """Whether ``draw`` gives the same block in chunks of 1, 7, each book's
    ``CHUNK``, ``STEP_CHUNK`` and all the steps."""
    runs = [_joined(draw(11, (SIM_STREAM,), lo, hi, n_steps, 2, n_uniforms, scheme, chunk=chunk))
            for chunk in (1, 7, option_mm.CHUNK, STEP_CHUNK, n_steps)]
    return all(np.array_equal(z, runs[0][0]) and np.array_equal(u, runs[0][1]) for z, u in runs)


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
@pytest.mark.parametrize("n_uniforms", [0, 4])
def test_draws_do_not_depend_on_the_chunking(scheme, n_uniforms):
    assert _chunking_is_invisible(lane_draws, scheme, n_uniforms)


@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
def test_the_chunking_check_catches_a_shared_generator(scheme):
    # the check above is not vacuous: one generator per lane for shocks and
    # uniforms passes without uniforms and fails with them
    assert _chunking_is_invisible(_chunk_dependent_draws, scheme, 0)
    assert not _chunking_is_invisible(_chunk_dependent_draws, scheme, 4)


def test_shocks_do_not_depend_on_uniforms():
    z, _ = _draws(30, 200)
    alone, no_uniforms = _joined(lane_draws(11, (SIM_STREAM,), 30, 200, N_STEPS, 2))
    assert no_uniforms.shape == (N_STEPS, 0, 170)
    np.testing.assert_array_equal(alone, z)


def test_no_uniform_generator_without_uniforms(monkeypatch):
    # a frozen book or an oracle builds one generator per lane, for its shocks
    keys = []
    monkeypatch.setattr(seeding, "path_generator", lambda *key: keys.append(key) or path_generator(*key))
    _joined(lane_draws(11, (SIM_STREAM,), 30, 200, N_STEPS, 2))
    assert keys == [(11, SIM_STREAM, 0, lane) for lane in range(4)]


def test_keys_and_seeds_give_distinct_draws():
    z, u = _draws(0, 2 * LANE)
    assert not np.any(z[..., :LANE] == z[..., LANE:])  # lanes differ
    assert not np.any(z[:, :1] == u[:, :1])  # shocks and uniforms come from generators of their own
    for other in [_draws(0, 2 * LANE, key=(SIM_STREAM, 1))[0], _draws(0, 2 * LANE, seed=12)[0]]:
        assert not np.any(other == z)


def test_stream_ids_are_distinct():
    # the tests' oracles draw from HESTON_STREAM and FUNCTIONAL_STREAM, which no
    # program code names: a new stream must not take one of their ids
    ids = {name: value for name, value in vars(seeding).items() if name.endswith("_STREAM")}
    assert len(ids) >= 6 and len(set(ids.values())) == len(ids), ids


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
    # 2 * DEFAULT_BLOCK + 52 paths run as three blocks; the first 1,000 as one.
    # run_ensemble accepts threads= and ignores it: the benchmark still passes it
    pol = InventorySV(heston, arrival, risk, sim.T)
    n = 2 * DEFAULT_BLOCK + 52
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


@pytest.mark.parametrize("size", [1, 3])
def test_map_blocks_returns_blocks_in_index_order(size):
    caller, ran = threading.get_ident(), []

    def block(lo, hi):
        ran.append((lo, threading.get_ident()))
        return lo, hi

    # the last block is short unless size divides n
    split = [(lo, min(lo + size, 10)) for lo in range(0, 10, size)]
    assert map_blocks(10, block, block=size) == split
    assert map_blocks(3, block, block=4) == [(0, 3)]
    assert map_blocks(DEFAULT_BLOCK + 1, block) == [
        (0, DEFAULT_BLOCK), (DEFAULT_BLOCK, DEFAULT_BLOCK + 1)]
    # every block runs on the calling thread, in index order
    starts = [lo for lo, _ in split] + [0, 0, DEFAULT_BLOCK]
    assert ran == [(lo, caller) for lo in starts]


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


def test_pricing_surfaces_are_os_mappings(pricing_grid):
    """The grid's call values, the largest array of an option-mm run,
    never pass through malloc."""
    assert isinstance(_mapping(pricing_grid.values), mmap.mmap)


def test_hjb_arrays_are_os_mappings(heston, arrival, risk):
    """The HJB's stored V, and its quotes derived from V on first read, never
    pass through malloc."""
    grid = solve_stock_hjb(HjbConfig(heston=heston, arrival=arrival, risk=risk, T=1.0,
                                     q_min=-2, q_max=2, n_nu=5, n_time=20))
    for a in (grid.values, grid.quotes_a, grid.quotes_b):
        assert isinstance(_mapping(a), mmap.mmap)


def test_no_module_imports_concurrent_or_threading():
    src = Path(seeding.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"^\s*(import|from)\s+(concurrent|threading)\b", p.read_text(), re.M))
    assert users == []


def test_mc_terminal_prefix_of_larger_run(heston):
    # 5,000 paths cross a block boundary; 1,000 fit in one block
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    small = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=1000, seed=6, dt_target=0.05)
    large = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=5000, seed=6, dt_target=0.05)
    assert large.size > DEFAULT_BLOCK
    np.testing.assert_array_equal(large[:1000], small)


class _CountingGenerator:
    """A path generator whose draw calls record how many values each returns."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._sizes.append(np.size(out))
            return out

        return draw


def test_no_draw_call_asks_for_more_than_one_chunk(heston, arrival, risk, risk_nofee,
                                                   pricing_grid, functional_lattice, monkeypatch):
    # wrapped as the benchmark's tracer wraps it: draw memory does not grow
    # with the horizon, whole-horizon lane draws would be 64 x 1,000 x 4 values
    sizes = []
    monkeypatch.setattr(seeding, "path_generator",
                        lambda *key: _CountingGenerator(path_generator(*key), sizes))
    args = dict(heston=heston, arrival=arrival, risk=risk_nofee, grid=pricing_grid,
                lattice=functional_lattice, T=1.0, dt=0.001, n_paths=100, seed=3)
    option_mm.run_joint_paths(**args)
    assert len(sizes) == 2 * 2 * 1000 // option_mm.CHUNK  # two lanes, shocks and uniforms
    assert max(sizes) == option_mm.CHUNK * 4 * LANE
    sizes.clear()
    option_mm.run_hedged_paths(**args)
    assert max(sizes) == option_mm.CHUNK * 2 * LANE
    sizes.clear()
    sim = SimConfig(heston=heston, arrival=arrival, risk=risk, T=1.0, dt=0.005)
    run_ensemble(InventorySV(heston, arrival, risk, sim.T), sim, 100, seed=3)
    assert sim.n_steps == 200 and max(sizes) == STEP_CHUNK * 2 * LANE


def test_only_seeding_draws():
    # every random number comes from a lane generator built in seeding
    draw_methods = {m for m in dir(np.random.Generator) if not m.startswith("_")}
    draw_methods -= {"bit_generator", "spawn"}
    callers = set()
    for path in Path(seeding.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in draw_methods | {"path_generator", "default_rng"}:
                    callers.add(path.stem)
    assert callers == {"seeding"}
