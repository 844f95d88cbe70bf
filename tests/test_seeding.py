"""The keyed-lane contract: path ``i``'s draws depend only on
``(seed, key, i)``, whatever range, block layout or worker count asks for them."""

import numpy as np
import pytest

from hestonmm.heston import sample_terminal
from hestonmm.option_pricing import PricingConfig, mc_terminal
from hestonmm.quotes import InventorySV
from hestonmm.seeding import LANE, SIM_STREAM, lane_draws
from hestonmm.sim_engine import SimConfig, run_ensemble, run_path

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
    pol = InventorySV(heston, arrival, risk, sim.T)
    a = run_ensemble(pol, sim, 300, seed=4, block=100)
    for other in [run_ensemble(pol, sim, 300, seed=4, block=64),
                  run_ensemble(pol, sim, 300, seed=4, block=100, threads=2)]:
        for name in ("profits", "q_terminal", "z_terminal", "qv_terminal", "iv_terminal"):
            np.testing.assert_array_equal(getattr(a, name), getattr(other, name))
        np.testing.assert_array_equal(a.curve_mean, other.curve_mean)
        assert a.clipped == other.clipped


def test_run_path_replays_ensemble_member(heston, arrival, risk, sim):
    pol = InventorySV(heston, arrival, risk, sim.T)
    stats = run_ensemble(pol, sim, 100, seed=8)
    rec = run_path(pol, sim, seed=8, index=64)
    assert rec.profit == stats.profits[64]
    assert rec.q == stats.q_terminal[64]
    assert rec.qv == stats.qv_terminal[64]


def test_mc_terminal_prefix_of_larger_run(heston):
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    small = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=1000, seed=6, dt_target=0.05)
    large = mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=1500, seed=6, dt_target=0.05)
    np.testing.assert_array_equal(large[:1000], small)
    np.testing.assert_array_equal(
        mc_terminal(cfg, 100.0, 4.0, 0.5, n_paths=1500, seed=6, dt_target=0.05, block=100), large)
