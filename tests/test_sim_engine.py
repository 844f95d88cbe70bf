import math
from dataclasses import replace

import numpy as np
import pytest

from hestonmm.intensity import ArrivalParams
from hestonmm.quotes import Frozen, InventorySV, MarketImpact, RiskNeutral, RiskParams, Symmetric, risk_neutral_rate
from hestonmm.seeding import SIM_STREAM, lane_draws
from hestonmm.sim_engine import ENSEMBLE_BLOCK, SimConfig, efficient_frontier, run_ensemble, run_path, trading_curve


@pytest.fixture()
def sim(heston, arrival, risk):
    return SimConfig(heston=heston, arrival=arrival, risk=risk, T=1.0, dt=0.005, q0=0)


def test_config_validation(heston, arrival, risk):
    with pytest.raises(ValueError):
        SimConfig(heston=heston, arrival=arrival, risk=risk, T=1.0, dt=0.0031)
    with pytest.raises(ValueError):
        SimConfig(heston=heston, arrival=arrival, risk=risk, T=1.0, dt=0.005, scheme="x")
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, T=1.0, dt=0.005)
    assert cfg.n_steps == 200


def test_frozen_path(heston, arrival, risk):
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6)
    rec = run_path(Frozen(), cfg, seed=3)
    assert rec.q == 6
    assert rec.z == 0.0
    assert rec.x == 0.0
    assert rec.profit == pytest.approx(6 * (rec.s - risk.beta), rel=1e-12)
    assert math.isnan(rec.avg_spread)


def test_vanishing_intensity_equals_frozen(heston, risk):
    # A ~ 0: any quoting policy collapses onto the frozen book, path by path
    tiny = ArrivalParams(A=1e-300, k=1.5)
    cfg = SimConfig(heston=heston, arrival=tiny, risk=risk, q0=4)
    inv = run_path(InventorySV(heston, tiny, risk, 1.0), cfg, seed=11)
    fro = run_path(Frozen(), cfg, seed=11)
    assert inv.q == fro.q == 4
    assert inv.z == 0.0
    assert inv.s == fro.s
    assert inv.x == fro.x == 0.0


def test_mark_to_market_decomposition(heston, arrival, risk):
    # Delta(x + q s) = Delta z + q * Delta s at every step, exactly
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=2, snapshot_stride=1)
    rec = run_path(InventorySV(heston, arrival, risk, 1.0), cfg, seed=17)
    wealth = rec.series_x + rec.series_q * rec.series_s
    lhs = np.diff(wealth)
    rhs = np.diff(rec.series_z) + np.diff(rec.series_iv)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
    assert rec.series_q.sum() != 2 * rec.series_q.size  # some fills happened


def test_accounting_identity(heston, arrival, risk, sim):
    stats = run_ensemble(InventorySV(heston, arrival, risk, 1.0), sim, 50, seed=23)
    # q_T = q0 + bid fills - ask fills is implicit; check z >= 0 can fail
    # (negative premiums), but profit must match x + q (s - beta) per path
    rec = run_path(InventorySV(heston, arrival, risk, 1.0), sim, seed=23, index=7)
    assert stats.profits[7] == pytest.approx(rec.profit, rel=1e-12)
    assert stats.q_terminal[7] == rec.q
    assert stats.z_terminal[7] == pytest.approx(rec.z, rel=1e-12)


def test_determinism_across_threads_and_blocks(heston, arrival, risk, sim):
    # 2,100 paths run as three blocks, 300 as one
    pol = InventorySV(heston, arrival, risk, 1.0)
    a = run_ensemble(pol, sim, 2100, seed=9, threads=1)
    b = run_ensemble(pol, sim, 2100, seed=9, threads=8)
    c = run_ensemble(pol, sim, 300, seed=9, threads=1)
    np.testing.assert_array_equal(a.profits, b.profits)
    np.testing.assert_array_equal(a.profits[:300], c.profits)
    assert a.curve_mean.tolist() == b.curve_mean.tolist()


def test_risk_neutral_revenue(heston, arrival, risk, sim):
    stats = run_ensemble(RiskNeutral(arrival, risk), sim, 400, seed=31)
    target = risk_neutral_rate(arrival, risk) * 1.0
    se = stats.z_terminal.std(ddof=1) / math.sqrt(stats.n)
    assert abs(stats.z_mean - target) <= 3 * se


def test_martingale_inventory_value(heston, arrival, risk):
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6)
    stats = run_ensemble(Frozen(), cfg, 2000, seed=41)
    se = stats.iv_terminal.std(ddof=1) / math.sqrt(stats.n)
    assert abs(stats.iv_terminal.mean()) <= 3 * se


def test_impact_bookkeeping(heston, arrival, risk):
    # with eta = 0 both impact terms, the mid's jump and the QV term, vanish:
    # the impact run books exactly what the plain run books.  The QV term
    # itself is pinned by test_binomial_ensemble_equals_inline_reference.
    pol = MarketImpact(heston, arrival, risk, 1.0)
    plain = SimConfig(heston=heston, arrival=arrival, risk=replace(risk, eta=0.0))
    a = run_ensemble(pol, plain, 100, seed=51)
    b = run_ensemble(pol, replace(plain, impact=True), 100, seed=51)
    for name in ("profits", "q_terminal", "z_terminal", "qv_terminal", "iv_terminal"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_impact_moves_price(heston, arrival):
    # eta large enough to see: ask fill pushes the mid up
    risk = RiskParams(gamma=0.0, beta=0.0, eta=5.0)
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, impact=True)
    on = run_path(RiskNeutral(arrival, risk), cfg, seed=3)
    off = run_path(RiskNeutral(arrival, risk), replace(cfg, impact=False), seed=3)
    assert on.s != off.s


def test_trading_curve_frozen_constant(heston, arrival, risk):
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6, snapshot_stride=20)
    times, mean, std = trading_curve(Frozen(), cfg, 50, seed=3)
    np.testing.assert_array_equal(mean, 6.0)
    np.testing.assert_array_equal(std, 0.0)
    assert times[0] == 0.0 and times[-1] == 1.0


def test_trading_curve_mirror_symmetry(heston, arrival):
    # beta = 0: the dynamics are sign-symmetric in expectation
    risk0 = RiskParams(gamma=0.1, beta=0.0)
    pol = InventorySV(heston, arrival, risk0, 1.0)
    up = SimConfig(heston=heston, arrival=arrival, risk=risk0, q0=6, snapshot_stride=25)
    dn = replace(up, q0=-6)
    _, m_up, s_up = trading_curve(pol, up, 800, seed=7)
    _, m_dn, s_dn = trading_curve(pol, dn, 800, seed=8)
    se = np.sqrt(s_up**2 + s_dn**2) / math.sqrt(800)
    assert np.all(np.abs(m_up + m_dn) <= 3 * se + 1e-9)


def test_symmetric_policy_from_prior_run(heston, arrival, risk, sim):
    inv = run_ensemble(InventorySV(heston, arrival, risk, 1.0), sim, 200, seed=5)
    sym = run_ensemble(Symmetric(inv.avg_spread), sim, 200, seed=5)
    assert sym.avg_spread == pytest.approx(inv.avg_spread, rel=1e-9)
    assert sym.profit_std > inv.profit_std  # no inventory control


def test_frontier_shapes(heston, arrival, risk):
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6)
    pts = efficient_frontier(cfg, [0.1], 150, seed=3)
    assert len(pts) == 1
    stats = run_ensemble(InventorySV(heston, arrival, replace(risk, gamma=0.1), 1.0), cfg, 150, seed=3)
    assert pts[0].objective == pytest.approx(stats.objective_mean, rel=1e-12)
    assert pts[0].variance_proxy == pytest.approx(stats.qv_mean, rel=1e-12)
    with pytest.raises(ValueError):
        efficient_frontier(cfg, [], 10, seed=1)


def test_clip_counter_increments(heston, arrival):
    # deeply crossed quotes clip the per-step probability at one
    risk_hot = RiskParams(gamma=1.0, beta=0.03)
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk_hot, q0=10)
    stats = run_ensemble(InventorySV(heston, arrival, risk_hot, 1.0), cfg, 20, seed=2)
    assert stats.clipped > 0


def _ensemble_reference(policy, config, n, seed):
    """Per-path terminals of paths ``0..n-1``, the clip count and the
    inventory curve, by the event loop written out inline over all ``n``
    paths at once: the draws from ``lane_draws``, the fill rule and the
    full-truncation Euler step spelled out term by term."""
    n_steps, dt = config.n_steps, config.dt
    sqrt_dt = math.sqrt(dt)
    h, arrival, risk = config.heston, config.arrival, config.risk
    rho_c = math.sqrt(1.0 - h.rho**2)
    shocks, uniforms = np.empty((n, n_steps, 2)), np.empty((n, n_steps, 2))
    lane_draws(seed, (SIM_STREAM,), 0, n, shocks, uniforms, config.scheme)
    s, nu = np.full(n, h.s0), np.full(n, h.nu0)
    q = np.full(n, config.q0, dtype=np.int64)
    x, z, qv, iv, spread = np.full(n, config.x0), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    clipped = 0
    q_steps = []  # q at the start of each step, then at T
    for step in range(n_steps):
        q_steps.append(q.copy())
        da, db = (np.broadcast_to(np.asarray(p, dtype=np.float64), (n,))
                  for p in policy.premiums(q, nu, step * dt))
        raw_a = arrival.A * np.exp(-arrival.k * da) * dt
        raw_b = arrival.A * np.exp(-arrival.k * db) * dt
        clipped += int(np.count_nonzero(raw_a > 1.0)) + int(np.count_nonzero(raw_b > 1.0))
        fa = uniforms[:, step, 0] < np.minimum(raw_a, 1.0)
        fb = uniforms[:, step, 1] < np.minimum(raw_b, 1.0)
        x += np.where(fa, s + da, 0.0) - np.where(fb, s - db, 0.0)
        z += np.where(fa, da, 0.0) + np.where(fb, db, 0.0)
        q += fb.astype(np.int64) - fa.astype(np.int64)
        spread += da + db
        nu_pos = np.maximum(nu, 0.0)
        ds = np.sqrt(nu_pos) * sqrt_dt * shocks[:, step, 0]
        if config.impact:
            ds += risk.eta * (fa.astype(np.float64) - fb.astype(np.float64))
        s = s + ds
        qf = q.astype(np.float64)
        iv += qf * ds
        qv += qf**2 * nu_pos * dt
        if config.impact:
            qv += qf**2 * risk.eta**2 * (fa.astype(np.float64) + fb.astype(np.float64))
        z_nu = h.rho * shocks[:, step, 0] + rho_c * shocks[:, step, 1]
        nu = np.maximum(nu + h.theta * (h.alpha - nu) * dt
                        + h.xi * np.sqrt(nu_pos) * z_nu * sqrt_dt, 0.0)
    q_steps = np.array(q_steps + [q], dtype=np.float64)
    curve_mean = q_steps.sum(axis=1) / n
    curve_var = np.maximum((q_steps**2).sum(axis=1) / n - curve_mean**2, 0.0)
    return {"profits": x + q.astype(np.float64) * (s - risk.beta), "q_terminal": q,
            "z_terminal": z, "qv_terminal": qv, "iv_terminal": iv,
            "spread_terminal": spread / n_steps, "clipped": clipped,
            "curve_mean": curve_mean, "curve_std": np.sqrt(curve_var * n / (n - 1))}


@pytest.mark.parametrize("impact", [False, True])
def test_binomial_ensemble_equals_inline_reference(heston, arrival, risk, impact):
    # q0 = 6 crosses the ask early on, so the clip count is exercised too;
    # the paths past ENSEMBLE_BLOCK run as a second block
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6, impact=impact)
    policy = (MarketImpact if impact else InventorySV)(heston, arrival, risk, 1.0)
    n = ENSEMBLE_BLOCK + 150
    stats = run_ensemble(policy, cfg, n, seed=19)
    ref = _ensemble_reference(policy, cfg, n, seed=19)
    assert ref["clipped"] > 0
    for name, want in ref.items():
        np.testing.assert_array_equal(getattr(stats, name), want, err_msg=name)
