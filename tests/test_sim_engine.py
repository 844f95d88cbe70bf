import math
from dataclasses import replace

import numpy as np
import pytest

from hestonmm.intensity import ArrivalParams
from hestonmm.quotes import Frozen, InventorySV, MarketImpact, RiskNeutral, RiskParams, Symmetric, risk_neutral_rate
from hestonmm.seeding import DEFAULT_BLOCK, SIM_STREAM, lane_draws
from hestonmm.sim_engine import SimConfig, efficient_frontier, run_ensemble, trading_curve


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
    stats = run_ensemble(Frozen(), cfg, 1, seed=3)
    tr = stats.trace
    assert stats.q_terminal[0] == 6
    assert stats.z_terminal[0] == 0.0
    np.testing.assert_array_equal(tr["q"], 6)
    np.testing.assert_array_equal(tr["z"], 0.0)
    assert np.isnan(tr["da"]).all() and np.isnan(tr["db"]).all()
    assert stats.profits[0] == pytest.approx(6 * (tr["s"][-1] - risk.beta), rel=1e-12)
    assert math.isnan(stats.avg_spread)


def test_vanishing_intensity_equals_frozen(heston, risk):
    # A ~ 0: any quoting policy collapses onto the frozen book, path by path
    tiny = ArrivalParams(A=1e-300, k=1.5)
    cfg = SimConfig(heston=heston, arrival=tiny, risk=risk, q0=4)
    inv = run_ensemble(InventorySV(heston, tiny, risk, 1.0), cfg, 20, seed=11)
    fro = run_ensemble(Frozen(), cfg, 20, seed=11)
    np.testing.assert_array_equal(inv.q_terminal, 4)
    np.testing.assert_array_equal(fro.q_terminal, 4)
    np.testing.assert_array_equal(inv.z_terminal, 0.0)
    np.testing.assert_array_equal(inv.iv_terminal, fro.iv_terminal)
    np.testing.assert_array_equal(inv.profits, fro.profits)
    np.testing.assert_array_equal(inv.trace["s"], fro.trace["s"])


# The largest |profit - cash-ledger profit| measured over the cases below is
# 1.02e-12, at q0 = 6 with impact (profits up to about 680); the bound leaves
# a decade above it.
IDENTITY_ATOL = 1e-11


def test_mark_to_market_decomposition(heston, arrival, risk):
    # summation by parts: the profit x_T + q_T (s_T - beta) of the reference's
    # cash ledger x is the engine's z + iv + q0 s0 - beta q_T, up to rounding
    for q0, impact, scheme in [(2, False, "binomial"), (6, True, "binomial"), (-3, False, "gaussian")]:
        cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=q0, impact=impact, scheme=scheme)
        policy = (MarketImpact if impact else InventorySV)(heston, arrival, risk, 1.0)
        stats = run_ensemble(policy, cfg, 500, seed=17)
        cash_profits = _ensemble_reference(policy, cfg, 500, seed=17)[1]
        np.testing.assert_allclose(stats.profits, cash_profits, rtol=0.0, atol=IDENTITY_ATOL,
                                   err_msg=f"q0={q0} impact={impact} {scheme}")
        assert (stats.q_terminal != q0).any()  # some fills happened


def test_accounting_identity(heston, arrival, risk, sim):
    # the trace of path 0 ends at that path's terminals, and its profit is
    # z + iv + q0 s0 - beta q_T (q0 = 0 here)
    stats = run_ensemble(InventorySV(heston, arrival, risk, 1.0), sim, 50, seed=23)
    tr = stats.trace
    assert tr["q"][-1] == stats.q_terminal[0]
    assert tr["z"][-1] == stats.z_terminal[0]
    assert np.isnan(tr["da"][-1]) and np.isfinite(tr["da"][:-1]).all()
    assert stats.profits[0] == stats.z_terminal[0] + stats.iv_terminal[0] - risk.beta * tr["q"][-1]


def test_path_zero_trace_is_independent_of_path_count(heston, arrival, risk, sim):
    # path 0 alone and path 0 of a two-block ensemble are the same path
    pol = InventorySV(heston, arrival, risk, sim.T)
    one = run_ensemble(pol, replace(sim, snapshot_stride=7), 1, seed=8)
    many = run_ensemble(pol, replace(sim, snapshot_stride=7), DEFAULT_BLOCK + 10, seed=8)
    assert one.trace.keys() == many.trace.keys() == {"s", "da", "db", "q", "z"}
    for name in one.trace:
        np.testing.assert_array_equal(one.trace[name], many.trace[name], err_msg=name)
    assert one.trace["s"].shape == one.curve_times.shape
    assert one.profits[0] == many.profits[0]


def test_determinism_across_reruns_and_blocks(heston, arrival, risk, sim):
    # DEFAULT_BLOCK + 100 paths run as two blocks, 300 as one
    pol = InventorySV(heston, arrival, risk, 1.0)
    a = run_ensemble(pol, sim, DEFAULT_BLOCK + 100, seed=9)
    b = run_ensemble(pol, sim, DEFAULT_BLOCK + 100, seed=9)
    c = run_ensemble(pol, sim, 300, seed=9)
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
    on = run_ensemble(RiskNeutral(arrival, risk), cfg, 1, seed=3)
    off = run_ensemble(RiskNeutral(arrival, risk), replace(cfg, impact=False), 1, seed=3)
    assert on.trace["s"][-1] != off.trace["s"][-1]


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
    """The ensemble fields of paths ``0..n-1`` (per-path terminals, the clip
    count, the inventory curve and path 0's trace) by the event loop written
    out inline over all ``n`` paths at once: the draws from ``lane_draws`` in
    one chunk of every step, the fill rule and the full-truncation Euler step spelled out term by
    term.  Also returns the profit ``x + q (s - beta)`` of a cash ledger
    ``x``, which the engine does not keep."""
    n_steps, dt = config.n_steps, config.dt
    sqrt_dt = math.sqrt(dt)
    h, arrival, risk = config.heston, config.arrival, config.risk
    rho_c = math.sqrt(1.0 - h.rho**2)
    (shocks, uniforms), = lane_draws(seed, (SIM_STREAM,), 0, n, n_steps, 2, 2, config.scheme,
                                     chunk=n_steps)
    s, nu = np.full(n, h.s0), np.full(n, h.nu0)
    q = np.full(n, config.q0, dtype=np.int64)
    x, z, qv, iv, spread = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    clipped = 0
    q_steps = []  # q at the start of each step, then at T
    path0 = []  # path 0's (s, da, db, q, z) at the start of each step, then at T
    for step in range(n_steps):
        q_steps.append(q.copy())
        da, db = (np.broadcast_to(np.asarray(p, dtype=np.float64), (n,))
                  for p in policy.premiums(q, nu, step * dt))
        path0.append((s[0], da[0], db[0], q[0], z[0]))
        raw_a = arrival.A * np.exp(-arrival.k * da) * dt
        raw_b = arrival.A * np.exp(-arrival.k * db) * dt
        clipped += int(np.count_nonzero(raw_a > 1.0)) + int(np.count_nonzero(raw_b > 1.0))
        fa = uniforms[step, 0] < np.minimum(raw_a, 1.0)
        fb = uniforms[step, 1] < np.minimum(raw_b, 1.0)
        x += np.where(fa, s + da, 0.0) - np.where(fb, s - db, 0.0)
        z += np.where(fa, da, 0.0) + np.where(fb, db, 0.0)
        q += fb.astype(np.int64) - fa.astype(np.int64)
        spread += da + db
        nu_pos = np.maximum(nu, 0.0)
        ds = np.sqrt(nu_pos) * sqrt_dt * shocks[step, 0]
        if config.impact:
            ds += risk.eta * (fa.astype(np.float64) - fb.astype(np.float64))
        s = s + ds
        qf = q.astype(np.float64)
        iv += qf * ds
        qv += qf**2 * nu_pos * dt
        if config.impact:
            qv += qf**2 * risk.eta**2 * (fa.astype(np.float64) + fb.astype(np.float64))
        z_nu = h.rho * shocks[step, 0] + rho_c * shocks[step, 1]
        nu = np.maximum(nu + h.theta * (h.alpha - nu) * dt
                        + h.xi * np.sqrt(nu_pos) * z_nu * sqrt_dt, 0.0)
    path0.append((s[0], np.nan, np.nan, q[0], z[0]))
    path0 = [np.array(col)[config.snapshot_steps] for col in zip(*path0)]
    q_steps = np.array(q_steps + [q], dtype=np.float64)[config.snapshot_steps]
    curve_mean = q_steps.sum(axis=1) / n
    curve_var = np.maximum((q_steps**2).sum(axis=1) / n - curve_mean**2, 0.0)
    qf = q.astype(np.float64)
    fields = {"profits": z + iv + config.q0 * h.s0 - risk.beta * qf, "q_terminal": q,
              "z_terminal": z, "qv_terminal": qv, "iv_terminal": iv,
              "spread_terminal": spread / n_steps, "clipped": clipped,
              "curve_mean": curve_mean, "curve_std": np.sqrt(curve_var * n / (n - 1)),
              "trace": dict(zip(("s", "da", "db", "q", "z"), path0))}
    return fields, x + qf * (s - risk.beta)


@pytest.mark.parametrize("impact", [False, True])
def test_binomial_ensemble_equals_inline_reference(heston, arrival, risk, impact):
    # q0 = 6 crosses the ask early on, so the clip count is exercised too;
    # the paths past DEFAULT_BLOCK run as a second block
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6, impact=impact)
    policy = (MarketImpact if impact else InventorySV)(heston, arrival, risk, 1.0)
    n = DEFAULT_BLOCK + 150
    stats = run_ensemble(policy, cfg, n, seed=19)
    ref, _ = _ensemble_reference(policy, cfg, n, seed=19)
    assert ref["clipped"] > 0
    for name, want in ref.pop("trace").items():
        np.testing.assert_array_equal(stats.trace[name], want, err_msg=f"trace {name}")
    for name, want in ref.items():
        np.testing.assert_array_equal(getattr(stats, name), want, err_msg=name)
