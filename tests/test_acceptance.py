"""Acceptance suite: one test per criterion, each printing a summary line.

Every tolerance is pinned here exactly as stated; measured values are printed
before the assertions so the log shows actuals either way.  Monte Carlo
criteria use the prescribed path counts and the baseline parameter set
(s0=100, T=1, nu0=4, dt=0.005, gamma=0.1, theta=0.02, alpha=4, rho=0.7,
xi=0.5, k=1.5, A=140, beta=0.03, eta=0.09 for impact runs).
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import hestonmm
from hestonmm.hjb import HjbConfig, compare_exact_vs_approx, estimate_tolerance, solve_stock_hjb
from hestonmm.option_mm import run_hedged_paths
from hestonmm.option_pricing import PricingConfig, mc_price, mc_terminal, solve_call_grid, write_slice_csv
from hestonmm.quotes import Frozen, InventorySV, MarketImpact, RiskNeutral, RiskParams, Symmetric
from hestonmm.sim_engine import SimConfig, efficient_frontier, run_ensemble
from hestonmm.cli import EXIT_OK, main
from oracles import sample_terminal


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_heston_moments(heston):
    t0 = time.perf_counter()
    n, steps = 100_000, 200
    _, nu_t = sample_terminal(heston, 1.0, steps, n, seed=101, scheme="gaussian")
    # closed-form targets evaluated inline (independent of library code)
    th, al, xi, nu0, tau = 0.02, 4.0, 0.5, 4.0, 1.0
    mean_target = math.exp(-th * tau) * nu0 + al * (1 - math.exp(-th * tau))
    var_target = (xi**2 / th) * nu0 * (math.exp(-th * tau) - math.exp(-2 * th * tau)) \
        + (al * xi**2 / (2 * th)) * (1 - 2 * math.exp(-th * tau) + math.exp(-2 * th * tau))
    assert mean_target == pytest.approx(4.0, abs=1e-12)

    m = float(nu_t.mean())
    se_mean = nu_t.std(ddof=1) / math.sqrt(n)
    c = nu_t - m
    v = float((c**2).mean()) * n / (n - 1)
    se_var = math.sqrt(max(float((c**4).mean()) - v * v, 0.0) / n)
    elapsed = time.perf_counter() - t0
    ok = (abs(m - mean_target) <= 3 * se_mean and abs(v - var_target) <= 3 * se_var
          and elapsed < 60.0)
    report("1", ok, f"mean {m:.4f} (target {mean_target:.4f} +- {3*se_mean:.4f}), "
                    f"var {v:.4f} (target {var_target:.4f} +- {3*se_var:.4f}), {elapsed:.1f}s")
    assert abs(m - mean_target) <= 3 * se_mean
    assert abs(v - var_target) <= 3 * se_var
    assert elapsed < 60.0


def test_criterion_02_martingale(heston, arrival, risk):
    t0 = time.perf_counter()
    cfg = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6, snapshot_stride=200)
    stats = run_ensemble(Frozen(), cfg, 10_000, seed=202)
    iv = stats.iv_terminal
    se = iv.std(ddof=1) / math.sqrt(iv.size)
    elapsed = time.perf_counter() - t0
    ok = abs(iv.mean()) <= 3 * se and elapsed < 30.0
    report("2", ok, f"mean inventory-value drift {iv.mean():+.4f} vs 3SE {3*se:.4f}, {elapsed:.1f}s")
    assert abs(iv.mean()) <= 3 * se
    assert elapsed < 30.0


def test_criterion_03_risk_neutral_closed_form(heston, arrival):
    risk0 = RiskParams(gamma=0.0, beta=0.03)
    target = 68.7404
    # exact solver on a padded inventory box; probes on |q| <= 10, nu in [1, 8]
    cfg = HjbConfig(heston=heston, arrival=arrival, risk=risk0, T=1.0,
                    q_min=-20, q_max=20, nu_lo=1.0, nu_hi=8.0, n_nu=15, n_time=2000)
    grid = solve_stock_hjb(cfg)
    probe = np.abs(grid.q_levels) <= 10
    v0 = grid.values[probe][:, :, 0]  # the T - t = 1 slice
    max_rel = float(np.abs(v0 - target).max()) / target

    sim = SimConfig(heston=heston, arrival=arrival, risk=risk0)
    stats = run_ensemble(RiskNeutral(arrival, risk0), sim, 1000, seed=303)
    se = stats.z_terminal.std(ddof=1) / math.sqrt(stats.n)
    z_ok = abs(stats.z_mean - target) <= 3 * se
    ok = max_rel <= 0.01 and z_ok
    report("3", ok, f"HJB max rel err {max_rel:.4%} (limit 1%), "
                    f"ensemble Z_T {stats.z_mean:.3f} vs {target} +- {3*se:.3f}")
    assert max_rel <= 0.01
    assert z_ok


@pytest.fixture(scope="module")
def hjb_comparison(heston, arrival, risk):
    t0 = time.perf_counter()
    cfg = HjbConfig(heston=heston, arrival=arrival, risk=risk, T=1.0,
                    q_min=-10, q_max=10, nu_lo=0.0, nu_hi=12.0, n_nu=61, n_time=2000)
    grid = solve_stock_hjb(cfg)
    tol = estimate_tolerance(grid)
    report_ = compare_exact_vs_approx(grid, tol=tol, nu_window=(1.0, 8.0))
    return report_, time.perf_counter() - t0


def test_criterion_04a_quote_gap(hjb_comparison):
    rep, elapsed = hjb_comparison
    gap = max(rep.max_quote_gap_a, rep.max_quote_gap_b)
    ok = gap <= 0.05 and elapsed < 300.0
    report("4a", ok, f"max |exact - approx| quote gap {gap:.4f} (limit 0.05; "
                     f"ask at {rep.gap_a_at}, bid at {rep.gap_b_at}), {elapsed:.1f}s")
    # The closed form is the frozen-inventory approximation: the exact marginal
    # value of inventory saturates while the closed form grows linearly in q,
    # so the gap peaks near 6.85 at q=+-9, nu=8, t=0.  It is not only a corner
    # effect: even at q=0 the gap is 0.39 at t=0 and stays above 0.05 until
    # t~0.84.  The solver is cross-validated in test_hjb.py and the 4b
    # sandwich holds.  Recorded here as specified.
    assert elapsed < 300.0
    assert gap <= 0.05


def test_criterion_04b_sandwich(hjb_comparison):
    rep, elapsed = hjb_comparison
    ok = rep.sandwich_ok
    report("4b", ok, f"sandwich holds with c_emp {rep.c_emp:.2f}, tol {rep.tol:.4f}")
    assert ok


def test_criterion_05_table1_bands(heston, arrival, risk):
    t0 = time.perf_counter()
    sim = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=0)
    inv = run_ensemble(InventorySV(heston, arrival, risk, 1.0), sim, 1000, seed=505)
    sym = run_ensemble(Symmetric(inv.avg_spread), sim, 1000, seed=505)
    elapsed = time.perf_counter() - t0
    se = math.hypot(inv.profit_std, sym.profit_std) / math.sqrt(1000)
    in_band = 55.0 <= inv.profit_mean <= 75.0
    std_ok = sym.profit_std >= 1.5 * inv.profit_std
    mean_ok = sym.profit_mean >= inv.profit_mean - 2 * se
    ok = in_band and std_ok and mean_ok and elapsed < 60.0
    report("5", ok, f"inventory profit {inv.profit_mean:.2f} (band [55, 75]), "
                    f"std ratio {sym.profit_std / inv.profit_std:.2f} (>= 1.5), "
                    f"symmetric mean {sym.profit_mean:.2f}, {elapsed:.1f}s")
    assert in_band
    assert std_ok
    assert mean_ok
    assert elapsed < 60.0


def test_criterion_06_table2_bands(heston, arrival, risk):
    t0 = time.perf_counter()
    sim = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=0, impact=True)
    inv = run_ensemble(MarketImpact(heston, arrival, risk, 1.0), sim, 1000, seed=606)
    sym = run_ensemble(Symmetric(inv.avg_spread), sim, 1000, seed=606)
    elapsed = time.perf_counter() - t0
    in_band = 53.0 <= inv.profit_mean <= 72.0
    spread_ok = 1.50 <= inv.avg_spread <= 1.80
    std_ok = sym.profit_std >= 1.5 * inv.profit_std
    ok = in_band and spread_ok and std_ok and elapsed < 60.0
    report("6", ok, f"impact inventory profit {inv.profit_mean:.2f} (band [53, 72]), "
                    f"avg spread {inv.avg_spread:.3f} (band [1.50, 1.80]), "
                    f"std ratio {sym.profit_std / inv.profit_std:.2f}, {elapsed:.1f}s")
    assert in_band
    assert spread_ok
    assert std_ok
    assert elapsed < 60.0


def test_criterion_07_efficient_frontier(heston, arrival, risk):
    gammas = [0.005, 0.01, 0.05, 0.1, 0.5, 1.0]
    sim = SimConfig(heston=heston, arrival=arrival, risk=risk, q0=6, snapshot_stride=200)
    pts = efficient_frontier(sim, [0.0] + gammas, 1000, seed=707)
    zero, rest = pts[0], pts[1:]
    rho_obj = spearmanr(gammas, [p.objective for p in rest]).statistic
    rho_var = spearmanr(gammas, [p.variance_proxy for p in rest]).statistic
    best = max(rest, key=lambda p: p.objective)
    zero_ok = zero.objective >= best.objective - 2 * math.hypot(zero.objective_se, best.objective_se)
    ok = rho_obj <= -0.9 and rho_var <= -0.9 and zero_ok
    report("7", ok, f"spearman(gamma, objective) {rho_obj:.3f}, "
                    f"spearman(gamma, variance) {rho_var:.3f} (both <= -0.9), "
                    f"gamma=0 objective {zero.objective:.2f} vs best {best.objective:.2f}")
    assert rho_obj <= -0.9
    assert rho_var <= -0.9
    assert zero_ok


def test_criterion_08_trading_curve_ordering(heston, arrival, risk):
    curves = {}
    for gamma in (0.01, 0.1, 1.0):
        r = replace(risk, gamma=gamma)
        sim = SimConfig(heston=heston, arrival=arrival, risk=r, q0=6, snapshot_stride=10)
        stats = run_ensemble(InventorySV(heston, arrival, r, 1.0), sim, 1000, seed=808)
        curves[gamma] = stats
    lines = []
    all_ok = True
    for t_probe in (0.25, 0.5):
        vals = {}
        for gamma, stats in curves.items():
            i = int(np.argmin(np.abs(stats.curve_times - t_probe)))
            vals[gamma] = (stats.curve_mean[i], stats.curve_std[i] / math.sqrt(stats.n))
        sep10 = vals[0.1][0] - vals[1.0][0]
        se10 = math.hypot(vals[1.0][1], vals[0.1][1])
        sep01 = vals[0.01][0] - vals[0.1][0]
        se01 = math.hypot(vals[0.1][1], vals[0.01][1])
        ok = sep10 >= 2 * se10 and sep01 >= 2 * se01
        all_ok &= ok
        lines.append(
            f"t={t_probe}: E[q] g=1.0 {vals[1.0][0]:+.3f}, g=0.1 {vals[0.1][0]:+.3f}, "
            f"g=0.01 {vals[0.01][0]:+.3f}; separations {sep10:+.3f} (2SE {2*se10:.3f}), "
            f"{sep01:+.3f} (2SE {2*se01:.3f})"
        )
    report("8", all_ok, "; ".join(lines))
    # With q0=6 the gamma=0.1 and gamma=1.0 policies have fully liquidated
    # before t=0.1.  Since beta>0 the closed-form quotes then drift inventory
    # to q* = -beta/(2 f(nu, t)), which moves towards 0 as gamma grows: the
    # opposite of the required order.  At t=0.25 the gamma=0.1 vs 1.0
    # separation is reversed by 0.140, about 4.6 SE (2 SE = 0.061).
    # Recorded here as specified.
    for t_probe in (0.25, 0.5):
        vals = {}
        for gamma, stats in curves.items():
            i = int(np.argmin(np.abs(stats.curve_times - t_probe)))
            vals[gamma] = (stats.curve_mean[i], stats.curve_std[i] / math.sqrt(stats.n))
        assert vals[0.1][0] - vals[1.0][0] >= 2 * math.hypot(vals[1.0][1], vals[0.1][1])
        assert vals[0.01][0] - vals[0.1][0] >= 2 * math.hypot(vals[0.1][1], vals[0.01][1])


def test_criterion_09_option_pricer(heston, tmp_path):
    t0 = time.perf_counter()
    from hestonmm.heston import HestonParams

    # degenerate Bachelier case
    h0 = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, s0=100.0, nu0=4.0)
    g0 = solve_call_grid(PricingConfig(heston=h0, strike=100.0, T=1.0))
    atm = g0.price(100.0, 4.0, 0.0)
    bach = 0.797885
    bach_ok = abs(atm - bach) / bach <= 0.005

    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    grid = solve_call_grid(cfg)
    # parity on the interior rows of the written t = 0 slice (P is defined
    # through parity, so this checks the arithmetic only) and by Monte Carlo
    write_slice_csv(grid, tmp_path / "slice.csv", [0.0])
    rows = np.genfromtxt(tmp_path / "slice.csv", delimiter=",", names=True)
    inner = (rows["s"] > grid.s_grid[0]) & (rows["s"] < grid.s_grid[-1])
    parity_sup = float(np.abs(rows["C"] - rows["P"] - (rows["s"] - 100.0))[inner].max())
    parity_ok = parity_sup <= 0.005 * 100.0
    s_term = mc_terminal(cfg, 100.0, 4.0, 0.0, n_paths=60_000, seed=909)
    pc = np.maximum(s_term - 100.0, 0.0) - np.maximum(100.0 - s_term, 0.0)
    se_pc = pc.std(ddof=1) / math.sqrt(pc.size)
    mc_parity_ok = abs(pc.mean() - 0.0) <= 3 * se_pc

    probes_ok = True
    worst = 0.0
    for s in (92.0, 100.0, 108.0):
        for nu in (1.0, 4.0, 7.0):
            pde = grid.price(s, nu, 0.0)
            mc, se = mc_price(cfg, s, nu, 0.0, n_paths=60_000, seed=910)
            tol = 3 * se + 0.01 + 0.005 * pde
            probes_ok &= abs(pde - mc) <= tol
            worst = max(worst, abs(pde - mc) / tol)
    elapsed = time.perf_counter() - t0
    ok = bach_ok and parity_ok and mc_parity_ok and probes_ok and elapsed < 120.0
    report("9", ok, f"ATM degenerate {atm:.6f} vs {bach} ({abs(atm-bach)/bach:.3%}), "
                    f"parity sup {parity_sup:.2e}, MC parity {pc.mean():+.4f} +- {3*se_pc:.4f}, "
                    f"probes worst {worst:.2f}x tol, {elapsed:.1f}s")
    assert bach_ok
    assert parity_ok
    assert mc_parity_ok
    assert probes_ok
    assert elapsed < 120.0


def test_criterion_10_hedged_qv(heston, arrival, risk_nofee, pricing_grid, functional_lattice):
    stats = run_hedged_paths(heston, arrival, risk_nofee, pricing_grid, functional_lattice,
                             T=1.0, dt=0.001, n_paths=1000, seed=1010)
    diff = stats.qv_rate_real - stats.qv_rate_pred
    se = diff.std(ddof=1) / math.sqrt(stats.n)
    tol = 3 * se + 2.0 * float(stats.qv_rate_disc.mean())
    identity_ok = abs(float(diff.mean())) <= tol
    d = stats.qv_unhedged - stats.qv_hedged
    ratio = float(stats.qv_hedged.mean() / stats.qv_unhedged.mean())
    ratio_ok = ratio < 1.0 and float(d.mean()) - 3 * d.std(ddof=1) / math.sqrt(stats.n) > 0
    ok = identity_ok and ratio_ok
    report("10", ok, f"QV rate real {stats.qv_rate_real.mean():.4f} vs predicted "
                     f"{stats.qv_rate_pred.mean():.4f} (tol {tol:.4f}), "
                     f"hedged/unhedged ratio {ratio:.4f}")
    assert identity_ok
    assert ratio_ok


def _run_and_hash(tmp_path, name, *args, fresh=False):
    """The run's CSV bytes; ``fresh`` runs it in a new interpreter."""
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fresh:
        src = str(Path(hestonmm.__file__).parents[1])
        run = subprocess.run([sys.executable, "-m", "hestonmm.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == EXIT_OK, run.stderr
    else:
        assert main(argv) == EXIT_OK
    files = sorted(p for p in out.glob("*.csv"))
    assert files
    return [p.read_bytes() for p in files]


def test_criterion_11_determinism(tmp_path):
    cases = {
        "simulate": ["simulate", "--paths", "50", "--seed", "42"],
        "compare": ["compare", "--paths", "100", "--seed", "42"],
        "frontier": ["frontier", "--paths", "40", "--seed", "42",
                     "--set", "frontier.gammas=0.0 0.1 1.0"],
        "trading-curve": ["trading-curve", "--paths", "50", "--seed", "42",
                          "--set", "sim.q0=6", "--set", "sim.snapshot_stride=50"],
        "hjb": ["hjb", "--seed", "42", "--set", "hjb.q_min=-5", "--set", "hjb.q_max=5",
                "--set", "hjb.n_nu=13", "--set", "hjb.n_time=400"],
        "price-option": ["price-option", "--seed", "42", "--set", "pricing.n_s=41",
                         "--set", "pricing.n_nu=9", "--set", "pricing.n_time=60"],
        "option-mm": ["option-mm", "--seed", "42", "--set", "option_mm.n_paths=20",
                      "--set", "option_mm.dt=0.01", "--set", "option_mm.lattice_paths=1000",
                      "--set", "option_mm.lattice_n_s=3", "--set", "option_mm.lattice_n_nu=3",
                      "--set", "option_mm.lattice_n_t=3", "--set", "pricing.n_s=81",
                      "--set", "pricing.n_nu=16", "--set", "pricing.n_time=100"],
    }
    all_ok = True
    for name, args in cases.items():
        first = _run_and_hash(tmp_path, f"{name}-1", *args)
        again = _run_and_hash(tmp_path, f"{name}-2", *args)
        fresh = _run_and_hash(tmp_path, f"{name}-fresh", *args, fresh=True)
        same = first == again == fresh
        all_ok &= same
        assert same, f"{name} not byte-identical across reruns and a fresh interpreter"
    report("11", all_ok, f"{len(cases)} subcommands byte-identical across two in-process runs "
                         "and a run in a fresh interpreter")
