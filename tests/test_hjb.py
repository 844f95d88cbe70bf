from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from hestonmm import fd, hjb
from hestonmm.errors import NumericalError
from hestonmm.heston import HestonParams
from hestonmm.hjb import (
    HjbConfig,
    ValueGrid,
    compare_exact_vs_approx,
    estimate_tolerance,
    solve_stock_hjb,
)
from hestonmm.quotes import RiskParams, inventory_coefficient
from oracles import risk_neutral_rate


def small_config(heston, arrival, risk, **kw):
    base = dict(heston=heston, arrival=arrival, risk=risk, T=1.0,
                q_min=-6, q_max=6, nu_lo=0.0, nu_hi=12.0, n_nu=31, n_time=1000)
    base.update(kw)
    return HjbConfig(**base)


def test_config_validation(heston, arrival, risk):
    with pytest.raises(ValueError):
        small_config(heston, arrival, risk, q_min=1)
    with pytest.raises(ValueError):
        small_config(heston, arrival, risk, nu_lo=-1.0)
    with pytest.raises(ValueError):
        small_config(heston, arrival, risk, n_time=0)


def test_terminal_slice_zero(heston, arrival, risk):
    grid = solve_stock_hjb(small_config(heston, arrival, risk, n_nu=11, n_time=200))
    assert np.all(grid.values[:, :, -1] == 0.0)
    assert np.all(np.isfinite(grid.values))
    # no ask at q_min and no bid at q_max, a finite premium everywhere else
    assert np.isnan(grid.quotes_a[0]).all() and np.isnan(grid.quotes_b[-1]).all()
    assert np.isfinite(grid.quotes_a[1:]).all() and np.isfinite(grid.quotes_b[:-1]).all()


def test_quotes_are_built_from_values_on_first_read(heston, arrival, risk, monkeypatch):
    grid = solve_stock_hjb(small_config(heston, arrival, risk, q_min=-3, q_max=3, n_nu=9, n_time=60))
    premiums, stored_reads = hjb._premiums, []

    def spy(v, config):
        if v.ndim == 3:  # the stored (q, nu, t) values, not a step's slice
            stored_reads.append(v)
        return premiums(v, config)

    monkeypatch.setattr(hjb, "_premiums", spy)
    estimate_tolerance(grid)  # its refined solve reads V alone
    assert stored_reads == []
    quotes_a, quotes_b = grid.quotes_a, grid.quotes_b
    assert len(stored_reads) == 1 and stored_reads[0] is grid.values
    assert grid.quotes_a is quotes_a and grid.quotes_b is quotes_b  # built once
    want_a, want_b = premiums(grid.values, grid.config)
    assert quotes_a[1:].tobytes() == want_a.tobytes() and quotes_b[:-1].tobytes() == want_b.tobytes()


def frozen_config(arrival, gamma, n_time):
    # frozen variance: the nu-operator vanishes and only the q-coupling is left
    heston0 = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, nu0=4.0)
    return HjbConfig(heston=heston0, arrival=arrival, risk=RiskParams(gamma=gamma, beta=0.03),
                     T=1.0, q_min=-10, q_max=10, nu_lo=3.0, nu_hi=5.0, n_nu=3, n_time=n_time)


@pytest.mark.filterwarnings("error")
def test_blowup_reported_with_location(arrival):
    # the inventory penalty of the first sub-step spreads V(q) - V(q+1) so far
    # that the next sub-step's fill rates overflow: the explosion must be
    # reported with its location, the sub-step's own time and its count from T,
    # before a banded solve meets it (no arithmetic warning)
    with pytest.raises(NumericalError, match=r"q=-10, nu=5, t=0.9975 \(step 2\)"):
        solve_stock_hjb(frozen_config(arrival, gamma=1e4, n_time=200))
    with pytest.raises(NumericalError):
        solve_stock_hjb(frozen_config(arrival, gamma=1e4, n_time=10))


def test_risk_neutral_closed_form(heston, arrival):
    # gamma = 0: V(q, nu, t) = rate * (T - t) uniformly, away from the box edges
    risk0 = RiskParams(gamma=0.0, beta=0.03)
    cfg = small_config(heston, arrival, risk0, q_min=-14, q_max=14,
                       nu_lo=1.0, nu_hi=8.0, n_nu=11, n_time=1500)
    grid = solve_stock_hjb(cfg)
    rate = risk_neutral_rate(arrival, risk0)
    probe = np.abs(grid.q_levels) <= 6
    for it, t in enumerate(grid.times):
        target = rate * (1.0 - t)
        block = grid.values[probe][:, :, it]
        assert np.all(np.abs(block - target) <= 0.01 * rate + 1e-9)


def test_no_transaction_limit_equals_frozen_value(heston, arrival, risk):
    from hestonmm.intensity import ArrivalParams

    tiny = ArrivalParams(A=1e-12, k=1.5)
    grid = solve_stock_hjb(small_config(heston, tiny, risk, n_nu=31, n_time=1000))
    inu = int(np.argmin(np.abs(grid.nu_grid - 4.0)))
    for q in (-6, -2, 0, 3, 6):
        iq = int(np.where(grid.q_levels == q)[0][0])
        expected = -q**2 * inventory_coefficient(4.0, 0.0, 1.0, heston, risk)  # the frozen value
        assert grid.values[iq, inu, 0] == pytest.approx(expected, abs=2e-3)


def test_against_independent_ode_oracle(arrival, risk):
    # xi = theta = 0 freezes the variance: the PDE family becomes an ODE
    # system integrated here to high precision with an off-the-shelf solver.
    heston0 = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, nu0=4.0)
    q_levels = np.arange(-6, 7)
    nu = 4.0
    k, A, beta = arrival.k, arrival.A, risk.beta

    def rhs(tau, v):
        da = np.full(v.size, np.nan)
        db = np.full(v.size, np.nan)
        da[1:] = 1 / k - beta + v[1:] - v[:-1]
        db[:-1] = 1 / k + beta + v[:-1] - v[1:]
        g = (A / k) * (np.where(np.isnan(da), 0, np.exp(-k * np.nan_to_num(da)))
                       + np.where(np.isnan(db), 0, np.exp(-k * np.nan_to_num(db))))
        return g - 0.5 * risk.gamma * q_levels.astype(float) ** 2 * nu

    sol = solve_ivp(rhs, [0.0, 1.0], np.zeros(q_levels.size), rtol=1e-10, atol=1e-12)
    v_oracle = sol.y[:, -1]

    cfg = HjbConfig(heston=heston0, arrival=arrival, risk=risk, T=1.0,
                    q_min=-6, q_max=6, nu_lo=3.0, nu_hi=5.0, n_nu=5, n_time=4000)
    grid = solve_stock_hjb(cfg)
    np.testing.assert_allclose(grid.values[:, 2, 0], v_oracle, atol=5e-4)


def test_symmetry_without_clearing_fee(heston, arrival):
    risk0 = RiskParams(gamma=0.1, beta=0.0)
    grid = solve_stock_hjb(small_config(heston, arrival, risk0, n_nu=21, n_time=1000))
    v = grid.values
    np.testing.assert_allclose(v, v[::-1, :, :], atol=1e-9)
    # quotes mirror: ask(q) = bid(-q) wherever both sides exist
    a = grid.quotes_a[1:, :, :]
    b = grid.quotes_b[:-1, :, :][::-1, :, :]
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_compare_report_and_sandwich(heston, arrival, risk):
    cfg = small_config(heston, arrival, risk, n_nu=25, n_time=1200)
    grid = solve_stock_hjb(cfg)
    report = compare_exact_vs_approx(grid, nu_window=(1.0, 8.0))
    assert report.c_emp > 0
    assert report.sandwich_ok  # value dominates the frozen benchmark
    assert report.max_quote_gap_a > 0 and report.max_quote_gap_b > 0
    # gamma = 0 exactness: both quote rules reduce to 1/k -+ beta away from
    # the inventory bounds (the dropped-side truncation decays inward slowly
    # when gamma = 0, hence the wide box and central probes)
    risk0 = RiskParams(gamma=0.0, beta=0.03)
    cfg0 = small_config(heston, arrival, risk0, q_min=-24, q_max=24, n_nu=11, n_time=600)
    grid0 = solve_stock_hjb(cfg0)
    central = np.abs(grid0.q_levels) <= 2
    assert np.abs(grid0.quotes_a[central] - (1.0 / arrival.k - risk0.beta)).max() < 0.02
    assert np.abs(grid0.quotes_b[central] - (1.0 / arrival.k + risk0.beta)).max() < 0.02


def test_compare_rejects_mismatched_config(heston, arrival, risk):
    impact_cfg = small_config(heston, arrival, risk, n_nu=11, n_time=400, include_impact=True)
    grid = solve_stock_hjb(impact_cfg)
    with pytest.raises(ValueError):
        compare_exact_vs_approx(grid, tol=0.01)


@pytest.mark.parametrize("window, message", [
    ({"nu_window": (20.0, 30.0)}, "nu_window (20.0, 30.0) holds no variance node of [0, 12]"),
    ({"nu_window": (5.0, 2.0)}, "nu_window (5.0, 2.0) holds no variance node of [0, 12]"),
])
def test_compare_rejects_empty_windows(heston, arrival, risk, window, message):
    grid = solve_stock_hjb(small_config(heston, arrival, risk, n_nu=5, n_time=20))
    with pytest.raises(ValueError) as err:
        compare_exact_vs_approx(grid, **window)
    assert str(err.value) == message


def test_grid_convergence(heston, arrival, risk):
    cfg = small_config(heston, arrival, risk, q_min=-4, q_max=4, n_nu=15, n_time=600)
    grid = solve_stock_hjb(cfg)
    tol = estimate_tolerance(grid)
    # refine once more: the change must stay within 4x the estimate
    fine_cfg = replace(cfg, n_time=2 * cfg.n_time, n_nu=2 * cfg.n_nu - 1)
    fine = solve_stock_hjb(fine_cfg)
    tol_fine = estimate_tolerance(fine)
    assert tol_fine <= 4.0 * tol


def test_impact_solver_runs_and_lower_bound(heston, arrival, risk):
    cfg = small_config(heston, arrival, risk, n_nu=15, n_time=1000, include_impact=True)
    grid = solve_stock_hjb(cfg)
    assert np.all(np.isfinite(grid.values))
    # active dealer still dominates the frozen book in the impact model
    from hestonmm.quotes import inventory_coefficient

    f = inventory_coefficient(grid.nu_grid[None, :, None], grid.times[None, None, :],
                              1.0, heston, risk)
    v_frozen = -grid.q_levels.astype(float)[:, None, None] ** 2 * f
    assert np.all(grid.values >= v_frozen - 0.05)


def _slice_error(grid, ref):
    """Largest |V - V_ref| over the common stored times, and at t = 0."""
    common = np.intersect1d(grid.times, ref.times)
    diff = np.abs(grid.values[:, :, np.searchsorted(grid.times, common)]
                  - ref.values[:, :, np.searchsorted(ref.times, common)])
    return diff.max(), diff[:, :, 0].max()


def test_sub_stepped_layer_keeps_second_order(heston, arrival, risk):
    # halving dt cuts the error against a 16x finer solve about 4-fold (second
    # order) over every stored slice, the maturity layer included
    cfg = small_config(heston, arrival, risk, q_min=-4, q_max=4, n_nu=15, n_time=100)
    ref = solve_stock_hjb(replace(cfg, n_time=16 * cfg.n_time))
    coarse = _slice_error(solve_stock_hjb(cfg), ref)
    fine = _slice_error(solve_stock_hjb(replace(cfg, n_time=2 * cfg.n_time)), ref)
    assert coarse[0] >= 3.5 * fine[0]
    assert coarse[1] >= 3.5 * fine[1]


def test_stored_times_are_the_coarse_steps(heston, arrival, risk):
    # the sub-steps add no slice: 200 steps store the 201 times that 400 steps
    # (every other step) store, bitwise
    times_400 = np.array([s * (1.0 / 400) for s in range(0, 401, 2)])
    for n_time in (200, 400):
        grid = solve_stock_hjb(small_config(heston, arrival, risk, q_min=-2, q_max=2,
                                            n_nu=5, n_time=n_time))
        assert grid.times.tobytes() == times_400.tobytes()


def test_tolerance_refines_every_sub_step(heston, arrival, risk, monkeypatch):
    cfg = small_config(heston, arrival, risk, q_min=-4, q_max=4, n_nu=15, n_time=60)
    fine_cfg = replace(cfg, n_time=2 * cfg.n_time, n_nu=2 * cfg.n_nu - 1)
    solve_banded = fd.solve_banded

    def substep_lengths(c):
        """Each Douglas sub-step's length, read back from its nu-solve matrix
        (diagonal 1 - h/2 * L_ii), in the order the solve takes them."""
        nu = c.nu_grid
        diag = fd.operator_diagonals(nu, c.heston.theta * (c.heston.alpha - nu),
                                     0.5 * c.heston.xi**2 * nu)[1]
        i = int(np.argmax(np.abs(diag)))
        lengths = []

        def spy(diags, b):
            if diags[1].ndim == 1:  # the nu-solve: one operator, one row per inventory level
                lengths.append(2.0 * (1.0 - diags[1][i]) / diag[i])
            return solve_banded(diags, b)

        monkeypatch.setattr(fd, "solve_banded", spy)
        grid = solve_stock_hjb(c)
        monkeypatch.setattr(fd, "solve_banded", solve_banded)
        return grid, np.array(lengths)

    grid, lengths = substep_lengths(cfg)
    fine, fine_lengths = substep_lengths(fine_cfg)
    dt = cfg.T / cfg.n_time
    # the last tenth (6 steps nearest T) as 4 sub-steps each, then 54 plain steps
    np.testing.assert_allclose(lengths, [dt / 4] * 24 + [dt] * 54, rtol=1e-9)
    # the refined solve halves every one of them: twice as many layer steps
    np.testing.assert_allclose(fine_lengths, np.repeat(lengths, 2) / 2, rtol=1e-9)
    change = np.abs(grid.values - fine.values[:, ::2, ::2]).max()
    assert estimate_tolerance(grid) == 2.0 * change


def _expm_value(config, times):
    """Exact V of a solve with xi = theta = 0, shape (n_q, n_nu, n_t): each
    variance node keeps its nu, and with omega = e^{kV} the family is linear,
    omega_tau = M(nu) omega from omega = 1 at T, so V(t) = log(expm((T - t)
    M(nu)) 1) / k.  M(nu) has diagonal -(k gamma / 2) q^2 nu, sub-diagonal
    A e^{k beta - 1} (the ask, from q - 1) and super-diagonal A e^{-k beta - 1}
    (the bid, from q + 1); the side that would leave the box has no entry
    (Gueant, Lehalle & Fernandez-Tapia 2013)."""
    k, A, beta = config.arrival.k, config.arrival.A, config.risk.beta
    q, nu = config.q_levels.astype(np.float64), config.nu_grid
    m = np.zeros((nu.size, q.size, q.size))
    i = np.arange(q.size)
    m[:, i, i] = -0.5 * k * config.risk.gamma * q**2 * nu[:, None]
    m[:, i[1:], i[:-1]] = A * np.exp(k * beta - 1.0)
    m[:, i[:-1], i[1:]] = A * np.exp(-k * beta - 1.0)
    omega = expm((config.T - np.asarray(times))[:, None, None, None] * m).sum(axis=-1)
    return np.transpose(np.log(omega) / k, (2, 1, 0))


def _frozen_variance_solve(arrival, risk, n_time):
    # the default box, 13 variance nodes, xi = theta = 0
    heston0 = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, nu0=4.0)
    grid = solve_stock_hjb(HjbConfig(heston=heston0, arrival=arrival, risk=risk, T=1.0,
                                     n_nu=13, n_time=n_time))
    return grid, _expm_value(grid.config, grid.times)


@pytest.mark.parametrize("n_time", [50, 100, 200])
def test_value_and_quotes_match_the_exact_solution_at_frozen_variance(arrival, risk, n_time):
    # measured: max |V - exact| over every stored slice is 0.67 tol at each
    # n_time (5.8e-3 against tol 8.7e-3 at 50 steps), the quotes' 0.31-0.43 tol
    grid, exact = _frozen_variance_solve(arrival, risk, n_time)
    tol = estimate_tolerance(grid)
    assert np.abs(grid.values - exact).max() <= tol
    base, beta = 1.0 / arrival.k, risk.beta
    want_a = base - beta + exact[1:] - exact[:-1]
    want_b = base + beta + exact[:-1] - exact[1:]
    assert np.abs(grid.quotes_a[1:] - want_a).max() <= tol
    assert np.abs(grid.quotes_b[:-1] - want_b).max() <= tol
    assert np.isnan(grid.quotes_a[0]).all() and np.isnan(grid.quotes_b[-1]).all()
    exact_grid = ValueGrid(config=grid.config, q_levels=grid.q_levels, nu_grid=grid.nu_grid,
                           times=grid.times, values=exact)
    assert compare_exact_vs_approx(exact_grid, tol=0.0).sandwich_ok


def test_value_error_is_second_order_at_frozen_variance(arrival, risk):
    # each halving of dt cuts the worst error over the stored slices, and the
    # t = 0 error, about 4-fold (measured 3.9-4.0)
    errors = []
    for n_time in (50, 100, 200):
        grid, exact = _frozen_variance_solve(arrival, risk, n_time)
        diff = np.abs(grid.values - exact)
        errors.append((diff.max(), diff[:, :, 0].max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse[0] >= 3.5 * fine[0] and coarse[1] >= 3.5 * fine[1]
