import math

import numpy as np
import pytest

from hestonmm import cli, option_pricing
from hestonmm.heston import HestonParams
from hestonmm.option_pricing import (
    C,
    PricingConfig,
    StabilityError,
    _bachelier,
    _conditional_paths,
    bachelier_call,
    default_nu_grid,
    default_s_grid,
    douglas_steps,
    mc_price,
    mc_terminal,
    solve_call_grid,
)
from hestonmm.seeding import PRICING_PILOT_STREAM, PRICING_STREAM


@pytest.fixture(scope="module")
def degenerate_grid():
    # xi = theta = rho = eta_nu = 0: variance frozen, Bachelier closed form applies
    h = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, s0=100.0, nu0=4.0)
    return solve_call_grid(PricingConfig(heston=h, strike=100.0, T=1.0))


def test_config_validation(heston):
    with pytest.raises(ValueError):
        PricingConfig(heston=heston, strike=-1.0, T=1.0)
    with pytest.raises(ValueError):
        PricingConfig(heston=heston, strike=100.0, T=1.0,
                      s_grid=tuple(np.linspace(110, 150, 41)))  # strike outside interior
    with pytest.raises(ValueError):
        PricingConfig(heston=heston, strike=100.0, T=1.0,
                      nu_grid=(-1.0, 0.0, 1.0, 2.0))


def test_terminal_slice_is_payoff(pricing_grid):
    s = pricing_grid.s_grid
    payoff = np.maximum(s - 100.0, 0.0)
    np.testing.assert_array_equal(pricing_grid.stack[-1, :, :, C], payoff[:, None] * np.ones((1, pricing_grid.nu_grid.size)))


def test_bachelier_degenerate_case(degenerate_grid):
    target = bachelier_call(100.0, 100.0, 4.0, 1.0)
    assert target == pytest.approx(0.797885, abs=5e-7)
    atm = degenerate_grid.price(100.0, 4.0, 0.0)
    assert abs(atm - target) / target < 0.005
    for s in (94.0, 98.0, 103.0, 108.0):
        exact = bachelier_call(s, 100.0, 4.0, 1.0)
        assert degenerate_grid.price(s, 4.0, 0.0) == pytest.approx(exact, abs=5e-3)


def test_bachelier_greeks(degenerate_grid):
    delta, gamma, _ = degenerate_grid.greeks(100.0, 4.0, 0.0)
    assert delta == pytest.approx(0.5, abs=0.01)
    assert gamma == pytest.approx(0.3989 / 2.0, abs=0.01)
    d_itm, _, c_itm = degenerate_grid.greeks(112.0, 4.0, 0.0)
    assert d_itm == pytest.approx(1.0, abs=0.02)
    d_otm, _, c_otm = degenerate_grid.greeks(88.0, 4.0, 0.0)
    assert d_otm == pytest.approx(0.0, abs=0.02)
    assert abs(c_itm) < 0.02 and abs(c_otm) < 0.02


def test_put_call_parity_by_construction(pricing_grid):
    s = np.array([92.0, 100.0, 107.0])
    c = pricing_grid.price(s, 4.0, 0.0)
    p = pricing_grid.put(s, 4.0, 0.0)
    np.testing.assert_allclose(c - p, s - 100.0, atol=1e-12)


def test_mc_parity_and_martingale(pricing_grid):
    cfg = pricing_grid.config
    s_term = mc_terminal(cfg, 100.0, 4.0, 0.0, n_paths=40_000, seed=7)
    se = s_term.std(ddof=1) / math.sqrt(s_term.size)
    assert abs(s_term.mean() - 100.0) <= 3 * se
    call = np.maximum(s_term - 100.0, 0.0)
    put = np.maximum(100.0 - s_term, 0.0)
    diff = call - put
    se_d = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean() - 0.0) <= 3 * se_d  # s - K = 0 at the money


def test_deep_itm_value(pricing_grid):
    cfg = pricing_grid.config
    price, se = mc_price(cfg, 114.0, 1.0, 0.0, n_paths=20_000, seed=9)
    assert abs(price - 14.0) <= 3 * se + 0.02


def test_bachelier_kernel_matches_the_normal_law():
    from scipy.stats import norm

    sd = 2.0
    x = np.linspace(-16.0, 16.0, 321)  # d = x / sd over [-8, 8]
    d = x / sd
    want = x * norm.cdf(d) + sd * norm.pdf(d)
    got = _bachelier(x, sd**2)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(_bachelier(x, 0.0), np.maximum(x, 0.0))


@pytest.mark.parametrize("s, nu", [(96.0, 2.0), (100.0, 4.0), (105.0, 7.0)])
@pytest.mark.parametrize("seed", [21, 22])
def test_conditional_estimator_agrees_with_the_payoff_mean(pricing_grid, s, nu, seed):
    # the conditional estimator and the plain payoff mean estimate the same
    # discretised expectation; they draw on independent seeds
    cfg = pricing_grid.config
    price, se = mc_price(cfg, s, nu, 0.0, n_paths=20_000, seed=seed, dt_target=0.02)
    payoff = np.maximum(mc_terminal(cfg, s, nu, 0.0, n_paths=20_000, seed=seed + 100,
                                    dt_target=0.02) - cfg.strike, 0.0)
    plain_se = payoff.std(ddof=1) / math.sqrt(payoff.size)
    assert abs(price - payoff.mean()) <= 3 * math.hypot(se, plain_se)
    assert se < plain_se


def test_conditional_estimator_is_exact_without_vol_of_vol():
    # xi = theta = rho = 0: every path's conditional value is the closed form
    h = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, s0=100.0, nu0=4.0)
    cfg = PricingConfig(heston=h, strike=100.0, T=1.0)
    for s in (94.0, 100.0, 108.0):
        price, se = mc_price(cfg, s, 4.0, 0.0, n_paths=5000, seed=3)
        assert price == pytest.approx(bachelier_call(s, 100.0, 4.0, 1.0), rel=1e-12)
        assert se < 1e-12


def test_conditional_estimator_at_maturity(pricing_grid):
    cfg = pricing_grid.config
    assert mc_price(cfg, 103.5, 4.0, cfg.T, n_paths=1000) == (3.5, 0.0)
    assert mc_price(cfg, 97.0, 4.0, cfg.T, n_paths=1000) == (0.0, 0.0)


def test_conditional_control_has_mean_zero(pricing_grid):
    n, n_steps = 20_000, 50
    _, m = _conditional_paths(pricing_grid.config, 100.0, 4.0, n_steps, 1.0 / n_steps,
                              seed=5, stream=PRICING_STREAM, lo=0, hi=n)
    assert abs(m.mean()) <= 3 * m.std(ddof=1) / math.sqrt(n)


def test_pilot_rows_are_not_main_rows(pricing_grid, monkeypatch):
    # the control coefficient is fitted on draws of their own, so it adds
    # no in-sample bias, including against the next seed's main sample
    drawn = {}
    lane_draws = option_pricing.lane_draws

    def record(master, key, lo, hi, *args):
        chunks = list(lane_draws(master, key, lo, hi, *args))
        drawn.setdefault((master, key), []).append(np.concatenate([z[:, 0] for z, _ in chunks]).T)
        return iter(chunks)

    monkeypatch.setattr(option_pricing, "lane_draws", record)
    for seed in (8, 9):
        mc_price(pricing_grid.config, 100.0, 4.0, 0.0, n_paths=5000, seed=seed, dt_target=0.1)
    assert set(drawn) == {(seed, (stream,)) for seed in (8, 9)
                          for stream in (PRICING_STREAM, PRICING_PILOT_STREAM)}
    rows = {k: {r.tobytes() for r in np.concatenate(v)} for k, v in drawn.items()}
    pilot = rows[(8, (PRICING_PILOT_STREAM,))]
    assert len(pilot) == 4096
    assert not pilot & rows[(8, (PRICING_STREAM,))]
    assert not pilot & rows[(9, (PRICING_STREAM,))]
    assert not rows[(9, (PRICING_PILOT_STREAM,))] & rows[(8, (PRICING_STREAM,))]


def test_reported_standard_error_is_honest(pricing_grid):
    # the spread of 40 independent estimates against their mean reported SE;
    # [0.67, 1.33] is the 3-sigma band of an SD estimated with 39 degrees of
    # freedom (relative SE 1/sqrt(78))
    runs = np.array([mc_price(pricing_grid.config, 100.0, 4.0, 0.0, n_paths=2000, seed=seed)
                     for seed in range(40)])
    ratio = runs[:, 0].std(ddof=1) / runs[:, 1].mean()
    assert 0.67 <= ratio <= 1.33, ratio


def test_monotonicity_on_grid(pricing_grid):
    v0 = pricing_grid.stack[0, :, :, C]
    assert np.all(np.diff(v0, axis=0) >= -1e-8)  # nondecreasing in s
    # eta_nu = 0: nondecreasing in variance up to the first-order wiggle of
    # the degenerate nu = 0 boundary row
    assert np.all(np.diff(v0, axis=1) >= -5e-4)


def test_convexity_on_grid(pricing_grid):
    _, gamma, _ = pricing_grid.greek_planes(0.0)
    assert gamma[2:-2, :].min() >= -1e-3


def test_no_early_exercise_lower_bound(pricing_grid):
    # with r = 0 the call dominates intrinsic value everywhere on the grid
    intrinsic = np.maximum(pricing_grid.s_grid - 100.0, 0.0)[:, None]
    assert np.all(pricing_grid.stack[:, :, :, C] >= intrinsic - 1e-3)


def test_grid_vs_mc_probes(pricing_grid):
    cfg = pricing_grid.config
    for s, nu in [(92.0, 1.0), (100.0, 4.0), (108.0, 7.0)]:
        pde = pricing_grid.price(s, nu, 0.0)
        mc, se = mc_price(cfg, s, nu, 0.0, n_paths=30_000, seed=11)
        assert abs(pde - mc) <= 3 * se + 0.01 + 0.005 * pde


def test_volatility_risk_price_lowers_value(heston):
    # positive eta_nu drags the variance down under the pricing measure
    base = PricingConfig(heston=heston, strike=100.0, T=1.0, eta_nu=0.0)
    adj = PricingConfig(heston=heston, strike=100.0, T=1.0, eta_nu=1.0)
    c0 = solve_call_grid(base).price(100.0, 4.0, 0.0)
    c1 = solve_call_grid(adj).price(100.0, 4.0, 0.0)
    assert c1 < c0
    mc0, se0 = mc_price(base, 100.0, 4.0, 0.0, n_paths=30_000, seed=13)
    mc1, se1 = mc_price(adj, 100.0, 4.0, 0.0, n_paths=30_000, seed=13)
    assert mc1 < mc0
    assert abs(c1 - mc1) <= 3 * se1 + 0.01 + 0.005 * c1


def test_extrapolation_rejected(pricing_grid):
    with pytest.raises(ValueError):
        pricing_grid.price(pricing_grid.s_grid[-1] + 1.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        pricing_grid.greeks(100.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        pricing_grid.price(100.0, 4.0, 2.0)


@pytest.mark.parametrize("point", [(math.nan, 4.0, 0.0), (100.0, math.nan, 0.0),
                                   (100.0, 4.0, math.nan), (math.inf, 4.0, 0.0)])
def test_non_finite_points_rejected(pricing_grid, point):
    for lookup in (pricing_grid.price, pricing_grid.greeks):
        with pytest.raises(ValueError, match="outside the grid"):
            lookup(*point)
    with pytest.raises(ValueError, match="outside the grid"):
        pricing_grid.price(np.array([100.0, point[0]]), point[1], point[2])


def test_stability_guard(heston):
    with pytest.raises(StabilityError):
        solve_call_grid(PricingConfig(heston=heston, strike=100.0, T=1.0, n_time=2))


def test_non_finite_source_is_a_numerical_failure(heston):
    # a blow-up reaches the banded solves unchecked and is caught after the step
    # (exit 3), not reported as an invalid input (exit 2)
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    u = np.zeros((cfg.s.size, cfg.nu.size))
    with pytest.raises(StabilityError, match="backward step 1$") as info:
        next(douglas_steps(cfg, u, lambda it: np.full(u.shape, np.inf)))
    assert isinstance(info.value, cli._NUMERICAL_ERRORS)


def test_mc_requires_min_paths(pricing_grid):
    with pytest.raises(ValueError):
        mc_price(pricing_grid.config, 100.0, 4.0, 0.0, n_paths=10)


@pytest.mark.parametrize("s, nu", [(math.nan, 4.0), (math.inf, 4.0), (100.0, math.nan),
                                   (100.0, -math.inf), (100.0, -0.1)])
def test_mc_rejects_bad_start(pricing_grid, s, nu):
    # a bad start raised nothing and priced at nan (or below zero variance)
    cfg = pricing_grid.config
    with pytest.raises(ValueError, match="nu >= 0"):
        mc_price(cfg, s, nu, 0.0, n_paths=1000)
    for t in (0.0, cfg.T):
        with pytest.raises(ValueError, match="nu >= 0"):
            mc_terminal(cfg, s, nu, t, n_paths=10)


def test_default_grids(heston):
    s = default_s_grid(heston, 1.0)
    assert s[0] == pytest.approx(84.0) and s[-1] == pytest.approx(116.0)
    v = default_nu_grid(heston, 1.0)
    assert v[0] == 0.0 and v[-1] >= 10.0


def _fourier_call(heston, strike, T, s, nu, damp=1.0, vmax=12.0, nv=3001):
    """Independent semi-analytic oracle via Fourier inversion.

    Conditionally on the variance path, S_T - s is normal with mean
    rho/xi (nu_T - nu0 - theta alpha T + theta I) and variance (1-rho^2) I,
    I = integral of nu.  The joint transform E[exp(a nu_T - b I)] of the
    square-root process solves an affine Riccati system, integrated here to
    high precision, and the call value follows from a damped inversion.
    """
    from scipy.integrate import solve_ivp

    theta, alpha, xi, rho = heston.theta, heston.alpha, heston.xi, heston.rho

    v = np.linspace(1e-9, vmax, nv)
    z = v - 1j * damp
    a = 1j * z * rho / xi
    b = 0.5 * z * z * (1 - rho * rho) - 1j * z * rho * theta / xi

    n = z.size

    def rhs(t, y):
        B = y[:n]
        return np.concatenate([0.5 * xi * xi * B * B - theta * B - b,
                               theta * alpha * B])

    y0 = np.concatenate([a, np.zeros(n, dtype=complex)])
    sol = solve_ivp(rhs, [0.0, T], y0, rtol=1e-10, atol=1e-12)
    B, A = sol.y[:n, -1], sol.y[n:, -1]
    phi = np.exp(A + B * nu - 1j * z * rho / xi * (nu + theta * alpha * T))

    kappa = strike - s
    integrand = np.real(np.exp(-1j * v * kappa) * phi / (damp + 1j * v) ** 2)
    return math.exp(-damp * kappa) / math.pi * np.trapezoid(integrand, v)


def test_grid_vs_fourier_oracle(heston, pricing_grid):
    # third independent route: characteristic-function inversion agrees with
    # the PDE solve to within the grid's own discretization error
    for s, nu in [(100.0, 4.0), (92.0, 4.0), (108.0, 4.0), (100.0, 2.0), (100.0, 7.0)]:
        exact = _fourier_call(heston, 100.0, 1.0, s, nu)
        pde = pricing_grid.price(s, nu, 0.0)
        assert pde == pytest.approx(exact, abs=4e-3)
