import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm.heston import HestonParams, conditional_moments, euler_step, sample_terminal


def test_params_validation():
    with pytest.raises(ValueError):
        HestonParams(theta=-0.1, alpha=4.0, xi=0.5, rho=0.7)
    with pytest.raises(ValueError):
        HestonParams(theta=0.1, alpha=4.0, xi=0.5, rho=1.5)
    with pytest.raises(ValueError):
        HestonParams(theta=0.1, alpha=4.0, xi=0.5, rho=0.0, nu0=-1.0)
    with pytest.raises(ValueError):
        HestonParams(theta=float("nan"), alpha=4.0, xi=0.5, rho=0.0)


def test_feller_flag_informational(heston):
    # the baseline parameters violate the condition: 2*0.02*4 = 0.16 < 0.25
    assert not heston.feller_satisfied
    assert HestonParams(theta=1.0, alpha=1.0, xi=0.5, rho=0.0).feller_satisfied


def test_step_at_zero_variance_diffusion_vanishes():
    # drift alone acts when nu = 0: new nu = theta*alpha*dt, the price stays put
    params = HestonParams(theta=0.02, alpha=4.0, xi=123.0, rho=0.3)
    z_s, z_perp = np.array([1.0, -1.0, 1.0, 2.5]), np.array([1.0, 1.0, -1.0, -3.0])
    ds, nu = euler_step(np.full(4, 100.0), np.zeros(4), z_s, z_perp, params, dt=0.005)
    np.testing.assert_array_equal(nu, np.full(4, 0.02 * 4.0 * 0.005))
    np.testing.assert_array_equal(ds, np.zeros(4))


def test_step_degenerate_constant_variance():
    params = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0)
    z_s = np.array([1.0, -1.0, 0.3])
    ds, nu = euler_step(np.full(3, 100.0), np.full(3, 3.0), z_s, np.full(3, -1.0), params, 0.01)
    np.testing.assert_array_equal(nu, np.full(3, 3.0))
    np.testing.assert_array_equal(ds, math.sqrt(3.0) * z_s * 0.1)


@given(
    theta=st.floats(0.0, 5.0),
    alpha=st.floats(0.0, 10.0),
    xi=st.floats(0.0, 3.0),
    rho=st.floats(-1.0, 1.0),
    risk_adj=st.floats(0.0, 5.0),
    rows=st.lists(st.tuples(st.floats(-1.0, 10.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                  min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_stepped_variance_never_negative(theta, alpha, xi, rho, risk_adj, rows):
    params = HestonParams(theta=theta, alpha=alpha, xi=xi, rho=rho)
    nu, z1, z2 = (np.array(col) for col in zip(*rows))
    dt = 0.005
    ds, out = euler_step(np.full(nu.size, 100.0), nu, z1, z2, params, dt, risk_adj)
    assert np.all(out >= 0.0)
    # each row is the scalar full-truncation step, drift and diffusion at max(nu, 0)
    for k in range(nu.size):
        root = math.sqrt(max(nu[k], 0.0))
        z_nu = rho * z1[k] + math.sqrt(1.0 - rho**2) * z2[k]
        drift = theta * (alpha - max(nu[k], 0.0)) - risk_adj * root
        assert ds[k] == root * z1[k] * math.sqrt(dt)
        assert out[k] == max(nu[k] + drift * dt + xi * root * z_nu * math.sqrt(dt), 0.0)


def test_conditional_moments_examples(heston):
    # fixed point nu = alpha
    mean, _, _ = conditional_moments(4.0, heston, 0.7)
    assert mean == pytest.approx(4.0, rel=1e-12)
    # direct evaluation of the exponential decay
    p = HestonParams(theta=0.5, alpha=4.0, xi=0.5, rho=0.0)
    mean, _, _ = conditional_moments(2.0, p, 1.0)
    assert mean == pytest.approx(2.786938680574733, rel=1e-9)
    # long-horizon variance limit alpha*xi^2/(2*theta) = 25
    tau = 1e3 / heston.theta
    mean, var, _ = conditional_moments(4.0, heston, tau)
    assert mean == pytest.approx(4.0, rel=1e-6)
    assert var == pytest.approx(25.0, rel=1e-6)


def test_conditional_moments_rejects_negative():
    p = HestonParams(theta=0.5, alpha=4.0, xi=0.5, rho=0.0)
    with pytest.raises(ValueError):
        conditional_moments(-1.0, p, 1.0)
    with pytest.raises(ValueError):
        conditional_moments(1.0, p, -0.5)


def test_theta_zero_limit_matches_small_theta():
    p0 = HestonParams(theta=0.0, alpha=4.0, xi=0.5, rho=0.0)
    p1 = HestonParams(theta=1e-9, alpha=4.0, xi=0.5, rho=0.0)
    m0 = conditional_moments(2.0, p0, 1.3)
    m1 = conditional_moments(2.0, p1, 1.3)
    assert m0 == pytest.approx(m1, rel=1e-6)


@given(
    nu=st.floats(0.0, 10.0),
    theta=st.floats(1e-8, 5.0),
    alpha=st.floats(0.0, 10.0),
    xi=st.floats(0.0, 3.0),
    tau=st.floats(0.0, 50.0),
)
@settings(max_examples=300, deadline=None)
def test_moment_consistency(nu, theta, alpha, xi, tau):
    params = HestonParams(theta=theta, alpha=alpha, xi=xi, rho=0.0)
    mean, var, second = conditional_moments(nu, params, tau)
    scale = max(second, 1.0)
    assert abs(var + mean * mean - second) <= 1e-12 * scale


@pytest.mark.parametrize(
    "nu0, theta, alpha, xi",
    [(4.0, 0.02, 4.0, 0.5), (2.0, 0.8, 3.0, 1.0), (6.0, 0.3, 1.0, 0.4)],
)
def test_moment_matching_monte_carlo(nu0, theta, alpha, xi):
    # 1e5 gaussian Euler paths against the closed forms, 4 standard errors
    params = HestonParams(theta=theta, alpha=alpha, xi=xi, rho=0.0, nu0=nu0)
    tau, n_steps, n = 1.0, 50, 100_000
    _, nu_t = sample_terminal(params, tau, n_steps, n, seed=123, scheme="gaussian")
    mean, var, _ = conditional_moments(nu0, params, tau)
    se_mean = nu_t.std(ddof=1) / math.sqrt(n)
    assert abs(nu_t.mean() - mean) <= 4 * se_mean
    c = nu_t - nu_t.mean()
    sample_var = float((c**2).mean()) * n / (n - 1)
    se_var = math.sqrt(max(float((c**4).mean()) - sample_var**2, 0.0) / n)
    assert abs(sample_var - var) <= 4 * se_var


def test_mid_price_martingale(heston):
    s_t, _ = sample_terminal(heston, 1.0, 50, 100_000, seed=5, scheme="gaussian")
    se = s_t.std(ddof=1) / math.sqrt(s_t.size)
    assert abs(s_t.mean() - heston.s0) <= 3 * se


def test_sample_terminal_binomial_and_block_independence(heston):
    a = sample_terminal(heston, 1.0, 20, 500, seed=9, scheme="binomial")
    b = sample_terminal(heston, 1.0, 20, 500, seed=9, scheme="binomial", block=64)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    # a path's draws do not depend on the ensemble size
    c = sample_terminal(heston, 1.0, 20, 200, seed=9, scheme="binomial")
    np.testing.assert_array_equal(a[0][:200], c[0])
