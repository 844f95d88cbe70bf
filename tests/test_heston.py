import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import heston as heston_module
from hestonmm.heston import HestonParams, conditional_moments, euler_step, sample_terminal, walk
from hestonmm.seeding import DEFAULT_BLOCK, HESTON_STREAM, lane_draws


def test_params_validation():
    with pytest.raises(ValueError):
        HestonParams(theta=-0.1, alpha=4.0, xi=0.5, rho=0.7)
    with pytest.raises(ValueError):
        HestonParams(theta=0.1, alpha=4.0, xi=0.5, rho=1.5)
    with pytest.raises(ValueError):
        HestonParams(theta=0.1, alpha=4.0, xi=0.5, rho=0.0, nu0=-1.0)
    with pytest.raises(ValueError):
        HestonParams(theta=float("nan"), alpha=4.0, xi=0.5, rho=0.0)


def test_step_at_zero_variance_diffusion_vanishes():
    # drift alone acts when nu = 0: new nu = theta*alpha*dt, the price stays put
    params = HestonParams(theta=0.02, alpha=4.0, xi=123.0, rho=0.3)
    z_s, z_perp = np.array([1.0, -1.0, 1.0, 2.5]), np.array([1.0, 1.0, -1.0, -3.0])
    ds, nu = euler_step(params, 0.005, np.zeros(4), z_s, z_perp)
    np.testing.assert_array_equal(nu, np.full(4, 0.02 * 4.0 * 0.005))
    np.testing.assert_array_equal(ds, np.zeros(4))


def test_step_degenerate_constant_variance():
    params = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0)
    z_s = np.array([1.0, -1.0, 0.3])
    ds, nu = euler_step(params, 0.01, np.full(3, 3.0), z_s, np.full(3, -1.0))
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
    ds, out = euler_step(params, dt, nu, z1, z2, risk_adj=risk_adj)
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


def test_euler_step_takes_int8_signs_as_floats(heston):
    # the binomial shocks are stored as int8 signs; the step is bitwise the
    # one taken with the same signs as float64
    z_s = np.array([1, -1, 1, -1, 1, -1], dtype=np.int8)
    z_perp = np.array([1, 1, -1, -1, 1, -1], dtype=np.int8)
    nu = np.array([4.0, 0.0, -0.3, 1e-9, 9.5, 2.0])
    for risk_adj in (0.0, 0.4):
        got = euler_step(heston, 0.005, nu, z_s, z_perp, risk_adj=risk_adj)
        want = euler_step(heston, 0.005, nu, z_s.astype(np.float64), z_perp.astype(np.float64),
                          risk_adj=risk_adj)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("risk_adj", [0.0, 0.4])
@pytest.mark.parametrize("scheme", ["gaussian", "binomial"])
def test_walk_equals_a_step_loop(heston, scheme, risk_adj):
    # two-shock blocks as drawn (int8 signs under binomial), and a one-shock
    # block under rho = 1 stepped as the explicit z_perp = 0 call, each walked
    # in chunks of 7 steps with the uniforms passed through; xi = 1.5 takes
    # some paths to the zero clamp under either scheme
    n_steps, dt, nu0 = 40, 0.05, 0.02
    (shocks, uniforms), = lane_draws(3, (HESTON_STREAM,), 0, 64, n_steps, 2, 3, scheme,
                                     chunk=n_steps)
    assert shocks.dtype == (np.int8 if scheme == "binomial" else np.float64)
    wild = replace(heston, xi=1.5)
    for params, block in ((wild, shocks), (replace(wild, rho=1.0), shocks[:, :1])):
        chunks = [(block[a:a + 7], uniforms[a:a + 7]) for a in range(0, n_steps, 7)]
        steps = list(walk(params, chunks, dt, nu0, risk_adj))
        assert len(steps) == n_steps
        nu = np.full(block.shape[-1], nu0)
        for k, (got_nu, ds, nu_next, u) in enumerate(steps):
            assert u.tobytes() == uniforms[k].tobytes()
            z_perp = block[k, 1] if block.shape[1] == 2 else 0.0
            want = (nu, *euler_step(params, dt, nu, block[k, 0], z_perp, risk_adj=risk_adj))
            for g, w in zip((got_nu, ds, nu_next), want):
                assert g.dtype == np.float64 and g.tobytes() == w.tobytes()
            if k + 1 < n_steps:
                assert steps[k + 1][0].tobytes() == nu_next.tobytes()
            nu = want[2]
        assert min(float(step[2].min()) for step in steps) == 0.0  # the truncation acts


def test_only_the_walk_calls_euler_step():
    # one market loop: every simulator steps the model through heston.walk
    src = Path(heston_module.__file__).parent
    calls = [(p.name, n) for p in sorted(src.glob("*.py"))
             for n, line in enumerate(p.read_text().splitlines(), 1)
             if re.search(r"(?<!def )\beuler_step\(", line)]
    lines, first = inspect.getsourcelines(walk)
    assert [name for name, _ in calls] == ["heston.py"]
    assert first <= calls[0][1] < first + len(lines)


@given(
    theta=st.floats(0.0, 5.0),
    alpha=st.floats(0.0, 10.0),
    xi=st.floats(0.0, 3.0),
    rho=st.floats(-1.0, 1.0),
    dt=st.floats(1e-6, 1.0),
    risk_adj=st.sampled_from([0.0, 0.4, 3.0]),
    nu=st.lists(st.floats(-1.0, 10.0), min_size=1, max_size=20),
    signs=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_negated_shocks_negate_the_price_step(theta, alpha, xi, rho, dt, risk_adj, nu, signs, data):
    # the shocks are symmetric, so E[ds | state] = 0: the mid-price is a martingale
    params = HestonParams(theta=theta, alpha=alpha, xi=xi, rho=rho)
    n = len(nu)
    if signs:
        draw = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
        z_s, z_perp = (np.array(data.draw(draw), dtype=np.int8) for _ in range(2))
    else:
        draw = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
        z_s, z_perp = (np.array(data.draw(draw)) for _ in range(2))
    nu = np.array(nu)
    ds, _ = euler_step(params, dt, nu, z_s, z_perp, risk_adj=risk_adj)
    ds_neg, _ = euler_step(params, dt, nu, -z_s, -z_perp, risk_adj=risk_adj)
    assert ds_neg.tobytes() == (-ds).tobytes()


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sample_terminal_rejects_bad_horizon(heston, T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        sample_terminal(heston, T, 10, 5, seed=1)


def test_mid_price_martingale(heston):
    s_t, _ = sample_terminal(heston, 1.0, 50, 100_000, seed=5, scheme="gaussian")
    se = s_t.std(ddof=1) / math.sqrt(s_t.size)
    assert abs(s_t.mean() - heston.s0) <= 3 * se


def test_sample_terminal_binomial_and_block_independence(heston):
    a = sample_terminal(heston, 1.0, 20, 500, seed=9, scheme="binomial")
    # 4,200 paths run as two blocks
    b = sample_terminal(heston, 1.0, 20, 4200, seed=9, scheme="binomial")
    np.testing.assert_array_equal(a[0], b[0][:500])
    np.testing.assert_array_equal(a[1], b[1][:500])
    # the second block's paths are those drawn for their own indices
    lo, hi, n_steps = DEFAULT_BLOCK, 4200, 20
    (shocks, _), = lane_draws(9, (HESTON_STREAM,), lo, hi, n_steps, 2, scheme="binomial",
                              chunk=n_steps)
    s, nu = np.full(hi - lo, heston.s0), np.full(hi - lo, heston.nu0)
    for step in range(n_steps):
        ds, nu = euler_step(heston, 1.0 / n_steps, nu, shocks[step, 0], shocks[step, 1])
        s += ds
    np.testing.assert_array_equal(b[0][lo:], s)
    np.testing.assert_array_equal(b[1][lo:], nu)
    # a path's draws do not depend on the ensemble size
    c = sample_terminal(heston, 1.0, 20, 200, seed=9, scheme="binomial")
    np.testing.assert_array_equal(a[0][:200], c[0])
