import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm.intensity import ArrivalParams, fills, intensity


def test_params_validation():
    with pytest.raises(ValueError):
        ArrivalParams(A=0.0, k=1.5)
    with pytest.raises(ValueError):
        ArrivalParams(A=140.0, k=-1.0)


def test_intensity_examples(arrival):
    assert intensity(0.0, arrival) == pytest.approx(140.0)
    assert intensity(1.0 / arrival.k, arrival) == pytest.approx(140.0 / math.e, rel=1e-12)
    assert intensity(0.8667, arrival) == pytest.approx(140.0 * math.exp(-1.5 * 0.8667), rel=1e-12)
    assert intensity(0.8667, arrival) == pytest.approx(38.154, rel=1e-4)


def test_negative_premium_allowed(arrival):
    # quotes may cross the mid; the rate just grows
    assert intensity(-1.0, arrival) > arrival.A


@given(
    d1=st.floats(-3.0, 3.0),
    d2=st.floats(-3.0, 3.0),
    k=st.floats(0.1, 5.0),
    a=st.floats(0.1, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_log_linearity(d1, d2, k, a):
    p = ArrivalParams(A=a, k=k)
    lhs = math.log(intensity(d1, p)) - math.log(intensity(d2, p))
    assert lhs == pytest.approx(-k * (d1 - d2), rel=1e-9, abs=1e-9)


def test_fill_clipping_examples(arrival):
    # rate*dt 0.19077 is kept, 1260 clips to 1 and fills whatever its draw
    assert intensity(0.8667, arrival) * 0.005 == pytest.approx(0.19077, rel=1e-3)
    hit, clipped = fills(np.array([0.8667, 0.8667]), np.array([0.18, 0.2]), arrival, 0.005)
    np.testing.assert_array_equal(hit, [True, False])
    assert clipped == 0
    hit, clipped = fills(np.array([-5.0]), np.array([0.999999]), arrival, 0.005)
    assert hit.all() and clipped == 1


def test_fills_clip_count(arrival):
    # raw rate*dt: 1260, ~0, 63, 0.19, inf -> exactly three clipped, and a
    # clipped quote fills whatever its draw
    deltas = np.array([[-5.0, 10.0], [-3.0, 0.8667], [-1e3, 0.8667]])
    u = np.array([[0.999, 0.5], [0.5, 0.5], [0.999, 0.1]])
    hit, clipped = fills(deltas, u, arrival, 0.005)
    assert clipped == 3
    np.testing.assert_array_equal(hit, [[True, False], [True, False], [True, True]])
    hit, clipped = fills(deltas[:, 1], u[:, 1], arrival, 0.005)
    assert clipped == 0


@given(
    deltas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
    u=st.floats(0.0, 1.0, exclude_max=True),
    dt=st.floats(1e-4, 0.1),
)
@settings(max_examples=200, deadline=None)
def test_fills_match_clip_rule(arrival, deltas, u, dt):
    # reference: u < min(A e^{-k delta} dt, 1), written out here
    deltas = np.array(deltas)
    raw = arrival.A * np.exp(-arrival.k * deltas) * dt
    prob = np.minimum(raw, 1.0)
    hit, clipped = fills(deltas, np.full(deltas.size, u), arrival, dt)
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    assert clipped == int(np.count_nonzero(raw > 1.0))
    np.testing.assert_array_equal(hit, u < prob)


def test_fills_deep_crossed_without_warning(arrival):
    # the rate overflows to inf; the quote is hit and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit, clipped = fills(np.array([-1e3, -1e3]), np.array([0.0, 0.999999]), arrival, 0.005)
    np.testing.assert_array_equal(hit, [True, True])
    assert clipped == 2


def test_never_fills_when_rate_vanishes():
    p = ArrivalParams(A=1e-300, k=1.5)
    u = np.array([[0.0, 0.0], [0.5, 0.5]]) + 1e-12
    hit, clipped = fills(np.full((2, 2), 0.1), u, p, 0.005)
    assert not hit.any() and clipped == 0
    # far quotes: probability tends to zero
    assert min(intensity(1e3, ArrivalParams(140.0, 1.5)) * 0.005, 1.0) == 0.0
    assert not fills(np.array([1e3]), np.array([0.0]), ArrivalParams(140.0, 1.5), 0.005)[0].any()


def test_bernoulli_frequency_matches_rate(arrival):
    # empirical fill frequency over 1e5 steps within 3 SE of lambda*dt
    dt = 0.005
    p_target = min(arrival.A * math.exp(-arrival.k * 0.8667) * dt, 1.0)
    rng = np.random.default_rng(7)
    n = 100_000
    hits, _ = fills(np.full(n, 0.8667), rng.random(n), arrival, dt)
    se = math.sqrt(p_target * (1 - p_target) / n)
    assert abs(hits.mean() - p_target) <= 3 * se


def test_poisson_limit_mean_count(arrival):
    # constant premium, horizon T: total fills converge in mean to lambda*T
    dt, T = 0.005, 1.0
    steps = round(T / dt)
    delta = 0.8667
    lam = intensity(delta, arrival)
    rng = np.random.default_rng(11)
    n_paths = 10_000
    counts = (rng.random((n_paths, steps)) < lam * dt).sum(axis=1)
    se = counts.std(ddof=1) / math.sqrt(n_paths)
    assert abs(counts.mean() - lam * T) <= 3 * se


def test_side_independence(arrival):
    dt = 0.005
    rng = np.random.default_rng(13)
    n = 100_000
    # one step of n paths quoting (ask, bid) premiums (0.6, 0.7)
    hit, _ = fills(np.tile([0.6, 0.7], (n, 1)), rng.random((n, 2)), arrival, dt)
    corr = np.corrcoef(hit[:, 0].astype(float), hit[:, 1].astype(float))[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)
