import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestonmm
from hestonmm.intensity import ArrivalParams, fills, intensity, trade


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


def _book_step(quotes, u, arrival, dt):
    """The step every book wrote inline before ``trade``: fills, the paid
    premiums summed column by column, then bid minus ask hits per asset."""
    hit, clipped = fills(quotes, u, arrival, dt)
    paid = np.where(hit, quotes, 0.0)
    if quotes.shape[1] == 2:
        income = paid[:, 0] + paid[:, 1]
    else:
        income = paid[:, 0] + paid[:, 1] + paid[:, 2] + paid[:, 3]
    dq = np.stack([hit[:, j + 1].astype(np.int64) - hit[:, j].astype(np.int64)
                   for j in range(0, quotes.shape[1], 2)], axis=1)
    return hit, income, dq, clipped


@pytest.mark.parametrize("columns", [2, 4])
@pytest.mark.parametrize("case", ["mixed", "crossed", "no hits"])
def test_trade_is_the_inline_book_step_bitwise(arrival, columns, case):
    rng = np.random.default_rng(columns)
    n = 500
    u = rng.random((n, columns))
    if case == "crossed":  # every rate overflows and clips: every quote is hit
        quotes = np.full((n, columns), -1e3)
    elif case == "no hits":
        quotes = np.full((n, columns), 1e3)
    else:
        quotes = rng.normal(0.5, 1.0, (n, columns))  # about a third negative
        quotes[::7] = -1e3 * rng.random(quotes[::7].shape)  # deep-crossed
        # hit at u = 0 on every side; left to right these premiums sum to 1.0,
        # pairwise to 1.0000000000000002
        quotes[1], u[1] = [1.0, 1e-16, 1e-16, 1e-16][:columns], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trade(quotes, u, arrival, 0.005)
    want = _book_step(quotes, u, arrival, 0.005)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert got[2].shape == (n, columns // 2) and got[3] == want[3]
    if case == "crossed":
        assert got[0].all() and got[3] == quotes.size and (got[2] == 0).all()
    elif case == "no hits":
        assert not got[0].any() and got[3] == 0 and (got[1] == 0.0).all() and (got[2] == 0).all()
    else:
        assert 0 < got[3] < quotes.size and (got[1] < 0.0).any()


def _calls(node, name):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]


def test_every_book_steps_through_trade():
    # fills is called by trade alone, and each book's step calls trade
    callers, books = set(), {}
    for path in Path(hestonmm.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                books[f"{path.stem}.{top.name}"] = len(_calls(top, "trade"))
            if _calls(top, "fills"):
                callers.add(f"{path.stem}.{getattr(top, 'name', None)}")
    assert callers == {"intensity.trade"}
    for book in ("sim_engine._run_block", "option_mm.run_hedged_paths", "option_mm.run_joint_paths"):
        assert books.get(book) == 1, book
