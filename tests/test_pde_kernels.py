"""The HJB step and the ``fd`` kernels both PDE layers step through
(``apply_tridiagonal``, ``implicit``, ``solve_banded``, and the variance
generator ``heston.variance_operator``) against independent formulations.

``fd.solve_banded`` equals scipy's ``solve_banded((1, 1), ...)`` row by row
bitwise, since both make the same LAPACK ``gtsv`` call.  The HJB reference is the same
frozen-control Douglas step on the same sub-stepped schedule, written from NaN
premiums at the box edges, a NaN-masked source and rates, and dense correction
matrices solved with ``np.linalg.solve``; LAPACK's banded and dense solves round differently, so it
agrees to 1e-12 relative.  The source and ``c_emp`` equal the masked form
bitwise, and ``apply_tridiagonal`` equals the ``np.moveaxis`` form it replaced
bitwise and the dense matrix product within float64 rounding.
"""

import collections
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import fd, hjb
from hestonmm.heston import HestonParams, variance_operator
from hestonmm.hjb import HjbConfig, compare_exact_vs_approx, solve_stock_hjb
from hestonmm.option_pricing import PricingConfig, default_nu_grid, solve_call_grid
from hestonmm.quotes import RiskParams


def _masked_premiums(v, config):
    base = 1.0 / config.arrival.k
    beta = config.risk.beta
    q = config.q_levels[:, None].astype(np.float64)
    fee_a = fee_b = 0.0
    if config.include_impact:
        fee = 0.5 * config.risk.gamma * config.risk.eta**2
        fee_a = fee * (q - 1.0) ** 2
        fee_b = fee * (q + 1.0) ** 2
    delta_a = np.full_like(v, np.nan)
    delta_b = np.full_like(v, np.nan)
    delta_a[1:, :] = base - beta + (fee_a + v)[1:, :] - v[:-1, :]
    delta_b[:-1, :] = base + beta + (fee_b + v)[:-1, :] - v[1:, :]
    return delta_a, delta_b


def _masked_source(delta_a, delta_b, config):
    k, A = config.arrival.k, config.arrival.A
    with np.errstate(over="ignore"):
        ask = np.where(np.isnan(delta_a), 0.0, np.exp(-k * np.nan_to_num(delta_a)))
        bid = np.where(np.isnan(delta_b), 0.0, np.exp(-k * np.nan_to_num(delta_b)))
    return (A / k) * (ask + bid)


def _moveaxis_apply(diags, v, axis=-1):
    lower, diag, upper = diags
    v = np.moveaxis(v, axis, -1)
    out = v * diag
    out[..., 1:] += v[..., :-1] * lower[..., 1:]
    out[..., :-1] += v[..., 1:] * upper[..., :-1]
    return np.moveaxis(out, -1, axis)


def _masked_rates(delta_a, delta_b, config):
    k, A = config.arrival.k, config.arrival.A
    with np.errstate(over="ignore"):
        return [np.where(np.isnan(d), 0.0, A * np.exp(-k * np.nan_to_num(d))) for d in (delta_a, delta_b)]


def _reference_solve(config):
    """Every coarse time slice of the Douglas solve, ascending in time, with its
    quotes: the steps that overlap the last ``1 / hjb.LAYER_DIVISOR`` of the
    horizon are taken as ``hjb.SUBSTEPS`` sub-steps each."""
    nu, heston = config.nu_grid, config.heston
    nu_op = _dense(fd.operator_diagonals(nu, heston.theta * (heston.alpha - nu), 0.5 * heston.xi**2 * nu))
    dt = config.T / config.n_time
    q = config.q_levels.astype(np.float64)[:, None]
    n_q, n_nu = q.size, nu.size
    penalty = 0.5 * config.risk.gamma * q**2 * nu[None, :]
    iq = np.arange(n_q)
    slices = [np.zeros((n_q, n_nu))]
    for n in range(1, config.n_time + 1):
        # step n spans [T - n dt, T - (n - 1) dt]: it overlaps the layer when it starts inside it
        count = hjb.SUBSTEPS if (n - 1) * hjb.LAYER_DIVISOR < config.n_time else 1
        h = dt / count
        v = slices[-1]
        for _ in range(count):
            premiums = _masked_premiums(v, config)
            rate_a, rate_b = _masked_rates(*premiums, config)
            lv = v @ nu_op.T
            y = v + h * (lv + _masked_source(*premiums, config) - penalty)
            y = np.linalg.solve(np.eye(n_nu) - 0.5 * h * nu_op, (y - 0.5 * h * lv).T).T
            # the jump generator in q, one dense matrix per nu column
            jump = np.zeros((n_nu, n_q, n_q))
            jump[:, iq, iq] = -(rate_a + rate_b).T
            jump[:, iq[1:], iq[:-1]] = rate_a[1:].T
            jump[:, iq[:-1], iq[1:]] = rate_b[:-1].T
            rhs = y - 0.5 * h * np.einsum("jpq,qj->pj", jump, v)
            v = np.linalg.solve(np.eye(n_q) - 0.5 * h * jump, rhs.T[:, :, None])[:, :, 0].T
        slices.append(v)
    slices.reverse()
    quotes = [_masked_premiums(v, config) for v in slices]
    return (np.stack(slices, axis=-1), np.stack([a for a, _ in quotes], axis=-1),
            np.stack([b for _, b in quotes], axis=-1))


FROZEN = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0, nu0=4.0)
VARIANTS = {
    "defaults": {},
    "impact": {"include_impact": True, "risk": RiskParams(gamma=0.5, beta=0.03, eta=0.09)},
    "frozen_variance": {"heston": FROZEN, "nu_lo": 3.0, "nu_hi": 5.0, "n_nu": 5},
}


def _config(heston, arrival, risk, variant):
    # 400 steps with at most 201 stored slices: every other slice is kept
    kw = dict(heston=heston, arrival=arrival, risk=risk, T=1.0, q_min=-4, q_max=4,
              n_nu=21, n_time=400)
    kw.update(VARIANTS[variant])
    return HjbConfig(**kw)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_step_equals_the_masked_formulation(heston, arrival, risk, variant):
    cfg = _config(heston, arrival, risk, variant)
    grid = solve_stock_hjb(cfg)
    values, quotes_a, quotes_b = _reference_solve(cfg)
    stored = np.rint(grid.times * cfg.n_time / cfg.T).astype(int)
    assert stored.size == 201 and stored[1] == 2
    np.testing.assert_allclose(grid.values, values[:, :, stored], rtol=1e-12)
    # a quote is a difference of values: its rounding scales with |V|, not with itself
    scale = 1e-12 * np.abs(values).max()
    np.testing.assert_allclose(grid.quotes_a, quotes_a[:, :, stored], rtol=0, atol=scale)
    np.testing.assert_allclose(grid.quotes_b, quotes_b[:, :, stored], rtol=0, atol=scale)


def test_c_emp_equals_the_quote_based_value(heston, arrival, risk):
    grid = solve_stock_hjb(_config(heston, arrival, risk, "defaults"))
    report = compare_exact_vs_approx(grid, tol=1.0)
    assert report.c_emp == float(_masked_source(grid.quotes_a, grid.quotes_b, grid.config).max())


def test_source_counts_each_side_inside_the_box_only(heston, arrival, risk):
    cfg = _config(heston, arrival, risk, "impact")
    v = np.random.default_rng(3).normal(size=(cfg.q_levels.size, cfg.n_nu))
    np.testing.assert_array_equal(hjb._source(*hjb._arrival_factors(v, cfg), cfg), _masked_source(*_masked_premiums(v, cfg), cfg))


def test_step_has_no_nan_masking_and_no_axis_moves():
    assert "nan_to_num" not in Path(hjb.__file__).read_text()
    assert "moveaxis" not in Path(fd.__file__).read_text()


def _dense(diags):
    lower, diag, upper = diags
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def _upwinded_diagonals():
    # a strong drift on a nonuniform grid: central weights would go negative
    x = np.concatenate([np.linspace(0.0, 1.0, 6), np.linspace(1.1, 3.0, 9)])
    drift, diffusion = 40.0 * (1.5 - x), 0.05 * x
    hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    a, b = diffusion[1:-1], drift[1:-1]
    central_lo = a * 2.0 / (hm * (hm + hp)) - b * hp / (hm * (hm + hp))
    central_up = a * 2.0 / (hp * (hm + hp)) + b * hm / (hp * (hm + hp))
    assert np.any(central_lo < 0) and np.any(central_up < 0)
    return fd.operator_diagonals(x, drift, diffusion)


def _per_row_diagonals(shape):
    """One operator per row of a ``shape`` array, each with its own drift (the
    strong ones upwinded) on a uniform grid."""
    x = np.linspace(0.0, 12.0, shape[-1])
    rows = [fd.operator_diagonals(x, (0.08 + 2.0 * r) * (4.0 - x), 0.125 * x)
            for r in range(math.prod(shape[:-1]))]
    return tuple(np.reshape(d, shape) for d in zip(*rows))


def _diagonals(grid, shape):
    if grid == "uniform":
        x = np.linspace(0.0, 12.0, shape[-1])
        return fd.operator_diagonals(x, 0.08 * (4.0 - x), 0.125 * x)
    if grid == "upwinded":
        diags = _upwinded_diagonals()
        lower, _, upper = diags
        assert np.all(lower >= 0) and np.all(upper >= 0)  # monotone after the fallback
        return diags
    return _per_row_diagonals(shape)


def _row_matrices(diags, shape):
    """The dense matrix of the operator of each row of a ``shape`` array."""
    n = shape[-1]
    return np.stack([_dense(row) for row in
                     zip(*(np.broadcast_to(d, shape).reshape(-1, n) for d in diags))])


@pytest.mark.parametrize("shape", [(15,), (4, 15), (3, 2, 15)])
@pytest.mark.parametrize("grid", ["uniform", "upwinded", "per_row"])
def test_apply_tridiagonal_is_the_matrix_product(shape, grid):
    diags = _diagonals(grid, shape)
    v = np.random.default_rng(7).normal(size=shape)
    matrices, rows = _row_matrices(diags, shape), v.reshape(-1, shape[-1])
    out = fd.apply_tridiagonal(diags, v)
    assert out.shape == v.shape
    # float64 rounding of a three-term sum, relative to its terms' size
    bound = 1e-14 * np.einsum("rij,rj->ri", np.abs(matrices), np.abs(rows))
    assert np.all(np.abs(out.reshape(rows.shape) - np.einsum("rij,rj->ri", matrices, rows)) <= bound)
    np.testing.assert_array_equal(out, _moveaxis_apply(diags, v))


@pytest.mark.parametrize("grid", ["uniform", "upwinded", "per_row"])
def test_implicit_is_the_dense_douglas_factor(grid):
    shape, h = (3, 15), 0.037
    diags = _diagonals(grid, shape)
    factor = fd.implicit(diags, h)
    for got, matrix in zip(_row_matrices(factor, shape), _row_matrices(diags, shape)):
        np.testing.assert_array_equal(got, np.eye(shape[-1]) - 0.5 * h * matrix)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("pivoting", [False, True])
def test_solve_banded_solves_each_row_as_scipy_does(lead, per_row, pivoting):
    rng = np.random.default_rng(5)
    n = 12
    shape = lead + (n,)
    lower, diag, upper = rng.uniform(-1.0, 1.0, (3,) + (shape if per_row else (n,)))
    # an operator per row must not reach into the next row; a shared one's ends are never read
    lower[..., 0] = upper[..., -1] = 0.0 if per_row else np.nan
    if pivoting:  # |lower| > |diag|: gtsv swaps rows
        lower[..., 1:] *= 1.0 + np.abs(diag[..., :-1]) / np.abs(lower[..., 1:])
    else:  # diagonally dominant
        diag += np.sign(diag) * 2.0
    b = rng.normal(size=shape)
    x = fd.solve_banded((lower, diag, upper), b)
    assert x.shape == b.shape and x.dtype == b.dtype
    rows = zip(*(np.broadcast_to(d, shape).reshape(-1, n) for d in (lower, diag, upper)),
               b.reshape(-1, n))
    want = [scipy.linalg.solve_banded((1, 1), np.stack([np.r_[0.0, u[:-1]], d, np.r_[lo[1:], 0.0]]), r)
            for lo, d, u, r in rows]
    assert x.tobytes() == np.stack(want).tobytes()


def test_solve_banded_rejects_rows_that_reach_into_the_next():
    lower, diag, upper = np.zeros((2, 4)), np.full((2, 4), 2.0), np.zeros((2, 4))
    upper[0, -1] = 1.0
    with pytest.raises(ValueError, match="operator per row"):
        fd.solve_banded((lower, diag, upper), np.ones((2, 4)))


@pytest.mark.parametrize("eta_nu", [0.0, 0.8])
def test_variance_operator_is_both_inline_forms(heston, eta_nu):
    nu = default_nu_grid(heston, 1.0)
    got = variance_operator(heston, nu, eta_nu)
    # the pricer's generator under its volatility risk price ...
    forms = [fd.operator_diagonals(
        nu, heston.theta * (heston.alpha - nu)
        - heston.xi * np.sqrt(nu) * math.sqrt(1.0 - heston.rho**2) * eta_nu,
        0.5 * heston.xi**2 * nu)]
    if eta_nu == 0.0:  # ... and the value function's real-world one
        forms.append(fd.operator_diagonals(nu, heston.theta * (heston.alpha - nu), 0.5 * heston.xi**2 * nu))
    for want in forms:
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_both_layers_step_through_fd(heston, arrival, risk, monkeypatch):
    calls = collections.Counter()
    for name in ("apply_tridiagonal", "implicit"):
        def counted(*args, kernel=getattr(fd, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(fd, name, counted)
    solve_stock_hjb(_config(heston, arrival, risk, "defaults"))
    # 400 steps: the last tenth's 40 as 4 sub-steps each, then 360 plain ones;
    # two applies (nu, jump) and one jump factor each, and the two nu factors up front
    sub_steps = 40 * 4 + 360
    assert calls == {"apply_tridiagonal": 2 * sub_steps, "implicit": sub_steps + 2}
    calls.clear()
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0, n_time=50)
    solve_call_grid(cfg)
    # two applies (s, nu) a step, and the two factors up front
    assert calls == {"apply_tridiagonal": 2 * cfg.n_time, "implicit": 2}


def test_default_pricing_grid_is_unchanged(heston, monkeypatch):
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    values = solve_call_grid(cfg).values
    monkeypatch.setattr(fd, "apply_tridiagonal", lambda diags, v: _moveaxis_apply(diags, v, axis=1))
    np.testing.assert_array_equal(values, solve_call_grid(cfg).values)


@given(n=st.integers(2, 300), n_rhs=st.sampled_from([None, 1, 3]), order=st.sampled_from("CF"),
       pivoting=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_solve_banded_is_scipys_bitwise(n, n_rhs, order, pivoting, seed):
    rng = np.random.default_rng(seed)
    lower, diag, upper = rng.uniform(-1.0, 1.0, (3, n))
    lower[0] = upper[-1] = np.nan  # never read
    if pivoting:  # |lower| > |diag|: gtsv swaps rows
        lower[1:] *= 1.0 + np.abs(diag[:-1]) / np.abs(lower[1:])
    else:  # diagonally dominant
        diag += np.sign(diag) * 2.0
    b = np.asarray(rng.normal(size=n if n_rhs is None else (n, n_rhs)), order=order)
    diags = (lower, diag, upper)
    diags_in, b_in = tuple(d.copy() for d in diags), b.copy()
    x = fd.solve_banded(diags, b.T).T  # one right-hand side per row
    ab = np.stack([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])  # scipy's layout
    want = scipy.linalg.solve_banded((1, 1), ab, b)
    assert x.shape == want.shape and x.dtype == want.dtype
    assert x.tobytes() == want.tobytes()
    for d, d_in in zip(diags, diags_in):  # the inputs are not overwritten
        np.testing.assert_array_equal(d, d_in)
    np.testing.assert_array_equal(b, b_in)


def test_solve_banded_rejects_singular_systems():
    diags = (np.r_[1.0, 0.0, 1.0, 1.0], np.r_[0.0, 1.0, 1.0, 1.0], np.ones(4))  # a zero first column
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        fd.solve_banded(diags, np.ones(4))
    ab = np.stack([np.r_[0.0, diags[2][:-1]], diags[1], np.r_[diags[0][1:], 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded((1, 1), ab, np.ones(4))


def _stretched(lo, hi, n):
    """In 't Hout & Foulon's sinh-stretched grid on [lo, hi], d = (hi - lo) / 10."""
    d = (hi - lo) / 10.0
    return lo + d * np.sinh(np.linspace(0.0, np.arcsinh((hi - lo) / d), n))


_GRADIENT_GRIDS = st.one_of(
    # exactly equal spacings: np.gradient's uniform formula
    st.builds(lambda lo, k, n: lo + 2.0**k * np.arange(n),
              st.integers(-200, 200).map(float), st.integers(-4, 4), st.integers(2, 40)),
    # linspace: equal up to an ulp, so the three-point formula, as the pricer's default grids
    st.builds(lambda lo, width, n: np.linspace(lo, lo + width, n),
              st.floats(-200.0, 200.0), st.floats(1e-2, 1e3), st.integers(2, 40)),
    st.builds(lambda lo, width, n: _stretched(lo, lo + width, n),
              st.floats(-200.0, 200.0), st.floats(1e-2, 1e3), st.integers(3, 40)),
)
_ENTRIES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([np.inf, -np.inf, np.nan]))


@given(x=_GRADIENT_GRIDS, data=st.data())
@settings(max_examples=300, deadline=None, database=None)
def test_gradient_is_numpys_bitwise(x, data):
    # 2-D planes and stacked 3-D slabs, the grid along any axis, with inf and nan entries
    ndim = data.draw(st.sampled_from([2, 3]))
    axis = data.draw(st.integers(-ndim, ndim - 1))
    shape = [data.draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = x.size
    f = np.array(data.draw(st.lists(_ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape))),
                 dtype=np.float64).reshape(shape)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = fd.gradient(x)(f, axis), np.gradient(f, x, axis=axis)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gradient_takes_both_of_numpys_formulas(heston):
    # the pricer's linspace grids are uneven by an ulp and take the three-point
    # formula; an exactly uniform grid takes the two-point one
    cfg = PricingConfig(heston=heston, strike=100.0, T=1.0)
    uniform = 2.0 * np.arange(cfg.s.size)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(3, cfg.s.size, cfg.nu.size))
    f[0, 7, 3], f[1, 0, 0], f[2, 80, 30] = np.inf, -np.inf, np.nan
    for x, axis in [(cfg.s, 1), (cfg.nu, -1), (uniform, -2)]:
        steps = np.diff(x)
        assert (steps == steps[0]).all() == (x is uniform)
        with np.errstate(invalid="ignore"):
            got, want = fd.gradient(x)(f, axis), np.gradient(f, x, axis=axis)
        assert got.tobytes() == want.tobytes()
