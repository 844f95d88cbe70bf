import math
from dataclasses import replace

import numpy as np
import pytest

from hestonmm import option_mm
from hestonmm.heston import HestonParams
from hestonmm.option_mm import (
    FunctionalLattice,
    run_hedged_paths,
    run_joint_paths,
    joint_book_quotes,
    hedged_book_quotes,
)
from hestonmm.quotes import RiskParams, inventory_coefficient, inventory_premiums
from hestonmm.seeding import DEFAULT_BLOCK, map_blocks
from hestonmm.intensity import ArrivalParams
from hestonmm.option_pricing import PricingConfig, default_s_grid, solve_call_grid
from oracles import (Functionals, GridExitError, _simulate_integrals, estimate_functionals,
                     exact_functionals_without_vol_of_vol)


def test_exact_zero_cases(heston, risk_nofee, pricing_grid):
    f = estimate_functionals(100.0, 4.0, 1.0, 1.0, heston, risk_nofee, pricing_grid)
    assert f == Functionals(0.0, 0.0, 0.0)
    f = estimate_functionals(100.0, 4.0, 0.3, 1.0, heston, RiskParams(0.0), pricing_grid)
    assert f == Functionals(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        estimate_functionals(100.0, 4.0, 1.5, 1.0, heston, risk_nofee, pricing_grid)
    with pytest.raises(ValueError):
        estimate_functionals(100.0, 4.0, 0.0, 1.0, heston, risk_nofee, pricing_grid, n_paths=10)


def test_functional_signs(heston, risk_nofee, pricing_grid):
    f = estimate_functionals(100.0, 4.0, 0.0, 1.0, heston, risk_nofee, pricing_grid,
                             n_paths=2000, seed=5)
    assert f.h2 <= 3 * f.se_h2
    assert f.m <= 3 * f.se_m
    assert f.h1 < 0  # delta-dominated at the money
    assert f.se_h1 > 0 and f.se_h2 > 0 and f.se_m > 0


def test_grid_exit_abort(heston, risk_nofee, pricing_grid):
    # start at the very edge of the grid: most paths leave immediately
    s_edge = pricing_grid.s_grid[-1] - 0.1
    with pytest.raises(GridExitError):
        estimate_functionals(s_edge, 4.0, 0.0, 1.0, heston, risk_nofee, pricing_grid,
                             n_paths=1000, seed=5, max_exit_fraction=0.01)


def test_m_vanishes_without_vol_of_vol(risk_nofee, pricing_grid):
    h0 = HestonParams(theta=0.02, alpha=4.0, xi=0.0, rho=0.0, s0=100.0, nu0=4.0)
    f = estimate_functionals(100.0, 4.0, 0.5, 1.0, h0, risk_nofee, pricing_grid,
                             n_paths=1000, seed=5)
    assert f.m == 0.0  # the xi^2 factor kills it exactly
    assert f.h2 < 0  # the delta-squared part survives


def test_joint_quotes_trivial_cases(heston, arrival, risk_nofee):
    # rows: a flat book at expiry, then q_s = 3, q_o = 7 at t = 0.2; H1 = H2 = 0
    quotes = joint_book_quotes(np.array([0.0, 3.0]), np.array([0, 7]), np.array([4.0, 4.0]),
                               np.array([1.0, 0.2]), 1.0, 0.0, 0.0,
                               arrival, heston, risk_nofee)
    assert quotes.shape == (2, 4)
    assert all(x == pytest.approx(1 / arrival.k, rel=1e-12) for x in quotes[0])
    # the stock side reduces to the inventory rule with beta = 0
    a_s, b_s, a_o, b_o = quotes[1]
    da, db = inventory_premiums(3, 4.0, 0.2, 1.0, heston, arrival, RiskParams(risk_nofee.gamma, 0.0))
    assert a_s == pytest.approx(float(da), rel=1e-12)
    assert b_s == pytest.approx(float(db), rel=1e-12)
    assert a_o == pytest.approx(1 / arrival.k, rel=1e-12)
    assert b_o == pytest.approx(1 / arrival.k, rel=1e-12)
    # a row is the scalar call at that row's state
    np.testing.assert_array_equal(
        quotes[1], joint_book_quotes(3.0, 7, 4.0, 0.2, 1.0, 0.0, 0.0, arrival, heston, risk_nofee))


def test_joint_option_spread_widens(heston, arrival, risk_nofee):
    F = Functionals(h1=-0.2, h2=-0.07, m=-0.001)
    q_s, q_o = np.array([0.0, 2.0, -1.0]), np.array([0, 0, 3])
    quotes = joint_book_quotes(q_s, q_o, 4.0, 0.5, 1.0, F.h1, F.h2, arrival, heston, risk_nofee)
    a_s, b_s, a_o, b_o = quotes[0]
    assert a_o == pytest.approx(1 / arrival.k - F.h2, rel=1e-12)
    assert a_o > 1 / arrival.k  # H2 <= 0 widens the option quotes
    assert b_o > 1 / arrival.k
    # every row follows the four-quote formula
    base, f = 1 / arrival.k, float(inventory_coefficient(4.0, 0.5, 1.0, heston, risk_nofee))
    for (qs, qo), row in zip(zip(q_s, q_o), quotes):
        expected = (base - f * (2 * qs - 1) + F.h1 * qo, base + f * (2 * qs + 1) - F.h1 * qo,
                    base + F.h2 * (2 * qo - 1) + F.h1 * qs, base - F.h2 * (2 * qo + 1) - F.h1 * qs)
        assert row == pytest.approx(expected, rel=1e-12)


def test_hedged_book_quotes_and_hedge(arrival):
    m = -0.002
    # rows: flat book, flat book at expiry (M = 0), long one, long one with xi = 0 (M = 0)
    quotes = hedged_book_quotes(np.array([0, 0, 1, 1]), np.array([m, 0.0, m, 0.0]), arrival)
    assert quotes.shape == (4, 2)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = quotes
    # flat book: symmetric quotes, widened by -M on each side
    assert a0 == b0 == pytest.approx(1 / arrival.k - m, rel=1e-12)
    # at expiry M = 0 and the quotes sit at 1/k
    assert a1 == b1 == pytest.approx(1 / arrival.k, rel=1e-12)
    assert a2 == pytest.approx(1 / arrival.k + m, rel=1e-12)  # ask tightens
    assert b2 == pytest.approx(1 / arrival.k - 3 * m, rel=1e-12)  # bid backs off
    assert a3 == b3 == pytest.approx(1 / arrival.k)
    np.testing.assert_array_equal(quotes[2], hedged_book_quotes(1, m, arrival))


def test_hedged_trace_quotes_are_the_quote_function(heston, arrival, risk_nofee,
                                                    pricing_grid, functional_lattice):
    # the simulator quotes path 0 exactly as hedged_book_quotes does at the
    # lattice's M for the grid-clipped traced state
    stats = run_hedged_paths(heston, arrival, risk_nofee, pricing_grid, functional_lattice,
                             T=1.0, dt=0.01, n_paths=70, seed=31, q_o0=2)
    tr = stats.trace
    g = pricing_grid
    # one traced state per row, each at its own time
    m = functional_lattice.functionals(np.clip(tr["s"], g.s_grid[0], g.s_grid[-1])[:, None],
                                       np.clip(tr["nu"], g.nu_grid[0], g.nu_grid[-1])[:, None],
                                       tr["t"])[2][:, 0]
    quotes = hedged_book_quotes(tr["q_o"], m, arrival)
    np.testing.assert_array_equal(quotes[:, 0], tr["a_o"])
    np.testing.assert_array_equal(quotes[:, 1], tr["b_o"])
    assert np.unique(tr["q_o"]).size > 1  # the trace saw fills


def test_hedged_qv_identity_and_variance_reduction(heston, arrival, risk_nofee,
                                                   pricing_grid, functional_lattice):
    stats = run_hedged_paths(heston, arrival, risk_nofee, pricing_grid, functional_lattice,
                             T=1.0, dt=0.001, n_paths=600, seed=17)
    diff = stats.qv_rate_real - stats.qv_rate_pred
    se = diff.std(ddof=1) / math.sqrt(stats.n)
    tol_disc = 2.0 * stats.qv_rate_disc.mean()
    assert abs(diff.mean()) <= 3 * se + tol_disc
    # hedging strictly reduces realized inventory-value variation
    d = stats.qv_unhedged - stats.qv_hedged
    assert d.mean() - 3 * d.std(ddof=1) / math.sqrt(stats.n) > 0
    assert stats.qv_hedged.mean() / stats.qv_unhedged.mean() < 1.0


def test_unhedged_three_term_identity(heston, risk_nofee, pricing_grid):
    # frozen joint book (no fills): realized (dI)^2 rate matches
    # [(q_s)^2 + 2 q_s q_o (Delta + rho xi C_nu)
    #  + (q_o)^2 (Delta^2 + 2 rho xi Delta C_nu + xi^2 C_nu^2)] nu
    tiny = ArrivalParams(A=1e-300, k=1.5)
    q_s, q_o = 2, 3
    lat = _constant_zero_lattice()
    stats = run_joint_paths(heston, tiny, risk_nofee, pricing_grid, lat,
                            T=1.0, dt=0.001, n_paths=400, seed=23, q_s0=q_s, q_o0=q_o)
    i1, i2, _ = _simulate_integrals(100.0, 4.0, 0.0, heston, pricing_grid,
                                    2000, 29, 0.001, 1.0)
    nu_integral = ((4.0 - heston.alpha) * -math.expm1(-heston.theta) / heston.theta
                   + heston.alpha * 1.0)
    predicted = (q_s**2 * nu_integral + 2 * q_s * q_o * i1.mean() + q_o**2 * i2.mean())
    assert stats.qv_mean == pytest.approx(predicted, rel=0.1)


def _constant_zero_lattice():
    from hestonmm.option_mm import FunctionalLattice

    return FunctionalLattice(np.array([0.0, 200.0]), np.array([0.0, 20.0]),
                             np.array([0.0, 1.0]), np.zeros((2, 2, 2, 3)))


def test_joint_run_smoke(heston, arrival, risk_nofee, pricing_grid, functional_lattice):
    stats = run_joint_paths(heston, arrival, risk_nofee, pricing_grid, functional_lattice,
                            T=1.0, dt=0.005, n_paths=100, seed=5)
    assert stats.n == 100
    assert stats.z_mean > 0
    assert math.isfinite(stats.qv_mean)


def test_books_past_one_block_extend_a_smaller_run(heston, arrival, risk_nofee,
                                                   pricing_grid, functional_lattice):
    # 4,200 paths run as two blocks, 1,000 as one; a path's results do not
    # depend on how many paths run beside it
    args = (heston, arrival, risk_nofee, pricing_grid, functional_lattice)
    kw = dict(T=0.05, dt=0.01, seed=13, q_o0=1)
    big, small = (run_hedged_paths(*args, n_paths=n, **kw) for n in (DEFAULT_BLOCK + 104, 1000))
    for name in ("qv_hedged", "qv_unhedged", "qv_rate_real", "qv_rate_pred", "qv_rate_disc"):
        np.testing.assert_array_equal(getattr(big, name)[:1000], getattr(small, name), err_msg=name)
    for name in big.trace:
        np.testing.assert_array_equal(big.trace[name], small.trace[name], err_msg=name)
    big, small = (run_joint_paths(*args, n_paths=n, **kw) for n in (DEFAULT_BLOCK + 104, 1000))
    for name in ("z_terminal", "qv_terminal"):
        np.testing.assert_array_equal(getattr(big, name)[:1000], getattr(small, name), err_msg=name)
    assert big.z_mean == float(big.z_terminal.mean())


def test_books_do_not_depend_on_the_block_layout(heston, arrival, risk_nofee, pricing_grid,
                                                 functional_lattice, monkeypatch):
    # the same 300 paths in one block and in 64-path blocks, which start past
    # path 0 and end with a short one: every per-path array and every mean
    # and count must be the same
    args = (heston, arrival, risk_nofee, pricing_grid, functional_lattice)
    kw = dict(T=0.05, dt=0.01, n_paths=300, seed=13, q_o0=1)
    one = run_hedged_paths(*args, **kw), run_joint_paths(*args, **kw)
    monkeypatch.setattr(option_mm, "map_blocks", lambda n, fn: map_blocks(n, fn, block=64))
    many = run_hedged_paths(*args, **kw), run_joint_paths(*args, **kw)
    for a, b in zip(one, many):
        for name, want in vars(a).items():
            if name == "trace":
                for key in want:
                    np.testing.assert_array_equal(b.trace[key], want[key], err_msg=key)
            else:
                np.testing.assert_array_equal(getattr(b, name), want, err_msg=name)


def test_books_end_at_maturity_when_steps_overshoot_it(heston, arrival, risk_nofee):
    # 3 * 0.1 == 0.30000000000000004: the last step must look up t = T itself,
    # not a time just past the grid
    grid = solve_call_grid(PricingConfig(heston=heston, strike=100.0, T=0.3))
    args = (heston, arrival, risk_nofee, grid, _constant_zero_lattice())
    hedged = run_hedged_paths(*args, T=0.3, dt=0.1, n_paths=100, seed=3, q_o0=1)
    joint = run_joint_paths(*args, T=0.3, dt=0.1, n_paths=100, seed=3, q_o0=1)
    np.testing.assert_array_equal(hedged.trace["t"], [0.0, 0.1, 0.2])
    assert np.all(np.isfinite(hedged.qv_hedged)) and np.all(np.isfinite(joint.qv_terminal))


def test_lattice_matches_direct_estimate(heston, risk_nofee, pricing_grid, functional_lattice):
    # at a lattice node the interpolant returns the stored estimate
    i, j, k = 2, 1, 2  # s = 100, nu ~ 3.33, t = 0.5
    lat = functional_lattice
    got = lat.functionals(lat.s_nodes[[[i]]], lat.nu_nodes[[[j]]], lat.t_nodes[[k]])
    for col, want in zip(got, lat.table[k, i, j]):
        assert col[0, 0] == pytest.approx(want, rel=1e-12)
    # and the terminal layer is exactly zero
    assert lat.table[-1, ..., 0].max() == 0.0


@pytest.fixture(scope="module")
def cli_lattice(heston, risk_nofee, pricing_grid):
    """The option-mm subcommand's default 5x4x5 lattice on the default grid."""
    return FunctionalLattice.build(np.linspace(88.0, 112.0, 5), np.linspace(0.48, 9.0, 4),
                                   np.linspace(0.0, 1.0, 5), 1.0, heston, risk_nofee,
                                   pricing_grid)


# (s, nu, t) node indices: ATM, off-centre at high variance, between them, and ATM at t = 0.5
@pytest.mark.parametrize("node", [(2, 1, 0), (0, 3, 0), (1, 2, 0), (2, 1, 2)])
def test_lattice_agrees_with_the_monte_carlo_oracle(heston, risk_nofee, pricing_grid,
                                                    cli_lattice, node):
    # dt_target 0.0025, not the default 0.005: there the ATM M reads 2.7 SE
    # off, which is the oracle's own Euler and quadrature bias.  From
    # (88, 9.0) a fifth of the paths leave the grid and read its edge.
    lat, (i, j, k) = cli_lattice, node
    f = estimate_functionals(lat.s_nodes[i], lat.nu_nodes[j], lat.t_nodes[k], 1.0, heston,
                             risk_nofee, pricing_grid, n_paths=20_000, seed=11,
                             dt_target=0.0025, max_exit_fraction=0.5)
    for c, est, se in ((0, f.h1, f.se_h1), (1, f.h2, f.se_h2), (2, f.m, f.se_m)):
        # the floor covers M at rounding level near the grid edges
        table = lat.table[..., c]
        assert abs(table[k, i, j] - est) <= 3.0 * se + 1e-8 * np.abs(table).max()


def test_lattice_ignores_seed_and_paths(heston, risk_nofee, pricing_grid, cli_lattice):
    args = (cli_lattice.s_nodes, cli_lattice.nu_nodes, cli_lattice.t_nodes, 1.0, heston,
            risk_nofee, pricing_grid)
    for kw in ({"seed": 1, "n_paths": 2000}, {"seed": 2, "n_paths": 5000}):
        np.testing.assert_array_equal(FunctionalLattice.build(*args, **kw).table,
                                      cli_lattice.table)


def test_lattice_zeros_are_positive(heston, pricing_grid, cli_lattice, tmp_path):
    # at t = T, and everywhere for gamma = 0, every entry is +0.0, never -0.0
    at_maturity = cli_lattice.table[-1]
    assert np.all(at_maturity == 0.0) and not np.signbit(at_maturity).any()
    lat = FunctionalLattice.build(cli_lattice.s_nodes, cli_lattice.nu_nodes, cli_lattice.t_nodes,
                                  1.0, heston, RiskParams(0.0), pricing_grid)
    assert np.all(lat.table == 0.0) and not np.signbit(lat.table).any()
    option_mm.write_lattice_csv(lat, tmp_path / "lattice.csv")
    rows = (tmp_path / "lattice.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[3:] == ["0.0", "0.0", "0.0"] for row in rows)


def test_lattice_rejects_another_maturity_or_nodes_off_the_grid(heston, risk_nofee, pricing_grid):
    nodes = ([95.0, 105.0], [2.0, 6.0], [0.0, 0.5])
    with pytest.raises(ValueError, match="maturity"):
        FunctionalLattice.build(*nodes, 0.5, heston, risk_nofee, pricing_grid)
    with pytest.raises(ValueError, match="s outside"):
        FunctionalLattice.build([95.0, 200.0], *nodes[1:], 1.0, heston, risk_nofee, pricing_grid)
    with pytest.raises(ValueError, match="t outside"):
        FunctionalLattice.build(*nodes[:2], [0.0, 1.5], 1.0, heston, risk_nofee, pricing_grid)


def test_lattice_matches_the_exact_functionals_without_vol_of_vol(heston):
    # at xi = 0 the variance is deterministic and H1 and H2 have closed forms,
    # while M is +0.0.  Measured on the default grid: 5.99e-5 (H1) and 5.19e-5
    # (H2), the s spacing at the strike; 321 s nodes cut them 2.85- and 2.93-fold.
    h0 = replace(heston, xi=0.0)
    risk = RiskParams(gamma=0.1)
    nodes = ((94.0, 100.0, 106.0), (2.0, 4.0, 8.0), (0.0, 0.5))
    exact = np.array([[[exact_functionals_without_vol_of_vol(s, nu, t, 1.0, 100.0, h0, risk)
                        for nu in nodes[1]] for s in nodes[0]] for t in nodes[2]])
    errors = []
    for s_grid in ((), tuple(default_s_grid(h0, 1.0, 321))):
        grid = solve_call_grid(PricingConfig(heston=h0, strike=100.0, T=1.0, s_grid=s_grid))
        table = FunctionalLattice.build(*nodes, 1.0, h0, risk, grid).table
        assert np.all(table[..., 2] == 0.0) and not np.signbit(table[..., 2]).any()
        errors.append(np.abs(table[..., :2] - exact).max(axis=(0, 1, 2)))
    assert np.all(errors[0] <= 1e-4), errors
    assert np.all(errors[0] >= 2.0 * errors[1]), errors


@pytest.mark.parametrize("T", [0.5, 2.0])
def test_oracle_rejects_another_maturity_like_the_lattice(heston, risk_nofee, pricing_grid, T):
    # the oracle and the lattice it checks are defined on the grid's own horizon
    message = f"T={T} is not the pricing grid's maturity 1.0"
    with pytest.raises(ValueError, match=message):
        FunctionalLattice.build([95.0, 105.0], [2.0, 6.0], [0.0, 0.4], T, heston, risk_nofee,
                                pricing_grid)
    with pytest.raises(ValueError, match=message):
        estimate_functionals(100.0, 4.0, 0.0, T, heston, risk_nofee, pricing_grid)
