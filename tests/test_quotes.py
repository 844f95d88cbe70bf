
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import quotes
from hestonmm.option_mm import hedged_book_quotes, joint_book_quotes
from hestonmm.quotes import (
    Frozen,
    InventorySV,
    MarketImpact,
    RiskNeutral,
    RiskParams,
    Symmetric,
    inventory_coefficient,
    tilt,
)
from oracles import risk_neutral_rate


def _one(policy, q, nu, t):
    """The policy's premiums for one path, called on arrays as the simulators call it."""
    da, db = policy.premiums(np.array([q]), np.array([nu]), t)
    assert da.shape == db.shape == (1,)
    return da[0], db[0]


def test_risk_params_validation():
    with pytest.raises(ValueError):
        RiskParams(gamma=-0.1)
    with pytest.raises(ValueError):
        RiskParams(gamma=0.1, beta=-1.0)


def test_inventory_quote_examples(heston, arrival, risk):
    pol = InventorySV(heston, arrival, risk, 1.0)
    da, db = pol.premiums(np.array([0]), np.array([4.0]), 1.0)
    assert da[0] == pytest.approx(0.636667, abs=1e-6)
    assert db[0] == pytest.approx(0.696667, abs=1e-6)
    da, db = pol.premiums(np.array([0, 6]), np.array([4.0, 4.0]), 0.0)
    assert da[0] == pytest.approx(0.836667, abs=1e-6)
    assert db[0] == pytest.approx(0.896667, abs=1e-6)
    assert da[1] == pytest.approx(-1.563333, abs=1e-6)  # ask crosses the mid


def test_rejects_time_beyond_horizon(heston, arrival, risk):
    with pytest.raises(ValueError):
        InventorySV(heston, arrival, risk, 1.0).premiums(np.zeros(1), np.full(1, 4.0), 1.5)


def test_spread_examples(heston, arrival, risk):
    # the spread da + db and the price adjustment m = da - db of the quotes
    da, db = _one(InventorySV(heston, arrival, risk, 1.0), 0, 4.0, 0.0)
    assert da + db == pytest.approx(2.0 / 1.5 + 0.4, abs=1e-9)
    assert da - db == pytest.approx(-2 * risk.beta, abs=1e-12)
    # beta = 0, q = 0: no adjustment at all
    da0, db0 = _one(InventorySV(heston, arrival, RiskParams(0.1), 1.0), 0, 4.0, 0.3)
    assert da0 - db0 == 0.0


@given(
    q=st.integers(-15, 15),
    nu=st.floats(0.0, 10.0),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_spread_and_m_identities(q, nu, t, heston, arrival, risk):
    # spread 2/k + 2f and adjustment -2 beta - 4 f q, from the same f
    da, db = _one(InventorySV(heston, arrival, risk, 1.0), q, nu, t)
    f = inventory_coefficient(nu, t, 1.0, heston, risk)
    assert da + db == pytest.approx(2.0 / arrival.k + 2.0 * f, rel=1e-12, abs=1e-12)
    assert da - db == pytest.approx(-2.0 * risk.beta - 4.0 * f * q, rel=1e-12, abs=1e-12)


def test_monotone_in_inventory(heston, arrival, risk):
    # f > 0 here, so the ask falls and the bid rises with inventory
    qs = np.arange(-10, 11)
    das, dbs = InventorySV(heston, arrival, risk, 1.0).premiums(qs, np.full(qs.shape, 4.0), 0.2)
    assert np.all(np.diff(das) < 0)
    assert np.all(np.diff(dbs) > 0)


def test_variance_sensitivity_signs(heston, arrival, risk):
    # finite differences in nu: long books lower both quotes, short books raise them
    h = 1e-5
    pol = InventorySV(heston, arrival, risk, 1.0)
    for q, sign in [(3, -1.0), (-3, +1.0)]:
        (up_a, dn_a), (up_b, dn_b) = pol.premiums(np.full(2, q), np.array([4.0 + h, 4.0 - h]), 0.0)
        assert sign * (up_a - dn_a) > 0
        if q > 0:
            assert up_b - dn_b > 0
        else:
            assert up_b - dn_b < 0
    das, dbs = pol.premiums(np.zeros(2), np.array([4.0 + h, 4.0 - h]), 0.0)
    s_up, s_dn = das + dbs
    assert s_up > s_dn  # spread widens with variance


def test_constant_variance_limit(arrival, risk):
    # theta -> 0 with xi = 0: spread reduces to 2/k + gamma nu (T - t)
    from hestonmm.heston import HestonParams

    p = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0)
    da, db = _one(InventorySV(p, arrival, risk, 1.0), 0, 3.0, 0.25)
    assert da + db == pytest.approx(2.0 / arrival.k + risk.gamma * 3.0 * 0.75, rel=1e-12)
    f_small = inventory_coefficient(3.0, 0.25, 1.0,
                                    HestonParams(theta=1e-10, alpha=4.0, xi=0.0, rho=0.0), risk)
    f_zero = inventory_coefficient(3.0, 0.25, 1.0, p, risk)
    assert f_small == pytest.approx(f_zero, rel=1e-6)


def test_market_impact_reduces_without_impact(heston, arrival):
    risk0 = RiskParams(gamma=0.1, beta=0.03, eta=0.0)
    q1 = _one(InventorySV(heston, arrival, risk0, 1.0), 4, 5.0, 0.3)
    for variant in ("plain", "flow_adjusted"):
        q2 = _one(MarketImpact(heston, arrival, risk0, 1.0, variant), 4, 5.0, 0.3)
        assert q2[0] == pytest.approx(q1[0], rel=1e-14)
        assert q2[1] == pytest.approx(q1[1], rel=1e-14)


def test_impact_quote_examples(heston, arrival, risk):
    da, db = MarketImpact(heston, arrival, risk, 1.0, "plain").premiums(
        np.array([1, 0]), np.full(2, 4.0), 1.0)
    assert da[0] == pytest.approx(0.636667, abs=1e-6)
    assert db[0] == pytest.approx(0.698287, abs=1e-6)
    # q = 0 at expiry: symmetric fee (q -+ 1)^2 = 1
    fee = 0.5 * risk.gamma * risk.eta**2
    assert da[1] == pytest.approx(1 / 1.5 - 0.03 + fee, rel=1e-12)
    assert db[1] == pytest.approx(1 / 1.5 + 0.03 + fee, rel=1e-12)


def test_flow_adjusted_variant_extra_term(heston, arrival, risk):
    qa = _one(MarketImpact(heston, arrival, risk, 1.0, "flow_adjusted"), 2, 4.0, 0.0)
    qt = _one(MarketImpact(heston, arrival, risk, 1.0, "plain"), 2, 4.0, 0.0)
    extra = risk.gamma * arrival.A * risk.eta**2 * 1.0
    assert qa[0] - qt[0] == pytest.approx(-extra * 3, rel=1e-9)
    assert qa[1] - qt[1] == pytest.approx(extra * 5, rel=1e-9)
    with pytest.raises(ValueError):
        MarketImpact(heston, arrival, risk, 1.0, "bogus")


def test_closed_form_values_examples(heston, arrival, risk):
    # the frozen (inactive) dealer's value is the quadratic approximation
    # -q^2 f(nu, t); the risk-neutral dealer's accrues at a constant rate
    assert -36.0 * inventory_coefficient(4.0, 0.0, 1.0, heston, risk) == pytest.approx(-7.2, rel=1e-9)
    assert risk_neutral_rate(arrival, risk) == pytest.approx(68.7404, abs=5e-5)
    with pytest.raises(ValueError, match="horizon"):
        inventory_coefficient(4.0, 1.5, 1.0, heston, risk)


def test_frozen_value_nonpositive_on_box(heston, arrival, risk):
    # f > 0 throughout nu in [1, 8], t in [0, 1) at the baseline parameters
    for nu in np.linspace(1.0, 8.0, 8):
        for t in np.linspace(0.0, 0.99, 7):
            f = inventory_coefficient(nu, t, 1.0, heston, risk)
            assert f > 0
            assert -9.0 * f < 0  # the frozen value of q = 3


def test_benchmark_policies(heston, arrival, risk):
    # constant quotes, one per path, shaped like q
    q, nu = np.array([0, 3, -2]), np.array([4.0, 1.0, 9.0])
    da, db = RiskNeutral(arrival, risk).premiums(q, nu, 0.0)
    assert da.shape == db.shape == q.shape
    np.testing.assert_allclose(da, 0.636667, atol=1e-6)
    np.testing.assert_allclose(db, 0.696667, atol=1e-6)
    da, db = Symmetric(1.53).premiums(q, nu, 0.0)
    assert da.shape == db.shape == q.shape
    np.testing.assert_array_equal(da, db)
    np.testing.assert_allclose(da, 0.765)
    assert Frozen().premiums(q, nu, 0.0) is None
    with pytest.raises(ValueError):
        Symmetric(0.0)
    with pytest.raises(ValueError):
        Symmetric(-1.0)


def test_policy_vectorized_premiums(heston, arrival, risk):
    pol = InventorySV(heston, arrival, risk, 1.0)
    q = np.array([0, 2, -3])
    nu = np.array([4.0, 5.0, 3.0])
    da, db = pol.premiums(q, nu, 0.1)
    for i in range(3):
        # the closed form 1/k -+ beta - f (2q -+ 1), one path at a time
        f = inventory_coefficient(float(nu[i]), 0.1, 1.0, heston, risk)
        assert da[i] == pytest.approx(1 / arrival.k - risk.beta - f * (2 * q[i] - 1), rel=1e-14)
        assert db[i] == pytest.approx(1 / arrival.k + risk.beta + f * (2 * q[i] + 1), rel=1e-14)


# The inline quote formulas each book carried before ``quotes.tilt`` was the
# one rule, kept here as references for it.

def _inventory_reference(q, nu, t, T, heston, arrival, risk):
    f = inventory_coefficient(nu, t, T, heston, risk)
    q = np.asarray(q, dtype=np.float64)
    base = 1.0 / arrival.k
    delta_a = base - risk.beta - f * (2.0 * q - 1.0)
    delta_b = base + risk.beta + f * (2.0 * q + 1.0)
    return delta_a, delta_b


def _impact_reference(q, nu, t, T, heston, arrival, risk, variant):
    F = inventory_coefficient(nu, t, T, heston, risk)
    if variant == "flow_adjusted":
        tau = T - np.asarray(t, dtype=np.float64)
        F = F + risk.gamma * arrival.A * risk.eta**2 * tau
    q = np.asarray(q, dtype=np.float64)
    base = 1.0 / arrival.k
    fee = 0.5 * risk.gamma * risk.eta**2
    delta_a = base - risk.beta + fee * (q - 1.0) ** 2 - F * (2.0 * q - 1.0)
    delta_b = base + risk.beta + fee * (q + 1.0) ** 2 + F * (2.0 * q + 1.0)
    return delta_a, delta_b


def _joint_reference(q_s, q_o, nu, t, T, h1, h2, arrival, heston, risk):
    f = inventory_coefficient(nu, t, T, heston, risk)
    base = 1.0 / arrival.k
    q_s = np.asarray(q_s, dtype=np.float64)
    q_o = np.asarray(q_o, dtype=np.float64)
    return np.stack((base - f * (2.0 * q_s - 1.0) + h1 * q_o,
                     base + f * (2.0 * q_s + 1.0) - h1 * q_o,
                     base + h2 * (2.0 * q_o - 1.0) + h1 * q_s,
                     base - h2 * (2.0 * q_o + 1.0) - h1 * q_s), axis=-1)


def _hedged_reference(q_o, m, arrival):
    base = 1.0 / arrival.k
    q_o = np.asarray(q_o, dtype=np.float64)
    return np.stack((base + m * (2.0 * q_o - 1.0), base - m * (2.0 * q_o + 1.0)), axis=-1)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


Q = np.arange(-12, 13, dtype=np.int64)[:, None]  # both signs, one row per holding
NU = np.array([0.0, 0.5, 4.0, 9.0])[None, :]


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("eta", [0.0, 0.09])
def test_tilt_is_every_stock_formula_bitwise(heston, arrival, t, eta):
    for beta in (0.0, 0.03):
        risk = RiskParams(gamma=0.1, beta=beta, eta=eta)
        _same_bits(InventorySV(heston, arrival, risk, 1.0).premiums(Q, NU, t),
                   _inventory_reference(Q, NU, t, 1.0, heston, arrival, risk))
        for variant in ("plain", "flow_adjusted"):
            _same_bits(MarketImpact(heston, arrival, risk, 1.0, variant).premiums(Q, NU, t),
                       _impact_reference(Q, NU, t, 1.0, heston, arrival, risk, variant))


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_tilt_is_both_option_books_bitwise(heston, arrival, risk_nofee, t):
    rng = np.random.default_rng(3)
    h1, h2, m = rng.normal(0.0, 0.2, size=(3,) + np.broadcast(Q, NU).shape)
    h2[0], m[0] = 0.0, -0.0
    q_o = -2 * Q + 1
    _same_bits(joint_book_quotes(Q, q_o, NU, t, 1.0, h1, h2, arrival, heston, risk_nofee),
               _joint_reference(Q, q_o, NU, t, 1.0, h1, h2, arrival, heston, risk_nofee))
    _same_bits(hedged_book_quotes(Q, m, arrival), _hedged_reference(Q, m, arrival))


def test_tilt_examples(arrival):
    # a flat book quotes 1/k -+ beta + f, widened by the fee on each side
    da, db = tilt(0, 0.2, arrival, beta=0.03, fee=0.01)
    assert da == pytest.approx(1 / arrival.k - 0.03 + 0.01 + 0.2, rel=1e-15)
    assert db == pytest.approx(1 / arrival.k + 0.03 + 0.01 + 0.2, rel=1e-15)
    # the spread is 2/k + 2f + fee ((q-1)^2 + (q+1)^2) at any holding
    da, db = tilt(np.array([-3, 5]), 0.2, arrival, fee=0.01)
    np.testing.assert_allclose(da + db, 2 / arrival.k + 0.4 + 0.01 * np.array([16 + 4, 16 + 36]))


def test_only_tilt_holds_the_inventory_term():
    # one quote rule: no other code writes the (2 q -+ 1) tilt of a premium
    term = re.compile(r"\(\s*2(\.0)?\s*\*\s*q\w*\s*[-+]\s*1(\.0)?\s*\)")
    src = Path(quotes.__file__).parent
    found = [(p.name, n) for p in sorted(src.glob("*.py"))
             for n, line in enumerate(p.read_text().splitlines(), 1) if term.search(line)]
    lines, first = inspect.getsourcelines(tilt)
    assert found and {name for name, _ in found} == {"quotes.py"}
    assert all(first <= n < first + len(lines) for _, n in found)
