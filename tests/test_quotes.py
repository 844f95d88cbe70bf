
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm.quotes import (
    Frozen,
    InventorySV,
    QuotePair,
    RiskNeutral,
    RiskParams,
    Symmetric,
    benchmark_quotes,
    closed_form_values,
    inventory_coefficient,
    risk_neutral_rate,
    spread_and_adjustment,
    inventory_quotes,
    impact_quotes,
)


def test_risk_params_validation():
    with pytest.raises(ValueError):
        RiskParams(gamma=-0.1)
    with pytest.raises(ValueError):
        RiskParams(gamma=0.1, beta=-1.0)
    with pytest.raises(ValueError):
        QuotePair(float("nan"), 0.0)


def test_inventory_quote_examples(heston, arrival, risk):
    q = inventory_quotes(0, 4.0, 1.0, 1.0, heston, arrival, risk)
    assert q.delta_a == pytest.approx(0.636667, abs=1e-6)
    assert q.delta_b == pytest.approx(0.696667, abs=1e-6)
    q = inventory_quotes(0, 4.0, 0.0, 1.0, heston, arrival, risk)
    assert q.delta_a == pytest.approx(0.836667, abs=1e-6)
    assert q.delta_b == pytest.approx(0.896667, abs=1e-6)
    q = inventory_quotes(6, 4.0, 0.0, 1.0, heston, arrival, risk)
    assert q.delta_a == pytest.approx(-1.563333, abs=1e-6)  # ask crosses the mid


def test_rejects_time_beyond_horizon(heston, arrival, risk):
    with pytest.raises(ValueError):
        inventory_quotes(0, 4.0, 1.5, 1.0, heston, arrival, risk)


def test_spread_examples(heston, arrival, risk):
    spread, m = spread_and_adjustment(0, 4.0, 0.0, 1.0, heston, arrival, risk)
    assert spread == pytest.approx(2.0 / 1.5 + 0.4, abs=1e-9)
    assert m == pytest.approx(-2 * risk.beta, abs=1e-12)
    # beta = 0, q = 0: no adjustment at all
    _, m0 = spread_and_adjustment(0, 4.0, 0.3, 1.0, heston, arrival, RiskParams(0.1))
    assert m0 == 0.0


@given(
    q=st.integers(-15, 15),
    nu=st.floats(0.0, 10.0),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_spread_and_m_identities(q, nu, t, heston, arrival, risk):
    quotes = inventory_quotes(q, nu, t, 1.0, heston, arrival, risk)
    spread, m = spread_and_adjustment(q, nu, t, 1.0, heston, arrival, risk)
    assert spread == pytest.approx(quotes.delta_a + quotes.delta_b, rel=1e-12, abs=1e-12)
    assert m == pytest.approx(quotes.delta_a - quotes.delta_b, rel=1e-12, abs=1e-12)


def test_monotone_in_inventory(heston, arrival, risk):
    # f > 0 here, so the ask falls and the bid rises with inventory
    qs = np.arange(-10, 11)
    das = [inventory_quotes(int(q), 4.0, 0.2, 1.0, heston, arrival, risk).delta_a for q in qs]
    dbs = [inventory_quotes(int(q), 4.0, 0.2, 1.0, heston, arrival, risk).delta_b for q in qs]
    assert np.all(np.diff(das) < 0)
    assert np.all(np.diff(dbs) > 0)


def test_variance_sensitivity_signs(heston, arrival, risk):
    # finite differences in nu: long books lower both quotes, short books raise them
    h = 1e-5
    for q, sign in [(3, -1.0), (-3, +1.0)]:
        up = inventory_quotes(q, 4.0 + h, 0.0, 1.0, heston, arrival, risk)
        dn = inventory_quotes(q, 4.0 - h, 0.0, 1.0, heston, arrival, risk)
        assert sign * (up.delta_a - dn.delta_a) > 0
        if q > 0:
            assert up.delta_b - dn.delta_b > 0
        else:
            assert up.delta_b - dn.delta_b < 0
    s_up, _ = spread_and_adjustment(0, 4.0 + h, 0.0, 1.0, heston, arrival, risk)
    s_dn, _ = spread_and_adjustment(0, 4.0 - h, 0.0, 1.0, heston, arrival, risk)
    assert s_up > s_dn  # spread widens with variance


def test_constant_variance_limit(arrival, risk):
    # theta -> 0 with xi = 0: spread reduces to 2/k + gamma nu (T - t)
    from hestonmm.heston import HestonParams

    p = HestonParams(theta=0.0, alpha=4.0, xi=0.0, rho=0.0)
    spread, _ = spread_and_adjustment(0, 3.0, 0.25, 1.0, p, arrival, risk)
    assert spread == pytest.approx(2.0 / arrival.k + risk.gamma * 3.0 * 0.75, rel=1e-12)
    f_small = inventory_coefficient(3.0, 0.25, 1.0,
                                    HestonParams(theta=1e-10, alpha=4.0, xi=0.0, rho=0.0), risk)
    f_zero = inventory_coefficient(3.0, 0.25, 1.0, p, risk)
    assert f_small == pytest.approx(f_zero, rel=1e-6)


def test_impact_quotes_reduce_without_impact(heston, arrival):
    risk0 = RiskParams(gamma=0.1, beta=0.03, eta=0.0)
    for variant in ("plain", "flow_adjusted"):
        q2 = impact_quotes(4, 5.0, 0.3, 1.0, heston, arrival, risk0, variant)
        q1 = inventory_quotes(4, 5.0, 0.3, 1.0, heston, arrival, risk0)
        assert q2.delta_a == pytest.approx(q1.delta_a, rel=1e-14)
        assert q2.delta_b == pytest.approx(q1.delta_b, rel=1e-14)


def test_impact_quote_examples(heston, arrival, risk):
    q = impact_quotes(1, 4.0, 1.0, 1.0, heston, arrival, risk, "plain")
    assert q.delta_a == pytest.approx(0.636667, abs=1e-6)
    assert q.delta_b == pytest.approx(0.698287, abs=1e-6)
    # q = 0 at expiry: symmetric fee (q -+ 1)^2 = 1
    q = impact_quotes(0, 4.0, 1.0, 1.0, heston, arrival, risk, "plain")
    fee = 0.5 * risk.gamma * risk.eta**2
    assert q.delta_a == pytest.approx(1 / 1.5 - 0.03 + fee, rel=1e-12)
    assert q.delta_b == pytest.approx(1 / 1.5 + 0.03 + fee, rel=1e-12)


def test_flow_adjusted_variant_extra_term(heston, arrival, risk):
    qa = impact_quotes(2, 4.0, 0.0, 1.0, heston, arrival, risk, "flow_adjusted")
    qt = impact_quotes(2, 4.0, 0.0, 1.0, heston, arrival, risk, "plain")
    extra = risk.gamma * arrival.A * risk.eta**2 * 1.0
    assert qa.delta_a - qt.delta_a == pytest.approx(-extra * 3, rel=1e-9)
    assert qa.delta_b - qt.delta_b == pytest.approx(extra * 5, rel=1e-9)
    with pytest.raises(ValueError):
        impact_quotes(2, 4.0, 0.0, 1.0, heston, arrival, risk, "bogus")


def test_closed_form_values_examples(heston, arrival, risk):
    v = closed_form_values(6, 4.0, 0.0, 1.0, heston, arrival, risk)
    assert v.frozen_v == pytest.approx(-7.2, rel=1e-9)
    # the frozen value is the quadratic approximation -q^2 f(nu, t)
    assert v.frozen_v == -36.0 * inventory_coefficient(4.0, 0.0, 1.0, heston, risk)
    assert v.risk_neutral_v == pytest.approx(68.7404, abs=5e-5)
    v0 = closed_form_values(0, 6.0, 0.4, 1.0, heston, arrival, risk)
    assert v0.frozen_v == 0.0
    assert v0.risk_neutral_v == pytest.approx(risk_neutral_rate(arrival, risk) * 0.6, rel=1e-12)
    assert risk_neutral_rate(arrival, risk) == pytest.approx(68.7404, abs=5e-5)


def test_frozen_value_nonpositive_on_box(heston, arrival, risk):
    # f > 0 throughout nu in [1, 8], t in [0, 1) at the baseline parameters
    for nu in np.linspace(1.0, 8.0, 8):
        for t in np.linspace(0.0, 0.99, 7):
            f = inventory_coefficient(nu, t, 1.0, heston, risk)
            assert f > 0
            assert closed_form_values(3, nu, t, 1.0, heston, arrival, risk).frozen_v < 0


def test_benchmark_policies(heston, arrival, risk):
    rn = benchmark_quotes(RiskNeutral(arrival, risk))
    assert rn.delta_a == pytest.approx(0.636667, abs=1e-6)
    assert rn.delta_b == pytest.approx(0.696667, abs=1e-6)
    sym = benchmark_quotes(Symmetric(1.53))
    assert sym.delta_a == sym.delta_b == pytest.approx(0.765)
    assert benchmark_quotes(Frozen()) is None
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
        ref = inventory_quotes(int(q[i]), float(nu[i]), 0.1, 1.0, heston, arrival, risk)
        assert da[i] == pytest.approx(ref.delta_a, rel=1e-14)
        assert db[i] == pytest.approx(ref.delta_b, rel=1e-14)
