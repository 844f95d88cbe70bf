"""Closed-form quoting policies and derived diagnostics.

The central object is the inventory coefficient

    f(nu, t) = (gamma / 2 theta) (nu - alpha) [1 - exp(-theta (T - t))]
             + (gamma / 2) alpha (T - t)

which is the conditional expectation of ``(gamma/2) * integral of nu`` over
the remaining horizon.  The approximate optimal premiums for a dealer holding
``q`` shares are linear in ``f``;  with constant permanent impact ``eta`` a
quadratic fee term is added and (in the default variant) ``f`` picks up an
extra ``gamma * A * eta^2 * (T - t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .heston import HestonParams
from .intensity import ArrivalParams

__all__ = [
    "RiskParams",
    "QuotePair",
    "InventorySV",
    "MarketImpact",
    "Symmetric",
    "Frozen",
    "RiskNeutral",
    "ClosedFormValues",
    "inventory_coefficient",
    "inventory_premiums",
    "inventory_quotes",
    "impact_premiums",
    "impact_quotes",
    "spread_and_adjustment",
    "benchmark_quotes",
    "closed_form_values",
    "risk_neutral_rate",
]

IMPACT_VARIANTS = ("plain", "flow_adjusted")


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion ``gamma``, terminal clearing fee ``beta`` per share and
    permanent impact ``eta`` per fill.  All nonnegative."""

    gamma: float
    beta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.gamma, self.beta, self.eta)):
            raise ValueError("RiskParams fields must be finite")
        if self.gamma < 0 or self.beta < 0 or self.eta < 0:
            raise ValueError("gamma, beta and eta must be nonnegative")


@dataclass(frozen=True)
class QuotePair:
    """Ask/bid premiums relative to the mid: ask price = s + delta_a, bid
    price = s - delta_b."""

    delta_a: float
    delta_b: float

    def __post_init__(self):
        if not (math.isfinite(self.delta_a) and math.isfinite(self.delta_b)):
            raise ValueError("premiums must be finite")

    @property
    def spread(self) -> float:
        return self.delta_a + self.delta_b


def _check_horizon(t, T):
    if np.any(np.asarray(t) > T):
        raise ValueError("t must not exceed the horizon T")


def inventory_coefficient(nu, t, T: float, heston: HestonParams, risk: RiskParams):
    """The bracket ``f(nu, t)`` scaling the inventory tilt of the quotes.

    ``theta == 0`` uses the analytic limit ``(gamma/2) nu (T - t)``.
    Vectorized over ``nu`` and ``t``.
    """
    _check_horizon(t, T)
    tau = T - np.asarray(t, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    theta = heston.theta
    if theta == 0.0:
        out = 0.5 * risk.gamma * nu * tau
    else:
        decay = -np.expm1(-theta * tau) / theta  # integral of exp(-theta u) over [0, tau]
        out = 0.5 * risk.gamma * ((nu - heston.alpha) * decay + heston.alpha * tau)
    return float(out) if out.ndim == 0 else out


def inventory_premiums(q, nu, t, T, heston: HestonParams, arrival: ArrivalParams, risk: RiskParams):
    """Approximate optimal premiums for the stock-only dealer (vectorized)."""
    f = inventory_coefficient(nu, t, T, heston, risk)
    q = np.asarray(q, dtype=np.float64)
    base = 1.0 / arrival.k
    delta_a = base - risk.beta - f * (2.0 * q - 1.0)
    delta_b = base + risk.beta + f * (2.0 * q + 1.0)
    return delta_a, delta_b


def inventory_quotes(
    q: int, nu: float, t: float, T: float,
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
) -> QuotePair:
    """Scalar wrapper for the stock-only approximate optimal quotes."""
    da, db = inventory_premiums(q, nu, t, T, heston, arrival, risk)
    return QuotePair(float(da), float(db))


def spread_and_adjustment(
    q, nu, t, T, heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
):
    """Bid-ask spread ``delta_a + delta_b`` and price adjustment
    ``m = delta_a - delta_b`` of the stock-only quotes.

    The identities ``spread == delta_a + delta_b`` and ``m == delta_a -
    delta_b`` hold exactly because both are computed from the same ``f``.
    """
    f = inventory_coefficient(nu, t, T, heston, risk)
    q = np.asarray(q, dtype=np.float64)
    spread = 2.0 / arrival.k + 2.0 * f
    m = -2.0 * risk.beta - 4.0 * f * q
    if np.ndim(spread) == 0 and np.ndim(m) == 0:
        return float(spread), float(m)
    return spread, m


def _impact_coefficient(nu, t, T, heston, arrival, risk, variant: str):
    if variant not in IMPACT_VARIANTS:
        raise ValueError(f"unknown impact variant {variant!r}")
    f = inventory_coefficient(nu, t, T, heston, risk)
    if variant == "flow_adjusted":
        tau = T - np.asarray(t, dtype=np.float64)
        f = f + risk.gamma * arrival.A * risk.eta**2 * tau
    return f


def impact_premiums(
    q, nu, t, T,
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
    variant: str = "flow_adjusted",
):
    """Approximate optimal premiums with constant permanent impact ``eta``.

    ``variant="flow_adjusted"`` (default) widens the inventory bracket by
    ``gamma * A * eta^2 * (T - t)``, the expected penalty drag of impact fees
    on future order flow; ``variant="plain"`` omits that term.  Both reduce
    to the impact-free premiums when ``eta == 0``.
    """
    F = _impact_coefficient(nu, t, T, heston, arrival, risk, variant)
    q = np.asarray(q, dtype=np.float64)
    base = 1.0 / arrival.k
    fee = 0.5 * risk.gamma * risk.eta**2
    delta_a = base - risk.beta + fee * (q - 1.0) ** 2 - F * (2.0 * q - 1.0)
    delta_b = base + risk.beta + fee * (q + 1.0) ** 2 + F * (2.0 * q + 1.0)
    return delta_a, delta_b


def impact_quotes(
    q: int, nu: float, t: float, T: float,
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
    variant: str = "flow_adjusted",
) -> QuotePair:
    da, db = impact_premiums(q, nu, t, T, heston, arrival, risk, variant)
    return QuotePair(float(da), float(db))


def risk_neutral_rate(arrival: ArrivalParams, risk: RiskParams) -> float:
    """Expected objective accrual rate of the risk-neutral dealer,
    ``(A/k) e^{-1} (e^{k beta} + e^{-k beta})``."""
    kb = arrival.k * risk.beta
    return arrival.A * math.exp(-1.0) / arrival.k * (math.exp(kb) + math.exp(-kb))


class ClosedFormValues(NamedTuple):
    frozen_v: float
    risk_neutral_v: float


def closed_form_values(
    q: int, nu: float, t: float, T: float,
    heston: HestonParams, arrival: ArrivalParams, risk: RiskParams,
) -> ClosedFormValues:
    """Benchmark value functions: the frozen (inactive) dealer, which is also
    the quadratic approximation, and the risk-neutral dealer."""
    f = inventory_coefficient(nu, t, T, heston, risk)
    frozen_v = -float(q) ** 2 * float(f)
    _check_horizon(t, T)
    rn = risk_neutral_rate(arrival, risk) * (T - t)
    return ClosedFormValues(frozen_v=frozen_v, risk_neutral_v=rn)


# --- Policies -------------------------------------------------------------
#
# A policy exposes ``premiums(q, nu, t) -> (delta_a, delta_b) | None``
# vectorized over paths; ``None`` means no quotes are posted (frozen book).


@dataclass(frozen=True)
class InventorySV:
    """Stock-only inventory policy (approximate optimal quotes)."""

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float

    def premiums(self, q, nu, t):
        return inventory_premiums(q, nu, t, self.T, self.heston, self.arrival, self.risk)


@dataclass(frozen=True)
class MarketImpact:
    """Inventory policy adjusted for constant permanent impact."""

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float
    variant: str = "flow_adjusted"

    def __post_init__(self):
        if self.variant not in IMPACT_VARIANTS:
            raise ValueError(f"unknown impact variant {self.variant!r}")

    def premiums(self, q, nu, t):
        return impact_premiums(q, nu, t, self.T, self.heston, self.arrival, self.risk, self.variant)


@dataclass(frozen=True)
class Symmetric:
    """Constant quotes centered at the mid with a prescribed total spread,
    typically the average spread realized by a prior inventory-policy run."""

    avg_spread: float

    def __post_init__(self):
        if not math.isfinite(self.avg_spread) or self.avg_spread <= 0:
            raise ValueError("Symmetric requires avg_spread > 0")

    def premiums(self, q, nu, t):
        half = 0.5 * self.avg_spread
        shape = np.broadcast(np.asarray(q), np.asarray(nu)).shape
        if shape == ():
            return half, half
        return np.full(shape, half), np.full(shape, half)


@dataclass(frozen=True)
class RiskNeutral:
    """Constant quotes of the risk-neutral dealer: (1/k - beta, 1/k + beta)."""

    arrival: ArrivalParams
    risk: RiskParams

    def premiums(self, q, nu, t):
        base = 1.0 / self.arrival.k
        da, db = base - self.risk.beta, base + self.risk.beta
        shape = np.broadcast(np.asarray(q), np.asarray(nu)).shape
        if shape == ():
            return da, db
        return np.full(shape, da), np.full(shape, db)


@dataclass(frozen=True)
class Frozen:
    """No quotes: the book is never filled and the inventory stays put."""

    def premiums(self, q, nu, t):
        return None


def benchmark_quotes(policy, q=0, nu=None, t=0.0) -> QuotePair | None:
    """Quotes of a benchmark policy; ``None`` for the frozen book."""
    out = policy.premiums(q, nu, t)
    if out is None:
        return None
    da, db = out
    return QuotePair(float(np.asarray(da).reshape(())), float(np.asarray(db).reshape(())))
