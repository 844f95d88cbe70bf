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

import numpy as np

from .errors import ConfigError
from .heston import HestonParams
from .intensity import ArrivalParams

__all__ = [
    "RiskParams",
    "InventorySV",
    "MarketImpact",
    "Symmetric",
    "Frozen",
    "RiskNeutral",
    "inventory_coefficient",
    "inventory_premiums",
    "tilt",
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
            raise ConfigError("RiskParams fields must be finite")
        if self.gamma < 0 or self.beta < 0 or self.eta < 0:
            raise ConfigError("gamma, beta and eta must be nonnegative")


def inventory_coefficient(nu, t, T: float, heston: HestonParams, risk: RiskParams):
    """The bracket ``f(nu, t)`` scaling the inventory tilt of the quotes.

    ``theta == 0`` uses the analytic limit ``(gamma/2) nu (T - t)``.
    Vectorized over ``nu`` and ``t``.
    """
    if np.any(np.asarray(t) > T):
        raise ValueError("t must not exceed the horizon T")
    tau = T - np.asarray(t, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    theta = heston.theta
    if theta == 0.0:
        out = 0.5 * risk.gamma * nu * tau
    else:
        decay = -np.expm1(-theta * tau) / theta  # integral of exp(-theta u) over [0, tau]
        out = 0.5 * risk.gamma * ((nu - heston.alpha) * decay + heston.alpha * tau)
    return float(out) if out.ndim == 0 else out


def tilt(q, f, arrival: ArrivalParams, beta=0.0, fee=0.0):
    """The closed-form quote rule of every book (vectorized): ask and bid
    premiums ``1/k -+ beta [+ fee (q -+ 1)^2] -+ f (2 q -+ 1)`` of a dealer
    holding ``q``, with ``f`` the inventory coefficient of the quoted asset
    (``-H2`` or ``-M`` for an option).  The fee term is computed only when
    ``fee`` is nonzero."""
    q = np.asarray(q, dtype=np.float64)
    base = 1.0 / arrival.k
    delta_a, delta_b = base - beta, base + beta
    if fee:
        delta_a = delta_a + fee * (q - 1.0) ** 2
        delta_b = delta_b + fee * (q + 1.0) ** 2
    return delta_a - f * (2.0 * q - 1.0), delta_b + f * (2.0 * q + 1.0)


def inventory_premiums(q, nu, t, T, heston: HestonParams, arrival: ArrivalParams, risk: RiskParams):
    """Approximate optimal premiums for the stock-only dealer (vectorized)."""
    return tilt(q, inventory_coefficient(nu, t, T, heston, risk), arrival, risk.beta)


# --- Policies -------------------------------------------------------------
#
# A policy exposes ``premiums(q, nu, t) -> (delta_a, delta_b) | None``:
# arrays shaped like ``q`` (broadcast with ``nu``), one entry per path, at the
# step time ``t``; ``None`` means no quotes are posted (frozen book).


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
    """Inventory policy adjusted for constant permanent impact ``eta``.

    ``variant="flow_adjusted"`` (default) widens the inventory bracket by
    ``gamma * A * eta^2 * (T - t)``, the expected penalty drag of impact fees
    on future order flow; ``variant="plain"`` omits that term.  Both reduce
    to the ``InventorySV`` premiums when ``eta == 0``.
    """

    heston: HestonParams
    arrival: ArrivalParams
    risk: RiskParams
    T: float
    variant: str = "flow_adjusted"

    def __post_init__(self):
        if self.variant not in IMPACT_VARIANTS:
            raise ConfigError(f"unknown impact variant {self.variant!r}")

    def premiums(self, q, nu, t):
        risk = self.risk
        F = inventory_coefficient(nu, t, self.T, self.heston, risk)
        if self.variant == "flow_adjusted":
            tau = self.T - np.asarray(t, dtype=np.float64)
            F = F + risk.gamma * self.arrival.A * risk.eta**2 * tau
        return tilt(q, F, self.arrival, risk.beta, 0.5 * risk.gamma * risk.eta**2)


@dataclass(frozen=True)
class Symmetric:
    """Constant quotes centered at the mid with a prescribed total spread,
    typically the average spread realized by a prior inventory-policy run."""

    avg_spread: float

    def __post_init__(self):
        if not math.isfinite(self.avg_spread) or self.avg_spread <= 0:
            raise ConfigError("Symmetric requires avg_spread > 0")

    def premiums(self, q, nu, t):
        half = 0.5 * self.avg_spread
        shape = np.broadcast(q, nu).shape
        return np.full(shape, half), np.full(shape, half)


@dataclass(frozen=True)
class RiskNeutral:
    """Constant quotes of the risk-neutral dealer: (1/k - beta, 1/k + beta)."""

    arrival: ArrivalParams
    risk: RiskParams

    def premiums(self, q, nu, t):
        base = 1.0 / self.arrival.k
        shape = np.broadcast(q, nu).shape
        return np.full(shape, base - self.risk.beta), np.full(shape, base + self.risk.beta)


@dataclass(frozen=True)
class Frozen:
    """No quotes: the book is never filled and the inventory stays put."""

    def premiums(self, q, nu, t):
        return None
