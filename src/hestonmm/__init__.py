"""Market-making strategies in a limit order book with mean-reverting stochastic volatility.

Closed-form quote policies, exact value functions via numerical HJB solves,
an incomplete-market option pricer, and a Monte Carlo experiment engine.
"""

from .heston import HestonParams, conditional_moments, euler_step
from .intensity import ArrivalParams, fills, intensity
from .quotes import (
    Frozen,
    InventorySV,
    MarketImpact,
    RiskNeutral,
    RiskParams,
    Symmetric,
    inventory_coefficient,
)

__all__ = [
    "HestonParams",
    "euler_step",
    "conditional_moments",
    "ArrivalParams",
    "intensity",
    "fills",
    "RiskParams",
    "InventorySV",
    "MarketImpact",
    "Symmetric",
    "Frozen",
    "RiskNeutral",
    "inventory_coefficient",
]

__version__ = "0.1.0"
