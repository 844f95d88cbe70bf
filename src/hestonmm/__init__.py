"""Market-making strategies in a limit order book with mean-reverting stochastic volatility.

Closed-form quote policies, exact value functions via numerical HJB solves,
an incomplete-market option pricer, and a Monte Carlo experiment engine.
"""

from .heston import HestonParams, conditional_moments, euler_step
from .intensity import ArrivalParams, fill_probability, fills, intensity
from .quotes import (
    Frozen,
    InventorySV,
    MarketImpact,
    QuotePair,
    RiskNeutral,
    RiskParams,
    Symmetric,
    benchmark_quotes,
    closed_form_values,
    inventory_coefficient,
    spread_and_adjustment,
    inventory_quotes,
    impact_quotes,
)

__all__ = [
    "HestonParams",
    "euler_step",
    "conditional_moments",
    "ArrivalParams",
    "intensity",
    "fill_probability",
    "fills",
    "RiskParams",
    "QuotePair",
    "InventorySV",
    "MarketImpact",
    "Symmetric",
    "Frozen",
    "RiskNeutral",
    "inventory_coefficient",
    "inventory_quotes",
    "impact_quotes",
    "spread_and_adjustment",
    "benchmark_quotes",
    "closed_form_values",
]

__version__ = "0.1.0"
