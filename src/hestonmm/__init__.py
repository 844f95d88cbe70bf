"""Market-making strategies in a limit order book with mean-reverting stochastic volatility.

Closed-form quote policies, exact value functions via numerical HJB solves,
an incomplete-market option pricer, and a Monte Carlo experiment engine.
"""

__version__ = "0.1.0"
