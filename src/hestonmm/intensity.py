"""Order-arrival model: execution intensity as a function of quote distance.

A quote posted at premium ``delta`` from the mid is hit at rate
``A * exp(-k * delta)``.  Per simulation step, fills on each side are
independent Bernoulli events with probability ``min(rate * dt, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ArrivalParams", "intensity", "fills", "trade"]


@dataclass(frozen=True)
class ArrivalParams:
    """Base intensity ``A`` (fills/time) and decay rate ``k`` (1/currency)."""

    A: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.k)):
            raise ConfigError("ArrivalParams fields must be finite")
        if self.A <= 0 or self.k <= 0:
            raise ConfigError("A and k must be positive")


def intensity(delta, arrival: ArrivalParams):
    """Execution rate ``A * exp(-k * delta)``, elementwise and unchecked: a
    premium may cross the mid, and the rate just grows."""
    return arrival.A * np.exp(-arrival.k * delta)


def fills(deltas, u, arrival: ArrivalParams, dt: float):
    """One step of fills, ``u < min(rate * dt, 1)`` elementwise, and the
    number of probabilities clipped at 1: the fill rule of ``trade``.  Premiums
    are not checked (a simulator reports a non-finite state itself), and a
    deep-crossed quote's rate overflows and clips to 1 without a warning."""
    with np.errstate(over="ignore"):
        raw = intensity(deltas, arrival) * dt
    return u < np.minimum(raw, 1.0), int(np.count_nonzero(raw > 1.0))


def trade(quotes, u, arrival: ArrivalParams, dt: float):
    """The book step of every dealer, ``(hit, income, dq, clipped)``: ``quotes``
    and ``u`` are ``(n, 2m)``, (ask, bid) premiums of ``m`` assets on the last
    axis; ``hit`` and ``clipped`` are ``fills``'; ``income`` sums the premium of
    every hit quote over the columns left to right; ``dq`` is the int64 ``(n, m)``
    inventory change, bid hits minus ask hits per asset."""
    hit, clipped = fills(quotes, u, arrival, dt)
    paid = np.where(hit, quotes, 0.0)
    income = paid[:, 0] + paid[:, 1]
    for j in range(2, paid.shape[1]):
        income += paid[:, j]
    return hit, income, hit[:, 1::2].astype(np.int64) - hit[:, 0::2].astype(np.int64), clipped
