"""Deterministic stream splitting for seeded, parallel Monte Carlo.

All randomness in the library flows from a single master seed.  Paths are
grouped into fixed-width lanes: path ``i`` is row ``i % LANE`` of lane
``i // LANE``, and each lane owns one generator derived from ``(master, *key,
lane)``, where ``key`` names the source of randomness (a stream, plus a node
for the functional lattice).  A lane always draws all ``LANE`` rows, so a
path's draws depend only on ``(master, key, i)``: not on the ensemble size,
the block layout or the number of workers.

``map_blocks`` is the only code that splits paths into blocks and, on
request, runs the blocks on worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Stream identifiers: one per independent source of randomness.
SIM_STREAM = 0
HESTON_STREAM = 1
PRICING_STREAM = 2
FUNCTIONAL_STREAM = 3
OPTION_MM_STREAM = 4
PRICING_PILOT_STREAM = 5  # the pilot that fits mc_price's control coefficient

DEFAULT_BLOCK = 4096
LANE = 64  # paths per generator

SCHEMES = ("binomial", "gaussian")


def path_generator(master: int, *key: int) -> np.random.Generator:
    """The generator of one lane: ``path_generator(master, *key, lane)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=key))


def _shocks(rng: np.random.Generator, out: np.ndarray, scheme: str) -> None:
    if scheme == "gaussian":
        rng.standard_normal(out=out)
    else:  # binomial: independent signs
        np.multiply(rng.integers(0, 2, size=out.shape, dtype=np.int8), 2.0, out=out)
        out -= 1.0


def lane_draws(master: int, key: tuple[int, ...], lo: int, hi: int, shocks: np.ndarray,
               uniforms: np.ndarray | None = None, scheme: str = "gaussian") -> None:
    """Fill row ``k`` of ``shocks`` (n, n_steps, m) and of ``uniforms``
    (n, n_steps, m') in place with path ``lo + k``'s draws, ``n = hi - lo``;
    ``m`` is 2 for a stock and a variance shock per step, 1 for the variance
    shock alone (``mc_price``).

    Each lane draws all its rows' shocks (standard normals, or signs for
    ``binomial``) in one call, then all its rows' uniforms in [0, 1) in one
    call.  Lanes lying wholly in ``lo..hi-1`` draw straight into the buffers;
    a partial lane at either edge draws into a temporary and copies its rows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    n = hi - lo
    if n < 1 or len(shocks) != n or (uniforms is not None and len(uniforms) != n):
        raise ValueError("buffers must hold one row per path in lo..hi-1")
    edge_z = edge_u = None
    for lane in range(lo // LANE, (hi - 1) // LANE + 1):
        first, last = lane * LANE, (lane + 1) * LANE
        a, b = max(first, lo), min(last, hi)
        rng = path_generator(master, *key, lane)
        if a == first and b == last:
            _shocks(rng, shocks[a - lo:b - lo], scheme)
            if uniforms is not None:
                rng.random(out=uniforms[a - lo:b - lo])
            continue
        if edge_z is None:
            edge_z = np.empty((LANE,) + shocks.shape[1:])
            edge_u = None if uniforms is None else np.empty((LANE,) + uniforms.shape[1:])
        _shocks(rng, edge_z, scheme)
        shocks[a - lo:b - lo] = edge_z[a - first:b - first]
        if uniforms is not None:
            rng.random(out=edge_u)
            uniforms[a - lo:b - lo] = edge_u[a - first:b - first]


def map_blocks(n: int, fn, block: int = DEFAULT_BLOCK, threads: int = 1) -> list:
    """``[fn(lo, hi) for each block]``: the blocks split ``range(n)`` into
    contiguous runs of ``block`` paths (the last may be shorter), and the
    results come back in index order.

    With ``threads > 1`` and more than one block, the blocks run on a pool of
    that many worker threads.  A block's result depends only on its own
    paths, so it does not depend on ``threads``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ranges = [(lo, min(lo + block, n)) for lo in range(0, n, block)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(lambda r: fn(*r), ranges))
    return [fn(lo, hi) for lo, hi in ranges]
