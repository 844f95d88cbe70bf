"""Deterministic stream splitting for seeded, parallel Monte Carlo.

All randomness in the library flows from a single master seed.  Paths are
grouped into fixed-width lanes: path ``i`` is row ``i % LANE`` of lane
``i // LANE``, and each lane owns one generator derived from ``(master, *key,
lane)``, where ``key`` names the source of randomness (a stream, plus a fixed
node 0 for the functional oracle).  A lane always draws all ``LANE`` rows, so a
path's draws depend only on ``(master, key, i)``: not on the ensemble size,
the block layout or the number of workers.

``map_blocks`` is the only code that splits paths into blocks and, on
request, runs the blocks on worker threads.
"""

from __future__ import annotations

import math
import mmap
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


def os_array(shape, dtype=np.float64) -> np.ndarray:
    """Uninitialised array on pages mapped from the OS up front, unmapped
    when freed.  Large freed ``malloc`` buffers raise glibc's mmap threshold,
    later ones then land on the heap, and peak memory varies with its
    fragmentation from run to run."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    dtype = np.dtype(dtype)
    n = math.prod(shape)
    buf = mmap.mmap(-1, dtype.itemsize * max(n, 1), flags=flags)
    return np.frombuffer(buf, dtype=dtype, count=n).reshape(shape)


def lane_draws(master: int, key: tuple[int, ...], lo: int, hi: int, n_steps: int,
               n_shocks: int, n_uniforms: int = 0,
               scheme: str = "gaussian") -> tuple[np.ndarray, np.ndarray]:
    """Paths ``lo..hi-1``'s draws, step-major so that one step's draws are
    contiguous: ``shocks[step, j]`` and ``uniforms[step, j]`` hold shock or
    uniform ``j`` of ``step`` for the ``n = hi - lo`` paths in order, in
    arrays of shape (n_steps, n_shocks, n) and (n_steps, n_uniforms, n).
    ``n_shocks`` is 2 for a stock and a variance shock per step, 1 for the
    variance shock alone (``mc_price``).  Shocks are float64 standard
    normals, or int8 signs of +-1 for ``binomial``; uniforms lie in [0, 1).

    The buffers span the whole lanes that hold ``lo..hi-1`` and come from
    ``os_array``.  Each lane draws all its paths' shocks in one call, path
    by path and step by step, then all its paths' uniforms in one call
    (none when ``n_uniforms`` is 0), each into a one-lane scratch that is
    copied transposed into the lane's columns; the arrays returned are
    views of columns ``lo..hi-1``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    first = lo // LANE
    rows = (-(-hi // LANE) - first) * LANE
    shocks = os_array((n_steps, n_shocks, rows), dtype=np.float64 if scheme == "gaussian" else np.int8)
    uniforms = os_array((n_steps, n_uniforms, rows))
    scratch = os_array((LANE * n_steps * max(n_shocks, n_uniforms),))
    for row in range(0, rows, LANE):
        rng = path_generator(master, *key, first + row // LANE)
        if scheme == "gaussian":
            z = rng.standard_normal(out=scratch[:LANE * n_steps * n_shocks].reshape(LANE, -1))
        else:  # binomial: signs
            z = rng.integers(0, 2, size=(LANE, n_steps * n_shocks), dtype=np.int8)
            z *= 2
            z -= 1
        shocks.reshape(-1, rows)[:, row:row + LANE] = z.T
        u = rng.random(out=scratch[:LANE * n_steps * n_uniforms].reshape(LANE, -1))
        uniforms.reshape(-1, rows)[:, row:row + LANE] = u.T
    paths = slice(lo - first * LANE, hi - first * LANE)
    return shocks[..., paths], uniforms[..., paths]


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
