"""Deterministic stream splitting for seeded Monte Carlo.

All randomness in the library flows from a single master seed.  Paths are
grouped into fixed-width lanes: path ``i`` is row ``i % LANE`` of lane
``i // LANE``.  Each lane owns one generator for its shocks, derived from
``(master, *key, 0, lane)``, and one for its uniforms, from ``(master, *key,
1, lane)``, where ``key`` names the source of randomness (a stream, plus a
fixed node 0 for the functional oracle).  Each generator draws its lane's
``LANE`` paths step by step, so a path's draws depend only on ``(master,
key, i)``: not on the ensemble size, the block layout or how the steps are
split into chunks.

``map_blocks`` is the only code that splits paths into blocks; it runs them
in index order on the calling thread.
"""

from __future__ import annotations

import math
import mmap

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
STEP_CHUNK = 25  # steps per draw chunk, unless a caller asks for another

SCHEMES = ("binomial", "gaussian")


def path_generator(master: int, *key: int) -> np.random.Generator:
    """The generator of one lane's shocks or uniforms:
    ``path_generator(master, *key, 0 or 1, lane)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=key))


def os_array(shape) -> np.ndarray:
    """Uninitialised float64 array on pages mapped from the OS up front,
    unmapped when freed.  Large freed ``malloc`` buffers raise glibc's mmap
    threshold, later ones then land on the heap, and peak memory varies with
    its fragmentation from run to run."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    n = math.prod(shape)
    buf = mmap.mmap(-1, 8 * max(n, 1), flags=flags)
    return np.frombuffer(buf, dtype=np.float64, count=n).reshape(shape)


def _lane_chunk(rngs, n_lanes: int, k: int, width: int, kind: str) -> np.ndarray:
    """The next ``k`` steps of ``width`` draws from each lane generator, as a
    ``(k, width, n_lanes * LANE)`` array: gaussian shocks, binomial signs or
    uniforms.  Each lane draws ``(k, width, LANE)`` values in one call."""
    lanes = np.empty((n_lanes, k, width, LANE), dtype=np.int8 if kind == "binomial" else np.float64)
    for out, rng in zip(lanes, rngs):
        if kind == "gaussian":
            rng.standard_normal(out=out)
        elif kind == "binomial":
            out[...] = rng.integers(0, 2, size=out.shape, dtype=np.int8)
        else:
            rng.random(out=out)
    if kind == "binomial":
        lanes *= 2
        lanes -= 1
    return lanes.transpose(1, 2, 0, 3).reshape(k, width, n_lanes * LANE)


def lane_draws(master: int, key: tuple[int, ...], lo: int, hi: int, n_steps: int,
               n_shocks: int, n_uniforms: int = 0, scheme: str = "gaussian",
               chunk: int = STEP_CHUNK):
    """Paths ``lo..hi-1``'s draws, ``chunk`` steps at a time (the last chunk
    may be shorter): an iterator of ``(shocks, uniforms)`` pairs of shape
    ``(k, n_shocks, n)`` and ``(k, n_uniforms, n)``, ``n = hi - lo``, whose
    ``shocks[r, j]`` and ``uniforms[r, j]`` hold shock or uniform ``j`` of the
    chunk's step ``r`` for the paths in order.  ``n_shocks`` is 2 for a stock
    and a variance shock per step, 1 for the variance shock alone
    (``mc_price``).  Shocks are float64 standard normals, or int8 signs of
    +-1 for ``binomial``; uniforms lie in [0, 1).

    The generators of the whole lanes that hold ``lo..hi-1`` are built
    before the first chunk (no uniform generators when ``n_uniforms`` is 0).
    Each generator draws its lane's paths step by step, so the values do not
    depend on ``chunk``; binomial signs are drawn 32 bits at a time, and each
    call draws ``k * n_shocks * LANE`` of them, a multiple of 4.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    lanes = range(lo // LANE, -(-hi // LANE))
    shock_rngs = [path_generator(master, *key, 0, lane) for lane in lanes]
    uniform_rngs = [path_generator(master, *key, 1, lane) for lane in lanes] if n_uniforms else []
    paths = slice(lo - lanes.start * LANE, hi - lanes.start * LANE)
    for a in range(0, n_steps, chunk):
        k = min(chunk, n_steps - a)
        yield (_lane_chunk(shock_rngs, len(lanes), k, n_shocks, scheme)[..., paths],
               _lane_chunk(uniform_rngs, len(lanes), k, n_uniforms, "uniform")[..., paths])


def map_blocks(n: int, fn, block: int = DEFAULT_BLOCK) -> list:
    """``[fn(lo, hi) for each block]``: the blocks split ``range(n)`` into
    contiguous runs of ``block`` paths (the last may be shorter) and run in
    index order on the calling thread.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return [fn(lo, min(lo + block, n)) for lo in range(0, n, block)]
