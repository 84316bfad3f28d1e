"""Seedable random-number helpers.

Every stochastic component of the library (measurement noise, simulated
annealing, the genetic algorithm, Latin-hypercube sampling...) accepts either
an integer seed or a ready-made :class:`numpy.random.Generator`.  Routing
everything through :func:`ensure_rng` keeps the whole reproduction
deterministic: the benchmark harness fixes one seed and every run of it
produces identical tables.
"""

from __future__ import annotations

import operator
from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh unpredictable generator), an ``int`` seed, or an
        existing generator (returned unchanged so that callers can thread a
        single stream through several components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> "list[np.random.Generator]":
    """Split ``rng`` into ``n`` independent child generators.

    Used when a driver (e.g. the DSE campaign) hands independent noise
    streams to parallel simulation runs so that run ``i`` is reproducible
    regardless of how many runs execute before it.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(base_seed: Optional[int], *components: int) -> int:
    """Derive a deterministic child seed from a base seed and index tuple.

    A small splitmix-style hash; good enough to decorrelate streams while
    remaining stable across platforms and Python versions.
    """
    state = (0 if base_seed is None else int(base_seed)) & 0xFFFFFFFFFFFFFFFF
    for comp in components:
        state = (state ^ (int(comp) & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        state = z ^ (z >> 31)
    return int(state & 0x7FFFFFFFFFFFFFFF)


def seed_base(seed: SeedLike) -> int:
    """The integer a family expansion derives its seeds from: ``None``
    is 0, any integer (NumPy's too) itself, a generator one draw."""
    if seed is None:
        return 0
    try:
        return operator.index(seed)
    except TypeError:
        return int(ensure_rng(seed).integers(0, 2**31 - 1))
