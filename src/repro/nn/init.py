"""Weight initialisation schemes for the neural substrate.

All initialisers draw in float64 (so the sampled values are identical no
matter which dtype is configured) and then cast to the default dtype from
:mod:`repro.nn.dtype` — a no-op when the default is float64, which keeps
historical float64 runs byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import get_default_dtype
from repro.utils.rng import SeededRNG


def glorot_uniform(rng: SeededRNG, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a ``(fan_in, fan_out)`` matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    values = rng.np.uniform(-limit, limit, size=(fan_in, fan_out))
    return np.asarray(values, dtype=get_default_dtype())


def normal_scaled(rng: SeededRNG, shape: tuple[int, ...], scale: float = 0.1) -> np.ndarray:
    """Small-scale Gaussian initialisation, used for embedding tables."""
    return np.asarray(rng.np.normal(0.0, scale, size=shape), dtype=get_default_dtype())


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=get_default_dtype())
