"""Process-wide default floating dtype of the nn substrate.

The autograd engine historically pinned every array to ``float64``.  The
speed experiment (Sec. 6.1) does not need double precision — training in
``float32`` halves memory traffic and roughly doubles BLAS/transcendental
throughput on CPU — but the reproduction's exactness tests do: every
training mode must replay the recorded float64 loss trajectory.

This module therefore makes the dtype a configuration instead of a constant:

* :func:`get_default_dtype` / :func:`set_default_dtype` control the dtype
  used when tensors, parameters and gradient buffers are materialised from
  non-float data (the library default stays ``float64`` so existing numeric
  tests keep their historical precision);
* :func:`default_dtype` scopes a change to a ``with`` block;
* :func:`resolve_dtype` normalises user-facing spellings (``"float32"``,
  ``np.float32``, ``None`` for "current default") and rejects anything that
  is not a supported floating dtype.

Training code (``repro.core.trainer``) selects its dtype per run via
``TrainingConfig.dtype`` and casts the model with
:meth:`repro.nn.layers.Module.to_dtype`, so two trainers with different
dtypes can coexist in one process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

DTypeLike = Union[str, np.dtype, type, None]

#: The floating dtypes the substrate supports.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_default_dtype = np.dtype(np.float64)


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalise ``dtype`` to a supported ``np.dtype``; ``None`` → current default."""
    if dtype is None:
        return _default_dtype
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(f"unsupported dtype {resolved.name!r}; expected one of: {supported}")
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype new tensors and parameters are created with."""
    return _default_dtype


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the default dtype; returns the previous default (for restoring)."""
    global _default_dtype
    previous = _default_dtype
    _default_dtype = resolve_dtype(dtype)
    return previous


@contextmanager
def default_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Temporarily switch the default dtype within a ``with`` block."""
    previous = set_default_dtype(dtype)
    try:
        yield _default_dtype
    finally:
        set_default_dtype(previous)


def is_float_array(value: object) -> bool:
    """Whether ``value`` is an ndarray of a supported floating dtype."""
    return isinstance(value, np.ndarray) and value.dtype in SUPPORTED_DTYPES
