"""Saving and loading model parameters.

Modules are persisted to one ``.npz`` archive of the program's column
container (:mod:`repro.utils.columns`), keyed by the dotted parameter names
returned by :meth:`repro.nn.layers.Module.named_parameters`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.nn.layers import Module
from repro.utils.columns import read_columns, write_columns


def state_dict(module: Module) -> dict[str, np.ndarray]:
    """Collect a copy of every named parameter's values."""
    return {name: parameter.data.copy() for name, parameter in module.named_parameters()}


def load_state_dict(module: Module, state: dict[str, np.ndarray], strict: bool = True) -> list[str]:
    """Load values into a module's parameters by name.

    Returns the list of parameter names present in the module but missing
    from ``state`` (empty when ``strict`` and nothing is missing; raises
    otherwise).
    """
    missing: list[str] = []
    for name, parameter in module.named_parameters():
        if name not in state:
            missing.append(name)
            continue
        values = state[name]
        if values.shape != parameter.data.shape:
            raise ValueError(
                f"shape mismatch for {name}: saved {values.shape}, expected {parameter.data.shape}"
            )
        # Adopt the stored array (dtype included): a float32-trained model
        # must reproduce its predictions exactly after a round trip, not
        # recompute them through upcast float64 weights.
        parameter.data = values.copy()
    if strict:
        extra = set(state) - {name for name, _ in module.named_parameters()}
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={sorted(extra)}")
    return missing


# -- multi-module archives ---------------------------------------------------------

_NAMESPACE_SEPARATOR = "//"


def save_modules(path: Union[str, Path], **modules: Module) -> Path:
    """Serialize several named modules into one ``.npz`` archive.

    Parameter keys are namespaced as ``"<module name>//<parameter name>"`` so
    an encoder and any loss heads can share a single file.  Used by pipeline
    persistence.  The archive is written atomically at exactly ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    combined: dict[str, np.ndarray] = {}
    for module_name, module in modules.items():
        for parameter_name, values in state_dict(module).items():
            combined[f"{module_name}{_NAMESPACE_SEPARATOR}{parameter_name}"] = values
    return write_columns(path, combined, raw=False)


def load_modules(path: Union[str, Path], strict: bool = True, **modules: Module) -> dict[str, list[str]]:
    """Load an archive written by :func:`save_modules` into the given modules.

    Returns the missing-parameter lists per module (see
    :func:`load_state_dict`).  Unknown module namespaces in the archive are an
    error under ``strict``; an unreadable archive raises
    :class:`~repro.utils.columns.PayloadError`.
    """
    state = read_columns(path)
    grouped: dict[str, dict[str, np.ndarray]] = {}
    for key, values in state.items():
        module_name, _, parameter_name = key.partition(_NAMESPACE_SEPARATOR)
        grouped.setdefault(module_name, {})[parameter_name] = values
    if strict:
        unknown = set(grouped) - set(modules)
        if unknown:
            raise KeyError(f"archive contains modules not being loaded: {sorted(unknown)}")
    missing: dict[str, list[str]] = {}
    for module_name, module in modules.items():
        missing[module_name] = load_state_dict(module, grouped.get(module_name, {}), strict=strict)
    return missing
