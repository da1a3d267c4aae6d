"""Build preference models from JSON descriptions.

The CLI reads models from files; tests and embedders can call
:func:`model_from_spec` on a plain dict.  Every description carries a
``kind`` plus kind-specific fields, and optionally ``eps_pref``:

    {"kind": "expected_utility", "u": [0.0, 0.4, 1.0]}
    {"kind": "weighted_utility", "u": [...], "w": [...]}
    {"kind": "disappointment_aversion", "u": [...], "beta": 1.0}
    {"kind": "implicit_kernel", "t_grid": [0.0, 0.5, 1.0],
     "phi": [[...], [...], [...]]}

Planted counterexample oracles are addressable too, so the checker CLI
can be pointed at known-bad preferences:

    {"kind": "cyclic_oracle"}
    {"kind": "jump", "threshold": 0.5, "drop": 0.2}
    {"kind": "quadratic", "matrix": [[...], ...]}
"""

from __future__ import annotations

import json
import sys

from .fixtures import cyclic_oracle, jump_oracle, quadratic_oracle
from .models import (
    DEFAULT_EPS_PREF,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    PreferenceModel,
    WeightedUtility,
)

KINDS = (
    "expected_utility",
    "weighted_utility",
    "disappointment_aversion",
    "implicit_kernel",
    "cyclic_oracle",
    "jump",
    "quadratic",
)


_REQUIRED = object()


def _is_numbers(value, array: bool) -> bool:
    """Whether ``value`` is a finite number, or a list of them (nested) if ``array``."""
    if array:
        return isinstance(value, list) and all(_is_numbers(v, isinstance(v, list)) for v in value)
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _field(spec: dict, key: str, kind: str, default=_REQUIRED, array: bool = False):
    """Field ``key``, or ``default`` when absent.

    A JSON boolean, null, string or object where numbers belong raises
    ``ValueError`` naming the field: Python would read ``true`` as 1 and
    fail on the others with a ``TypeError``.
    """
    if key not in spec:
        if default is _REQUIRED:
            raise ValueError(f"model kind {kind!r} requires field {key!r}")
        return default
    if not _is_numbers(spec[key], array):
        what = "an array of numbers" if array else "a finite number"
        raise ValueError(f"field {key!r} must be {what}, got {spec[key]!r}")
    return spec[key]


def model_from_spec(spec: dict) -> PreferenceModel:
    """Instantiate the model a JSON-style dict describes."""
    if not isinstance(spec, dict):
        raise ValueError(f"model description must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {', '.join(KINDS)}")
    eps_pref = _field(spec, "eps_pref", kind, DEFAULT_EPS_PREF)

    def arrays(*keys):
        return [_field(spec, key, kind, array=True) for key in keys]

    if kind == "expected_utility":
        return ExpectedUtility(*arrays("u"), eps_pref)
    if kind == "weighted_utility":
        return WeightedUtility(*arrays("u", "w"), eps_pref)
    if kind == "disappointment_aversion":
        return DisappointmentAversion(*arrays("u"), _field(spec, "beta", kind), eps_pref)
    if kind == "implicit_kernel":
        return ImplicitKernel(*arrays("t_grid", "phi"), eps_pref)
    if kind == "cyclic_oracle":
        return cyclic_oracle(eps_pref)
    if kind == "jump":
        return jump_oracle(
            _field(spec, "threshold", kind, 0.5), _field(spec, "drop", kind, 0.2), eps_pref
        )
    return quadratic_oracle(_field(spec, "matrix", kind, None, array=True), eps_pref)


def load_model(path: str) -> PreferenceModel:
    """Read a JSON model description from ``path`` and instantiate it."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return model_from_spec(spec)
