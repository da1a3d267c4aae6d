"""Build preference models from JSON descriptions.

The CLI reads models from files; tests and embedders can call
:func:`model_from_spec` on a plain dict.  Every description carries a
``kind`` plus kind-specific fields, and optionally ``eps_pref``; any
other field raises ``ValueError`` naming it:

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

The fields of ``jump`` and ``quadratic`` are optional; the default matrix
is ``[[0, 1, 0], [1, 0, 0], [0, 0, 1]]``.
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

_REQUIRED = object()

#: Each kind's constructor, and its fields in argument order as
#: ``(name, default, array)``; ``eps_pref`` follows them as the last argument.
KINDS = {
    "expected_utility": (ExpectedUtility, (("u", _REQUIRED, True),)),
    "weighted_utility": (WeightedUtility, (("u", _REQUIRED, True), ("w", _REQUIRED, True))),
    "disappointment_aversion": (
        DisappointmentAversion, (("u", _REQUIRED, True), ("beta", _REQUIRED, False))
    ),
    "implicit_kernel": (
        ImplicitKernel, (("t_grid", _REQUIRED, True), ("phi", _REQUIRED, True))
    ),
    "cyclic_oracle": (cyclic_oracle, ()),
    "jump": (jump_oracle, (("threshold", 0.5, False), ("drop", 0.2, False))),
    "quadratic": (quadratic_oracle, (("matrix", None, True),)),
}


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
    """Instantiate the model a JSON-style dict describes.

    A field that is neither ``kind``, ``eps_pref`` nor one of the kind's
    own raises ``ValueError`` naming it, so a misspelt field is not
    silently replaced by its default.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"model description must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {', '.join(KINDS)}")
    build, fields = KINDS[kind]
    known = ["kind", "eps_pref", *(name for name, _, _ in fields)]
    for key in spec:
        if key not in known:
            raise ValueError(
                f"model kind {kind!r} has no field {key!r}; its fields are {', '.join(known)}"
            )
    eps_pref = _field(spec, "eps_pref", kind, DEFAULT_EPS_PREF)
    args = [_field(spec, name, kind, default, array) for name, default, array in fields]
    return build(*args, eps_pref)


def load_model(path: str) -> PreferenceModel:
    """Read a JSON model description from ``path`` and instantiate it."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return model_from_spec(spec)
