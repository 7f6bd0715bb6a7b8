"""Enumeration backend selection: compiled extension if built, else pure
Python; and the reflection encoding every kernel takes.

Only tuple enumeration has two backends.  The DP over colored cycle types
always runs `reflfact._kernels_pure.dp_total` / `dp_refined`.  Set
REFLFACT_BACKEND=pure (or =compiled) to force a choice; the default
prefers the compiled extension when it imported cleanly.
"""

from __future__ import annotations

import os

from . import _kernels_pure
from .errors import ValidationError
from .groups import GroupParams, reflections

try:
    from . import _ckernels as _compiled
except ImportError:
    _compiled = None


def available_backends() -> list[str]:
    names = ["pure"]
    if _compiled is not None:
        names.append("compiled")
    return names


def default_backend_name() -> str:
    forced = os.environ.get("REFLFACT_BACKEND")
    if forced:
        if forced not in available_backends():
            raise ValidationError(f"backend {forced!r} not available")
        return forced
    return "compiled" if _compiled is not None else "pure"


def get_backend(name: str | None = None):
    name = name or default_backend_name()
    if name == "pure":
        return _kernels_pure
    if name == "compiled":
        if _compiled is None:
            raise ValidationError("compiled kernels were not built")
        return _compiled
    raise ValidationError(f"unknown backend {name!r}")


def encode_reflections(params: GroupParams) -> list[tuple[int, int, int, int]]:
    """Reflections in canonical order as (is_diag, a, b, k), 0-based."""
    return [
        (1 if ref.is_diagonal else 0, ref.i - 1, ref.j - 1, ref.k)
        for ref in reflections(params)
    ]
