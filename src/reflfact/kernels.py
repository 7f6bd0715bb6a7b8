"""The reflection encoding every kernel takes, and the name of the one
kernel backend.

All kernels are pure Python (`reflfact._kernels_pure`): the class DP for
total and refined counts and the DP over orbits of component-partition
states for connected counts.
"""

from __future__ import annotations

from .groups import GroupParams, reflections


def default_backend_name() -> str:
    """Always "pure": there is no other backend."""
    return "pure"


def encode_reflections(params: GroupParams) -> list[tuple[int, int, int, int]]:
    """Reflections in canonical order as (is_diag, a, b, k), 0-based."""
    return [
        (1 if ref.is_diagonal else 0, ref.i - 1, ref.j - 1, ref.k)
        for ref in reflections(params)
    ]
