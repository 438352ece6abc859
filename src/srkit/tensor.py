"""Dense NCHW tensor conventions and shape validation.

Feature maps are plain numpy arrays of shape ``(n, c, h, w)`` with dtype
float32, stored row-major, so the flat data order is batch, then channel,
then row, then column. Production code stays in float32 end to end;
float64 appears only inside finite-difference oracles, which rerun the
same (dtype-preserving) ops on upcast copies.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

AXIS_NAMES = ("batch", "channel", "height", "width")


def check_nchw(x: np.ndarray, name: str = "x") -> tuple[int, int, int, int]:
    """Validate a rank-4 feature map and return its (n, c, h, w) extents."""
    if x.ndim != 4:
        raise DimensionError(f"{name} must be rank 4 (n,c,h,w), got rank {x.ndim}")
    for axis, extent in enumerate(x.shape):
        if extent < 1:
            raise DimensionError(f"{name} has empty {AXIS_NAMES[axis]} axis")
    return x.shape


def check_axis(actual: int, expected: int, axis: str, name: str = "x") -> None:
    if actual != expected:
        raise DimensionError(f"{name}: {axis} axis is {actual}, expected {expected}")


def check_shape(actual: tuple, expected: tuple, name: str = "grad_out") -> None:
    if actual != expected:
        raise DimensionError(f"{name}: shape is {actual}, expected {expected}")
