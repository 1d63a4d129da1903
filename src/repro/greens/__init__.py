"""Scalar Green's functions: free-space, doubly-periodic (Ewald), 1D-periodic.

These are the computational substrate of the SWM boundary-element solvers.
All lengths are dimensionless; the SWM layer feeds micrometer-scaled
geometry so that kernel magnitudes stay O(1).
"""

from .ewald import (
    EwaldConfig,
    periodic_green,
    periodic_green_and_gradient,
    periodic_green_direct,
)
from .freespace import (
    green2d,
    green2d_and_gradient,
    green3d,
    green3d_radial_derivative,
)
from .periodic2d import (
    periodic_green2d,
    periodic_green2d_direct,
    periodic_green2d_gradient,
    periodic_green2d_pair,
)
from .special import erfc_complex

__all__ = [
    "EwaldConfig",
    "erfc_complex",
    "green2d",
    "green2d_and_gradient",
    "green3d",
    "green3d_radial_derivative",
    "periodic_green",
    "periodic_green_and_gradient",
    "periodic_green_direct",
    "periodic_green2d",
    "periodic_green2d_direct",
    "periodic_green2d_gradient",
    "periodic_green2d_pair",
]
