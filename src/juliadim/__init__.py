"""Dimension of quadratic Julia set boundaries near the parabolic parameter.

The library computes the Hausdorff dimension of the boundary curves of
f_delta(z) = (1+delta)z + z^2 via weighted transfer operators on the
angle-doubling circle model, evaluates the singular integrals governing the
dimension's directional derivative at delta = 0, and ships a CLI for ray
scans, constant fitting, and property-suite verification.
"""

__version__ = "0.1.0"

from .boettcher import BoettcherTable, DyadicAngle, build_table  # noqa: F401
from .maps import delta_from_epsilon, in_main_disk, in_mandelbrot  # noqa: F401
from .quadrature import QuadratureSpec, delta_alpha, find_theta0, omega  # noqa: F401
from .transfer import (DimensionResult, EquilibriumWeights,  # noqa: F401
                       equilibrium, hausdorff_dim, pressure)
