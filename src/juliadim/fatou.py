"""Near-translation coordinates around the (almost) parabolic fixed points.

psi(delta, w) = delta / (exp(-w*delta) - 1) linearizes f_delta(z) = z + z*(z+delta)
approximately: in the w-plane the map acts like translation by one.  At
delta = 0 the coordinates degenerate to psi = -1/w, phi = -1/z.  All
evaluations switch to series below |w*delta| = 1e-4 where direct
expressions lose digits to cancellation (numpy's complex log1p is itself
inaccurate for small arguments, so we carry our own).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import maps
from .errors import BranchCutError, PoleError, WrongBranchError

SERIES_THRESHOLD = 1e-4
POLE_TOLERANCE = 1e-12
TWO_PI = 2.0 * np.pi


def _fold_arg(z: complex) -> float:
    """Argument normalized into [-pi/2, 3*pi/2)."""
    a = cmath.phase(z)
    if a < -np.pi / 2.0:
        a += TWO_PI
    return a


def _check_pole(delta: complex, w: complex) -> complex:
    """Reject w*delta within POLE_TOLERANCE of a nonzero multiple of 2*pi*i."""
    x = complex(w) * complex(delta)
    k = round(x.imag / TWO_PI)
    if k != 0 and abs(x - 2j * np.pi * k) < POLE_TOLERANCE:
        raise PoleError(f"w*delta = {x} too close to {2j*np.pi*k}")
    return x


def _expm1_ratio(x: complex) -> complex:
    """(exp(-x) - 1)/(-x), 6-term series below the cancellation threshold."""
    if abs(x) < SERIES_THRESHOLD:
        s = 1.0
        term = 1.0
        for k in range(1, 7):
            term *= -x / (k + 1)
            s += term
        return s
    return np.expm1(-x) / (-x)


def _log1p(u: complex) -> complex:
    """Principal log(1+u), series for small |u|."""
    if abs(u) < SERIES_THRESHOLD:
        s = 0.0
        term = -1.0
        for k in range(1, 8):
            term *= -u
            s += term / k
        return s
    return complex(np.log(1.0 + u))


def psi(delta: complex, w: complex) -> complex:
    """Coordinate change from the translation plane to the dynamical plane."""
    delta = complex(delta)
    w = complex(w)
    if delta == 0:
        if w == 0:
            raise PoleError("psi undefined at w=0 for delta=0")
        return -1.0 / w
    x = _check_pole(delta, w)
    if x == 0:
        raise PoleError("psi undefined at w=0")
    # delta/(e^{-x}-1) = -(1/w) / ((e^{-x}-1)/(-x))
    return -(1.0 / w) / _expm1_ratio(x)


def phi_fatou(delta: complex, z: complex) -> complex:
    """Inverse of psi on the principal strip |Im(w*delta)| < pi.

    Uses the logarithm branch that is real on the positive reals; inputs
    whose log argument falls on the cut (-inf, 0] are rejected rather than
    silently moved to another sheet.
    """
    delta = complex(delta)
    z = complex(z)
    if z == 0:
        raise BranchCutError("phi undefined at z=0")
    if delta == 0:
        return -1.0 / z
    if z == -delta:
        raise BranchCutError("phi undefined at z=-delta")
    u = -delta / (z + delta)
    # log argument is 1 + u = z/(z+delta); the product form avoids the
    # cancellation of 1 + u when |z| << |delta|
    arg = z / (z + delta)
    if arg == 0 or (arg.real < 0.0 and
                    abs(arg.imag) <= POLE_TOLERANCE * abs(arg.real)):
        raise BranchCutError(f"log argument {arg} on the cut")
    if abs(u) < 0.5:
        return _log1p(u) / delta
    return complex(np.log(arg)) / delta


def psi_prime(delta: complex, w: complex) -> complex:
    """Derivative of psi; equals (delta/2 / sinh(w*delta/2))**2."""
    delta = complex(delta)
    w = complex(w)
    if delta == 0:
        if w == 0:
            raise PoleError("psi' undefined at w=0 for delta=0")
        return 1.0 / (w * w)
    x = _check_pole(delta, w)
    if x == 0:
        raise PoleError("psi' undefined at w=0")
    if abs(x) < SERIES_THRESHOLD:
        # (y/sinh y)^2 / w^2 with y = x/2; sinh(y)/y = 1 + y^2/6 + y^4/120 + ...
        y2 = x * x / 4.0
        ratio = 1.0 + y2 / 6.0 + y2 * y2 / 120.0 + y2 * y2 * y2 / 5040.0
        return (1.0 / (w * w)) / (ratio * ratio)
    s = np.sinh(x / 2.0)
    return (delta / 2.0 / s) ** 2


class Direction(enum.Enum):
    FWD = 1
    BWD = -1


def fatou_step(delta: complex, w: complex, direction: Direction) -> complex:
    """One step of the conjugated dynamics: phi o f^(+-1) o psi.

    FWD composes with f_delta (w moves by about +1), BWD with the inverse
    branch fixing the fixed points 0 and -delta (w moves by about -1).
    """
    z = psi(delta, w)
    if direction is Direction.FWD:
        z2 = maps.evaluate(delta, z)
    else:
        delta = complex(delta)
        if delta != 0 and (1.0 - delta).real <= 0:
            # principal sqrt no longer fixes -delta out there
            raise WrongBranchError("inverse branch untracked for Re(delta) >= 1")
        h = 1.0 + delta
        disc = h * h / 4.0 + z
        if abs(disc) < 1e-14:
            raise WrongBranchError("image at the critical value")
        z2 = -h / 2.0 + np.sqrt(np.complex128(disc))
    return phi_fatou(delta, complex(z2))


@dataclass(frozen=True)
class Sector:
    """Sector S^+(theta, r) around R+ or S^-(theta, r) around R-.

    With ``cutoff`` set, membership additionally requires |Re z| > cutoff.
    """

    PLUS = "plus"
    MINUS = "minus"

    kind: str
    theta: float
    r: float = np.inf
    cutoff: float | None = None


def sector_contains(s: Sector, z: complex) -> bool:
    z = complex(z)
    if z == 0:
        return False
    if abs(z) >= s.r:
        return False
    a = _fold_arg(z)
    center = 0.0 if s.kind == Sector.PLUS else np.pi
    if abs(a - center) >= s.theta:
        return False
    if s.cutoff is not None and abs(z.real) <= s.cutoff:
        return False
    return True


def w_region_contains(alpha: float, z: complex) -> bool:
    """Membership in the wedge W_alpha = {|arg z| < |alpha|, Re z > cut}.

    The real-part cut is 1/4 for |alpha| <= pi/4 and cot|alpha|/4 beyond.
    """
    alpha = abs(float(alpha))
    if not 0.0 < alpha < np.pi / 2.0:
        raise ValueError("alpha must lie in (-pi/2, pi/2) excluding 0")
    z = complex(z)
    if z == 0:
        return False
    if abs(cmath.phase(z)) >= alpha:
        return False
    cut = 0.25 if alpha <= np.pi / 4.0 else 0.25 / math.tan(alpha)
    return z.real > cut
