"""Parameter derivative of the boundary conjugacy and its model function.

The derivative phi-dot of the landing points with respect to delta obeys a
one-step recursion under angle doubling.  Run backwards from the fixed
angle, it gives the whole table in one pass; unrolled along one orbit, it
gives a series whose terms are damped by the orbit derivative.  On deep
cylinders the partial sums (psi-dot) are approximated by the explicit
function Gamma(n*delta), where Gamma(z) = (e^z - z e^z - 1)/(e^z - 1)^2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import maps
from .boettcher import BoettcherTable, DyadicAngle, _at
from .errors import PoleError, ToleranceNotMetError

# g, Gamma and 1 + 2 Gamma take their series below this |z|, where the direct
# forms lose digits to cancellation and the series are exact to rounding
SERIES_THRESHOLD = 1e-2
POLE_GUARD = 1e-10
DERIV_STOP = 1e6
TWO_PI = 2.0 * np.pi


def g_fn(z: complex) -> complex:
    """g(z) = exp(-z) - 1 + z, series-evaluated near its double zero
    (``SERIES_THRESHOLD``): there the direct difference keeps fewer than 12
    significant digits even through expm1."""
    z = complex(z)
    if abs(z) < SERIES_THRESHOLD:
        # sum_{k>=2} (-z)^k/k! = z^2/2 - z^3/6 + z^4/24 - ...
        s = 0.0 + 0j
        term = 1.0 + 0j
        for k in range(1, 8):
            term *= -z / k
            if k >= 2:
                s += term
        return s
    return complex(np.expm1(-z)) + z


def _check_gamma_pole(z) -> None:
    """Reject any z within POLE_GUARD of a nonzero multiple of 2*pi*i."""
    k = np.rint(np.imag(z) / TWO_PI)
    near = (k != 0) & (np.abs(z - 2j * np.pi * k) < POLE_GUARD)
    if near.any():
        raise PoleError(f"Gamma pole at {2j * np.pi * int(k[near][0])}")


def one_plus_two_gamma(z):
    """(sinh z - z)/(cosh z - 1) = z/3 - z^3/90 + ..., evaluated stably, at
    a point z or an array of them."""
    z = np.asarray(z, dtype=complex)
    _check_gamma_pole(z)
    z2 = z * z
    # at z = 0 the direct form, which the series replaces, is 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(np.abs(z) < SERIES_THRESHOLD,
                     z / 3.0 - z * z2 / 90.0 + z * z2 * z2 / 2520.0,
                     (np.sinh(z) - z) / (np.cosh(z) - 1.0))
    return g if g.ndim else complex(g)


def gamma_fn(z):
    """Gamma(z) with Gamma(0) = -1/2; nonvanishing for Re z > 0. At a point
    z or an array of them: a point is evaluated as a one-element array, so
    it gets the bits it gets in any array (numpy scalars round some complex
    products and quotients otherwise)."""
    z = np.asarray(z, dtype=complex)
    _check_gamma_pole(z)
    x = z.reshape(-1)
    x2 = x * x
    # each branch is evaluated everywhere; where it is not taken it may
    # overflow or divide by zero
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # ((1-z) - e^{-z}) e^{-z} / (1 - e^{-z})^2: overflow-free on rays
        e = np.exp(-x)
        right = ((1.0 - x) - e) * e / (1.0 - e) ** 2
        e = np.exp(x)
        left = (e - x * e - 1.0) / (e - 1.0) ** 2
        g = np.where(np.abs(x) < SERIES_THRESHOLD,
                     -0.5 + x / 6.0 - x * x2 / 180.0 + x * x2 * x2 / 5040.0,
                     np.where(x.real > 0.5, right, left))
    return g.reshape(z.shape) if z.ndim else complex(g[0])


def uniform_draws(rand: random.Random, lo: float, hi: float, shape) -> np.ndarray:
    """An array of ``shape`` (an int or a tuple) of uniform draws on [lo, hi),
    up to the rounding of lo + (hi - lo) u. Each u in [0, 1) is the top 53
    bits of one 64-bit word of a single ``rand.randbytes`` call, so a batch
    needs no Python loop and no ``numpy.random``."""
    bits = np.frombuffer(rand.randbytes(8 * int(np.prod(shape))), dtype="<u8")
    u = (bits >> np.uint64(11)) * 2.0 ** -53
    return (lo + (hi - lo) * u).reshape(shape)


def sinh_z_minus_z_nonvanishing(radius: float = 2.0, samples: int = 10_000,
                                floor: float = 1e-3) -> bool:
    """Sampled check that |sinh z - z|/|z|^3 stays above ``floor`` on 0<|z|<=radius."""
    if radius > 2.0:
        raise ValueError("radius must be <= 2")
    rand = random.Random(0)
    r = radius * np.sqrt(uniform_draws(rand, 0.0, 1.0, samples))
    r = np.maximum(r, 1e-12)
    # include the boundary circle where the minimum is approached
    r[: samples // 10] = radius
    th = uniform_draws(rand, 0.0, TWO_PI, samples)
    z = r * np.exp(1j * th)
    vals = np.abs(np.sinh(z) - z) / np.abs(z) ** 3
    small = np.abs(z) < 1e-2
    if small.any():
        zs = z[small]
        vals[small] = np.abs(zs ** 3 / 6.0 + zs ** 5 / 120.0) / np.abs(zs) ** 3
    return bool(np.min(vals) > floor)


@dataclass(frozen=True)
class PhiDotResult:
    value: complex
    trunc_error: float


def phi_dot_series(delta: complex, table: BoettcherTable,
                   s: DyadicAngle) -> PhiDotResult:
    """Truncated series for the parameter derivative of the landing point at s.

    Terms are added until the orbit derivative exceeds 1e6, the table level
    is reached, or the orbit reaches the fixed angle 0.  In the last case the
    remaining terms form an exact geometric tail (the fixed point does not
    move with the parameter), so the reported truncation error is zero.
    """
    delta = complex(delta)
    if s.level > table.level:
        raise ValueError("angle finer than table")
    n = table.size
    idx = s.numerator << (table.level - s.level)
    if idx == 0:
        return PhiDotResult(0.0 + 0j, 0.0)
    acc = -0.5 + 0j
    deriv = 1.0 + 0j
    k = 0
    while k < table.level:
        deriv *= maps.evaluate_deriv(delta, _at(table.stored, idx, n))
        acc += (delta / 2.0) / deriv
        idx = (2 * idx) % n
        k += 1
        if idx == 0:
            if abs(delta) == 0 or abs(1.0 + delta) <= 1.0:
                break  # geometric tail not summable; report bound instead
            acc += 0.5 / deriv
            return PhiDotResult(acc, 0.0)
        if abs(deriv) > DERIV_STOP:
            break
    err = abs(delta / 2.0 + 0.5) / abs(deriv)
    return PhiDotResult(acc, float(err))


def phi_dot_table(delta: complex, table: BoettcherTable) -> np.ndarray:
    """phi-dot at the table's stored angles, from the semiconjugacy recursion.

    Differentiating f(points[k]) = points[2k mod n] in delta (df/ddelta = z)
    gives phi-dot[k] = (phi-dot[2k mod n] - points[k]) / f'(points[k]).  It
    starts at the fixed angle, whose point 0 does not move, and fills the
    odd multiples of 2^j for j = level-1 .. 0, each from the level before.
    On a mirrored table phi-dot commutes with conjugation bit for bit, so a
    doubled angle above 1/2 is read through the mirror (``_at``). Requires
    |1+delta| > 1, the domain of the series it sums exactly, and a table
    built at ``delta`` (else ValueError).
    """
    delta = table.require_delta(delta)
    if abs(1.0 + delta) <= 1.0:
        raise ValueError("needs a repelling fixed point: |1+delta| > 1")
    pts = table.stored
    n = table.size
    phi = np.zeros(len(pts), dtype=complex)
    for j in reversed(range(table.level)):
        k = np.arange(1 << j, len(pts), 2 << j)
        p = pts[k]
        phi[k] = (_at(phi, 2 * k % n, n) - p) / maps.evaluate_deriv(delta, p)
    return phi


@dataclass(frozen=True)
class PsiDotResult:
    value: complex
    agreement: float


def psi_dot(delta: complex, n: int, z: complex,
            agreement_tol: float = 1e-10) -> PsiDotResult:
    """Partial sums along the first n orbit steps of z, in both algebraic forms.

    Form one: -1/2 + sum_k (delta/2)/Df^k(z).  Form two trades the constant
    for orbit positions: -sum_k f^{k-1}(z)/Df^k(z) - (1/2)/Df^n(z).  The two
    must agree identically; disagreement beyond ``agreement_tol`` (relative)
    signals numerical breakdown and raises.
    """
    delta = complex(delta)
    zk = complex(z)
    deriv = 1.0 + 0j
    s1 = -0.5 + 0j
    s2 = 0.0 + 0j
    for _ in range(n):
        d = maps.evaluate_deriv(delta, zk)
        prev = zk
        deriv *= d
        s1 += (delta / 2.0) / deriv
        s2 -= prev / deriv
        zk = maps.evaluate(delta, zk)
    s2 -= 0.5 / deriv
    scale = max(abs(s1), abs(s2), 1e-300)
    agreement = abs(s1 - s2) / scale
    if agreement > agreement_tol:
        raise ToleranceNotMetError(
            f"psi-dot forms disagree by {agreement} at n={n}, z={z}")
    return PsiDotResult(s1, agreement)
