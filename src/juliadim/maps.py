"""The family f_delta, the eps <-> delta map and membership tests.

``f_delta(z) = (1+delta)*z + z**2`` has fixed points 0 and -delta with
multipliers 1+delta and 1-delta.  The library evaluates only f_delta; the
shifted standard family ``p_eps(z) = z**2 + 1/4 + eps``, which the
similarity ``tau(z) = z + (1+delta)/2`` conjugates to f_delta exactly when
eps = -delta**2/4, enters only through ``delta_from_epsilon``.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousBranchError

ESCAPE_RADIUS = 4.0
MAX_ITER_DEFAULT = 10_000
AMBIGUITY_RTOL = 1e-12


def delta_from_epsilon(epsilon: complex) -> complex:
    """Inverse of the eps map eps = -delta**2/4, picking the root with
    Re(delta) >= 0, and Im(delta) >= 0 on the imaginary axis."""
    delta = 2.0 * np.sqrt(complex(-epsilon))
    if delta.real < 0 or (delta.real == 0 and delta.imag < 0):
        delta = -delta
    return complex(delta)


def evaluate(delta: complex, z):
    """Value of f_delta at z (scalar or array)."""
    return (1.0 + delta) * z + z * z


def evaluate_deriv(delta: complex, z):
    """First derivative of f_delta at z."""
    return (1.0 + delta) + 2.0 * z


def critical_point(delta: complex) -> complex:
    return -(1.0 + delta) / 2.0


def inverse_branch(delta: complex, z: complex, hint: complex) -> complex:
    """The preimage of z under the map that lies closest to ``hint``.

    Raises AmbiguousBranchError when both preimages are equidistant from
    the hint to within ``AMBIGUITY_RTOL`` relative tolerance, in which case
    the caller must supply a sharper hint.
    """
    w1, w2 = preimage_pair(delta, z)
    d1, d2 = abs(w1 - hint), abs(w2 - hint)
    scale = max(d1, d2)
    if scale > 0 and abs(d1 - d2) <= AMBIGUITY_RTOL * scale:
        raise AmbiguousBranchError(
            f"preimages of {z} equidistant from hint {hint}")
    return w1 if d1 <= d2 else w2


def preimage_pair(delta: complex, z):
    """Both solutions w of f_delta(w) = z (vectorized over z)."""
    h = 1.0 + delta
    r = np.sqrt(np.asarray(h * h / 4.0 + z, dtype=complex))
    return -h / 2.0 + r, -h / 2.0 - r


def inverse_branch_array(delta: complex, z, hint):
    """Vectorized hint-nearest preimage; no ambiguity detection."""
    w1, w2 = preimage_pair(delta, z)
    return np.where(np.abs(w1 - hint) <= np.abs(w2 - hint), w1, w2)


def in_mandelbrot(delta: complex, max_iter: int = MAX_ITER_DEFAULT) -> bool:
    """True iff the critical orbit of f_delta stays bounded for max_iter steps.

    The orbit is iterated in the p_eps normalization (critical point 0),
    where |z| > ESCAPE_RADIUS = 4 certifies escape.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    c = 0.25 - complex(delta) ** 2 / 4.0
    z = 0.0j
    r2 = ESCAPE_RADIUS * ESCAPE_RADIUS
    for _ in range(max_iter):
        z = z * z + c
        if (z.real * z.real + z.imag * z.imag) > r2:
            return False
    return True


def in_mandelbrot_grid(deltas, max_iter: int = MAX_ITER_DEFAULT) -> np.ndarray:
    """``in_mandelbrot`` of every delta, one escape-time loop for all.

    Bit-identical to the scalar routine: c comes from the same scalar
    expression, and the orbit runs on split float64 arrays in the order of
    Python's complex product (numpy complex arithmetic is not bit-identical
    to it, which would flip boundary points).  Escaped points leave the
    active set at once, so no orbit is iterated past its escape.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    c = np.array([0.25 - complex(d) ** 2 / 4.0 for d in deltas], dtype=complex)
    inside = np.ones(c.size, dtype=bool)
    active = np.arange(c.size)
    cr, ci = c.real.copy(), c.imag.copy()
    zr, zi = np.zeros(c.size), np.zeros(c.size)
    r2 = ESCAPE_RADIUS * ESCAPE_RADIUS
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if active.size == 0:
                break
            zr, zi = zr * zr - zi * zi + cr, zr * zi + zi * zr + ci
            escaped = zr * zr + zi * zi > r2
            if escaped.any():
                inside[active[escaped]] = False
                keep = ~escaped
                active, zr, zi, cr, ci = (active[keep], zr[keep], zi[keep],
                                          cr[keep], ci[keep])
    return inside


def in_main_disk(delta: complex) -> bool:
    """True iff delta lies in B(1,1), where -delta is attracting."""
    return abs(delta - 1.0) < 1.0
