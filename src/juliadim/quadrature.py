"""Singular integrals controlling the dimension's directional derivative.

The master integrand behaves like x^(2-2*d0) at zero (integrable because
d0 < 3/2) and decays like x*exp(-d0*x); the near-zero subtraction
x*sinh(x) + q*x*sin(q*x) - 2*(cosh(x) - cos(q*x)) cancels to fourth order
and is therefore evaluated by its even power series.  Adaptive
Gauss-Kronrod handles both panels after the power substitution
u = x^(3-2*d0) flattens the endpoint singularity.  The rule is QUADPACK's
21-point one, run on numpy arrays: every round evaluates all live panels of
all integrals in one call of a vectorised integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidDimensionError, NoSignChangeError,
                     ToleranceNotMetError)
from .perturbation import one_plus_two_gamma

NEAR_ZERO_CROSSOVER = 1e-2
X_MAX_CAP = 200.0
MAX_SUBDIVISIONS = 200   # panels per integral in ``_gk21``
THETA0_XTOL = 1e-6       # bracket width at which ``find_theta0`` stops
Q_REL_TOL = 1e-8         # relative tolerance of ``q_integral``'s outer integral


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod

# QUADPACK qk21 (Piessens et al. 1983): Kronrod abscissae on [0, 1] in
# descending order with the centre last, their weights, and the weights of
# the embedded 10-point Gauss rule, whose abscissae are _XGK[1::2].
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208931582111, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# the 21 nodes on [-1, 1] in ascending order; columns: Kronrod, Gauss weights
_NODES = np.array([-x for x in _XGK[:10]] + list(_XGK[::-1]))
_KG = np.zeros((21, 2))
_KG[:, 0] = _WGK[:10] + _WGK[::-1]
for _j in range(1, 10, 2):
    _KG[_j, 1] = _KG[20 - _j, 1] = _WG[_j // 2]
_WK = _KG[:, 0].copy()
_EPS50 = 50.0 * np.finfo(float).eps


def _gk21(f, a, b, epsabs, epsrel, limit):
    """Integrals of f over [a, b] by adaptive 21-point Gauss-Kronrod.

    ``a``, ``b`` and ``epsabs`` broadcast to the shape of the integrals.
    Each round calls ``f`` once on an (n, 21) array holding the nodes of
    every live panel, one panel a row.  A panel's error estimate is
    QUADPACK's, resasc * min(1, (200 |K - G| / resasc)^1.5) floored at
    50 eps resabs.  With tol = max(epsabs, epsrel * |estimate|), an integral
    is done once its panel errors sum to at most tol (QUADPACK's stopping
    test); until then each panel whose error exceeds its width share of tol
    is bisected, unless the error is at the rounding floor.  An integral
    also stops at ``limit`` panels, and a non-finite estimate or error stops
    it at once.  Returns (value, error, evaluations) arrays.
    """
    a, b, epsabs = np.broadcast_arrays(np.asarray(a, dtype=float),
                                       np.asarray(b, dtype=float),
                                       np.asarray(epsabs, dtype=float))
    shape = a.shape
    a, b, epsabs = a.ravel(), b.ravel(), epsabs.ravel()
    m = a.size
    half_width = 0.5 * np.abs(b - a)
    own = np.flatnonzero(half_width)
    c = (0.5 * (a + b))[own, None]   # panel centres and half-widths, as columns
    h = (0.5 * (b - a))[own, None]
    value = np.zeros(m)
    err = np.zeros(m)
    panels = np.ones(m, dtype=np.int64)
    with np.errstate(all="ignore"):
        while own.size:
            fx = f(c + h * _NODES)
            kg = fx @ _KG
            k = kg[:, 0]
            # error terms on [-1, 1], scaled by |h| once
            resabs = np.abs(fx) @ _WK
            resasc = np.abs(fx - 0.5 * kg[:, :1]) @ _WK
            raw = resasc * np.fmin(1.0, (200.0 * np.abs(k - kg[:, 1]) / resasc) ** 1.5)
            floor = _EPS50 * resabs
            ah = np.abs(h[:, 0])
            e = np.maximum(raw, floor) * ah
            val = k * h[:, 0]
            live_val = np.bincount(own, weights=val, minlength=m)
            live_err = np.bincount(own, weights=e, minlength=m)
            tol = np.maximum(epsabs, epsrel * np.abs(value + live_val))
            done = err + live_err <= tol
            # bisect over the width share, unless done or at the rounding
            # floor; NaN compares false, so a non-finite panel is accepted
            rej = (e > (tol / half_width)[own] * ah) & (raw > floor) & ~done[own]
            if not rej.any():
                value += live_val
                err += live_err
                break
            own_r = own[rej]
            split = np.bincount(own_r, minlength=m)
            panels += split
            over = panels > limit
            if over.any():
                panels[over] -= split[over]
                rej &= ~over[own]
                own_r = own[rej]
            value += np.bincount(own, weights=np.where(rej, 0.0, val), minlength=m)
            err += np.bincount(own, weights=np.where(rej, 0.0, e), minlength=m)
            c, h = c[rej], 0.5 * h[rej]
            c = np.concatenate((c - h, c + h))
            h = np.concatenate((h, h))
            own = np.concatenate((own_r, own_r))
    return value.reshape(shape), err.reshape(shape), (42 * panels - 21).reshape(shape)


def _stretched(f, p: float):
    """f in the variable w: w = x^p below 1, w = x above.

    The power piece flattens an x^(p-1) endpoint singularity at zero; both
    pieces, with limits mapped accordingly, go through one ``_gk21`` call.
    With r = 1/p below and r = 1 above, dx/dw = r * x / w on both.  A
    panel's piece is read off its centre node (column 10), so a node that
    rounds onto 1 stays with its panel.
    """
    def g(w):
        r = np.where(w[:, 10:11] < 1.0, 1.0 / p, 1.0)
        x = w ** r
        return f(x) * (r * x / w)

    return g


def _checked(value, err, abs_tol: float, rel_tol: float, what: str) -> None:
    """Raise unless every (value, err) is finite and within 10x tolerance."""
    for v, e in zip(np.ravel(value).tolist(), np.ravel(err).tolist()):
        if not (math.isfinite(v) and math.isfinite(e)):
            raise ToleranceNotMetError(f"{what} not finite: value {v}, error {e}")
        if e >= max(abs_tol, rel_tol * abs(v)) * 10.0:
            raise ToleranceNotMetError(
                f"{what} error {e} vs requested {abs_tol}/{rel_tol}")


# ---------------------------------------------------------------------------
# master integrals

def _check_dimension(d0: float) -> None:
    if not 1.0 < d0 < 1.5:
        raise InvalidDimensionError(f"dimension {d0} outside (1, 1.5)")


def _check_alpha(alpha: float) -> None:
    if not -np.pi / 2 < alpha < np.pi / 2:
        raise ValueError("alpha outside (-pi/2, pi/2)")


_SERIES_N = np.arange(2, 14)
_SERIES_FACT = np.array([float(math.factorial(2 * n - 1)) for n in _SERIES_N])


def _numer_denom(theta: float):
    """Array form of (x sinh x + qx sin qx - 2D, D) with D = cosh x - cos qx.

    Below NEAR_ZERO_CROSSOVER the numerator is its power series: the
    coefficient of x^(2n) is (1 - 1/n) * (1 - (-1)^n * theta^(2n)) / (2n-1)!,
    n = 2 .. 13, all nonnegative for |theta| <= 1.
    """
    n = _SERIES_N
    coef = (1.0 - 1.0 / n) * (1.0 - (-1.0) ** n * theta ** (2 * n)) / _SERIES_FACT

    def nd(x):
        hx = 0.5 * x
        D = 2.0 * (np.sinh(hx) ** 2 + np.sin(theta * hx) ** 2)
        qx = theta * x
        num = (x * np.sinh(x) + qx * np.sin(qx)) - 2.0 * D
        near = x < NEAR_ZERO_CROSSOVER
        if near.any():
            num[near] = (x[near][:, None] ** (2 * n)) @ coef
        return num, D

    return nd


def _x_max(d0: float, abs_tol: float) -> float:
    """Truncation point where the x * 2^d0 * exp(-d0 x) envelope is negligible."""
    x = 10.0
    while x * 2.0 ** d0 * math.exp(-d0 * x) > abs_tol * 1e-3 and x < X_MAX_CAP:
        x += 1.0
    return x


def _dyadic_panels(start, xmax, tol):
    """Tails (start, xmax) cut into panels [start 2^k, start 2^(k+1)], each
    with its width share of ``tol``; arrays, one entry a piece.  Starting a
    tail graded spares the bisection rounds that would otherwise refine
    towards ``start`` one panel at a time.  The last panel ends at xmax, and
    one shorter than half the panel before it joins that panel.  Returns
    (piece, lower, upper, tol) of every panel.
    """
    k = np.arange(int(np.log2(np.max(xmax / start, initial=1.0))) + 2)
    w = start[:, None] * 2.0 ** k
    w[:, 1:] = np.where(1.25 * w[:, 1:] <= xmax[:, None], w[:, 1:], xmax[:, None])
    piece, k = np.nonzero(w[:, 1:] > w[:, :-1])
    lo, hi = w[piece, k], w[piece, k + 1]
    return piece, lo, hi, tol[piece] * (hi - lo) / (xmax - start)[piece]


def _split_quad(f, h: float, xmax: float, tol: float, spec: QuadratureSpec,
                what: str) -> QuadratureResult:
    """Integrate f, which behaves like x^(2-2h) at zero, over (0, xmax): the
    power piece (0, 1), stretched (``_stretched``) by p = 3 - 2h, to absolute
    tolerance ``tol``, then the tail (1, xmax) as ``_dyadic_panels`` sharing
    another ``tol``; ``_checked`` against ``spec``."""
    _, lo, hi, tails = _dyadic_panels(np.ones(1), np.array([xmax]), np.array([tol]))
    vals, errs, nevals = _gk21(_stretched(f, 3.0 - 2.0 * h), np.append(0.0, lo),
                               np.append(1.0, hi), np.append(tol, tails),
                               spec.rel_tol, MAX_SUBDIVISIONS)
    value, err = float(vals.sum()), float(errs.sum())
    _checked(value, err, spec.abs_tol, spec.rel_tol, what)
    return QuadratureResult(value, err, int(nevals.sum()))


def omega(theta: float, d0: float,
          spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """The even master integral; negative on |theta| <= 1 for d0 in (1, 3/2)."""
    _check_dimension(d0)
    theta = float(theta)
    nd = _numer_denom(theta)

    def integrand(x):
        num, D = nd(x)
        return -num * D ** (-1.0 - d0)

    res = _split_quad(integrand, d0, _x_max(d0, spec.abs_tol), spec.abs_tol / 2,
                      spec, "quadrature")
    scale = math.sqrt(theta * theta + 1.0)
    return QuadratureResult(scale * res.value, scale * res.err_estimate,
                            res.evaluations)


def find_theta0(d0: float, bracket: tuple[float, float] = (1.0, 2.0)) -> float:
    """Positive zero of theta -> omega(theta, d0), by bisection."""
    _check_dimension(d0)
    a, b = bracket
    fa = omega(a, d0).value
    fb = omega(b, d0).value
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise NoSignChangeError(f"omega({a})={fa} and omega({b})={fb}")
    while b - a > THETA0_XTOL:
        m = 0.5 * (a + b)
        fm = omega(m, d0).value
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def delta_alpha(alpha: float, D0: float) -> QuadratureResult:
    """The ray-angle form of the master integral, with theta = tan(alpha).

    Equals -2^(-D0) * omega(tan alpha, D0); positive for |alpha| <= pi/4.
    """
    _check_alpha(alpha)
    _check_dimension(D0)
    nd = _numer_denom(math.tan(alpha))

    def integrand(x):
        num, D = nd(x)
        return num * (0.5 / D) ** D0 / D

    spec = DEFAULT_SPEC
    res = _split_quad(integrand, D0, _x_max(D0, spec.abs_tol), spec.abs_tol / 2,
                      spec, "quadrature")
    scale = 1.0 / math.cos(alpha)
    return QuadratureResult(scale * res.value, scale * res.err_estimate,
                            res.evaluations)


# ---------------------------------------------------------------------------
# ray tails and the double-integral route

def lambda_fn(h: float, eps: float, z):
    """|e^z/(e^z-1)^2|^h * |e^(eps z)| = |4 sinh^2(z/2)|^(-h) * e^(eps Re z),
    at a point z or an array of them."""
    if h <= 1.0:
        raise ValueError("h must exceed 1")
    if not -1.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [-1, 1]")
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    if (x <= 0).any():
        raise ValueError("Re z must be positive")
    # above x = 60 the corrections to log|4 sinh^2(z/2)| = x are exp(-x),
    # below double precision; sinh may overflow on the branch not taken
    with np.errstate(over="ignore"):
        logd = np.where(x > 60.0, x,
                        np.log(4.0 * (np.sinh(0.5 * x) ** 2 + np.sin(0.5 * y) ** 2)))
    out = np.exp(-h * logd + eps * x)
    return out if out.ndim else float(out)


def _lambda_tails(h: float, eps: float, alpha: float, t_lower,
                  spec: QuadratureSpec):
    """``lambda_tail`` at an array of lower limits, in one ``_gk21`` call.

    Lower limits below 1 take the stretched panel up to 1 plus the shared
    tail from 1 to its truncation point, which is integrated once; the
    others their own tail.  Tails are ``_dyadic_panels``.
    Returns (values, errors, evaluations) arrays.
    """
    _check_alpha(alpha)
    if eps - h >= 0:
        raise ValueError("need eps - h < 0 for an integrable tail")
    t = np.asarray(t_lower, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t_lower must be positive")
    ca, sa = math.cos(alpha), math.sin(alpha)
    v = complex(ca, sa)

    # truncation points: the first of max(t, 1) + 0, 1, 2, ... where
    # exp((eps - h) s ca) drops below abs_tol / 100, or s reaches 400
    tt = t.ravel()
    rate = (eps - h) * ca
    reach = min(math.log(spec.abs_tol * 1e-2) / rate, 400.0) if rate < 0 else 400.0
    smax = np.maximum(tt, 1.0)
    smax += np.maximum(np.ceil(reach - smax), 0.0)
    p = 3.0 - 2.0 * h if h < 1.5 else 0.5
    m = tt.size
    near = tt < 1.0
    # a lower limit from 1 up takes its own tail; those below 1 take the
    # stretched panel (t^p, 1) plus one shared tail from 1 (piece m), each
    # with half the tolerance
    tails = np.flatnonzero(np.append(~near, near.any()))
    piece, lo, hi, tol = _dyadic_panels(np.append(tt, 1.0)[tails],
                                        np.append(smax, smax[near][:1])[tails],
                                        np.where(tails < m, 1.0, 0.5) * spec.abs_tol)
    below = np.flatnonzero(near)
    piece = np.concatenate((tails[piece], below))
    lo = np.concatenate((lo, tt[below] ** p))
    hi = np.concatenate((hi, np.ones(below.size)))
    tol = np.concatenate((tol, np.full(below.size, 0.5 * spec.abs_tol)))
    vals, errs, nevals = _gk21(_stretched(lambda s: lambda_fn(h, eps, s * v), p),
                               lo, hi, tol, spec.rel_tol, MAX_SUBDIVISIONS)
    value, err, neval = (np.bincount(piece, weights=x, minlength=m + 1)
                         for x in (vals, errs, nevals))
    for x in (value, err, neval):
        x[:m][near] += x[m]
    value, err, neval = value[:m], err[:m], neval[:m].astype(np.int64)
    _checked(value, err, spec.abs_tol, spec.rel_tol, "tail quadrature")
    return value.reshape(t.shape), err.reshape(t.shape), neval.reshape(t.shape)


def lambda_tail(h: float, eps: float, alpha: float,
                t_lower: float) -> QuadratureResult:
    """Integral of s -> lambda(h, eps, s*e^{i alpha}) over (t_lower, inf).

    Requires eps - h < 0 for integrability; the s^(-2h) endpoint behavior is
    flattened by the same power substitution as the master integrals.
    """
    value, err, neval = _lambda_tails(h, eps, alpha, float(t_lower), DEFAULT_SPEC)
    return QuadratureResult(float(value), float(err), int(neval))


def _ray_drift(v: complex, t):
    """Re(v + 2 v Gamma(v t)) on an array of t."""
    return (v * one_plus_two_gamma(v * np.asarray(t, dtype=float))).real


def q_fn(h: float, alpha: float, t: float) -> float:
    """Re(v + 2 v Gamma(v t)) * tail(t) along the ray v = e^{i alpha}."""
    _check_alpha(alpha)
    v = complex(math.cos(alpha), math.sin(alpha))
    return float(_ray_drift(v, t)) * lambda_tail(h, 0.0, alpha, t).value


# the outer and inner quadrature specs of ``q_integral``; the inner tails are
# 100x and 10x tighter than the outer integral
_Q_SPEC = QuadratureSpec(rel_tol=Q_REL_TOL)
_Q_INNER_SPEC = QuadratureSpec(abs_tol=DEFAULT_SPEC.abs_tol * 1e-2,
                               rel_tol=min(DEFAULT_SPEC.rel_tol, Q_REL_TOL * 1e-1))


def q_integral(h: float, alpha: float) -> QuadratureResult:
    """Integral of q_fn over t in (0, inf); equals delta_alpha for h = D0.

    The outer integrand behaves like t^(2-2h) at zero and decays like
    exp(-h t cos alpha); same panel strategy as the single integrals.  The
    inner tails of all outer nodes of a round are one batched call.
    """
    _check_alpha(alpha)
    _check_dimension(h)
    v = complex(math.cos(alpha), math.sin(alpha))

    def qf(t):
        return _ray_drift(v, t) * _lambda_tails(h, 0.0, alpha, t,
                                                _Q_INNER_SPEC)[0]

    ca = math.cos(alpha)
    tmax = 10.0
    while math.exp(-h * tmax * ca) > 1e-14 and tmax < 400.0:
        tmax += 1.0
    return _split_quad(qf, h, tmax, _Q_SPEC.abs_tol, _Q_SPEC, "outer quadrature")
