"""Singular integrals controlling the dimension's directional derivative.

The master integrand behaves like x^(2-2*d0) at zero (integrable because
d0 < 3/2) and decays like x*exp(-d0*x); the near-zero subtraction
x*sinh(x) + q*x*sin(q*x) - 2*(cosh(x) - cos(q*x)) cancels to fourth order
and is therefore evaluated by its even power series.  Adaptive
Gauss-Kronrod handles both panels after the power substitution
u = x^(3-2*d0) flattens the endpoint singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (InvalidDimensionError, NoSignChangeError,
                     ToleranceNotMetError)
from .perturbation import one_plus_two_gamma

NEAR_ZERO_CROSSOVER = 1e-2
X_MAX_CAP = 200.0


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    x_split: float = 1.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.x_split <= 0:
            raise ValueError("tolerances and x_split must be positive")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int


def _check_dimension(d0: float) -> None:
    if not 1.0 < d0 < 1.5:
        raise InvalidDimensionError(f"dimension {d0} outside (1, 1.5)")


def _numer_series(x: float, theta: float) -> float:
    """x*sinh x + q*x*sin(q*x) - 2(cosh x - cos(q*x)) by its power series.

    Coefficient of x^(2n) is (1 - 1/n) * (1 - (-1)^n * theta^(2n)) / (2n-1)!,
    all nonnegative for |theta| <= 1.
    """
    t2 = theta * theta
    tot = 0.0
    x2n = x ** 4
    t2n = t2 * t2
    fact = 6.0  # (2n-1)! at n = 2
    for n in range(2, 14):
        tot += (1.0 - 1.0 / n) * (1.0 - (-1.0) ** n * t2n) * x2n / fact
        x2n *= x * x
        t2n *= t2
        fact *= (2 * n) * (2 * n + 1)
    return tot


def _denom(x: float, theta: float) -> float:
    """cosh x - cos(theta*x), stable near zero."""
    return 2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * theta * x) ** 2)


def omega_integrand(x: float, theta: float, d0: float) -> float:
    """(2 - (x sinh x + qx sin qx)/D) * D^(-d0) with D = cosh x - cos qx."""
    D = _denom(x, theta)
    if x < NEAR_ZERO_CROSSOVER:
        num = -_numer_series(x, theta)
    else:
        num = 2.0 * D - (x * math.sinh(x) + theta * x * math.sin(theta * x))
    return num * D ** (-1.0 - d0)


def _x_max(d0: float, abs_tol: float) -> float:
    """Truncation point where the x * 2^d0 * exp(-d0 x) envelope is negligible."""
    x = 10.0
    while x * 2.0 ** d0 * math.exp(-d0 * x) > abs_tol * 1e-3 and x < X_MAX_CAP:
        x += 1.0
    return x


def _split_quad(integrand, d0: float, spec: QuadratureSpec):
    """Integrate over (0, inf): stretched panel near 0 plus smooth tail."""
    p = 3.0 - 2.0 * d0
    xs = spec.x_split
    xmax = _x_max(d0, spec.abs_tol)

    def stretched(u):
        x = u ** (1.0 / p)
        return integrand(x) * x ** (1.0 - p) / p

    v1, e1, info1 = quad(stretched, 0.0, xs ** p, epsabs=spec.abs_tol / 2,
                         epsrel=spec.rel_tol, limit=spec.max_subdivisions,
                         full_output=True)[:3]
    v2, e2, info2 = quad(integrand, xs, xmax, epsabs=spec.abs_tol / 2,
                         epsrel=spec.rel_tol, limit=spec.max_subdivisions,
                         full_output=True)[:3]
    value = v1 + v2
    err = e1 + e2
    neval = info1["neval"] + info2["neval"]
    if err >= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ToleranceNotMetError(
            f"quadrature error {err} vs requested {spec.abs_tol}/{spec.rel_tol}")
    return QuadratureResult(value, err, neval)


def omega(theta: float, d0: float,
          spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """The even master integral; negative on |theta| <= 1 for d0 in (1, 3/2)."""
    _check_dimension(d0)
    theta = float(theta)
    res = _split_quad(lambda x: omega_integrand(x, theta, d0), d0, spec)
    scale = math.sqrt(theta * theta + 1.0)
    return QuadratureResult(scale * res.value, scale * res.err_estimate,
                            res.evaluations)


def find_theta0(d0: float, bracket: tuple[float, float] = (1.0, 2.0),
                spec: QuadratureSpec = DEFAULT_SPEC,
                xtol: float = 1e-6) -> float:
    """Positive zero of theta -> omega(theta, d0), by bisection."""
    _check_dimension(d0)
    a, b = bracket
    fa = omega(a, d0, spec).value
    fb = omega(b, d0, spec).value
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise NoSignChangeError(f"omega({a})={fa} and omega({b})={fb}")
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = omega(m, d0, spec).value
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def delta_alpha(alpha: float, D0: float, H_mu: float = 1.0,
                spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """The ray-angle form of the master integral, with theta = tan(alpha).

    Equals -2^(-D0) * H_mu * omega(tan alpha, D0); positive for |alpha| <= pi/4.
    """
    if not -np.pi / 2 < alpha < np.pi / 2:
        raise ValueError("alpha outside (-pi/2, pi/2)")
    _check_dimension(D0)
    if H_mu <= 0:
        raise ValueError("H_mu must be positive")
    theta = math.tan(alpha)

    def integrand(x):
        D = _denom(x, theta)
        if x < NEAR_ZERO_CROSSOVER:
            num = _numer_series(x, theta)
        else:
            num = (x * math.sinh(x) + theta * x * math.sin(theta * x)) - 2.0 * D
        return num * (0.5 / D) ** D0 / D

    res = _split_quad(integrand, D0, spec)
    scale = H_mu / math.cos(alpha)
    return QuadratureResult(scale * res.value, scale * res.err_estimate,
                            res.evaluations)


def _log_denom_ray(s: float, alpha: float) -> float:
    """log(4*sinh^2(x/2) + 4*sin^2(y/2)) at z = s*e^{i alpha}, overflow-safe."""
    x = s * math.cos(alpha)
    y = s * math.sin(alpha)
    if x > 60.0:
        return x  # corrections are exp(-x), below double precision
    return math.log(4.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * y) ** 2))


def lambda_fn(h: float, eps: float, z: complex) -> float:
    """|e^z/(e^z-1)^2|^h * |e^(eps z)| = |4 sinh^2(z/2)|^(-h) * e^(eps Re z)."""
    if h <= 1.0:
        raise ValueError("h must exceed 1")
    if not -1.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [-1, 1]")
    z = complex(z)
    if z.real <= 0:
        raise ValueError("Re z must be positive")
    x, y = z.real, z.imag
    if x > 60.0:
        logd = x
    else:
        logd = math.log(4.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * y) ** 2))
    return math.exp(-h * logd + eps * x)


def lambda_tail(h: float, eps: float, alpha: float, t_lower: float,
                spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """Integral of s -> lambda(h, eps, s*e^{i alpha}) over (t_lower, inf).

    Requires eps - h < 0 for integrability; the s^(-2h) endpoint behavior is
    flattened by the same power substitution as the master integrals.
    """
    if eps - h >= 0:
        raise ValueError("need eps - h < 0 for an integrable tail")
    if t_lower <= 0:
        raise ValueError("t_lower must be positive")
    ca = math.cos(alpha)

    def f(s):
        return math.exp(-h * _log_denom_ray(s, alpha) + eps * s * ca)

    smax = max(t_lower, 1.0)
    while math.exp((eps - h) * smax * ca) > spec.abs_tol * 1e-2 and smax < 400.0:
        smax += 1.0

    p = 3.0 - 2.0 * h if h < 1.5 else 0.5
    lim = spec.max_subdivisions
    if t_lower < 1.0:
        def stretched(u):
            s = u ** (1.0 / p)
            return f(s) * s ** (1.0 - p) / p
        v1, e1, i1 = quad(stretched, t_lower ** p, 1.0, epsabs=spec.abs_tol / 2,
                          epsrel=spec.rel_tol, limit=lim, full_output=True)[:3]
        v2, e2, i2 = quad(f, 1.0, smax, epsabs=spec.abs_tol / 2,
                          epsrel=spec.rel_tol, limit=lim, full_output=True)[:3]
        value, err = v1 + v2, e1 + e2
        neval = i1["neval"] + i2["neval"]
    else:
        value, err, info = quad(f, t_lower, smax, epsabs=spec.abs_tol,
                                epsrel=spec.rel_tol, limit=lim,
                                full_output=True)[:3]
        neval = info["neval"]
    if err >= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ToleranceNotMetError(f"tail quadrature error {err}")
    return QuadratureResult(value, err, neval)


def q_fn(h: float, alpha: float, t: float, H_mu: float = 1.0,
         spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """H_mu * Re(v + 2 v Gamma(v t)) * tail(t) along the ray v = e^{i alpha}."""
    v = complex(math.cos(alpha), math.sin(alpha))
    drift = (v * one_plus_two_gamma(v * t)).real
    return H_mu * drift * lambda_tail(h, 0.0, alpha, t, spec).value


def q_integral(h: float, alpha: float, H_mu: float = 1.0,
               spec: QuadratureSpec = DEFAULT_SPEC,
               rel_tol: float = 1e-8) -> QuadratureResult:
    """Integral of q_fn over t in (0, inf); equals delta_alpha for h = D0.

    The outer integrand behaves like t^(2-2h) at zero and decays like
    exp(-h t cos alpha); same panel strategy as the single integrals.
    """
    _check_dimension(h)
    p = 3.0 - 2.0 * h
    inner_spec = QuadratureSpec(abs_tol=spec.abs_tol * 1e-2,
                                rel_tol=min(spec.rel_tol, rel_tol * 1e-1),
                                x_split=spec.x_split,
                                max_subdivisions=spec.max_subdivisions)

    def qf(t):
        return q_fn(h, alpha, t, H_mu, inner_spec)

    def stretched(u):
        t = u ** (1.0 / p)
        return qf(t) * t ** (1.0 - p) / p

    ca = math.cos(alpha)
    tmax = 10.0
    while math.exp(-h * tmax * ca) > 1e-14 and tmax < 400.0:
        tmax += 1.0
    lim = spec.max_subdivisions
    v1, e1, i1 = quad(stretched, 0.0, 1.0, epsabs=spec.abs_tol,
                      epsrel=rel_tol, limit=lim, full_output=True)[:3]
    v2, e2, i2 = quad(qf, 1.0, tmax, epsabs=spec.abs_tol,
                      epsrel=rel_tol, limit=lim, full_output=True)[:3]
    value, err = v1 + v2, e1 + e2
    if err >= max(spec.abs_tol, rel_tol * abs(value)) * 10.0:
        raise ToleranceNotMetError(f"outer quadrature error {err}")
    return QuadratureResult(value, err, i1["neval"] + i2["neval"])
