import math

import numpy as np
import pytest

from juliadim import quadrature as qd
from juliadim.errors import (InvalidDimensionError, NoSignChangeError,
                             ToleranceNotMetError)


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
    """(2 - (x sinh x + qx sin qx)/D) * D^(-d0) with D = cosh x - cos qx:
    the scalar master integrand that the oracles below integrate."""
    D = _denom(x, theta)
    if x < qd.NEAR_ZERO_CROSSOVER:
        num = -_numer_series(x, theta)
    else:
        num = 2.0 * D - (x * math.sinh(x) + theta * x * math.sin(theta * x))
    return num * D ** (-1.0 - d0)


def omega_oracle(theta: float, d0: float, n_points: int = 1_000_000) -> float:
    """Fixed-grid trapezoid evaluation in the stretched variable.

    Entirely independent of the adaptive path: uniform grids in
    u = x^(3-2*d0) on the singular panel and in x on the tail, with the
    same series-protected integrand.
    """
    p = 3.0 - 2.0 * d0
    xs = 1.0
    xmax = 40.0
    n1 = n_points // 2
    u = np.linspace(0.0, xs ** p, n1)
    vals = np.empty_like(u)
    vals[0] = 0.0
    x = u[1:] ** (1.0 / p)
    vals[1:] = [omega_integrand(float(xx), theta, d0) * float(xx) ** (1.0 - p) / p
                for xx in x]
    inner = np.trapezoid(vals, u)
    xg = np.linspace(xs, xmax, n_points - n1)
    outer = np.trapezoid([omega_integrand(float(xx), theta, d0) for xx in xg], xg)
    return math.sqrt(theta * theta + 1.0) * (inner + outer)


def test_omega_against_trapezoid_oracle():
    res = qd.omega(0.0, 1.08)
    oracle = omega_oracle(0.0, 1.08, 1_000_000)
    assert abs(res.value - oracle) / abs(oracle) < 1e-6


def test_omega_even():
    for th in (0.3, 0.7, 1.2):
        a = qd.omega(th, 1.08)
        b = qd.omega(-th, 1.08)
        assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate + 1e-13


def test_omega_negative_inside_unit_interval():
    for th in (0.0, 0.5, 1.0):
        res = qd.omega(th, 1.08)
        assert res.value < 0
        assert res.err_estimate < 1e-8


def test_omega_dimension_guard():
    with pytest.raises(InvalidDimensionError):
        qd.omega(0.0, 1.6)
    with pytest.raises(InvalidDimensionError):
        qd.omega(0.0, 0.9)


def test_theta0_location():
    root = qd.find_theta0(1.08)
    assert 1.15 < root < 1.45
    assert abs(qd.omega(root, 1.08).value) < 1e-5


def test_theta0_no_sign_change():
    with pytest.raises(NoSignChangeError):
        qd.find_theta0(1.08, bracket=(1.5, 2.0))


def test_theta0_moves_with_dimension():
    roots = [qd.find_theta0(d) for d in (1.06, 1.08, 1.10)]
    assert all(1.0 < r < 2.0 for r in roots)


def test_delta_alpha_identity():
    for alpha in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8):
        for d0 in (1.05, 1.08, 1.2):
            da = qd.delta_alpha(alpha, d0).value
            om = qd.omega(math.tan(alpha), d0).value
            assert abs(da + 2.0 ** (-d0) * om) < 1e-8 * abs(om)


def test_delta_alpha_positivity_and_symmetry():
    for alpha in (0.0, np.pi / 8, np.pi / 4):
        assert qd.delta_alpha(alpha, 1.08).value > 0
    a = qd.delta_alpha(0.3, 1.08)
    b = qd.delta_alpha(-0.3, 1.08)
    assert (a.value * math.cos(0.3)) == pytest.approx(b.value * math.cos(-0.3),
                                                      rel=1e-10)


def test_lambda_small_z_power():
    h = 1.08
    z = 1e-4 * np.exp(1j * 0.3)
    assert qd.lambda_fn(h, 0.0, z) == pytest.approx(abs(z) ** (-2 * h), rel=1e-2)


def test_lambda_unit_value():
    z = 2.0 * math.asinh(0.5)
    assert qd.lambda_fn(1.08, 0.0, z) == 1.0
    assert qd.lambda_fn(1.0 + 1e-12, 0.0, z) == pytest.approx(1.0, rel=1e-9)


def test_lambda_validation():
    with pytest.raises(ValueError):
        qd.lambda_fn(0.9, 0.0, 1.0)
    with pytest.raises(ValueError):
        qd.lambda_fn(1.2, 1.5, 1.0)
    with pytest.raises(ValueError):
        qd.lambda_fn(1.2, 0.0, -1.0)


def test_lambda_on_array_equals_scalar_calls():
    # both sides of the x = 60 crossover, where log|4 sinh^2(z/2)| is x
    rng = np.random.default_rng(3)
    z = np.concatenate((rng.uniform(0.01, 120.0, 200)
                        * np.exp(1j * rng.uniform(-1.5, 1.5, 200)),
                        [60.0 + 1j, np.nextafter(60.0, 61.0) + 1j]))
    for h, eps in ((1.08, 0.0), (1.2, 0.5), (1.4, -0.5)):
        vals = qd.lambda_fn(h, eps, z)
        assert vals.shape == z.shape
        assert np.array_equal(vals, [qd.lambda_fn(h, eps, complex(x)) for x in z])
    with pytest.raises(ValueError):
        qd.lambda_fn(1.2, 0.0, np.array([1.0, -1.0 + 1j]))


def test_lambda_ray_decay_bound():
    h, eps, alpha = 1.2, 0.5, np.pi / 6
    ca = math.cos(alpha)
    for t in (2.0, 5.0, 20.0):
        val = qd.lambda_fn(h, eps, t * np.exp(1j * alpha))
        assert val < 100.0 * math.exp(t * (-h + eps) * ca)


def test_tail_small_t_law():
    h = 1.08
    for t in (1e-2, 1e-3):
        tail = qd.lambda_tail(h, 0.0, np.pi / 6, t).value
        assert tail * t ** (2 * h - 1) * (2 * h - 1) == pytest.approx(1.0, abs=0.02)


def test_tail_monotone_and_integrable():
    vals = [qd.lambda_tail(1.08, 0.0, 0.3, t).value for t in (0.1, 0.5, 2.0)]
    assert vals[0] > vals[1] > vals[2] > 0
    with pytest.raises(ValueError):
        qd.lambda_tail(1.2, 1.3, 0.0, 0.5)


@pytest.mark.parametrize("alpha", [2.0, -2.0, math.pi / 2, -math.pi / 2, math.nan])
def test_ray_routines_reject_alpha_outside_the_half_plane(alpha):
    # like delta_alpha: the ray s e^{i alpha} must point into Re > 0
    with pytest.raises(ValueError):
        qd.delta_alpha(alpha, 1.08)
    with pytest.raises(ValueError):
        qd.lambda_tail(1.08, 0.0, alpha, 0.5)
    with pytest.raises(ValueError):
        # at alpha = +-pi/2 and t = 2 pi the drift's pole lies on the ray
        qd.q_fn(1.08, alpha, 2.0 * math.pi)
    with pytest.raises(ValueError):
        qd.q_integral(1.08, alpha)


def test_tail_panels_start_graded():
    # dyadic tail panels spare the bisection rounds towards the lower end,
    # which took 294 / 210 / 147 evaluations from one panel per tail
    for t, one_panel in ((0.1, 294), (0.5, 210), (2.0, 147)):
        assert qd.lambda_tail(1.08, 0.0, np.pi / 6, t).evaluations < one_panel


def test_short_last_tail_panel_joins_the_one_before():
    # the tail from 12.5 ends at 30: [25, 30] is under half of [12.5, 25],
    # so the piece is one panel and takes one round, not two panels
    assert qd.lambda_tail(1.08, 0.0, np.pi / 6, 12.5).evaluations == 21
    xmax = np.array([2.4, 2.5, 30.0, 33.0, 35.0, 40.0, 64.0])
    piece, lo, hi, _ = qd._dyadic_panels(np.ones(xmax.size), xmax, np.ones(xmax.size))
    for i in range(xmax.size):
        w = hi[piece == i] - lo[piece == i]
        assert len(w) == 1 or w[-1] >= 0.5 * w[-2]
    cuts = {2.4: [1.0], 30.0: [1.0, 2.0, 4.0, 8.0, 16.0],
            40.0: [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]}
    for x, lower in cuts.items():
        assert lo[piece == np.flatnonzero(xmax == x)[0]].tolist() == lower


def test_q_bound_small_t():
    h, alpha = 1.08, np.pi / 6
    for t in (1e-3, 1e-2, 0.1):
        assert abs(qd.q_fn(h, alpha, t)) < 1e3 * t ** (2.0 - 2.0 * h)


def test_q_exponential_tail():
    h, alpha = 1.08, np.pi / 6
    vals = [abs(qd.q_fn(h, alpha, t)) for t in (5.0, 10.0, 20.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


def test_q_integral_equals_delta_alpha():
    for alpha, d0 in ((0.0, 1.08), (np.pi / 6, 1.05), (np.pi / 4, 1.2)):
        qi = qd.q_integral(d0, alpha).value
        da = qd.delta_alpha(alpha, d0).value
        assert abs(qi - da) < 1e-6 * abs(da)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        qd.QuadratureSpec(abs_tol=0.0)


# ---------------------------------------------------------------------------
# the numpy Gauss-Kronrod against QUADPACK (scipy, test-only) and exact rules

def omega_quadpack(theta: float, d0: float) -> float:
    """omega through scipy's QUADPACK on the stretched split of the seed code."""
    quad = pytest.importorskip("scipy.integrate").quad
    p = 3.0 - 2.0 * d0
    spec = qd.DEFAULT_SPEC

    def f(x):
        return omega_integrand(x, theta, d0)

    def stretched(u):
        x = u ** (1.0 / p)
        return f(x) * x ** (1.0 - p) / p

    kw = dict(epsabs=spec.abs_tol / 2, epsrel=spec.rel_tol,
              limit=qd.MAX_SUBDIVISIONS)
    value = (quad(stretched, 0.0, 1.0, **kw)[0]
             + quad(f, 1.0, qd._x_max(d0, spec.abs_tol), **kw)[0])
    return math.sqrt(theta * theta + 1.0) * value


@pytest.mark.parametrize("d0", [1.05, 1.08, 1.2, 1.4])
def test_omega_against_quadpack(d0):
    worst = max(abs(qd.omega(th, d0).value - omega_quadpack(th, d0))
                for th in np.linspace(-3.0, 3.0, 121))
    assert worst < 1e-11


def test_lambda_tails_batched_match_single_calls():
    spec = qd.DEFAULT_SPEC
    ts = np.array([1e-3, 0.05, 0.5, 0.999, 1.0, 1.7, 4.2, 12.5])
    for h, eps, alpha in ((1.08, 0.0, 0.3), (1.2, 0.5, np.pi / 6),
                          (1.4, -0.5, 0.0)):
        vals, errs, nevals = qd._lambda_tails(h, eps, alpha, ts, spec)
        for t, v, e, n in zip(ts, vals, errs, nevals):
            one = qd.lambda_tail(h, eps, alpha, t)
            assert abs(v - one.value) <= 1e-13 * abs(one.value)
            assert (e, n) == pytest.approx((one.err_estimate, one.evaluations),
                                           rel=1e-13)


def test_gk21_exact_on_degree_31_in_one_round():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=32)          # degree 31
    poly = np.polynomial.Polynomial(coef)
    a, b = np.array([-0.7, 0.0, 2.0]), np.array([1.3, 0.25, 5.0])
    exact = poly.integ()(b) - poly.integ()(a)
    # limit=1 stops after the first round, which must already be exact
    value, _, neval = qd._gk21(poly, a, b, 1e-300, 1e-300, 1)
    assert np.all(neval == 21)
    assert np.all(np.abs(value - exact) <= 1e-13 * np.abs(exact))
    # the Kronrod rule ends at degree 31: x^32 is not integrated exactly
    value, _, _ = qd._gk21(lambda x: x ** 32, -1.0, 1.0, 1e-300, 1e-300, 1)
    assert abs(value - 2.0 / 33.0) > 1e-12
    # up to degree 19 the embedded Gauss rule agrees, so one round suffices
    low = np.polynomial.Polynomial(coef[:20])
    exact = low.integ()(b) - low.integ()(a)
    value, err, neval = qd._gk21(low, a, b, 1e-12, 1e-12, 200)
    assert np.all(neval == 21)
    assert np.all(np.abs(value - exact) <= 1e-13 * np.abs(exact))


SMOOTH = [(np.exp, 0.0, 1.0), (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
          (lambda x: 1.0 / (x * x + 1e-4), -1.0, 3.0),
          (lambda x: np.exp(-100.0 * (x - 0.2) ** 2) + x, 0.0, 4.0),
          (lambda x: np.cos(50.0 * x), 0.0, 3.0)]


def quadpack(f, a, b, **kw):
    quad = pytest.importorskip("scipy.integrate").quad
    value, err, info = quad(lambda x: float(f(x)), a, b, full_output=1, **kw)[:3]
    return value, err, info["neval"]


@pytest.mark.parametrize("f, a, b", SMOOTH + [(np.sqrt, 0.0, 1.0),
                                               (lambda x: x ** 3, 0.0, 1.0)])
def test_gk21_one_panel_is_qk21(f, a, b):
    # x^3 is exact for both rules, so its error is the 50 eps resabs floor
    # with limit=1 QUADPACK returns its first 21-point panel and error
    value, err, neval = qd._gk21(f, a, b, 1e-300, 1e-300, 1)
    ref_value, ref_err, ref_neval = quadpack(f, a, b, epsabs=1e-300,
                                             epsrel=1e-300, limit=1)
    assert neval == ref_neval == 21
    assert value == pytest.approx(ref_value, rel=1e-14, abs=1e-16)
    assert err == pytest.approx(ref_err, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("f, a, b", SMOOTH)
def test_gk21_no_more_work_than_quadpack(f, a, b, tol):
    value, err, neval = qd._gk21(f, a, b, tol, 1e-15, 200)
    ref_value, _, ref_neval = quadpack(f, a, b, epsabs=tol, epsrel=1e-15,
                                       limit=200)
    assert err <= tol
    assert abs(value - ref_value) <= tol
    assert neval <= ref_neval


def test_split_panels_tile_the_range():
    tol = 5e-11
    for xmax in (32.0, 40.0, 21.0, 1.0):
        piece, lo, hi, epsabs = qd._dyadic_panels(np.ones(1), np.array([xmax]),
                                                  np.array([tol]))
        if xmax == 1.0:
            assert piece.size == 0
            continue
        assert np.all(piece == 0)
        assert lo[0] == 1.0 and hi[-1] == xmax
        assert np.array_equal(lo[1:], hi[:-1])
        # the panels share tol by width
        assert epsabs.sum() == pytest.approx(tol)
        assert np.allclose(epsabs / (hi - lo), epsabs[0] / (hi - lo)[0])


def test_gk21_stops_on_summed_error():
    # panel errors on [0, w] of log x shrink only like w, so no width share
    # is ever met near 0; the summed error still falls below tol
    for tol in (1e-6, 1e-10):
        value, err, neval = qd._gk21(np.log, 0.0, 1.0, tol, 1e-15, 200)
        assert err <= tol
        assert abs(value + 1.0) <= tol
        assert neval < 42 * 200 - 21


def test_gk21_stops_at_rounding_floor():
    # 1e-10 is below 50 eps |integral| here: halving cannot reach it
    value, err, neval = qd._gk21(np.exp, 0.0, 10.0, 1e-10, 1e-15, 200)
    _, _, ref_neval = quadpack(np.exp, 0.0, 10.0, epsabs=1e-10, epsrel=1e-15,
                               limit=200)
    assert value == pytest.approx(math.expm1(10.0), rel=1e-14)
    assert neval <= ref_neval


def test_gk21_panel_limit_and_non_finite():
    def cusp(x):
        return np.abs(x - 1.0 / 3.0) ** 0.5

    # [0, 1] holds the cusp and stops at the cap; [0.5, 1.5] is smooth
    value, err, neval = qd._gk21(cusp, [0.0, 0.5], [1.0, 1.5], 1e-13, 1e-13, 7)
    assert neval[0] == 42 * 7 - 21
    assert err[0] > 1e-13
    assert neval[1] < neval[0]
    assert err[1] < 1e-13
    # a NaN stops its integral at once instead of bisecting to the cap
    value, err, neval = qd._gk21(lambda x: np.where(x < 0.5, np.nan, 1.0),
                                 0.0, 1.0, 1e-13, 1e-13, 200)
    assert np.isnan(value) and neval == 21


def test_omega_not_finite_raises():
    with pytest.raises(ToleranceNotMetError, match="not finite"):
        qd.omega(0.0, 1.49)
    with pytest.raises(ToleranceNotMetError):
        qd.delta_alpha(0.0, 1.49)
    with pytest.raises(ToleranceNotMetError):
        qd.find_theta0(1.49)
