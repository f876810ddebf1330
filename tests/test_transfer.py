import math

import numpy as np
import pytest

from juliadim import transfer
from juliadim.boettcher import build_table
from juliadim.errors import LevelExceededError
from juliadim.transfer import (TransferOperator, cylinder_measure,
                               cylinder_measures, directional_derivative_formula,
                               equilibrium, hausdorff_dim, lyapunov_integral,
                               partition_residual, pressure, pressure_oracle)

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def circle_table():
    return build_table(1.0, 12)


def test_pressure_circle_line(circle_table):
    # conjugate to squaring on the circle: P(tau) = (1 - tau) log 2
    for tau in (0.5, 1.0, 1.5):
        assert pressure(1.0, tau, circle_table) == pytest.approx(
            (1.0 - tau) * LOG2, abs=1e-6)


def test_pressure_entropy_at_zero_weight(circle_table):
    assert pressure(1.0, 0.5, circle_table) == pytest.approx(LOG2 / 2, abs=1e-9)
    with pytest.raises(ValueError):
        pressure(1.0, 0.2, circle_table)


def test_pressure_monotone_in_tau():
    table = build_table(0.6, 10)
    taus = np.linspace(0.6, 2.2, 8)
    vals = [pressure(0.6, t, table) for t in taus]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pressure_oracle_values(circle_table):
    assert pressure_oracle(1.0, 1.0, circle_table, 12) == pytest.approx(0.0, abs=2e-2)
    # zero weight counts preimages exactly
    assert pressure_oracle(1.0, 0.0, circle_table, 9) == pytest.approx(LOG2)
    with pytest.raises(ValueError):
        pressure_oracle(1.0, 1.0, circle_table, 19)


def test_pressure_oracle_cross_validation():
    table = build_table(0.8, 16)
    a = pressure(0.8, 1.05, table, 16)
    b = pressure_oracle(0.8, 1.05, table, 16)
    assert abs(a - b) < 5e-2


def test_dimension_circle(circle_table):
    res = hausdorff_dim(1.0, 12, table=circle_table)
    assert res.tau0 == pytest.approx(1.0, abs=1e-6)
    assert res.pressure_residual <= 1e-10
    assert res.error_bound == pytest.approx(0.0, abs=1e-9)


def test_dimension_small_real_in_bracket():
    res = hausdorff_dim(0.5, 12)
    assert 1.0 < res.tau0 < 1.295
    assert 1.0 < res.richardson_estimate < 1.295


def test_dimension_conjugation_symmetry():
    a = hausdorff_dim(0.3 + 0.2j, 10)
    b = hausdorff_dim(0.3 - 0.2j, 10)
    assert abs(a.tau0 - b.tau0) < 1e-10


def test_dimension_level_precondition():
    with pytest.raises(ValueError):
        hausdorff_dim(0.5, 6)


def test_equilibrium_uniform_on_circle(circle_table):
    w = equilibrium(1.0, 1.0, circle_table)
    assert np.max(np.abs(w.mu - 1.0 / w.mu.size)) < 1e-15
    assert w.mu.sum() == pytest.approx(1.0)
    assert w.omega.sum() == pytest.approx(1.0)


def test_equilibrium_shift_invariance():
    delta = 0.4
    table = build_table(delta, 11)
    tau = hausdorff_dim(delta, 11, table=table).tau0
    w = equilibrium(delta, tau, table)
    mu = w.mu
    half = mu.size // 2
    refinements = mu[0::2] + mu[1::2]
    preimages = mu[:half] + mu[half:]
    assert np.max(np.abs(refinements - preimages)) < 1e-8


def test_cylinder_measures_partition():
    delta = 0.3
    table = build_table(delta, 11)
    tau = hausdorff_dim(delta, 11, table=table).tau0
    w = equilibrium(delta, tau, table)
    masses = cylinder_measures(w)
    assert masses.sum() + partition_residual(w) == pytest.approx(1.0, abs=1e-12)
    assert cylinder_measure(w, 3) == pytest.approx(masses[3])
    with pytest.raises(LevelExceededError):
        cylinder_measure(w, 10)


def test_cylinder_measure_power_law():
    # mass ~ n^(1 - 2 dim) while n|delta| <= 1
    delta = 0.05
    table = build_table(delta, 14)
    res = hausdorff_dim(delta, 14, table=table)
    w = equilibrium(delta, res.tau0, table)
    masses = cylinder_measures(w)
    expo = 2.0 * res.richardson_estimate - 1.0
    vals = [masses[n] * n ** expo for n in range(6, 12)]
    assert max(vals) / min(vals) < 5.0


def test_cylinder_measure_exponential_tail():
    delta = 0.35
    table = build_table(delta, 14)
    res = hausdorff_dim(delta, 14, table=table)
    w = equilibrium(delta, res.tau0, table)
    masses = cylinder_measures(w)
    # decaying by about e^{-delta} per index once n|delta| > 1; stop at
    # n = 10 so every probed cylinder is resolved by at least four words
    ns = np.arange(4, 10)
    ratios = masses[ns + 1] / masses[ns]
    assert np.all(ratios < 1.0)
    assert np.all(ratios > math.exp(-10 * delta))


def test_lyapunov_circle(circle_table):
    w = equilibrium(1.0, 1.0, circle_table)
    assert lyapunov_integral(1.0, w, circle_table) == pytest.approx(LOG2, abs=1e-12)


def test_lyapunov_positive_on_grid():
    for delta in (0.3, 0.5 + 0.3j, 0.8, 1.2 + 0.4j):
        table = build_table(delta, 10)
        tau = hausdorff_dim(delta, 10, table=table).tau0
        w = equilibrium(delta, tau, table)
        assert lyapunov_integral(delta, w, table) > 0


def test_lyapunov_level_stability():
    delta = 0.5
    vals = []
    for lev in (10, 12):
        table = build_table(delta, lev)
        tau = hausdorff_dim(delta, lev, table=table).tau0
        w = equilibrium(delta, tau, table)
        vals.append(lyapunov_integral(delta, w, table))
    assert abs(vals[0] - vals[1]) < 1e-3


def test_directional_derivative_matches_fd():
    # the formula is the exact derivative of the discretized dimension
    for delta in (0.4, 0.3 * np.exp(1j * np.pi / 6)):
        level = 11
        v = delta / abs(delta)
        table = build_table(delta, level)
        tau = hausdorff_dim(delta, level, table=table).tau0
        w = equilibrium(delta, tau, table)
        formula = directional_derivative_formula(delta, v, table, w)
        h = abs(delta) / 100.0
        dims = []
        for sgn in (1.0, -1.0):
            d2 = delta + sgn * h * v
            t2 = build_table(d2, level)
            op = TransferOperator(d2, t2, level)
            dims.append(transfer._bowen_root(op)[0])
        fd = (dims[0] - dims[1]) / (2.0 * h)
        assert abs(formula - fd) / abs(fd) < 1e-3


def test_directional_derivative_sign_real_ray():
    delta = 0.3
    table = build_table(delta, 11)
    tau = hausdorff_dim(delta, 11, table=table).tau0
    w = equilibrium(delta, tau, table)
    assert directional_derivative_formula(delta, 1.0, table, w) < 0


def test_directional_derivative_conjugate_rays():
    vals = []
    for delta in (0.3 + 0.15j, 0.3 - 0.15j):
        table = build_table(delta, 10)
        tau = hausdorff_dim(delta, 10, table=table).tau0
        w = equilibrium(delta, tau, table)
        vals.append(directional_derivative_formula(delta, delta / abs(delta), table, w))
    assert vals[0] == pytest.approx(vals[1], abs=1e-10)


def test_directional_derivative_requires_unit_ray():
    delta = 0.4
    table = build_table(delta, 10)
    tau = hausdorff_dim(delta, 10, table=table).tau0
    w = equilibrium(delta, tau, table)
    with pytest.raises(ValueError):
        directional_derivative_formula(delta, 1j, table, w)


def test_orbit_expansion_report():
    delta = 0.05
    table = build_table(delta, 10)
    rep = transfer.orbit_expansion_check(delta, table, 8, k_max=200)
    assert rep["min_deriv_over_k2"] > 0
    assert rep["min_full_deriv"] > 1.0
    assert rep["min_partial_deriv"] > 0


# ---------------------------------------------------------------------------
# the allocation-free kernels against the original allocating formulas

def _repeat_apply(u, w):
    t = u * w
    half = len(t) // 2
    return np.repeat(t[:half] + t[half:], 2)


def _gather_apply_dual(om, w):
    n = len(om)
    idx = np.arange(n)
    return w * (om[(2 * idx) % n] + om[(2 * idx + 1) % n])


def _repeat_perron(op, w, u0=None, rtol=transfer.EIG_RTOL, maxit=transfer.EIG_MAXIT):
    n = op.size
    u = np.full(n, 1.0 / n) if u0 is None else u0
    lam_old = None
    diff_old = None
    for _ in range(maxit):
        v = _repeat_apply(u, w)
        s = v.sum()
        lam = s / u.sum()
        u = v / s
        if lam_old is not None:
            diff = abs(lam - lam_old)
            if diff == 0.0:
                return lam, u
            if diff_old is not None and diff < diff_old:
                rho = diff / diff_old
                if diff * rho / (1.0 - rho) < rtol * abs(lam):
                    return lam, u
            diff_old = diff
        lam_old = lam
    raise AssertionError("reference power iteration did not converge")


def _repeat_equilibrium(op, tau):
    w = op.weights(tau)
    n = op.size
    h = np.full(n, 1.0 / n)
    om = np.full(n, 1.0 / n)
    lam_old = None
    diff_old = None
    while True:
        v = _repeat_apply(h, w)
        lam = v.sum()
        h = v / lam
        vo = _gather_apply_dual(om, w)
        om = vo / vo.sum()
        if lam_old is not None:
            diff = abs(lam - lam_old)
            if diff == 0.0:
                break
            if diff_old is not None and diff < diff_old:
                rho = diff / diff_old
                if diff * rho / (1.0 - rho) < transfer.EIG_RTOL * abs(lam):
                    break
            diff_old = diff
        lam_old = lam
    mu = h * om
    return mu / mu.sum(), om


@pytest.fixture(scope="module")
def table16():
    return build_table(0.3 + 0.2j, 16)


@pytest.mark.parametrize("level", range(1, 17))
def test_kernels_bit_identical(table16, level):
    op = TransferOperator(0.3 + 0.2j, table16, level)
    rng = np.random.default_rng(level)
    u = rng.random(op.size)
    w = rng.random(op.size)
    u_in, w_in = u.copy(), w.copy()
    ref = _repeat_apply(u, w)
    assert np.array_equal(op.apply(u, w), ref)
    out = np.full(op.size, np.nan)
    assert op.apply(u, w, out=out) is out
    assert np.array_equal(out, ref)
    ref_dual = _gather_apply_dual(u, w)
    assert np.array_equal(op.apply_dual(u, w), ref_dual)
    assert op.apply_dual(u, w, out=out) is out
    assert np.array_equal(out, ref_dual)
    assert np.array_equal(u, u_in) and np.array_equal(w, w_in)


def test_power_steps_bit_identical(table16):
    op = TransferOperator(0.3 + 0.2j, table16, 14)
    w = op.weights(1.1)
    n = op.size
    u_ref = np.full(n, 1.0 / n)
    u = np.full(n, 1.0 / n)
    v = np.empty(n)
    for _ in range(50):
        t = _repeat_apply(u_ref, w)
        s_ref = t.sum()
        lam_ref = s_ref / u_ref.sum()
        u_ref = t / s_ref
        op.apply(u, w, out=v)
        s = v.sum()
        lam = s / u.sum()
        np.divide(v, s, out=v)
        u, v = v, u
        assert lam == lam_ref
    assert np.array_equal(u, u_ref)


def test_perron_and_equilibrium_bit_identical(table16):
    op = TransferOperator(0.3 + 0.2j, table16, 12)
    w = op.weights(1.2)
    lam_ref, u_ref = _repeat_perron(op, w)
    lam, u = op._perron(w)
    assert lam == lam_ref and np.array_equal(u, u_ref)
    # warm start: same result, and the caller's start vector is left alone
    w2 = op.weights(1.25)
    u0 = u.copy()
    lam_ref, u_ref = _repeat_perron(op, w2, u0)
    lam, u2 = op._perron(w2, u)
    assert lam == lam_ref and np.array_equal(u2, u_ref)
    assert np.array_equal(u, u0)
    mu_ref, om_ref = _repeat_equilibrium(op, 1.2)
    eq = equilibrium(0.3 + 0.2j, 1.2, table16, 12)
    assert np.array_equal(eq.mu, mu_ref) and np.array_equal(eq.omega, om_ref)
