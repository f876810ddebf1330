import math
import os

import numpy as np
import pytest

from juliadim import transfer
from juliadim.boettcher import build_table
from juliadim.errors import NoConvergenceError
from juliadim.transfer import (TransferOperator, cylinder_measures,
                               directional_derivative_formula, equilibrium,
                               hausdorff_dim, partition_residual, pressure,
                               pressure_oracle)

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
    assert 1.0 < res.aitken_estimate < 1.295


def test_dimension_conjugation_symmetry():
    a = hausdorff_dim(0.3 + 0.2j, 10)
    b = hausdorff_dim(0.3 - 0.2j, 10)
    assert abs(a.tau0 - b.tau0) < 1e-10


def test_dimension_level_precondition():
    with pytest.raises(ValueError):
        hausdorff_dim(0.5, 6)


@pytest.mark.parametrize("delta", [0.3j, 0, 2.236])
def test_dimension_outside_attracting_disk(delta):
    # outside B(1, 1), the parabolic point delta = 0 included
    with pytest.raises(ValueError, match="outside the attracting disk"):
        hausdorff_dim(delta, 10)


@pytest.mark.parametrize("step, levels", [(1, (12, 13, 14)), (2, (10, 12, 14))])
def test_dimension_roots_are_level_roots(step, levels):
    # one table, one root per stencil level, bit for bit; step 2 is the scans'
    delta = 0.3 + 0.2j
    table = build_table(delta, 14)
    res = hausdorff_dim(delta, 14, step=step)
    assert res.roots == tuple(
        transfer._bowen_root(TransferOperator(delta, table, lev))[0]
        for lev in levels)
    assert res.tau0 == res.roots[-1]
    assert res.error_bound == abs(res.roots[-1] - res.roots[-2])
    assert res.aitken_estimate == transfer._aitken(*res.roots)


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


def test_cylinder_measure_power_law():
    # mass ~ n^(1 - 2 dim) while n|delta| <= 1
    delta = 0.05
    table = build_table(delta, 14)
    res = hausdorff_dim(delta, 14, table=table)
    w = equilibrium(delta, res.tau0, table)
    masses = cylinder_measures(w)
    expo = 2.0 * res.aitken_estimate - 1.0
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


def _chi_from_table(delta, w, table):
    """Invariant average of log|Df| at the landing points, endpoint-averaged
    per word, computed from the table without the operator; f(z) = (1 +
    delta) z + z^2."""
    reps = table.points[::1 << (table.level - w.level)]
    logd = np.log(np.abs(1.0 + delta + 2.0 * reps))
    return float(np.sum(w.mu * 0.5 * (logd + np.roll(logd, -1))))


def test_lyapunov_circle(circle_table):
    w = equilibrium(1.0, 1.0, circle_table)
    assert w.chi == pytest.approx(LOG2, abs=1e-12)


def test_lyapunov_positive_on_grid():
    for delta in (0.3, 0.5 + 0.3j, 0.8, 1.2 + 0.4j):
        table = build_table(delta, 10)
        tau = hausdorff_dim(delta, 10, table=table).tau0
        w = equilibrium(delta, tau, table)
        assert w.chi > 0
        assert w.chi == pytest.approx(_chi_from_table(delta, w, table), rel=1e-12)


def test_lyapunov_level_stability():
    delta = 0.5
    vals = []
    for lev in (10, 12):
        table = build_table(delta, lev)
        tau = hausdorff_dim(delta, lev, table=table).tau0
        w = equilibrium(delta, tau, table)
        vals.append(w.chi)
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


def _repeat_lean_perron(op, w, u0=None, rtol=transfer.EIG_RTOL,
                        maxit=transfer.EIG_MAXIT):
    """The lean loop with the allocating kernel: unnormalised iterate, the
    eigenvalue as a ratio of successive sums, no rescale and no Aitken step."""
    n = op.size
    u = np.full(n, 1.0 / n) if u0 is None else u0
    s_old = u.sum()
    lam_old = None
    diff_old = None
    flat_old = False
    for _ in range(maxit):
        u = _repeat_apply(u, w)
        s = u.sum()
        lam = s / s_old
        if lam_old is not None:
            diff = abs(lam - lam_old)
            flat = diff <= transfer.ROUNDING_RTOL * abs(lam)
            if diff == 0.0 or (flat and flat_old):
                return lam, u / s
            flat_old = flat
            if diff_old is not None and diff < diff_old:
                rho = diff / diff_old
                if diff * rho / (1.0 - rho) < rtol * abs(lam):
                    return lam, u / s
            diff_old = diff
        lam_old = lam
        s_old = s
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


def _repeat_lean_equilibrium(op, tau):
    w = op.weights(tau)
    n = op.size
    h = np.full(n, 1.0 / n)
    om = np.full(n, 1.0 / n)
    s_old = h.sum()
    lam_old = None
    diff_old = None
    flat_old = False
    while True:
        h = _repeat_apply(h, w)
        s = h.sum()
        lam = s / s_old
        om = _gather_apply_dual(om, w)
        if lam_old is not None:
            diff = abs(lam - lam_old)
            flat = diff <= transfer.ROUNDING_RTOL * abs(lam)
            if diff == 0.0 or (flat and flat_old):
                break
            flat_old = flat
            if diff_old is not None and diff < diff_old:
                rho = diff / diff_old
                if diff * rho / (1.0 - rho) < transfer.EIG_RTOL * abs(lam):
                    break
            diff_old = diff
        lam_old = lam
        s_old = s
    mu = (h / s) * (om / om.sum())
    return mu / mu.sum(), om / om.sum()


# The lean loops against the old normalising ones: the eigenvalue within
# EIG_RTOL, vectors within VEC_RTOL (observed at most 1.3e-15 on the cases
# below, where both loops stop at the same step).
VEC_RTOL = 1e-12


def _assert_close_to_old(vecs, vecs_old, lam=None, lam_old=None):
    for x, x_old in zip(vecs, vecs_old):
        assert np.all(np.abs(x - x_old) <= VEC_RTOL * x_old)
    if lam is not None:
        assert abs(lam - lam_old) <= transfer.EIG_RTOL * lam_old


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
    # bit for bit against the lean loops with the allocating kernels, and
    # within tolerance of the old normalising loops
    op = TransferOperator(0.3 + 0.2j, table16, 12)
    w = op.weights(1.2)
    lam, u = op._perron(w)
    lam_ref, u_ref = _repeat_lean_perron(op, w)
    assert lam == lam_ref and np.array_equal(u, u_ref)
    lam_old, u_old = _repeat_perron(op, w)
    _assert_close_to_old([u], [u_old], lam, lam_old)
    # warm start: same result, and the caller's start vector is left alone
    w2 = op.weights(1.25)
    u0 = u.copy()
    lam, u2 = op._perron(w2, u)
    lam_ref, u_ref = _repeat_lean_perron(op, w2, u0)
    assert lam == lam_ref and np.array_equal(u2, u_ref)
    lam_old, u_old = _repeat_perron(op, w2, u0)
    _assert_close_to_old([u2], [u_old], lam, lam_old)
    assert np.array_equal(u, u0)
    eq = equilibrium(0.3 + 0.2j, 1.2, table16, 12)
    mu_ref, om_ref = _repeat_lean_equilibrium(op, 1.2)
    assert np.array_equal(eq.mu, mu_ref) and np.array_equal(eq.omega, om_ref)
    mu_old, om_old = _repeat_equilibrium(op, 1.2)
    _assert_close_to_old([eq.mu, eq.omega], [mu_old, om_old])


# ---------------------------------------------------------------------------
# the two-way split of the Perron step at SPLIT_MIN_WORDS words and more,
# against verbatim copies of the unsplit code

def _unsplit_apply(u, w, out=None):
    half = len(u) // 2
    if out is None:
        out = np.empty_like(u)
    pairs = out.reshape(half, 2)
    even, odd = pairs[:, 0], pairs[:, 1]
    np.multiply(u[:half], w[:half], out=even)
    np.multiply(u[half:], w[half:], out=odd)
    even += odd
    odd[...] = even
    return out


def _unsplit_perron(op, w, u0=None, rtol=transfer.EIG_RTOL,
                    maxit=transfer.EIG_MAXIT):
    n = op.size
    u = np.full(n, 1.0 / n) if u0 is None else np.array(u0, dtype=float)
    v = np.empty(n)
    lam_old = None
    diff_old = None
    for _ in range(maxit):
        _unsplit_apply(u, w, out=v)
        s = v.sum()
        lam = s / u.sum()
        np.divide(v, s, out=v)
        u, v = v, u
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


def _unsplit_equilibrium(op, tau):
    w = op.weights(tau)
    n = op.size
    h = np.full(n, 1.0 / n)
    om = np.full(n, 1.0 / n)
    v = np.empty(n)
    vo = np.empty(n)
    lam_old = None
    diff_old = None
    for _ in range(transfer.EIG_MAXIT):
        _unsplit_apply(h, w, out=v)
        lam = v.sum()
        np.divide(v, lam, out=v)
        h, v = v, h
        op.apply_dual(om, w, out=vo)
        np.divide(vo, vo.sum(), out=vo)
        om, vo = vo, om
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
    else:
        raise AssertionError("reference equilibrium did not converge")
    mu = h * om
    mu /= mu.sum()
    return mu, om


DELTA18 = 0.3 + 0.2j


@pytest.fixture(scope="module")
def table18():
    return build_table(DELTA18, 18)


@pytest.fixture(scope="module")
def op18(table18):
    return TransferOperator(DELTA18, table18)


@pytest.fixture(params=["auto", "split", "unsplit"])
def split(request, monkeypatch):
    """Runs a test as the CPU affinity decides, then forced either way."""
    if request.param != "auto":
        monkeypatch.setattr(transfer, "_SPLIT_FROM",
                            transfer.SPLIT_MIN_WORDS if request.param == "split"
                            else float("inf"))


def test_split_follows_cpu_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    two_cpus = len(os.sched_getaffinity(0)) >= 2
    assert transfer._SPLIT_FROM == (transfer.SPLIT_MIN_WORDS if two_cpus
                                    else float("inf"))


def test_halves_sum_identity():
    # numpy's contiguous float64 sum is pairwise with its top split at n/2
    # for power-of-two n >= 256; the split step relies on it
    rng = np.random.default_rng(0)
    for level in (8, 12, 18, 20):
        n = 1 << level
        for x in (rng.random(n), rng.standard_normal(n) * 1e3,
                  rng.exponential(size=n) ** 4):
            h = n // 2
            assert x[:h].sum() + x[h:].sum() == x.sum()
            assert transfer._sum_in_halves(x) == x.sum()


@pytest.mark.usefixtures("split")
def test_split_apply_bit_identical(op18):
    rng = np.random.default_rng(18)
    u = rng.random(op18.size)
    w = op18.weights(1.1)
    u_in = u.copy()
    ref = _unsplit_apply(u, w)
    assert np.array_equal(op18.apply(u, w), ref)
    out = np.full(op18.size, np.nan)
    assert op18.apply(u, w, out=out) is out
    assert np.array_equal(out, ref)
    assert np.array_equal(u, u_in)


def test_split_sums_bit_identical(op18):
    # the one sum of each lean step, on the unnormalised iterate; that
    # iterate over its sum is the old step's normalised one
    n = op18.size
    w = op18.weights(1.1)
    u = np.full(n, 1.0 / n)
    u_old = u.copy()
    for _ in range(3):
        u = _unsplit_apply(u, w)
        s = transfer._sum_in_halves(u)
        assert s == u.sum()
        v = _unsplit_apply(u_old, w)
        u_old = v / v.sum()
        _assert_close_to_old([u / s], [u_old])


def _unsplit_run(monkeypatch, fn, *args):
    """``fn(*args)`` with the split switched off."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "_SPLIT_FROM", float("inf"))
        return fn(*args)


@pytest.mark.usefixtures("split")
def test_split_perron_bit_identical(op18, monkeypatch):
    # bit for bit against the unsplit lean loop, and within tolerance of
    # the old normalising loop
    w = op18.weights(1.1)
    lam, u = op18._perron(w)
    lam_ref, u_ref = _unsplit_run(monkeypatch, op18._perron, w)
    assert lam == lam_ref and np.array_equal(u, u_ref)
    lam_old, u_old = _unsplit_perron(op18, w)
    _assert_close_to_old([u], [u_old], lam, lam_old)
    w2 = op18.weights(1.15)
    u0 = u.copy()
    lam, u2 = op18._perron(w2, u)
    lam_ref, u_ref = _unsplit_run(monkeypatch, op18._perron, w2, u0)
    assert lam == lam_ref and np.array_equal(u2, u_ref)
    lam_old, u_old = _unsplit_perron(op18, w2, u0)
    _assert_close_to_old([u2], [u_old], lam, lam_old)
    assert np.array_equal(u, u0)


@pytest.mark.usefixtures("split")
def test_split_equilibrium_bit_identical(op18, table18, monkeypatch):
    eq = equilibrium(DELTA18, 1.1, table18)
    ref = _unsplit_run(monkeypatch, equilibrium, DELTA18, 1.1, table18)
    assert np.array_equal(eq.mu, ref.mu) and np.array_equal(eq.omega, ref.omega)
    mu_old, om_old = _unsplit_equilibrium(op18, 1.1)
    _assert_close_to_old([eq.mu, eq.omega], [mu_old, om_old])


def _count_calls(monkeypatch, name):
    """Counts calls of ``transfer.<name>`` in ``count[0]``."""
    count = [0]
    fn = getattr(transfer, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)
    monkeypatch.setattr(transfer, name, counted)
    return count


@pytest.mark.usefixtures("split")
def test_rescale_is_exact(op18, table18, monkeypatch):
    # the power-of-two rescale changes no bit: a window of 2^+-2, which
    # rescales every few steps, against the default one, with the Aitken
    # step not firing (tau = 1.4) and firing (tau = 2)
    rescales = _count_calls(monkeypatch, "_rescale")
    aitken = _count_calls(monkeypatch, "_remove_mode")

    def runs():
        out, counts = [], []
        for run in [lambda: op18._perron(op18.weights(1.4)),
                    lambda: op18._perron(op18.weights(2.0)),
                    lambda: equilibrium(DELTA18, 1.4, table18)]:
            rescales[0] = aitken[0] = 0
            out.append(run())
            counts.append((rescales[0], aitken[0]))
        return out, counts
    (plain, fired, eq), counts = runs()
    assert [a > 0 for _, a in counts] == [False, True, False]
    assert all(r == 0 for r, _ in counts)
    with monkeypatch.context() as m:
        m.setattr(transfer, "RESCALE_WINDOW", 4.0)
        (plain_n, fired_n, eq_n), counts = runs()
    assert all(r >= 10 for r, _ in counts)
    for (lam, u), (lam_n, u_n) in [(plain, plain_n), (fired, fired_n)]:
        assert lam == lam_n and np.array_equal(u, u_n)
    assert np.array_equal(eq.mu, eq_n.mu) and np.array_equal(eq.omega, eq_n.omega)
    # a start vector far outside the window
    u0 = np.full(op18.size, 1.0 / op18.size)
    lam, u = op18._perron(op18.weights(1.4), 2.0 ** 600 * u0)
    assert lam == plain[0] and np.array_equal(u, plain[1])


# ---------------------------------------------------------------------------
# the Aitken step on the slow Perron mode

@pytest.fixture
def applications(monkeypatch):
    """Counts ``TransferOperator.apply`` calls."""
    count = [0]
    apply = TransferOperator.apply

    def counted(self, u, w, out=None):
        count[0] += 1
        return apply(self, u, w, out)
    monkeypatch.setattr(TransferOperator, "apply", counted)
    return count


def _without_aitken(monkeypatch, fn, *args):
    """``fn(*args)`` with the Aitken step switched off: the plain loop."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "AITKEN_MIN_RATIO", float("inf"))
        return fn(*args)


def _dense(op, w):
    n = op.size
    a = np.zeros((n, n))
    j = np.arange(n)
    a[j, j // 2] = w[j // 2]
    a[j, j // 2 + n // 2] = w[j // 2 + n // 2]
    return a


def test_remove_mode_is_exact_on_one_mode():
    rng = np.random.default_rng(6)
    x, y = rng.random(1024) + 1.0, rng.standard_normal(1024)
    for rho in (0.9, 0.97, 0.995):
        u = x + 0.3 * rho ** 40 * y       # after the step
        v = x + 0.3 * rho ** 39 * y       # before it
        transfer._remove_mode(u, v, rho)
        assert np.allclose(u, x, rtol=0, atol=1e-12)


# the guard on the stop rule matters at 0.02+0.03j, tau = 2.5: without it
# the loop stops with the eigenvalue 6.5e-12 off
@pytest.mark.parametrize("delta", [0.02 + 0.03j, 0.05 + 0.05j, 0.15 + 0.05j])
@pytest.mark.parametrize("tau", [2.0, 2.5])
def test_perron_aitken_matches_dense_eigenvalue(delta, tau, monkeypatch,
                                                applications):
    op = TransferOperator(delta, build_table(delta, 10))
    w = op.weights(tau)
    a = _dense(op, w)
    ev = np.linalg.eigvals(a)
    lam_dense = ev[np.argmax(ev.real)].real
    lam, u = op._perron(w)
    steps = applications[0]
    applications[0] = 0
    _without_aitken(monkeypatch, op._perron, w)
    assert steps < applications[0]      # the step fired
    assert abs(lam - lam_dense) <= 2e-12 * lam_dense
    assert np.all(u > 0)
    # the dual solve behind equilibrium's mass vector takes the step too,
    # and lands on the dense left eigenvector
    aitken = _count_calls(monkeypatch, "_remove_mode")
    _, om = op._perron(w, dual=True)
    assert aitken[0] > 0
    ev, vecs = np.linalg.eig(a.T)
    om_dense = vecs[:, np.argmax(ev.real)].real
    om_dense /= om_dense.sum()
    assert np.all(np.abs(om - om_dense) <= 2e-9 * om_dense)


def test_iteration_budget(monkeypatch):
    # every Perron solve, primal and dual, stops at EIG_MAXIT steps
    table = build_table(0.3, 10)
    op = TransferOperator(0.3, table)
    monkeypatch.setattr(transfer, "EIG_MAXIT", 3)
    with pytest.raises(NoConvergenceError):
        op.pressure(1.2)
    with pytest.raises(NoConvergenceError):
        op._perron(op.weights(1.2), dual=True)
    with pytest.raises(NoConvergenceError):
        equilibrium(0.3, 1.2, table)


class _Diagonal:
    """Stands in for the operator in ``_perron``: multiplies by ``mu``."""

    def __init__(self, mu):
        self.mu = mu
        self.size = len(mu)

    def apply(self, u, w, out):
        return np.multiply(self.mu, u, out=out)


def test_perron_does_not_stop_on_one_rounding_level_change():
    # the iterate sums are s_k = 1 + 0.5 * 0.9^k + x * (-0.6)^k, with x
    # tuned so that the first two eigenvalue estimates, near 0.968, differ
    # by one ulp; the eigenvalue is 1
    mu = np.array([1.0, 0.9, -0.6, 0.0])
    u0 = np.array([1.0, 0.5, -0.0013568521031209757, 0.0])
    sums = [(mu ** k * u0).sum() for k in range(3)]
    lam1, lam2 = sums[1] / sums[0], sums[2] / sums[1]
    assert 0.0 < abs(lam2 - lam1) <= transfer.ROUNDING_RTOL * lam2
    lam, _ = TransferOperator._perron(_Diagonal(mu), None, u0)
    assert abs(lam - 1.0) <= 1e-12


def test_perron_aitken_from_tau_one_vector(monkeypatch, applications):
    # the tau = 2 bracket end of a root solve, warm-started from tau = 1
    delta = 0.0433 + 0.025j
    op = TransferOperator(delta, build_table(delta, 14))
    _, u1 = op.pressure_with_state(1.0)
    applications[0] = 0
    lam, u = op._perron(op.weights(2.0), u1)
    assert applications[0] <= 600
    assert np.all(u > 0)
    applications[0] = 0
    _without_aitken(monkeypatch, op._perron, op.weights(2.0), u1)
    assert applications[0] > 5000
    # the plain loop at EIG_RTOL is itself about 1e-11 off, so compare with
    # it run to rounding level, at the dense tests' bound
    lam_plain, _ = _without_aitken(monkeypatch, op._perron, op.weights(2.0),
                                   u1, 1e-15)
    assert abs(lam - lam_plain) <= 2e-12 * lam


def test_split_perron_aitken_bit_identical(op18, monkeypatch, applications):
    w = op18.weights(2.0)
    runs = []
    for split_from in (transfer.SPLIT_MIN_WORDS, float("inf")):
        monkeypatch.setattr(transfer, "_SPLIT_FROM", split_from)
        applications[0] = 0
        runs.append((*op18._perron(w), applications[0]))
    (lam_s, u_s, n_s), (lam_u, u_u, n_u) = runs
    assert lam_s == lam_u and np.array_equal(u_s, u_u) and n_s == n_u
    applications[0] = 0
    _without_aitken(monkeypatch, op18._perron, w)
    assert n_s < applications[0]     # the step fired


def _root_path(op):
    """Root of ``_bowen_root`` and the taus it evaluates the pressure at."""
    taus = []
    state = op.pressure_with_state

    def recorded(tau, u0=None):
        taus.append(tau)
        return state(tau, u0)
    op.pressure_with_state = recorded
    try:
        return transfer._bowen_root(op)[0], taus
    finally:
        del op.pressure_with_state


@pytest.mark.parametrize("delta", [0.4 / math.sqrt(2),
                                   0.4 / math.sqrt(2) * complex(
                                       math.cos(0.5236), math.sin(0.5236))])
def test_bowen_root_path_unchanged_by_aitken(delta, monkeypatch):
    op = TransferOperator(delta, build_table(delta, 16))
    root, taus = _root_path(op)
    root_plain, taus_plain = _without_aitken(monkeypatch, _root_path, op)
    assert len(taus) == len(taus_plain) == 7
    assert taus == pytest.approx(taus_plain, rel=0, abs=1e-12)
    assert root == pytest.approx(root_plain, rel=0, abs=1e-12)
