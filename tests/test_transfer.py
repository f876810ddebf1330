import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from juliadim import maps, transfer
from juliadim.boettcher import anchor_point, build_table, unmirror
from juliadim.errors import BracketFailureError, NoConvergenceError
from juliadim.perturbation import phi_dot_table
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
    for n in (19, 0, -1):
        with pytest.raises(ValueError):
            pressure_oracle(1.0, 1.0, circle_table, n)


def _full_enumeration(delta, tau, table, n):
    """All 2^n preimages of the anchor of angle 1/2 held at once."""
    z = np.array([anchor_point(table, 0)])
    deriv = np.array([1.0 + 0j])
    for _ in range(n):
        w1, w2 = maps.preimage_pair(delta, z)
        z = np.concatenate([w1, w2])
        deriv = np.concatenate([maps.evaluate_deriv(delta, w1) * deriv,
                                maps.evaluate_deriv(delta, w2) * deriv])
    return np.log(np.sum(np.abs(deriv) ** (-tau))) / n


@pytest.mark.parametrize("n", [10, 16])
def test_pressure_oracle_matches_full_enumeration(n):
    # from depth ORACLE_SUBTREE_DEPTH + 1 on the tree is enumerated one
    # subtree at a time; the same preimages sum to the same pressure
    for delta, tau, level in ((0.8, 1.05, 16), (0.3 + 0.2j, 1.2, 12)):
        table = build_table(delta, level)
        want = _full_enumeration(delta, tau, table, n)
        assert abs(pressure_oracle(delta, tau, table, n) - want) <= 1e-14 * abs(want)


def test_pressure_oracle_peak_memory():
    # subtrees of 2^14 preimages: measured 1.63 MiB at depth 18, where all
    # 2^18 preimages with their derivatives took 18 MiB
    table = build_table(0.8, 12)
    tracemalloc.start()
    try:
        pressure_oracle(0.8, 1.05, table, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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


@pytest.mark.parametrize("delta", [0.3, 0.3 + 0.2j])
@pytest.mark.parametrize("level", [0, -1])
def test_operator_level_below_one_refused(delta, level):
    # an operator has at least the two words of level 1
    table = build_table(delta, 8)
    with pytest.raises(ValueError, match=f"^level {level} below 1$"):
        TransferOperator(delta, table, level)
    with pytest.raises(ValueError, match=f"^level {level} below 1$"):
        pressure(delta, 1.2, table, level=level)


@pytest.mark.parametrize("delta", [0.3j, 0, 2.236])
def test_dimension_outside_attracting_disk(delta):
    # outside B(1, 1), the parabolic point delta = 0 included
    with pytest.raises(ValueError, match="outside the attracting disk"):
        hausdorff_dim(delta, 10)


@pytest.mark.parametrize("tol", [1.0, -1.0, math.nan])
def test_dimension_tolerance_outside_its_range_refused(tol):
    # tol 1 accepted tau = 1 at delta 0.3, whose pressure is 0.027 (the
    # root is 1.0428); no bracket meets a tol <= 0 or nan
    with pytest.raises(ValueError, match=f"^tol {tol!r} outside "):
        hausdorff_dim(0.3, 10, tol=tol)


@pytest.mark.parametrize("step", [0, 5, -1])
def test_dimension_step_outside_its_range_refused(step):
    # step 0 solved one level three times, with error bound 0; the
    # coarsest level of step 5 at level 10 is 0, an operator of no words
    with pytest.raises(ValueError, match=f"^step {step} outside 1..4 at "
                                         "level 10$"):
        hausdorff_dim(0.3, 10, step=step)


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


def _dimension_solve_peak(delta, level):
    tracemalloc.start()
    try:
        hausdorff_dim(delta, level)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dimension_solve_peak_memory():
    # hausdorff_dim drops its table once it has formed log|Df|, and each
    # operator, its root's Perron vector and the spent path vector as soon
    # as they are done; the Perron solves iterate in the start vectors the
    # root solve makes. Measured 4.64 MiB (5.26 MiB when every solve copied
    # its start and the table lived until the operators were built)
    assert _dimension_solve_peak(0.05, 18) <= 5 * 2 ** 20


def test_level_20_dimension_solve_peak_memory():
    # the table stores the angles in [0, 1/2] (8 MiB, not 16) and lives
    # only until log|Df| (4 MiB) is formed from it; the top solve then holds
    # log|Df|, the weights, two iterates and the last path vector. Measured
    # 15.0 MiB (21.0 MiB with the table alive while the operators were
    # built and every start copied, 31 MiB when the table held every angle)
    assert _dimension_solve_peak(0.05, 20) <= 16 * 2 ** 20


@pytest.mark.parametrize("delta", [0.05, 0.3 + 0.2j])
@pytest.mark.parametrize("step", [1, 2])
def test_dimension_solve_operators_are_the_table_operators(delta, step,
                                                           monkeypatch):
    # the stencil operators formed from one log|Df| array, the coarser ones
    # from strided views of it, are those of the table, bit for bit
    level = 14
    seen = []
    bowen_root = transfer._bowen_root

    def recorded(op, *args, **kwargs):
        seen.append((op.level, op.log_deriv.tobytes()))
        return bowen_root(op, *args, **kwargs)
    monkeypatch.setattr(transfer, "_bowen_root", recorded)
    hausdorff_dim(delta, level, step=step)
    table = build_table(delta, level)
    levels = (level - 2 * step, level - step, level)
    assert seen == [
        (lev, TransferOperator(delta, table, lev).log_deriv.tobytes())
        for lev in levels]


@pytest.mark.parametrize("delta, table_delta", [(0.3 + 0.2j, 0.3),
                                                (0.3, 0.3 + 0.2j),
                                                (0.31, 0.3)])
def test_table_of_another_delta_is_refused(delta, table_delta):
    # a table weights the points of the delta it was built at; at another
    # delta it would give a plain wrong dimension, and a mirrored one would
    # be read as if it held every angle
    table = build_table(table_delta, 10)
    good = build_table(delta, 10)
    tau = hausdorff_dim(delta, 10, table=good).tau0
    w = equilibrium(delta, tau, good)
    with pytest.raises(ValueError, match="table built for delta"):
        TransferOperator(delta, table)
    with pytest.raises(ValueError, match="table built for delta"):
        equilibrium(delta, tau, table)
    with pytest.raises(ValueError, match="table built for delta"):
        directional_derivative_formula(delta, table, w)
    with pytest.raises(ValueError, match="table built for delta"):
        phi_dot_table(delta, table)


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
        formula = directional_derivative_formula(delta, table, w)
        h = abs(delta) / 100.0
        dims = []
        for sgn in (1.0, -1.0):
            d2 = delta + sgn * h * v
            t2 = build_table(d2, level)
            op = TransferOperator(d2, t2, level)
            dims.append(transfer._bowen_root(op)[0])
        fd = (dims[0] - dims[1]) / (2.0 * h)
        assert abs(formula - fd) / abs(fd) < 1e-3


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.5])
def test_mirrored_derivative_is_the_full_points_derivative(delta):
    # at real delta Df commutes with conjugation bit for bit, one of the
    # identities that let the formula mirror its integrand of the stored
    # points instead of rebuilding all points
    table = build_table(delta, 12)
    assert table.mirrored
    assert (unmirror(maps.evaluate_deriv(delta, table.stored)).tobytes() ==
            maps.evaluate_deriv(delta, table.points).tobytes())


def _phi_dot_of_all_points(delta, pts):
    """The phi-dot recursion on all angles of the full point array ``pts``."""
    n = len(pts)
    phi = np.zeros(n, dtype=complex)
    for j in reversed(range(n.bit_length() - 1)):
        k = np.arange(1 << j, n, 2 << j)
        p = pts[k]
        phi[k] = (phi[2 * k % n] - p) / maps.evaluate_deriv(delta, p)
    return phi


def _formula_of_all_points(delta, table, w):
    """``directional_derivative_formula`` from all of the table's points."""
    delta = complex(delta)
    v = delta / abs(delta)
    stride = 1 << (table.level - w.level)
    pts = table.points
    deriv = maps.evaluate_deriv(delta, pts[::stride])
    pdot = _phi_dot_of_all_points(delta, pts)[::stride]
    integrand = transfer._endpoint_mean(np.real((v + 2.0 * v * pdot) / deriv),
                                        len(deriv))
    return -w.tau / w.chi * float(np.sum(w.mu * integrand))


@pytest.mark.parametrize("delta", [0.05, 0.3, 0.8])
def test_mirrored_phi_dot_and_formula_are_the_full_points_ones(delta):
    # on a mirrored table phi-dot and the formula's integrand are computed
    # at the stored angles only; bit for bit the values of the recursion and
    # the formula on all points, the formula at every level up to the
    # table's, the stencil levels below it included
    rng = np.random.default_rng(23)
    for level in range(8, 17):
        table = build_table(delta, level)
        assert table.mirrored
        full = _phi_dot_of_all_points(complex(delta), table.points)
        assert unmirror(phi_dot_table(delta, table)).tobytes() == full.tobytes()
        for lev in range(1, level + 1):
            mu = rng.random(1 << lev)
            w = transfer.EquilibriumWeights(lev, 1.1, mu / mu.sum(),
                                            mu / mu.sum(), 0.3)
            assert (directional_derivative_formula(delta, table, w) ==
                    _formula_of_all_points(delta, table, w))


def test_directional_derivative_sign_real_ray():
    delta = 0.3
    table = build_table(delta, 11)
    tau = hausdorff_dim(delta, 11, table=table).tau0
    w = equilibrium(delta, tau, table)
    assert directional_derivative_formula(delta, table, w) < 0


def test_directional_derivative_conjugate_rays():
    vals = []
    for delta in (0.3 + 0.15j, 0.3 - 0.15j):
        table = build_table(delta, 10)
        tau = hausdorff_dim(delta, 10, table=table).tau0
        w = equilibrium(delta, tau, table)
        vals.append(directional_derivative_formula(delta, table, w))
    assert vals[0] == pytest.approx(vals[1], abs=1e-10)


def test_orbit_expansion_report():
    delta = 0.05
    table = build_table(delta, 10)
    rep = transfer.orbit_expansion_check(delta, table, 8, k_max=200)
    assert rep["min_deriv_over_k2"] > 0
    assert rep["min_full_deriv"] > 1.0
    assert rep["min_partial_deriv"] > 0


# ---------------------------------------------------------------------------
# the allocation-free kernels on pair sums against allocating formulas

def _repeat_apply(u, w):
    """The operator L = D S W on its words, ``w`` in word order."""
    t = u * w
    half = len(t) // 2
    return np.repeat(t[:half] + t[half:], 2)


def _gather_apply_dual(om, w):
    """L^T on the operator's words, ``w`` in word order."""
    n = len(om)
    idx = np.arange(n)
    return w * (om[(2 * idx) % n] + om[(2 * idx + 1) % n])


def _pair_apply(c, w):
    """K = S W D on pair sums, ``w`` in word order."""
    t = np.repeat(c, 2) * w
    return t[:len(c)] + t[len(c):]


def _pair_apply_dual(mu, w):
    """K^T = D^T W S^T on pair sums, ``w`` in word order."""
    t = np.tile(mu, 2) * w
    return t[0::2] + t[1::2]


def _conformal(mu, w):
    """W S^T mu at unit sum, ``w`` in word order."""
    om = np.tile(mu, 2) * w
    return om / om.sum()


def _allocating_run(monkeypatch, fn, *args):
    """``fn(*args)`` with ``apply`` and ``apply_dual`` computed by the
    allocating formulas above and copied into ``out``, and the module's
    kernels refused: ``(fn's result, (apply calls, apply_dual calls))``,
    after asserting that the formulas ran."""
    calls = [0, 0]

    def apply(self, u, w, out=None):
        calls[0] += 1
        out[...] = _pair_apply(u, w)
        return out.sum()

    def apply_dual(self, om, w, out=None):
        calls[1] += 1
        out[...] = _pair_apply_dual(om, w)
        return out.sum()

    def kernel(*args):
        raise AssertionError("a kernel ran outside apply and apply_dual")
    with monkeypatch.context() as m:
        m.setattr(TransferOperator, "apply", apply)
        m.setattr(TransferOperator, "apply_dual", apply_dual)
        m.setattr(transfer, "_pair_step", kernel)
        m.setattr(transfer, "_dual_sums", kernel)
        result = fn(*args)
    assert sum(calls) > 0
    return result, tuple(calls)


def _converged_perron(op, w, u0=None, dual=False):
    """Reference Perron solve on the operator's words: normalising power
    iteration of L (or L^T) with the allocating formulas, from the uniform
    vector or the expanded pair sums ``u0``, run until the
    Collatz-Wielandt spread of a step is at most ``REF_SPREAD``; the
    eigenvalue is then that close."""
    step = _gather_apply_dual if dual else _repeat_apply
    n = len(w)
    u = np.full(n, 1.0 / n) if u0 is None else np.repeat(u0 / u0.sum(), 2) / 2
    for _ in range(20_000):
        v = step(u, w)
        ratio = v / u
        if ratio.max() / ratio.min() - 1.0 <= REF_SPREAD:
            return v.sum(), v / v.sum()
        u = v / v.sum()
    raise AssertionError("reference power iteration did not converge")


def _converged_equilibrium(op, tau):
    w = op.weights(tau)
    h = _converged_perron(op, w)[1]
    om = _converged_perron(op, w, dual=True)[1]
    mu = h * om
    return mu / mu.sum(), om


# Against the reference run to a spread of REF_SPREAD, just above rounding:
# the eigenvalue within EIG_RTOL and vectors within VEC_RTOL relative
# (observed at most 2.9e-12 on the cases below, from a spread of 1e-12).
REF_SPREAD = 1e-14
VEC_RTOL = 1e-11


def _assert_close_to_ref(vecs, vecs_ref, lam=None, lam_ref=None):
    for x, x_ref in zip(vecs, vecs_ref):
        assert np.all(np.abs(x - x_ref) <= VEC_RTOL * x_ref)
    if lam is not None:
        assert abs(lam - lam_ref) <= transfer.EIG_RTOL * lam_ref


@pytest.fixture(scope="module")
def table16():
    return build_table(0.3 + 0.2j, 16)


@pytest.fixture(scope="module")
def table13():
    return build_table(0.3, 13)


@pytest.mark.parametrize("level", range(1, 17))
def test_kernels_bit_identical(table16, table13, level):
    # complex delta at every level, folded real delta up to 13; the
    # one-pair-sum operators are complex level 1 and real levels 1 and 2
    cases = [(0.3 + 0.2j, table16)] + ([(0.3, table13)] if level <= 13 else [])
    for delta, table in cases:
        op = TransferOperator(delta, table, level)
        n = len(op.log_deriv)
        assert op.size == n // 2
        rng = np.random.default_rng(level)
        u = rng.random(op.size)
        w = rng.random(n)
        u_in, w_in = u.copy(), w.copy()
        ref = _pair_apply(u, w)
        assert op.apply(u, w) == ref.sum()
        out = np.full(op.size, np.nan)
        assert op.apply(u, w, out=out) == ref.sum()
        assert np.array_equal(out, ref)
        ref_dual = _pair_apply_dual(u, w)
        assert op.apply_dual(u, w) == ref_dual.sum()
        assert op.apply_dual(u, w, out=out) == ref_dual.sum()
        assert np.array_equal(out, ref_dual)
        assert np.array_equal(u, u_in) and np.array_equal(w, w_in)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2 ** 32 - 1))
def test_pair_kernels_are_the_operator_on_expanded_vectors(p, seed):
    # D K c = L D c and W S^T K^T mu = L^T W S^T mu word for word, on 2^p
    # operator words; the kernels read nothing of the operator, so they run
    # unbound
    rng = np.random.default_rng(seed)
    n = 1 << p
    c, mu, w = rng.random(n // 2), rng.random(n // 2), rng.random(n)
    out = np.empty(n // 2)
    TransferOperator.apply(None, c, w, out)
    assert np.array_equal(np.repeat(out, 2),
                          _repeat_apply(np.repeat(c, 2), w))
    TransferOperator.apply_dual(None, mu, w, out)
    assert np.array_equal(np.tile(out, 2) * w,
                          _gather_apply_dual(np.tile(mu, 2) * w, w))


def test_expanded_vectors_are_the_index_form(table16):
    # the Perron vectors on the operator's words, against the formulas
    for level in range(1, 11):
        op = TransferOperator(0.3 + 0.2j, table16, level)
        x = np.random.default_rng(level).random(len(op.log_deriv))
        c = x[:op.size] / x[:op.size].sum()
        assert np.array_equal(op.expand(c), np.repeat(c, 2) / 2)
        assert np.allclose(op.conformal(c, x), _conformal(c, x),
                           rtol=1e-15, atol=0)


def test_kernel_scratch_within_the_step_on_real_halves(table19_real):
    # one apply and one apply_dual on a folded level-18 operator, 2^16 pair
    # sums. The primal step allocates one block of complex pairs, a quarter
    # of the 2^15 pairs, and numpy casts the real halves to complex through
    # a buffer of at most getbufsize() values: 256 KiB at numpy's default,
    # the temporary of half the pair sums that the step on real halves
    # made. An unblocked complex product of the upper half takes 512 KiB of
    # its own. The dual allocates its one temporary of all pair sums
    op = TransferOperator(0.3, table19_real, 18)
    assert op.size == 1 << 16
    w = op.weights(1.1)
    u, out = np.full(op.size, 1.0 / op.size), np.empty(op.size)
    block = max(transfer.PAIR_BLOCK, op.size // 8)
    for step, scratch in [(op.apply, 16 * (block + np.getbufsize())),
                          (op.apply_dual, 8 * op.size)]:
        tracemalloc.start()
        try:
            step(u, w, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scratch + 4096, step.__name__


def test_power_steps_bit_identical(table16):
    # bit for bit against the allocating pair-sum step, and within rounding
    # of the old step on all words, whose iterate is the expanded one
    op = TransferOperator(0.3 + 0.2j, table16, 14)
    w = op.weights(1.1)
    m = op.size
    c_ref = np.full(m, 1.0 / m)
    c = np.full(m, 1.0 / m)
    u_old = np.full(2 * m, 1.0 / (2 * m))
    v = np.empty(m)
    for _ in range(50):
        t = _pair_apply(c_ref, w)
        s_ref = t.sum()
        lam_ref = s_ref / c_ref.sum()
        c_ref = t / s_ref
        s = op.apply(c, w, out=v)
        lam = s / c.sum()
        np.divide(v, s, out=v)
        c, v = v, c
        assert lam == lam_ref
        t = _repeat_apply(u_old, w)
        assert abs(lam - t.sum() / u_old.sum()) <= 1e-14 * lam
        u_old = t / t.sum()
    assert np.array_equal(c, c_ref)
    assert np.all(np.abs(op.expand(c) - u_old) <= 1e-13 * u_old)


def test_perron_and_equilibrium_bit_identical(table16, table13, monkeypatch):
    # bit for bit against the loops run with the allocating kernels, one
    # formula call per step of the loop itself, and within tolerance of the
    # converged reference on all words: complex level 12 (2^10 pairs, one
    # block of the primal step), folded real level 13 and complex level 15
    # (2^13 pairs, two blocks)
    primal = _count_calls(monkeypatch, "apply", TransferOperator)
    dual = _count_calls(monkeypatch, "apply_dual", TransferOperator)
    for delta, table, level in [(0.3 + 0.2j, table16, 12), (0.3, table13, 13),
                                (0.3 + 0.2j, table16, 15)]:
        op = TransferOperator(delta, table, level)
        w = op.weights(1.2)
        primal[0] = 0
        lam, u = op._perron(w)
        (lam_a, u_a), calls = _allocating_run(monkeypatch, op._perron, w)
        assert lam == lam_a and np.array_equal(u, u_a)
        assert calls == (primal[0], 0)
        lam_ref, u_ref = _converged_perron(op, w)
        _assert_close_to_ref([op.expand(u)], [u_ref], lam, lam_ref)
        # warm start: same result, iterated in the start vector itself
        w2 = op.weights(1.25)
        u0 = u.copy()
        primal[0] = 0
        lam, u2 = op._perron(w2, u)
        (lam_a, u_a), calls = _allocating_run(monkeypatch, op._perron, w2,
                                              u0.copy())
        assert lam == lam_a and np.array_equal(u2, u_a)
        assert calls == (primal[0], 0)
        lam_ref, u_ref = _converged_perron(op, w2, u0)
        _assert_close_to_ref([op.expand(u2)], [u_ref], lam, lam_ref)
        assert u2 is u or not np.array_equal(u, u0)
        primal[0] = dual[0] = 0
        eq = equilibrium(delta, 1.2, table, level)
        eq_a, calls = _allocating_run(monkeypatch, equilibrium, delta, 1.2,
                                      table, level)
        assert (np.array_equal(eq.mu, eq_a.mu) and
                np.array_equal(eq.omega, eq_a.omega))
        assert calls == (primal[0], dual[0]) and min(calls) > 0
        _assert_close_to_ref([eq.mu, eq.omega],
                             map(op.unfold, _converged_equilibrium(op, 1.2)))


# ---------------------------------------------------------------------------
# the real-delta fold onto n/2 words in Gray order

def _gray_index_form(x):
    """``out[j ^ (j >> 1)] = x[j]`` with an index array."""
    j = np.arange(len(x))
    out = np.empty_like(x)
    out[j ^ (j >> 1)] = x
    return out


def _folded(x):
    """The lower half of a mirror-symmetric ``x`` in Gray order."""
    return _gray_index_form(x[:len(x) // 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_gray_fold_is_the_index_form_and_unfolds_exactly(table13, p, seed):
    x = np.random.default_rng(seed).random(1 << p) + 1e-3
    y = x.copy()
    transfer._gray_fold(y)
    assert np.array_equal(y, _gray_index_form(x))
    transfer._gray_fold(y, inverse=True)
    assert np.array_equal(y, x)
    # a unit-sum mirror-symmetric vector, folded at twice its weight
    op = TransferOperator(0.3, table13, p + 1)
    assert len(op.log_deriv) == len(x)
    full = np.concatenate([x, x[::-1]]) / (2.0 * x.sum())
    assert np.array_equal(op.unfold(2.0 * _folded(full)), full)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_folded_kernels_match_full_kernels_on_mirrored_vectors(p, seed):
    # on mirror-symmetric vectors the pair-sum kernels of the 2^p words in
    # Gray order, expanded, are the full kernels on all 2^(p+1) words; they
    # read nothing of the operator, so they run unbound
    rng = np.random.default_rng(seed)
    c, mu = rng.random(1 << (p - 1)) + 1e-3, rng.random(1 << (p - 1)) + 1e-3
    ld = rng.standard_normal(1 << p)
    w_full = np.exp(-np.concatenate([ld, ld[::-1]]))
    w = _folded(w_full)

    def mirrored(x):
        lower = x.copy()
        transfer._gray_fold(lower, inverse=True)
        return np.concatenate([lower, lower[::-1]])
    out = np.empty(len(c))
    s = TransferOperator.apply(None, c, w, out)
    ref = _repeat_apply(mirrored(np.repeat(c, 2)), w_full)
    d_out = np.repeat(out, 2)
    assert np.all(np.abs(d_out - _folded(ref)) <= 1e-15 * d_out)
    assert abs(s - ref.sum() / 4.0) <= 1e-15 * s
    # K^T mu is D^T of the conformal vector W S^T mu on all words, and
    # L^T maps that vector to W S^T K^T mu
    s = TransferOperator.apply_dual(None, mu, w, out)
    om = mirrored(np.tile(mu, 2) * w)
    ref = om[0::2] + om[1::2]
    assert np.all(np.abs(out - _folded(ref)) <= 1e-15 * out)
    assert abs(s - ref.sum() / 2.0) <= 1e-15 * s
    ref = _gather_apply_dual(om, w_full)
    x = np.tile(out, 2) * w
    assert np.all(np.abs(x - _folded(ref)) <= 1e-15 * x)


@pytest.mark.parametrize("delta, level", [(0.05, 20), (0.8, 14), (0.3, 12),
                                          (1.0, 10), (0.0475, 16)])
def test_real_delta_weights_are_mirror_symmetric_and_folded(delta, level):
    # the fold rests on w[k] == w[n-1-k] bit for bit at real delta
    table = build_table(delta, level)
    ld = _full_log_deriv(delta, table)
    assert np.array_equal(ld, ld[::-1])
    assert np.array_equal(TransferOperator(delta, table).log_deriv,
                          _folded(ld))


@pytest.mark.parametrize("delta", [0.05, 0.8])
def test_folded_solve_matches_near_real_unfolded_solve(delta):
    # delta + 1e-12j is never folded: it runs the full kernel on all words
    level, near_real = 14, delta + 1e-12j
    table, table_c = build_table(delta, level), build_table(near_real, level)
    op, op_c = TransferOperator(delta, table), TransferOperator(near_real,
                                                                table_c)
    assert 2 * len(op.log_deriv) == len(op_c.log_deriv) == 1 << level
    a = hausdorff_dim(delta, level, table=table)
    b = hausdorff_dim(near_real, level, table=table_c)
    assert np.all(np.abs(np.subtract(a.roots, b.roots)) <= 1e-12)
    assert abs(a.aitken_estimate - b.aitken_estimate) <= 1e-11
    tau, _, h = transfer._bowen_root(op)
    eq = equilibrium(delta, tau, table, h=h)
    eq_c = equilibrium(near_real, tau, table_c)
    for x, x_c in [(eq.mu, eq_c.mu), (eq.omega, eq_c.omega)]:
        assert np.all(np.abs(x - x_c) <= 1e-10 * x_c)
    assert abs(eq.chi - eq_c.chi) <= 1e-12
    # the unfolded Perron vector, certified on the full kernel
    h_full = op.unfold(op.expand(h))
    w_full = np.exp(-tau * _full_log_deriv(delta, table))
    assert transfer._cw_spread(_repeat_apply(h_full, w_full), h_full,
                               1.0)[0] <= 2e-12


# ---------------------------------------------------------------------------
# the two-way split of the Perron loop from SPLIT_MIN_WORDS weights, that is
# half as many pair sums, on, against the unsplit code

# the pair sums from which the loop is split on two CPUs
SPLIT_PAIR_SUMS = transfer.SPLIT_MIN_WORDS // 2

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
                            SPLIT_PAIR_SUMS if request.param == "split"
                            else float("inf"))


@pytest.mark.parametrize("pairs", [transfer.PAIR_BLOCK - 1,
                                   transfer.PAIR_BLOCK,
                                   transfer.PAIR_BLOCK + 1,
                                   4 * transfer.PAIR_BLOCK + 1])
@pytest.mark.parametrize("split", [True, False], ids=["split", "unsplit"])
def test_split_kernels_bit_identical_at_block_edges(monkeypatch, split, pairs):
    # each kernel call covers ``pairs`` complex pairs, so the primal step's
    # last block is one pair short of full, full, or one pair, and past four
    # full blocks each block grows by one pair and the last is short; split,
    # each half covers them.
    # The sum returned is that of the output, or of its halves when split:
    # they add up to the whole bit for bit only on power-of-two lengths
    n = (4 if split else 2) * pairs          # pair sums
    monkeypatch.setattr(transfer, "_SPLIT_FROM", n if split else float("inf"))
    handoffs = _count_calls(monkeypatch, "submit", transfer._HALF_POOL)
    rng = np.random.default_rng(pairs)
    c, w = rng.random(n), rng.random(2 * n)
    c_in, w_in = c.copy(), w.copy()
    out = np.full(n, np.nan)
    for kernel, formula in [(TransferOperator.apply, _pair_apply),
                            (TransferOperator.apply_dual, _pair_apply_dual)]:
        ref = formula(c, w)
        total = ref[:n // 2].sum() + ref[n // 2:].sum() if split else ref.sum()
        assert kernel(None, c, w, out) == total
        assert np.array_equal(out, ref)
        out[...] = np.nan
    assert np.array_equal(c, c_in) and np.array_equal(w, w_in)
    assert handoffs[0] == 2 * split


def test_split_follows_cpu_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    two_cpus = len(os.sched_getaffinity(0)) >= 2
    assert transfer._SPLIT_FROM == (SPLIT_PAIR_SUMS if two_cpus
                                    else float("inf"))


def test_halves_sum_identity(monkeypatch):
    # numpy's contiguous float64 sum is pairwise with its top split at n/2
    # for power-of-two n >= 256; every split pass relies on it
    monkeypatch.setattr(transfer, "_SPLIT_FROM", 256)
    rng = np.random.default_rng(0)
    for level in (8, 12, 18, 20):
        n = 1 << level
        for x in (rng.random(n), rng.standard_normal(n) * 1e3,
                  rng.exponential(size=n) ** 4):
            h = n // 2
            assert x[:h].sum() + x[h:].sum() == x.sum()
            assert sum(transfer._halves(np.ndarray.sum, (x,))) == x.sum()


@pytest.mark.usefixtures("split")
def test_split_apply_bit_identical(op18):
    rng = np.random.default_rng(18)
    u = rng.random(op18.size)
    w = op18.weights(1.1)
    u_in = u.copy()
    ref = _pair_apply(u, w)
    assert op18.apply(u, w) == ref.sum()
    out = np.full(op18.size, np.nan)
    assert op18.apply(u, w, out=out) == ref.sum()
    assert np.array_equal(out, ref)
    ref_dual = _pair_apply_dual(u, w)
    assert op18.apply_dual(u, w, out=out) == ref_dual.sum()
    assert np.array_equal(out, ref_dual)
    assert np.array_equal(u, u_in)


def test_split_sums_bit_identical(op18, monkeypatch):
    # the fused step, split and not: the sum each apply returns is that of
    # its output, on the unnormalised iterate; that iterate over its sum is
    # the old step's normalised one
    n = op18.size
    w = op18.weights(1.1)
    v = np.empty(n)
    for split_from in (SPLIT_PAIR_SUMS, float("inf")):
        monkeypatch.setattr(transfer, "_SPLIT_FROM", split_from)
        u = np.full(n, 1.0 / n)
        u_old = u.copy()
        for _ in range(3):
            s = op18.apply(u, w, v)
            u = _pair_apply(u, w)
            assert np.array_equal(v, u) and s == u.sum()
            t = _pair_apply(u_old, w)
            u_old = t / t.sum()
            assert np.all(np.abs(u / s - u_old) <= 1e-12 * u_old)
        assert (op18.apply_dual(u, w, v)
                == _pair_apply_dual(u, w).sum())


def _unsplit_run(monkeypatch, fn, *args):
    """``fn(*args)`` with the split switched off."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "_SPLIT_FROM", float("inf"))
        return fn(*args)


@pytest.mark.usefixtures("split")
def test_split_perron_bit_identical(op18, monkeypatch):
    # bit for bit against the unsplit loop, and within tolerance of the
    # converged reference
    w = op18.weights(1.1)
    lam, u = op18._perron(w)
    lam_u, u_u = _unsplit_run(monkeypatch, op18._perron, w)
    assert lam == lam_u and np.array_equal(u, u_u)
    lam_ref, u_ref = _converged_perron(op18, w)
    _assert_close_to_ref([op18.expand(u)], [u_ref], lam, lam_ref)
    w2 = op18.weights(1.15)
    u0 = u.copy()
    lam, u2 = op18._perron(w2, u)
    lam_u, u_u = _unsplit_run(monkeypatch, op18._perron, w2, u0.copy())
    assert lam == lam_u and np.array_equal(u2, u_u)
    lam_ref, u_ref = _converged_perron(op18, w2, u0)
    _assert_close_to_ref([op18.expand(u2)], [u_ref], lam, lam_ref)
    assert u2 is u or not np.array_equal(u, u0)


@pytest.mark.usefixtures("split")
def test_split_equilibrium_bit_identical(op18, table18, monkeypatch):
    eq = equilibrium(DELTA18, 1.1, table18)
    ref = _unsplit_run(monkeypatch, equilibrium, DELTA18, 1.1, table18)
    assert np.array_equal(eq.mu, ref.mu) and np.array_equal(eq.omega, ref.omega)
    _assert_close_to_ref([eq.mu, eq.omega], _converged_equilibrium(op18, 1.1))


@pytest.fixture(scope="module")
def table19_real():
    return build_table(0.3, 19)


@pytest.mark.usefixtures("split")
def test_split_folded_perron_bit_identical(table19_real, monkeypatch):
    # a real delta at level 19 folds onto 2^18 = SPLIT_MIN_WORDS words, the
    # fewest whose passes are split, when forced or on two CPUs: the
    # pair-sum kernels, primal and dual, then run both ways
    op = TransferOperator(0.3, table19_real)
    assert len(op.log_deriv) == transfer.SPLIT_MIN_WORDS
    assert op.size == SPLIT_PAIR_SUMS
    handoffs = _count_calls(monkeypatch, "submit", transfer._HALF_POOL)
    w = op.weights(1.1)
    for dual in (False, True):
        lam, u = op._perron(w, dual=dual)
        lam_u, u_u = _unsplit_run(monkeypatch,
                                  lambda: op._perron(w, dual=dual))
        assert lam == lam_u and np.array_equal(u, u_u)
    assert (handoffs[0] > 0) == (op.size >= transfer._SPLIT_FROM)
    eq = equilibrium(0.3, 1.1, table19_real)
    ref = _unsplit_run(monkeypatch, equilibrium, 0.3, 1.1, table19_real)
    assert np.array_equal(eq.mu, ref.mu) and np.array_equal(eq.omega, ref.omega)


def _count_calls(monkeypatch, name, owner=transfer):
    """Counts calls of ``owner.<name>`` in ``count[0]``."""
    count = [0]
    fn = getattr(owner, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return count


def _one_apply_per_step(monkeypatch, op, dual):
    """Runs five power steps of ``op``, primal or dual, and the pair the
    loop reports after them: each is one call of ``apply`` (``apply_dual``)
    on the calling thread, which runs the kernel once, or once per half
    with one handoff to the worker thread when split, and no kernel runs
    outside those calls."""
    handoffs = _count_calls(monkeypatch, "submit", transfer._HALF_POOL)
    name, kernel_name = (("apply_dual", "_dual_sums") if dual
                         else ("apply", "_pair_step"))
    kernel = getattr(transfer, kernel_name)
    kernels = []            # list.append is atomic across the two threads

    def counted_kernel(*args):
        kernels.append(threading.current_thread())
        return kernel(*args)
    monkeypatch.setattr(transfer, kernel_name, counted_kernel)
    per_step = []
    step = getattr(TransferOperator, name)

    def counted(self, u, w, out=None):
        assert threading.current_thread() is threading.main_thread()
        before = handoffs[0], len(kernels)
        s = step(self, u, w, out)
        per_step.append((handoffs[0] - before[0], len(kernels) - before[1]))
        return s
    monkeypatch.setattr(TransferOperator, name, counted)
    monkeypatch.setattr(transfer, "EIG_MAXIT", 5)
    with pytest.raises(NoConvergenceError):
        op._perron(op.weights(1.1), dual=dual)
    split = op.size >= transfer._SPLIT_FROM
    assert per_step == [(int(split), 1 + split)] * (5 + 1)
    assert len(kernels) == 6 * (1 + split)


@pytest.mark.usefixtures("split")
@pytest.mark.parametrize("dual", [False, True])
def test_split_step_is_one_apply_one_handoff(op18, monkeypatch, dual):
    # each power step calls apply once, on the calling thread, and hands
    # work to the worker thread once when split, for the step and its sum
    _one_apply_per_step(monkeypatch, op18, dual)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("level", [12, 15])
def test_step_is_one_apply_in_one_block_and_in_two(table18, monkeypatch,
                                                   level, dual):
    # complex level 12: 2^10 pairs, one block of the primal step; level 15:
    # 2^13 pairs, two blocks
    _one_apply_per_step(monkeypatch, TransferOperator(DELTA18, table18, level),
                        dual)


def _cw_spread_one_thread(u, v, q=1.0):
    """The check as one pass over an n-word ratio array."""
    if not v.min() > 0.0:
        return math.inf, None
    ratio = u / v
    r_lo = ratio.min()
    if not (r_lo > 0.0 and ratio.max() < math.inf):
        return math.inf, None
    return (float(ratio.max() / r_lo - 1.0),
            int(np.argmax(np.abs(ratio - q))))


@pytest.mark.usefixtures("split")
def test_split_cw_spread_bit_identical(op18):
    n = op18.size
    rng = np.random.default_rng(19)
    v = rng.random(n) + 0.5
    u = v * (1.0 + 1e-9 * rng.standard_normal(n))
    spread, word = transfer._cw_spread(u, v, 1.0)
    assert 0.0 < spread < 1e-7
    assert (spread, word) == _cw_spread_one_thread(u, v)
    # +inf for a zero, negative, NaN or infinite entry in either half and
    # on either side of a chunk boundary; u and v both negative gives a
    # positive ratio that only the check on v catches
    for i in (3, transfer.CW_CHUNK - 1, transfer.CW_CHUNK, n // 2 + 5, n - 1):
        for ui, vi in [(u[i], 0.0), (0.0, 0.0), (-1.0, -1.0), (1.0, -1.0),
                       (0.0, v[i]), (-1.0, v[i]), (math.nan, v[i]),
                       (math.inf, v[i]), (u[i], math.nan)]:
            uu, vv = u.copy(), v.copy()
            uu[i], vv[i] = ui, vi
            assert transfer._cw_spread(uu, vv, 1.0) == (math.inf, None), \
                (i, ui, vi)
            assert _cw_spread_one_thread(uu, vv) == (math.inf, None)


@pytest.mark.usefixtures("split")
def test_split_cw_watched_word_bit_identical(op18):
    # the word whose u/v lies relatively farthest from q comes out the same
    # split and unsplit: in either half, next to a chunk boundary, and on
    # ties, where the lowest word wins, the lower half first
    n = op18.size
    rng = np.random.default_rng(21)
    v0 = rng.random(n) + 0.5
    u0 = v0 * (1.0 + 1e-9 * rng.standard_normal(n))
    # exact ratios, 2^-20 on either side of q = 1
    lo, hi = 1.0 - 2.0 ** -20, 1.0 + 2.0 ** -20
    c, h = transfer.CW_CHUNK, n // 2
    cases = [({5: hi}, 5), ({n - 1: lo}, n - 1),
             ({c - 1: hi, c: 1.0 - 2.0 ** -19}, c),
             ({h + 3: hi, 7: hi}, 7), ({h + 3: lo, 7: lo}, 7),
             ({h - 1: hi, h: hi}, h - 1), ({h + 9: lo, 9: hi}, 9),
             ({11: lo, h + 1: hi}, 11), ({h + 2: lo, h + 1: hi}, h + 1)]
    for case, expected in cases:
        u, v = u0.copy(), v0.copy()
        for i, r in case.items():
            u[i], v[i] = r, 1.0
        assert transfer._cw_spread(u, v, 1.0)[1] == expected, case
        for q in (1.0, float(u.sum() / v.sum())):
            assert (transfer._cw_spread(u, v, q)
                    == _cw_spread_one_thread(u, v, q)), (case, q)


@pytest.mark.usefixtures("split")
def test_split_aitken_pass_bit_identical(op18):
    n = op18.size
    rng = np.random.default_rng(20)
    u, v = rng.random(n) + 0.5, rng.random(n) + 0.5
    s, s_old = u.sum(), v.sum()
    for rho in (0.93, -0.6):
        u_ref, v_ref = u / s, v / s_old
        transfer._remove_mode(u_ref, v_ref, rho)
        uu, vv = u.copy(), v.copy()
        total = sum(transfer._halves(transfer._aitken_pass, (uu, vv), s,
                                     s_old, rho))
        assert np.array_equal(uu, u_ref) and np.array_equal(vv, v_ref)
        assert total == u_ref.sum()


@pytest.mark.usefixtures("split")
def test_split_weights_and_normalisation_bit_identical(op18):
    for tau in (1.0754, 2.0):
        assert np.array_equal(op18.weights(tau), np.exp(-tau * op18.log_deriv))
    u = np.random.default_rng(21).random(op18.size)
    s = u.sum()
    x = u.copy()
    transfer._halves(transfer._divide, (x,), s)
    assert np.array_equal(x, u / s)


@pytest.mark.usefixtures("split")
def test_split_extrapolated_start_bit_identical(op18):
    n = op18.size
    rng = np.random.default_rng(22)
    v0, v1 = rng.random(n) + 1.0, rng.random(n) + 1.0
    v0 /= v0.sum()
    v1 /= v1.sum()
    u = transfer._start_vector([(1.0, v0), (1.5, v1)], 1.7, None)
    assert np.array_equal(u, (v1 - v0) * ((1.7 - 1.5) / (1.5 - 1.0)) + v1)
    # an entry <= 0 in the upper half only: the last vector
    v0[n - 1] = 10.0 * v1[n - 1]
    u = (v1 - v0) * ((1.6 - 1.5) / (1.5 - 1.0)) + v1
    assert np.flatnonzero(u <= 0.0).tolist() == [n - 1]
    u = transfer._start_vector([(1.0, v0), (1.5, v1)], 1.6, None)
    assert u is not v1 and np.array_equal(u, v1)


@pytest.mark.usefixtures("split")
def test_rescale_is_exact(op18, table18, monkeypatch):
    # the power-of-two rescale changes no bit: a window of 2^+-2, which
    # rescales every few steps, against the default one, with the Aitken
    # step switched off (tau = 1.4) and firing (tau = 2, equilibrium)
    rescales = _count_calls(monkeypatch, "_rescale")
    aitken = _count_calls(monkeypatch, "_remove_mode")

    def runs():
        out, counts = [], []
        for run in [lambda: _without_aitken(monkeypatch, op18._perron,
                                            op18.weights(1.4)),
                    lambda: op18._perron(op18.weights(2.0)),
                    lambda: equilibrium(DELTA18, 1.4, table18)]:
            rescales[0] = aitken[0] = 0
            out.append(run())
            counts.append((rescales[0], aitken[0]))
        return out, counts
    (plain, fired, eq), counts = runs()
    assert [a > 0 for _, a in counts] == [False, True, True]
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
    lam, u = _without_aitken(monkeypatch, op18._perron, op18.weights(1.4),
                             2.0 ** 600 * u0)
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
    """``fn(*args)`` with the Aitken step switched off: the plain loop. No
    two ratio estimates agree within a negative tolerance."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "AITKEN_RATIO_AGREE", -1.0)
        return fn(*args)


def _full_log_deriv(delta, table):
    """The operator's endpoint-averaged log|Df| on all words of the table's
    level, restated here: a real delta is not folded."""
    ld = np.log(np.abs(maps.evaluate_deriv(complex(delta), table.points)))
    return 0.5 * (ld + np.roll(ld, -1))


def _dense(w):
    """The operator on all ``len(w)`` words as a dense matrix, ``w`` in
    word order."""
    n = len(w)
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


# tau = 2 and 2.5 at small complex delta, where plain iteration crawls
@pytest.mark.parametrize("delta", [0.02 + 0.03j, 0.05 + 0.05j, 0.15 + 0.05j])
@pytest.mark.parametrize("tau", [2.0, 2.5])
def test_perron_aitken_matches_dense_eigenvalue(delta, tau, monkeypatch,
                                                applications):
    op = TransferOperator(delta, build_table(delta, 10))
    w = op.weights(tau)
    a = _dense(w)
    ev = np.linalg.eigvals(a)
    lam_dense = ev[np.argmax(ev.real)].real
    lam, u = op._perron(w)
    steps = applications[0]
    applications[0] = 0
    _without_aitken(monkeypatch, op._perron, w)
    assert steps < applications[0]      # the step fired
    assert abs(lam - lam_dense) <= 1e-12 * lam_dense
    assert np.all(u > 0)
    # the dual solve behind equilibrium's mass vector takes the step too,
    # and lands on the dense left eigenvector
    aitken = _count_calls(monkeypatch, "_remove_mode")
    _, mu = op._perron(w, dual=True)
    assert aitken[0] > 0
    om = op.conformal(mu, w)
    ev, vecs = np.linalg.eig(a.T)
    om_dense = vecs[:, np.argmax(ev.real)].real
    om_dense /= om_dense.sum()
    assert np.all(np.abs(om - om_dense) <= 2e-9 * om_dense)


# the four cases where the uncertified stop rule ended early, against
# dense eig: at the first one it was 2.7e-8 off; and a real delta near the
# parabolic point. The dense matrix acts on all words with weights formed
# here, so at real delta it checks the folded operator against the one it
# stands for, eigenvectors unfolded
@pytest.mark.parametrize("delta, tau", [(0.4 + 0.7j, 1.75), (0.5 + 0.5j, 2.5),
                                        (0.9, 2.0), (0.688 + 0.580j, 2.0),
                                        (0.05, 1.2)])
def test_perron_certified_against_dense_eigenvalue(delta, tau):
    table = build_table(delta, 10)
    op = TransferOperator(delta, table)
    assert op.size == (256 if delta.imag == 0 else 512)
    a = _dense(np.exp(-tau * _full_log_deriv(delta, table)))
    for dual in (False, True):
        ev, vecs = np.linalg.eig(a.T if dual else a)
        k = np.argmax(ev.real)
        lam_dense = ev[k].real
        vec = vecs[:, k].real / vecs[:, k].real.sum()
        w = op.weights(tau)
        lam, u = op._perron(w, dual=dual)
        assert abs(lam - lam_dense) <= 1e-12 * lam_dense
        assert np.all(u > 0)
        x = op.conformal(u, w) if dual else op.expand(u)
        assert np.all(np.abs(op.unfold(x) - vec) <= VEC_RTOL * vec)


def test_iteration_budget(monkeypatch):
    # every Perron solve, primal and dual, stops at EIG_MAXIT steps, and
    # says how far it got
    table = build_table(0.3, 10)
    op = TransferOperator(0.3, table)
    monkeypatch.setattr(transfer, "EIG_MAXIT", 3)
    report = (r"in 3 steps: Collatz-Wielandt spread (\S+), "
              r"ratio estimate (\S+)$")
    with pytest.raises(NoConvergenceError, match=report) as err:
        op.pressure(1.2)
    spread, ratio = re.search(report, str(err.value)).groups()
    assert 0.0 < float(spread) < math.inf and 0.0 < float(ratio) < 1.0
    with pytest.raises(NoConvergenceError, match=report):
        op._perron(op.weights(1.2), dual=True)
    with pytest.raises(NoConvergenceError, match=report):
        equilibrium(0.3, 1.2, table)


class _Matrix:
    """Stands in for the operator in ``_perron``: multiplies by the matrix
    ``a`` (``apply``) or by its transpose (``apply_dual``)."""

    def __init__(self, a):
        self.a = a
        self.size = len(a)

    def apply(self, u, w, out):
        return np.dot(self.a, u, out=out).sum()

    def apply_dual(self, u, w, out):
        return np.dot(self.a.T, u, out=out).sum()


def test_perron_does_not_stop_on_one_rounding_level_change():
    # a nonnegative matrix with eigenvalues 1, 0.9, -0.6 and -0.55: the
    # symmetric one on the order-4 Hadamard basis, under a positive diagonal
    # similarity so that its sums see every mode; the start vector is tuned
    # so that the first two eigenvalue estimates, near 1.0049, differ by one
    # ulp; the eigenvalue is 1. That change proposes a stop, which the
    # Collatz-Wielandt check refuses
    h = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1],
                  [1, -1, -1, 1]]) / 2.0
    p = np.arange(1.0, 5.0)
    a = (h.T @ np.diag([1.0, 0.9, -0.6, -0.55]) @ h) * np.outer(p, 1.0 / p)
    assert np.all(a > 0)
    u0 = np.array([1.0, 1.0, 1.0, 3.344136008389392])
    sums = [u0.sum()]
    v = u0
    for _ in range(2):
        v = a @ v
        sums.append(v.sum())
    lam1, lam2 = sums[1] / sums[0], sums[2] / sums[1]
    assert 0.0 < abs(lam2 - lam1) <= transfer.ROUNDING_RTOL * lam2
    lam, _ = TransferOperator._perron(_Matrix(a), None, u0)
    assert abs(lam - 1.0) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: hnp.arrays(float, (n, n), elements=st.floats(1e-3, 1.0))))
def test_perron_matches_dense_on_positive_matrices(a):
    ev = np.linalg.eigvals(a)
    lam_dense = ev[np.argmax(ev.real)].real
    for dual in (False, True):
        lam, u = TransferOperator._perron(_Matrix(a), None, dual=dual)
        assert abs(lam - lam_dense) <= 1e-12 * lam_dense
        assert np.all(u > 0)


def test_perron_aitken_from_tau_one_vector(monkeypatch, applications):
    # the tau = 2 bracket end of a root solve, warm-started from tau = 1
    delta = 0.0433 + 0.025j
    op = TransferOperator(delta, build_table(delta, 14))
    _, u1 = op.pressure_with_state(1.0)
    applications[0] = 0
    # a solve iterates in its start, so each one starts from a copy of u1
    lam, u = op._perron(op.weights(2.0), u1.copy())
    assert applications[0] <= 250
    assert np.all(u > 0)
    # the slow mode sits below the rounding of the eigenvalue changes; only
    # the watched word sees it
    cw_spread = transfer._cw_spread
    with monkeypatch.context() as m:
        m.setattr(transfer, "_cw_spread",
                  lambda u, v, q: (cw_spread(u, v, q)[0], None))
        applications[0] = 0
        op._perron(op.weights(2.0), u1.copy())
    assert applications[0] > 600
    applications[0] = 0
    _without_aitken(monkeypatch, op._perron, op.weights(2.0), u1.copy())
    assert applications[0] > 5000
    # against the plain loop certified to 1e-14, just above its rounding
    # floor (a spread of 2.4e-15 here)
    lam_plain, _ = _without_aitken(monkeypatch, op._perron, op.weights(2.0),
                                   u1.copy(), 1e-14)
    assert abs(lam - lam_plain) <= 1e-12 * lam


def test_split_perron_aitken_bit_identical(op18, monkeypatch, applications):
    w = op18.weights(2.0)
    runs = []
    for split_from in (SPLIT_PAIR_SUMS, float("inf")):
        monkeypatch.setattr(transfer, "_SPLIT_FROM", split_from)
        applications[0] = 0
        runs.append((*op18._perron(w), applications[0]))
    (lam_s, u_s, n_s), (lam_u, u_u, n_u) = runs
    assert lam_s == lam_u and np.array_equal(u_s, u_u) and n_s == n_u
    applications[0] = 0
    _without_aitken(monkeypatch, op18._perron, w)
    assert n_s < applications[0]     # the step fired


def test_extrapolated_start():
    a, b = np.array([0.5, 0.5]), np.array([0.4, 0.6])
    assert transfer._start_vector([], 1.0, None) is None
    assert np.array_equal(transfer._start_vector([(1.0, a)], 2.0, None), a)
    u = transfer._start_vector([(1.0, a), (2.0, b)], 2.5, None)
    assert np.allclose(u, [0.35, 0.65], rtol=0, atol=1e-15)
    # an entry <= 0: the last vector
    assert np.array_equal(transfer._start_vector([(1.0, a), (2.0, b)], 7.0,
                                                 None), b)


def test_start_vector_is_the_solves_own():
    # a solve overwrites its start, so a vector that is read again, near's h
    # or the path's last, is handed over as a copy
    a, b, h = np.array([0.5, 0.5]), np.array([0.4, 0.6]), np.array([0.3, 0.7])
    assert transfer._start_vector([], 1.0, None) is None
    u = transfer._start_vector([], 1.0, h)
    assert u is not h and np.array_equal(u, h)
    path = [(1.0, a)]
    u = transfer._start_vector(path, 2.0, h)
    assert u is not a and np.array_equal(u, a) and path == [(1.0, a)]
    # an entry <= 0: a copy of the last vector; the older one is spent
    path = [(1.0, a), (2.0, b)]
    u = transfer._start_vector(path, 7.0, h)
    assert u is not b and np.array_equal(u, b)
    assert len(path) == 1 and path[0][1] is b
    path = [(1.0, a), (2.0, b)]
    u = transfer._start_vector(path, 2.5, h)
    assert np.allclose(u, [0.35, 0.65], rtol=0, atol=1e-15)
    assert len(path) == 1 and path[0][1] is b


def _root_path(op, near=None):
    """Root of ``_bowen_root`` from ``near`` and the taus it evaluates the
    pressure at."""
    taus = []
    state = op.pressure_with_state

    def recorded(tau, u0=None, rtol=transfer.EIG_RTOL):
        taus.append(tau)
        return state(tau, u0, rtol)
    op.pressure_with_state = recorded
    try:
        return transfer._bowen_root(op, near)[0], taus
    finally:
        del op.pressure_with_state


@pytest.mark.parametrize("delta", [0.4 / math.sqrt(2),
                                   0.4 / math.sqrt(2) * complex(
                                       math.cos(0.5236), math.sin(0.5236))])
def test_bowen_root_path_unchanged_by_aitken(delta, monkeypatch):
    # every solve at EIG_RTOL: forced solves move the intermediate taus of
    # the two loops apart by up to about 3e-8, which is not the Aitken step
    monkeypatch.setattr(transfer, "FORCING", 0.0)
    op = TransferOperator(delta, build_table(delta, 16))
    root, taus = _root_path(op)
    root_plain, taus_plain = _without_aitken(monkeypatch, _root_path, op)
    assert len(taus) == len(taus_plain) == 7
    assert taus == pytest.approx(taus_plain, rel=0, abs=1e-12)
    assert root == pytest.approx(root_plain, rel=0, abs=1e-12)


_R = 1 / math.sqrt(2)


# d0's row 3, t = 0.4 / 2^1.5 as its grid makes it, is the closest call
# against PRESSURE_TOL
@pytest.mark.parametrize("delta, level", [
    (0.05, 16), (0.4 * _R * _R * _R, 16),
    (0.3 * complex(math.cos(0.5236), math.sin(0.5236)), 14), (0.8 + 0.3j, 12)])
def test_forced_root_path_matches_tight_path(delta, level, monkeypatch,
                                             applications):
    # forced solves take as many pressure evaluations as solves all at
    # EIG_RTOL, to a root within 5e-11, in fewer applications
    op = TransferOperator(delta, build_table(delta, level), level)
    root, taus = _root_path(op)
    forced = applications[0]
    applications[0] = 0
    with monkeypatch.context() as m:
        m.setattr(transfer, "FORCING", 0.0)
        root_tight, taus_tight = _root_path(op)
    assert len(taus) == len(taus_tight)
    assert root == pytest.approx(root_tight, rel=0, abs=5e-11)
    assert forced < applications[0]


@pytest.fixture
def solves(monkeypatch):
    """Records ``(rtol, start, vector)`` of every ``_perron`` call."""
    calls = []
    perron = TransferOperator._perron

    def recorded(self, w, u0=None, rtol=transfer.EIG_RTOL, *, dual=False):
        lam, u = perron(self, w, u0, rtol, dual=dual)
        calls.append((rtol, u0, u))
        return lam, u
    monkeypatch.setattr(TransferOperator, "_perron", recorded)
    return calls


def test_loose_pressure_near_zero_is_finished_tight(solves, monkeypatch):
    # a solve to 1e-6 at the root lands with |P| < SIGN_MARGIN * 1e-6: the
    # same call finishes it at EIG_RTOL from its own vector
    delta, level = 0.3 + 0.1j, 12
    op = TransferOperator(delta, build_table(delta, level), level)
    root = transfer._bowen_root(op)[0]
    evals = _count_calls(monkeypatch, "pressure_with_state", TransferOperator)
    pressures = _count_calls(monkeypatch, "pressure", TransferOperator)
    del solves[:]
    p, u = op.pressure_with_state(root, None, 1e-6)
    assert [r for r, _, _ in solves] == [1e-6, transfer.EIG_RTOL]
    assert solves[1][1] is solves[0][2] and u is solves[1][2]
    assert abs(p) <= transfer.PRESSURE_TOL
    assert evals[0] == 1 and pressures[0] == 0
    # away from the root the loose solve stands
    del solves[:]
    op.pressure_with_state(1.0, None, 1e-6)
    assert [r for r, _, _ in solves] == [1e-6]


@pytest.mark.parametrize("ptol", [transfer.PRESSURE_TOL, 1e-2])
def test_bowen_root_decides_on_certain_pressures(ptol, solves):
    # the sign of every P on the root path is certain, its last solve at
    # EIG_RTOL or to at most |P| / SIGN_MARGIN, and the accepted P is
    # certified at EIG_RTOL, also when ptol lies above that margin
    delta, level = 0.3 + 0.1j, 12
    op = TransferOperator(delta, build_table(delta, level), level)
    state = op.pressure_with_state
    evals = []

    def recorded(tau, u0=None, rtol=transfer.EIG_RTOL):
        del solves[:]
        p, u = state(tau, u0, rtol)
        evals.append((p, solves[-1][0]))
        return p, u
    op.pressure_with_state = recorded
    p = transfer._bowen_root(op, ptol=ptol)[1]
    assert evals[-1] == (p, transfer.EIG_RTOL)
    for p_tau, rtol in evals:
        assert (rtol == transfer.EIG_RTOL or
                abs(p_tau) >= transfer.SIGN_MARGIN * rtol)


class _Pressure:
    """Stands in for the operator in ``_bowen_root``: the pressure P(tau) =
    ``p(tau)``, with a uniform vector; records the taus in ``taus``."""

    def __init__(self, p):
        self.p = p
        self.taus = []

    def pressure_with_state(self, tau, u0=None, rtol=transfer.EIG_RTOL):
        self.taus.append(tau)
        return self.p(tau), np.full(4, 0.25)


@pytest.mark.parametrize("p", [lambda tau: -tau, lambda tau: 2.5 - tau])
def test_bowen_root_raises_bracket_failure(p):
    # P(1) <= 0, or P(2) > 0: no sign change on ROOT_BRACKET
    with pytest.raises(BracketFailureError, match="does not change sign"):
        transfer._bowen_root(_Pressure(p))


def test_bowen_root_stops_when_bracket_collapses():
    # a sign change with no root: the bracket closes in on the jump at 1.3
    # until it holds no float between its ends, and no tau is solved twice
    p = _Pressure(lambda tau: 0.5 if tau < 1.3 else -0.5)
    with pytest.raises(NoConvergenceError, match="holds no midpoint"):
        transfer._bowen_root(p)
    assert len(set(p.taus)) == len(p.taus)


# ---------------------------------------------------------------------------
# stencil roots started from the nearby ray point

def test_dprime_fd_from_near_state_matches_cold(applications, monkeypatch):
    level = 12
    cold_steps = warm_steps = 0
    for alpha in (0.0, 0.5236):
        for t in (0.4, 0.05):
            delta = t * complex(math.cos(alpha), math.sin(alpha))
            near = transfer.ray_point(delta, level).near
            applications[0] = 0
            # the cold stencil with every solve at EIG_RTOL, as the near
            # start's saving is measured against
            with monkeypatch.context() as m:
                m.setattr(transfer, "FORCING", 0.0)
                cold = transfer.dprime_fd(delta, level)
            cold_steps += applications[0]
            applications[0] = 0
            warm = transfer.dprime_fd(delta, level, near=near)
            warm_steps += applications[0]
            assert warm == pytest.approx(cold, rel=1e-7, abs=0), (alpha, t)
    assert 3 * warm_steps < cold_steps
    # and forced solves make it no dearer than with every solve at EIG_RTOL
    assert warm_steps <= 715


def test_dprime_fd_leaves_the_near_vector_unchanged():
    # each stencil root solves from a copy of RayPoint.h: the vector serves
    # both stencil points, and the caller's state stays as it was
    rp = transfer.ray_point(0.3 + 0.1j, 10)
    h = rp.h.copy()
    transfer.dprime_fd(0.3 + 0.1j, 10, near=rp.near)
    assert rp.h.tobytes() == h.tobytes()


def test_bowen_root_from_distant_state_finds_cold_root():
    # a state taken at delta = 0.8 and used at 0.05 reaches the cold root in
    # fewer pressure evaluations than the cold start
    level = 12
    far = transfer.ray_point(0.8, level).near
    for delta in transfer.fd_stencil(0.05):
        op = TransferOperator(delta, build_table(delta, level), level)
        cold, cold_taus = _root_path(op)
        found, taus = _root_path(op, far)
        assert found == pytest.approx(cold, rel=0, abs=1e-12)
        assert len(taus) < len(cold_taus)


def test_bowen_root_from_bad_state_reaches_root():
    # a Newton step far too long (chi = 1e-3) or far too short (chi = 1e3)
    # from tau 0.05 off the root: the bracket and the secant steps still
    # reach |P| <= PRESSURE_TOL within six evaluations
    delta, level = 0.3 + 0.1j, 10
    op = TransferOperator(delta, build_table(delta, level), level)
    tau, _, h = transfer._bowen_root(op)
    cold = transfer.dprime_fd(delta, level)
    for chi in (1e-3, 1e3):
        near = (tau + 0.05, h, chi)
        root, taus = _root_path(op, near)
        assert len(taus) <= 6
        assert abs(op.pressure(root)) <= transfer.PRESSURE_TOL
        warm = transfer.dprime_fd(delta, level, near=near)
        assert warm == pytest.approx(cold, rel=1e-7, abs=0)
