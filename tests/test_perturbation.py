import math

import numpy as np
import pytest

from juliadim import maps, perturbation
from juliadim.boettcher import DyadicAngle, anchor_point, build_table
from juliadim.errors import PoleError


def test_g_values():
    assert perturbation.g_fn(0.0) == 0.0
    assert perturbation.g_fn(1.0) == pytest.approx(math.exp(-1.0))
    # series-direct agreement near the crossover, where both paths hold
    # 12+ digits (below it the direct difference is the noisy one)
    for r in (5e-3, 2e-2):
        z = r * np.exp(0.3j)
        direct = np.expm1(-z) + z
        assert abs(perturbation.g_fn(z) - direct) < 1e-12 * abs(direct)


def test_g_nonvanishing_right_half_plane():
    rng = np.random.default_rng(21)
    for _ in range(100):
        z = complex(abs(rng.normal(0, 5)) + 1e-3, rng.normal(0, 5))
        assert perturbation.g_fn(z) != 0


def test_gamma_values():
    assert perturbation.gamma_fn(0.0) == -0.5
    z = 1e-4
    approx = z / 3.0
    actual = perturbation.one_plus_two_gamma(z)
    assert abs(actual - approx) / abs(actual) < 1e-7


def test_gamma_pole_guard():
    with pytest.raises(PoleError):
        perturbation.gamma_fn(2j * np.pi)
    with pytest.raises(PoleError):
        perturbation.gamma_fn(-4j * np.pi + 1e-12)


def test_one_plus_two_gamma_on_array_equals_scalar_calls():
    # both sides of the series threshold, 0 included
    rng = np.random.default_rng(5)
    r = np.concatenate(([0.0], rng.uniform(0.0, 2.0, 100)
                        * perturbation.GAMMA_SERIES_THRESHOLD,
                        rng.uniform(0.0, 8.0, 100)))
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
    vals = perturbation.one_plus_two_gamma(z)
    assert vals.shape == z.shape
    assert np.array_equal(vals, [perturbation.one_plus_two_gamma(complex(x))
                                 for x in z])
    assert perturbation.one_plus_two_gamma(0.0) == 0.0


def test_gamma_on_array_equals_scalar_calls():
    # bit for bit on both sides of the series threshold, 0 included, and of
    # the Re z > 0.5 branch
    rng = np.random.default_rng(6)
    t = perturbation.GAMMA_SERIES_THRESHOLD
    r = np.concatenate(([0.0], rng.uniform(0.0, 2.0 * t, 100),
                        rng.uniform(0.0, 8.0, 100)))
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
    near_half = rng.uniform(0.4, 0.6, 100) + 1j * rng.uniform(-3, 3, 100)
    z = np.concatenate((z, near_half))
    series = np.abs(z) < t
    assert series.sum() > 20 and (~series).sum() > 20
    assert (z.real > 0.5).sum() > 20 and (~series & (z.real <= 0.5)).sum() > 20
    vals = perturbation.gamma_fn(z)
    assert vals.shape == z.shape
    scalar = np.array([perturbation.gamma_fn(complex(x)) for x in z])
    assert vals.tobytes() == scalar.tobytes()
    grid = perturbation.gamma_fn(z[1:].reshape(4, -1))
    assert grid.shape == (4, 75) and grid.tobytes() == vals[1:].tobytes()
    assert perturbation.gamma_fn(0.0) == -0.5


def test_gamma_pole_guard_on_array():
    z = np.array([1.0, 0.5j, -4j * np.pi + 0.5 * perturbation.POLE_GUARD])
    with pytest.raises(PoleError):
        perturbation.gamma_fn(z)


def test_one_plus_two_gamma_pole_guard_on_array():
    z = np.array([1.0, 0.5j, 2j * np.pi + 0.5 * perturbation.POLE_GUARD, 3.0])
    with pytest.raises(PoleError):
        perturbation.one_plus_two_gamma(z)


def test_gamma_decay_on_ray():
    assert abs(perturbation.gamma_fn(1e3 * np.exp(1j * np.pi / 4))) < 1e-2


def test_gamma_matches_direct_form():
    rng = np.random.default_rng(22)
    for _ in range(500):
        z = complex(rng.uniform(0.01, 6), rng.uniform(-3, 3))
        direct = (np.exp(z) - z * np.exp(z) - 1.0) / (np.exp(z) - 1.0) ** 2
        assert abs(perturbation.gamma_fn(z) - direct) < 1e-11 * max(abs(direct), 1e-8)


def test_sinh_nonvanishing():
    assert perturbation.sinh_z_minus_z_nonvanishing(2.0, 10_000)
    assert perturbation.sinh_z_minus_z_nonvanishing(0.5, 2_000, floor=0.15)
    with pytest.raises(ValueError):
        perturbation.sinh_z_minus_z_nonvanishing(2.5)


def test_phi_dot_fixed_angle_is_zero():
    table = build_table(0.5, 8)
    res = perturbation.phi_dot_series(0.5, table, DyadicAngle(0, 0))
    assert res.value == 0.0


def test_phi_dot_half_angle_closed_form():
    # the landing point of angle 1/2 is -(1+delta); its derivative is -1
    for delta in (1.0, 0.5, 0.3 + 0.2j):
        table = build_table(delta, 8)
        res = perturbation.phi_dot_series(delta, table, DyadicAngle(1, 1))
        assert res.value == pytest.approx(-1.0, abs=1e-12)
        assert res.trunc_error < 1e-6


def test_phi_dot_doubling_recursion():
    delta = 0.35 * np.exp(1j * 0.3)
    table = build_table(delta, 10)
    rng = np.random.default_rng(23)
    for k in rng.integers(1, 1 << 10, 30):
        s = DyadicAngle(int(k), 10)
        v1 = perturbation.phi_dot_series(delta, table, s).value
        v2 = perturbation.phi_dot_series(delta, table, s.doubled()).value
        fp = maps.evaluate_deriv(delta, table.points[s.numerator << (10 - s.level)])
        assert abs((v1 + 0.5) - ((delta / 2.0) / fp + (v2 + 0.5) / fp)) < 1e-10


def test_phi_dot_against_finite_difference():
    delta, h = 0.4, 1e-5
    base = build_table(delta, 9)
    plus = build_table(delta + h, 9)
    minus = build_table(delta - h, 9)
    fd = (plus.points - minus.points) / (2.0 * h)
    rng = np.random.default_rng(24)
    for k in rng.integers(1, 1 << 9, 25):
        val = perturbation.phi_dot_series(delta, base, DyadicAngle(int(k), 9)).value
        assert abs(val - fd[int(k)]) < 1e-4


def test_phi_dot_table_matches_scalar():
    # the recursion against the orbit series wherever the series is exact
    for delta, level in ((0.3 + 0.1j, 9), (0.05 * np.exp(0.5236j), 14),
                         (0.05, 16)):
        table = build_table(delta, level)
        vec = perturbation.phi_dot_table(delta, table)
        n = table.size
        ks = [0, 1, 7, n // 4, n // 2, n // 2 + 1, n - 1]
        ks += np.random.default_rng(level).integers(1, n, 40).tolist()
        exact = 0
        for k in ks:
            res = perturbation.phi_dot_series(delta, table, DyadicAngle(k, level))
            if res.trunc_error == 0:
                exact += 1
                assert abs(vec[k] - res.value) < 1e-12
        assert exact >= 5


def test_phi_dot_ray_independent():
    # complex differentiability: finite differences along two approach
    # directions give the same derivative
    delta = 0.4
    level = 9
    base = build_table(delta, level)
    h = 1e-5
    horiz = (build_table(delta + h, level).points
             - build_table(delta - h, level).points) / (2.0 * h)
    vert = (build_table(delta + 1j * h, level).points
            - build_table(delta - 1j * h, level).points) / (2j * h)
    assert np.max(np.abs(horiz - vert)) < 1e-4


def test_psi_dot_close_to_phi_dot_on_deep_cylinders():
    # the tail of the full series is the remainder over Df^n, so the two
    # derivatives approach each other deep in the cylinder range
    delta = 0.15
    table = build_table(delta, 14)
    devs = []
    for n in (4, 8, 11):
        z = anchor_point(table, n)
        full = perturbation.phi_dot_series(delta, table, DyadicAngle(1, n + 1)).value
        part = perturbation.psi_dot(delta, n, z).value
        devs.append(abs(full - part))
    assert devs[-1] < 0.2
    assert devs[-1] < devs[0]


def test_psi_dot_two_forms_agree():
    delta = 0.2 * np.exp(1j * np.pi / 8)
    table = build_table(delta, 14)
    for n in (4, 7, 10):
        z = anchor_point(table, n)
        res = perturbation.psi_dot(delta, n, z)
        assert res.agreement < 1e-10


def test_psi_dot_tracks_gamma():
    from juliadim.transfer import backward_anchor_tower
    delta = 0.02 * np.exp(1j * np.pi / 6)
    table = build_table(delta, 10)
    tower = backward_anchor_tower(delta, table, 1, 120)
    for n in (30, 60, 80):
        z = complex(tower[n - 1])
        val = perturbation.psi_dot(delta, n, z, agreement_tol=1e-6).value
        bound = math.exp(0.2 * n * abs(delta)) - 1.0 + 0.2
        assert abs(val / perturbation.gamma_fn(n * delta) - 1.0) < bound
