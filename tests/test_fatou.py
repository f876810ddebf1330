import math

import numpy as np
import pytest

from juliadim import fatou
from juliadim.errors import BranchCutError, PoleError


def psi_at_minus_n(delta: complex, n):
    """psi(delta, -n) = delta/(exp(n*delta) - 1), vectorized over n >= 1:
    the anchor values the landing anchors approach."""
    delta = complex(delta)
    n = np.asarray(n, dtype=float)
    if delta == 0:
        out = 1.0 / n
    else:
        out = delta / np.expm1(n * (delta + 0j))
    return out if out.shape else complex(out)


def test_psi_limit_values():
    assert fatou.psi(0.0, -1.0) == pytest.approx(1.0)
    assert fatou.psi(math.log(2.0), -1.0) == pytest.approx(math.log(2.0))


def test_psi_uniform_limit_on_sector():
    rng = np.random.default_rng(11)
    for _ in range(500):
        r = math.exp(rng.uniform(math.log(1e-2), math.log(1e5)))
        psis = rng.uniform(3 * np.pi / 4 + 1e-3, 5 * np.pi / 4 - 1e-3)
        w = r * np.exp(1j * psis)
        assert abs(fatou.psi(1e-8, w) - (-1.0 / w)) < 1e-6


def test_psi_pole_guard():
    with pytest.raises(PoleError):
        fatou.psi(0.0, 0.0)
    with pytest.raises(PoleError):
        fatou.psi(0.1, 2j * np.pi / 0.1)


def test_phi_values():
    assert fatou.phi_fatou(0.0, 1.0) == pytest.approx(-1.0)
    delta = 0.1 * np.exp(1j * np.pi / 6)
    z = fatou.psi(delta, -5.0)
    assert fatou.phi_fatou(delta, z) == pytest.approx(-5.0, abs=1e-10)


def test_phi_branch_cut():
    with pytest.raises(BranchCutError):
        fatou.phi_fatou(0.1, -0.1)  # z = -delta
    with pytest.raises(BranchCutError):
        fatou.phi_fatou(0.0, 0.0)


def test_round_trip_random():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        t = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        delta = t * np.exp(1j * rng.uniform(-1.3, 1.3))
        w = complex(-np.exp(rng.uniform(0, np.log(200)))
                    * np.exp(1j * rng.uniform(-0.6, 0.6)))
        if abs((w * delta).imag) > 2.5:
            continue
        z = fatou.psi(delta, w)
        assert abs(fatou.psi(delta, fatou.phi_fatou(delta, z)) - z) < 1e-10 * abs(z)


def test_psi_prime_values():
    assert fatou.psi_prime(0.0, -2.0) == pytest.approx(0.25)
    delta = 0.2 + 0.1j
    n = np.arange(1, 40)
    closed = (delta / np.expm1(n * (delta + 0j))) ** 2 * np.exp(n * (delta + 0j))
    lib = np.array([fatou.psi_prime(delta, -k) for k in n])
    assert np.max(np.abs(lib - closed) / np.abs(closed)) < 1e-12


def test_anchor_value_closed_form():
    delta = 0.15 + 0.05j
    n = np.arange(1, 30)
    closed = delta / np.expm1(n * (delta + 0j))
    lib = psi_at_minus_n(delta, n)
    assert np.max(np.abs(lib - closed) / np.abs(closed)) < 1e-13
    assert psi_at_minus_n(0.0, 4) == pytest.approx(0.25)


def test_anchors_approach_coordinate_values():
    # landing anchors z_n sit near psi(-n) once the coordinate drift fades
    from juliadim.boettcher import build_table
    from juliadim.transfer import backward_anchor_tower
    delta = 0.01
    table = build_table(delta, 10)
    tower = backward_anchor_tower(delta, table, 8, 200)
    for n in (60, 120, 200):
        ref = psi_at_minus_n(delta, n)
        assert abs(tower[n - 8] / ref - 1.0) < math.exp(0.2 * n * delta) - 1.0 + 0.2


def test_psi_prime_ratio_identity():
    rng = np.random.default_rng(13)
    for _ in range(300):
        delta = complex(*rng.normal(0, 0.3, 2))
        w, wt = (complex(*rng.normal(0, 5, 2)) for _ in range(2))
        try:
            lhs = fatou.psi_prime(delta, wt) / fatou.psi_prime(delta, w)
        except PoleError:
            continue
        rhs = (np.sinh(w * delta / 2.0) / np.sinh(wt * delta / 2.0)) ** 2
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)


def test_step_translation_at_zero():
    val = fatou.fatou_step(0.0, -1e6, fatou.Direction.BWD)
    assert abs(val - (-1e6 - 1.0)) < 1e-4


def test_step_near_translation_small_delta():
    delta = 0.02 * np.exp(1j * np.pi / 6)
    w0 = complex(-12.0 + 1.0j)
    w = w0
    for n in range(1, 101):
        w = fatou.fatou_step(delta, w, fatou.Direction.BWD)
        assert abs(w - (w0 - n)) < 0.1 * n


def test_step_fwd_bwd_inverse():
    delta = 0.15 * np.exp(1j * 0.5)
    w = complex(-12.0, 2.0)
    back = fatou.fatou_step(delta, w, fatou.Direction.BWD)
    assert abs(fatou.fatou_step(delta, back, fatou.Direction.FWD) - w) < 1e-10


def test_sector_membership():
    contains = fatou.sector_contains
    s_plus = fatou.Sector(fatou.Sector.PLUS, np.pi / 4)
    assert contains(s_plus, complex(1.0, 0.5))
    s_minus = fatou.Sector(fatou.Sector.MINUS, np.pi / 4)
    assert contains(s_minus, complex(-3.0, 1.0))
    assert contains(s_minus, complex(-3.0, -1.0))
    cut = fatou.Sector(fatou.Sector.PLUS, np.pi / 4, cutoff=2.0)
    assert not contains(cut, complex(1.0, 0.0))
    bounded = fatou.Sector(fatou.Sector.PLUS, np.pi / 4, r=1.0)
    assert not contains(bounded, complex(2.0, 0.1))


def test_w_region():
    assert fatou.w_region_contains(np.pi / 4, 1.0)
    assert fatou.w_region_contains(np.pi / 3, 0.2)  # 0.2 > cot(pi/3)/4 = 0.1443
    assert not fatou.w_region_contains(np.pi / 6, 0.2)  # Re <= 1/4
    with pytest.raises(ValueError):
        fatou.w_region_contains(0.0, 1.0)
