import numpy as np
import pytest

from juliadim import maps
from juliadim.errors import AmbiguousBranchError


def _eps(delta):
    return -delta * delta / 4.0


def test_delta_from_epsilon_round_trip():
    delta = 0.25 * np.exp(1j * 0.4)
    assert maps.delta_from_epsilon(_eps(delta)) == pytest.approx(delta)


def test_plus_minus_delta_share_epsilon():
    for delta in (0.3 + 0.1j, 0.2 - 0.5j, 0.4, 0.3j):
        assert _eps(delta) == _eps(-delta)
        assert maps.delta_from_epsilon(_eps(-delta)) == maps.delta_from_epsilon(_eps(delta))


def test_delta_from_epsilon_root_choice():
    # Re(delta) >= 0, and on the imaginary axis (real eps > 0) the +i root,
    # whatever the sign of eps's zero imaginary part
    for eps in (0.25, complex(0.25, 0.0), complex(0.25, -0.0)):
        delta = maps.delta_from_epsilon(eps)
        assert type(delta) is complex
        assert delta == 1j
    assert maps.delta_from_epsilon(-0.09) == 0.6
    assert maps.delta_from_epsilon(_eps(-0.3 - 0.1j)) == pytest.approx(0.3 + 0.1j)
    assert maps.delta_from_epsilon(0.0) == 0.0


def test_evaluate_fixed_points():
    assert maps.evaluate(0.0, 0.0) == 0.0
    assert maps.evaluate(1.0, -1.0) == -1.0   # fixed point -delta


def test_evaluate_deriv():
    assert maps.evaluate_deriv(0.0, 0.0) == 1.0
    assert maps.evaluate_deriv(0.2, 0.0) == pytest.approx(1.2)
    assert maps.evaluate_deriv(1.0, maps.critical_point(1.0)) == 0.0


def test_fixed_points_and_multipliers():
    delta = 0.3 + 0.1j
    for z in (0.0j, -delta):    # the fixed points 0 and -delta
        assert maps.evaluate(delta, z) == pytest.approx(z)
    assert maps.evaluate_deriv(delta, 0.0) == pytest.approx(1.3 + 0.1j)
    assert maps.evaluate_deriv(delta, -delta) == pytest.approx(0.7 - 0.1j)


def test_conjugation_to_p():
    # tau(z) = z + (1+delta)/2 carries f_delta to p_eps(z) = z^2 + 1/4 + eps
    # exactly at eps = -delta^2/4
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        z = complex(*rng.normal(0, 2, 2))
        delta = complex(*rng.normal(0, 0.7, 2))
        eps = _eps(delta)
        lhs = maps.evaluate(delta, z) + (1.0 + delta) / 2.0
        w = z + (1.0 + delta) / 2.0
        rhs = w * w + 0.25 + eps
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_plus_minus_delta_orbit_correspondence():
    # f_{-delta}(z + delta) = f_delta(z) + delta: orbits shift by delta
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = complex(*rng.normal(0, 1, 2))
        delta = complex(*rng.normal(0, 0.5, 2))
        lhs = maps.evaluate(-delta, z + delta)
        rhs = maps.evaluate(delta, z) + delta
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_inverse_branch_examples():
    assert maps.inverse_branch(1.0, 0.0, 0.1) == pytest.approx(0.0)
    assert maps.inverse_branch(1.0, 0.0, -1.9) == pytest.approx(-2.0)


def test_inverse_branch_is_right_inverse():
    rng = np.random.default_rng(5)
    for _ in range(500):
        delta = complex(*rng.normal(0, 0.5, 2))
        z = complex(*rng.normal(0, 1.5, 2))
        hint = complex(*rng.normal(0, 1.5, 2))
        try:
            w = maps.inverse_branch(delta, z, hint)
        except AmbiguousBranchError:
            continue
        assert abs(maps.evaluate(delta, w) - z) < 1e-12 * max(1.0, abs(z))


def test_inverse_branch_ambiguity():
    # preimages of the image of the critical point +- r are symmetric about
    # the critical point; the midpoint hint is exactly equidistant
    c = maps.critical_point(0.5)
    with pytest.raises(AmbiguousBranchError):
        maps.inverse_branch(0.5, maps.evaluate(0.5, c + 0.3), c)


def test_inverse_eval_identity_on_branch():
    rng = np.random.default_rng(6)
    for _ in range(300):
        w = complex(*rng.normal(0, 1, 2))
        z = maps.evaluate(0.3, w)
        assert maps.inverse_branch(0.3, z, w) == pytest.approx(w)


def test_mandelbrot_membership():
    assert maps.in_mandelbrot(1.0)          # superattracting center
    assert maps.in_mandelbrot(0.0)          # parabolic boundary point
    assert not maps.in_mandelbrot(10.0, max_iter=50)


def test_mandelbrot_symmetry_in_delta():
    rng = np.random.default_rng(7)
    for _ in range(50):
        delta = complex(*rng.normal(0, 1.2, 2))
        assert maps.in_mandelbrot(delta, 300) == maps.in_mandelbrot(-delta, 300)


def test_mandelbrot_preconditions():
    with pytest.raises(ValueError):
        maps.in_mandelbrot(1.0, max_iter=0)


def test_main_disk():
    assert maps.in_main_disk(1.0)
    assert not maps.in_main_disk(0.0)       # boundary point excluded
    assert maps.in_main_disk(0.1 * np.exp(1j * np.pi / 4))


def _grid(region: str) -> list[complex]:
    """Test grids in delta that straddle the Mandelbrot boundary.

    "delta" and "eps" are the CLI's two families at 61x61.  "seahorse" is a
    71x71 box around c = -0.745+0.113i, where escape times hinge on the last
    bit of every step: a kernel on numpy complex arrays, which are not
    bit-identical to Python complex, flips a few of its points.
    """
    if region == "seahorse":
        center = complex(np.sqrt(4.0 * (0.25 - (-0.745 + 0.113j))))
        offsets = np.linspace(-5e-3, 5e-3, 71)
        return [center + complex(a, b) for a in offsets for b in offsets]
    if region == "delta":
        res = ims = np.linspace(-2.5, 2.5, 61)
    else:
        res, ims = np.linspace(-2.0, 0.5, 61), np.linspace(-1.25, 1.25, 61)
    pts = [complex(re, im) for re in res for im in ims]
    if region == "eps":
        pts = [maps.delta_from_epsilon(e) for e in pts]
    return pts


@pytest.mark.parametrize("region, max_iter", [
    ("delta", 1), ("delta", 300), ("eps", 1), ("eps", 300), ("seahorse", 2000)])
def test_mandelbrot_grid_matches_scalar(region, max_iter):
    deltas = _grid(region)
    fast = maps.in_mandelbrot_grid(deltas, max_iter)
    slow = np.array([maps.in_mandelbrot(d, max_iter) for d in deltas])
    assert fast.dtype == bool and fast.shape == (len(deltas),)
    assert np.array_equal(fast, slow)
    if max_iter > 1:
        assert 0 < fast.sum() < fast.size


def test_mandelbrot_grid_empty_and_preconditions():
    empty = maps.in_mandelbrot_grid([])
    assert empty.dtype == bool and empty.shape == (0,)
    with pytest.raises(ValueError):
        maps.in_mandelbrot_grid([1.0], max_iter=0)
